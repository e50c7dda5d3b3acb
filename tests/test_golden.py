"""Golden reports: fixed-seed CLI output pinned byte for byte.

Each case runs ``cli.main`` in-process and compares its stdout with the
stored file under ``tests/golden/``.  A refactor that changes no behaviour
leaves every file untouched.  After a deliberate change of output,
regenerate with ``PYTHONPATH=src python tests/test_golden.py`` and review
the diff.
"""

import hashlib
import json
import random
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from sparsemult.cli import main
from sparsemult.construct import _draw_through_one, line_contact_construct
from sparsemult.jsonio import system_to_json
from sparsemult.lattice import SupportSet, is_convex_support

GOLDEN = Path(__file__).parent / "golden"

SQUARE = {"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
SIMPLEX = {"points": [[0, 0], [1, 0], [0, 1]]}
EXIM_B = {"points": [[0, 1], [3, 0], [4, 0]]}
QUAD = {"points": [[0, 0], [1, 0], [0, 1], [-1, -1]]}


def _req(**obj):
    return json.dumps(obj)


CLI_CASES = {
    "bounds_readme": ["bounds", "--json", _req(A=SQUARE, B=SIMPLEX)],
    "construct_m2": ["construct", "--json", _req(A=SQUARE, B=SIMPLEX, m=2)],
    "construct_m1_seed7": ["construct", "--json", _req(A=SQUARE, B=SIMPLEX, m=1),
                           "--seed", "7"],
    # route ii witness from the special-slope pass (s = 1/2, a pivot-minor root)
    "classify_exim": ["classify", "--json", _req(A=SIMPLEX, B=EXIM_B)],
    # route ii certified failure in both orientations (s^2 + s + 1 = 0)
    "classify_quad": ["classify", "--json", _req(A=QUAD, B=QUAD)],
    "classify_simplex": ["classify", "--json", _req(A=SIMPLEX, B=SIMPLEX)],
    # route iii: a triple root in the segment variable (h side)
    "classify_segment_h": ["classify", "--json", _req(
        A={"points": [[i, 0] for i in range(5)]}, B={"points": [[0, 0], [0, 1]]})],
    # route iii: a triple root across the levels of the other support (v side)
    "classify_segment_v": ["classify", "--json", _req(
        A={"points": [[0, 0], [1, 0]]}, B={"points": [[0, j] for j in range(5)]})],
    "triangle_readme": ["triangle", "--json", _req(points=[[0, 0], [2, 1], [1, 2]])],
    "univariate_l3": ["univariate", "--json", _req(exponents=[0, 1, 3, 7], l=3)],
    "univariate_l4": ["univariate", "--json", _req(exponents=[0, 1, 3, 7], l=4)],
    "reproduce_exim": ["reproduce", "exim"],
    "reproduce_ex3": ["reproduce", "ex3"],
    "reproduce_ex10": ["reproduce", "ex10"],
}

GRID_2X3 = SupportSet([(i, j) for i in range(2) for j in range(3)])


def _cli_stdout(argv):
    buf = StringIO()
    with redirect_stdout(buf):
        main(list(argv))
    return buf.getvalue()


def _nonconvex_corpus():
    """(A, B, seed) for 200 seeded pairs of non-convex supports, each of 5-12
    draws in [0, 4]^2, with seeds in [0, 64).  There D = |A| - dim V - 1 can
    fall below the erosion estimate, and in about one pair of six draw 0 on B
    is degenerate, so `bounds` reads a later draw than route i."""
    rng = random.Random(18)

    def draw():
        while True:
            S = SupportSet((rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(5, 12)))
            if not is_convex_support(S):
                return S

    corpus = []
    for _ in range(200):
        A, B = draw(), draw()
        corpus.append((A, B, rng.randrange(64)))
    return corpus


def _nonconvex_corpus_reports():
    """Exit code and stdout of `bounds` and `classify` on every corpus pair."""
    out = []
    for A, B, seed in _nonconvex_corpus():
        req = _req(A={"points": [list(p) for p in A.sorted_points()]},
                   B={"points": [list(p) for p in B.sorted_points()]})
        for command in ("bounds", "classify"):
            buf = StringIO()
            with redirect_stdout(buf):
                code = main([command, "--json", req, "--seed", str(seed)])
            out.append(f"{command} {code}\n{buf.getvalue()}")
    return out


def _nonconvex_corpus_digest(reports=None):
    text = "".join(_nonconvex_corpus_reports() if reports is None else reports)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _line_contact_text():
    # a generic slope (s = -11) succeeds on this grid
    return json.dumps(system_to_json(line_contact_construct(GRID_2X3, 3)), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert _cli_stdout(CLI_CASES[name]) == expected


def test_line_contact_golden():
    expected = (GOLDEN / "line_contact_grid2x3.json").read_text(encoding="utf-8")
    assert _line_contact_text() == expected


def test_nonconvex_corpus_pinned():
    # the reports are pinned by digest (re-record after a deliberate change of
    # output with `PYTHONPATH=src:tests python -c 'import test_golden as t;
    # print(t._nonconvex_corpus_digest())'`); the corpus must keep pairs
    # where the curves of `bounds`, route i and the constructor differ
    corpus = _nonconvex_corpus()
    degenerate = [_draw_through_one(B, random.Random(seed)) is None for _, B, seed in corpus]
    assert sum(degenerate) >= 20
    reports = _nonconvex_corpus_reports()
    bounds = [json.loads(r.split("\n", 1)[1]) for r in reports[::2]]
    refined = [b["D_refined"] != b["D_estimate"] for b in bounds]
    assert sum(refined) >= 10 and sum(d and r for d, r in zip(degenerate, refined)) >= 3
    pinned = (GOLDEN / "nonconvex_corpus.sha256").read_text(encoding="utf-8").split()[0]
    assert _nonconvex_corpus_digest(reports) == pinned


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CLI_CASES.items()):
        (GOLDEN / f"{name}.json").write_text(_cli_stdout(argv), encoding="utf-8")
    (GOLDEN / "line_contact_grid2x3.json").write_text(_line_contact_text(), encoding="utf-8")
    print(f"wrote {len(CLI_CASES) + 1} golden reports to {GOLDEN}", file=sys.stderr)
