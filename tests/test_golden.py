"""Golden reports: fixed-seed CLI output pinned byte for byte.

Each case runs ``cli.main`` in-process and compares its stdout with the
stored file under ``tests/golden/``.  A refactor that changes no behaviour
leaves every file untouched.  After a deliberate change of output,
regenerate with ``PYTHONPATH=src python tests/test_golden.py`` and review
the diff.
"""

import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from sparsemult.cli import main
from sparsemult.construct import line_contact_construct
from sparsemult.jsonio import system_to_json
from sparsemult.lattice import SupportSet

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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CLI_CASES.items()):
        (GOLDEN / f"{name}.json").write_text(_cli_stdout(argv), encoding="utf-8")
    (GOLDEN / "line_contact_grid2x3.json").write_text(_line_contact_text(), encoding="utf-8")
    print(f"wrote {len(CLI_CASES) + 1} golden reports to {GOLDEN}", file=sys.stderr)
