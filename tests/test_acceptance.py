"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is zero; all checks are exact equalities or exact
certificates.  The heavier criteria (the 100-pair construction sweep and
the two atlases) run full size here; expect a few minutes of wall time.
"""

import hashlib
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction as F
from io import StringIO
from pathlib import Path

import pytest

from sparsemult.algebra import LaurentPolynomial
from sparsemult.branches import compute_dim_V
from sparsemult.cli import main
from sparsemult.construct import (
    build_line_product_system,
    construct_prescribed,
    construct_univariate,
)
from sparsemult.lattice import (
    SupportSet,
    convex_hull,
    erode,
    is_segment,
    lattice_points,
    primitivity_index,
)
from sparsemult.reproduce import (
    scenario_ex10,
    scenario_exim,
)
from sparsemult.verify import (
    Certificate,
    intersection_multiplicity_smooth,
    origin_multiplicity_line_product,
    rank_impossibility,
    univariate_multiplicity,
)


GOLDEN = Path(__file__).parent / "golden"


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}", flush=True)
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_1_univariate_sparse_roots():
    exps = [0, 1, 3, 7]
    ok = True
    for l in (0, 1, 2, 3):
        p = construct_univariate(exps, l)
        ok = ok and univariate_multiplicity(p, F(1)) == l
    cert = construct_univariate(exps, 4)
    ok = ok and isinstance(cert, Certificate)
    ok = ok and cert.transcript["determinant"] == 1008
    ok = ok and rank_impossibility(exps).transcript["determinant"] == 1008
    report(1, ok, "multiplicities 0..3 constructed and verified at t=1; "
                  "multiplicity 4 blocked by determinant 1008")


def test_criterion_2_contact_order_sweep():
    rng = random.Random(616)
    pairs = 0
    runs = 0
    failures = []
    while pairs < 100:
        na, nb = rng.randint(3, 8), rng.randint(3, 8)
        A = SupportSet({(rng.randrange(6), rng.randrange(6)) for _ in range(na)})
        B = SupportSet({(rng.randrange(6), rng.randrange(6)) for _ in range(nb)})
        if is_segment(A) or is_segment(B) or primitivity_index(A, B) != 1:
            continue
        d_est = len(A) - len(erode(convex_hull(A), B)) - 1
        if d_est < 1:
            continue
        pairs += 1
        for m in range(1, d_est + 1):
            runs += 1
            try:
                system = construct_prescribed(A, B, m, seed=rng.randint(0, 2**32), retries=16)
                observed = intersection_multiplicity_smooth(system.f, system.g, system.point)
                if observed != m:
                    failures.append((A, B, m, f"verifier saw {observed}"))
            except Exception as exc:  # any failure breaks the criterion
                failures.append((A, B, m, repr(exc)))
    report(2, not failures,
           f"{pairs} random support pairs, {runs} constructions, every order "
           f"from 1 to the pairing bound realized exactly ({len(failures)} failures)")


def test_criterion_3_dimension_bound():
    rng = random.Random(333)
    done = 0
    ok = True
    convex_hits = 0
    while done < 200:
        na = rng.randint(3, 9)
        A = SupportSet({(rng.randrange(5), rng.randrange(5)) for _ in range(na)})
        bpts = {(rng.randrange(3), rng.randrange(3)) for _ in range(rng.randint(2, 4))}
        if len(bpts) < 2:
            continue
        f = LaurentPolynomial({e: F(rng.randint(1, 9)) for e in bpts})
        dim, bound = compute_dim_V(A, f)
        ok = ok and dim <= bound
        if A == lattice_points(convex_hull(A)):
            convex_hits += 1
            ok = ok and dim == bound
        done += 1
    report(3, ok and convex_hits > 0,
           f"200 randomized instances: dimension within its erosion bound, "
           f"equality on all {convex_hits} convex supports")


def test_criterion_4_mixed_volume_four_pair():
    rep = scenario_exim()
    names = {c["name"]: c["pass"] for c in rep["checks"]}
    report(4, rep["ok"],
           "mixed volume 4, resultant identity exact, order-3 conditions on the "
           "reduced factor unsolvable, multiplicity-3 witness verified "
           f"({sum(names.values())}/{len(names)} checks)")


def test_criterion_5_gap_family():
    rep = scenario_ex10(3)
    report(5, rep["ok"],
           "n=3: multiplicities {1,2,3,4,6} realized and verified exactly; "
           "multiplicity 5 obstructed by the positive recursion (1,1,2,5)")


def test_criterion_6_line_products():
    ok = True
    for (n, k, l), expect in (((3, 2, 0), 6), ((4, 3, 2), 14), ((5, 4, 0), 20)):
        _, v, lines, claimed = build_line_product_system(n, k, l, seed=1729)
        got = origin_multiplicity_line_product(lines, v)
        ok = ok and got == expect == claimed
    report(6, ok, "origin multiplicities 6, 14, 20 verified by line sums")


def test_criterion_7_triangle_atlas():
    # one atlas run, through the CLI; its stdout is pinned by digest (re-record
    # after a deliberate change of output with
    # `PYTHONPATH=src python -m sparsemult.cli reproduce triangle-atlas | sha256sum`)
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(["reproduce", "triangle-atlas"])
    text = buf.getvalue()
    rep = json.loads(text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    pinned = (GOLDEN / "triangle_atlas_bound5.sha256").read_text(encoding="utf-8").split()[0]
    report(7, code == 0 and rep["ok"] and rep["bound"] == 5 and digest == pinned,
           f"{rep['triangles']} triangles classified, verdicts constant on "
           "projective orbits, catalogue matched with 0 mismatches, Hessian "
           f"anchors exact everywhere; report digest {digest[:12]} "
           f"(pinned {pinned[:12]})")



@pytest.mark.slow
def test_triangle_atlas_bound10_pinned():
    # criterion 7 on the [0, 10]^2 box, about 20 s; selected only by
    # `pytest -m slow`.  Re-record after a deliberate change of output with
    # `PYTHONPATH=src python -m sparsemult.cli reproduce triangle-atlas --bound 10 | sha256sum`
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(["reproduce", "triangle-atlas", "--bound", "10"])
    text = buf.getvalue()
    rep = json.loads(text)
    pinned = (GOLDEN / "triangle_atlas_bound10.sha256").read_text(encoding="utf-8").split()[0]
    assert code == 0 and rep["ok"] and rep["bound"] == 10
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pinned

def test_criterion_8_pair_atlas():
    # one atlas run, through the CLI; its stdout is pinned by digest (re-record
    # after a deliberate change of output with
    # `PYTHONPATH=src python -m sparsemult.cli reproduce th2-atlas | sha256sum`)
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(["reproduce", "th2-atlas"])
    text = buf.getvalue()
    rep = json.loads(text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    pinned = (GOLDEN / "th2_atlas_bound2.sha256").read_text(encoding="utf-8").split()[0]
    unwitnessed = rep["unwitnessed_count"]
    report(8, code == 0 and rep["ok"] and rep["bound"] == 2 and digest == pinned,
           f"{rep['pairs']} support pairs: impossibility coincides with the "
           f"exceptional catalogue; {rep['witnessed']} verified witnesses; "
           f"{unwitnessed} logged cases where every route was inapplicable or "
           f"certified failure; "
           f"report digest {digest[:12]} (pinned {pinned[:12]})")
