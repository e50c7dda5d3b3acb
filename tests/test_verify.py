"""The independent verifier: orders, derivative tables, line sums,
impossibility certificates and replays."""

import random
from fractions import Fraction as F

import pytest

from sparsemult import verify
from sparsemult.algebra import (
    LaurentPolynomial,
    TruncatedSeries,
    UnivariatePolynomial,
    sylvester_resultant,
)
from sparsemult.branches import BranchParametrization, branch_rungs, branch_series, is_multiple_of
from sparsemult.construct import build_line_product_system, construct_prescribed
from sparsemult.errors import InputError, VerificationError
from sparsemult.lattice import (
    SupportSet,
    convex_hull,
    erode,
    is_segment,
    mixed_volume,
    primitivity_index,
)
from sparsemult.verify import (
    NON_ISOLATED,
    intersection_multiplicity_smooth,
    origin_multiplicity_line_product,
    rank_impossibility,
    replay,
    segment_product_multiplicity,
    univariate_multiplicity,
)


# --- univariate orders ------------------------------------------------------------


def test_univariate_double_root():
    p = UnivariatePolynomial([-1, 1]) ** 2 * UnivariatePolynomial([2, 1])
    assert univariate_multiplicity(p, F(1)) == 2


def test_univariate_constant_and_power():
    assert univariate_multiplicity(UnivariatePolynomial([1]), F(5)) == 0
    assert univariate_multiplicity(UnivariatePolynomial([0, 0, 0, 1]), F(0)) == 3


def test_univariate_rejects_zero():
    with pytest.raises(InputError):
        univariate_multiplicity(UnivariatePolynomial([]), F(1))


# --- branch orders ------------------------------------------------------------------


def test_intersection_examples():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    g = LaurentPolynomial({(1, 1): 1, (0, 0): -1})
    assert intersection_multiplicity_smooth(f, g, (F(1), F(1))) == 2
    h = LaurentPolynomial({(1, 0): 1, (0, 1): -1})
    assert intersection_multiplicity_smooth(f, h, (F(1), F(1))) == 1
    assert intersection_multiplicity_smooth(f, f * F(2), (F(1), F(1))) == NON_ISOLATED


def test_intersection_rejects_off_curve_and_singular():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    with pytest.raises(InputError):
        intersection_multiplicity_smooth(f, f, (F(0), F(0)))
    node = LaurentPolynomial({(2, 0): 1, (0, 2): -1})
    with pytest.raises(InputError):
        intersection_multiplicity_smooth(node, f, (F(0), F(0)))


def test_intersection_symmetry_smooth_points():
    rng = random.Random(31)
    p = (F(1), F(1))
    count = 0
    while count < 15:
        f = LaurentPolynomial(
            {(0, 0): F(rng.randint(-5, 5)), (1, 0): F(rng.randint(-5, 5)), (0, 1): F(rng.randint(-5, 5)), (1, 1): F(rng.randint(-5, 5))}
        )
        g = LaurentPolynomial(
            {(0, 0): F(rng.randint(-5, 5)), (2, 0): F(rng.randint(-5, 5)), (0, 1): F(rng.randint(-5, 5))}
        )
        f = f - LaurentPolynomial({(0, 0): f.evaluate(p)})
        g = g - LaurentPolynomial({(0, 0): g.evaluate(p)})
        if f.is_zero() or g.is_zero():
            continue
        fy = f.partial("y").evaluate(p) != 0 or f.partial("x").evaluate(p) != 0
        gy = g.partial("y").evaluate(p) != 0 or g.partial("x").evaluate(p) != 0
        if not fy or not gy:
            continue
        a = intersection_multiplicity_smooth(f, g, p)
        b = intersection_multiplicity_smooth(g, f, p)
        assert a == b
        count += 1


def test_order_past_the_first_budget_doubles_the_truncation():
    # along x = 1 + y^k the branch of f, g = (x - 1)^2 has order 2k; with
    # 3 + 3 terms the budget n0 is 14, so k = 8 needs one doubling to 28
    g = LaurentPolynomial({(2, 0): 1, (1, 0): -2, (0, 0): 1})
    for k, order, truncation in ((8, 16, 28), (7, 14, 14)):
        f = LaurentPolynomial({(1, 0): 1, (0, k): -1, (0, 0): -1})
        m, cert = intersection_multiplicity_smooth(f, g, (F(1), F(0)), with_certificate=True)
        assert m == order
        assert cert.transcript == {"order": order, "leading_coefficient": F(1),
                                   "truncation": truncation, "free_variable": "y"}
        assert replay(cert).transcript == cert.transcript


def test_intersection_monotone_in_truncation():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    g = LaurentPolynomial({(1, 1): 1, (0, 0): -1})
    for n in (4, 9, 17, 30):
        br = branch_series(f, (F(1), F(1)), n)
        assert br.evaluate_poly(g).order() == 2


def test_verifier_reproduces_constructor_claims():
    rng = random.Random(32)
    checked = 0
    while checked < 20:
        na, nb = rng.randint(3, 6), rng.randint(3, 6)
        A = SupportSet({(rng.randrange(4), rng.randrange(4)) for _ in range(na)})
        B = SupportSet({(rng.randrange(4), rng.randrange(4)) for _ in range(nb)})
        if is_segment(A) or is_segment(B) or primitivity_index(A, B) != 1:
            continue
        d_est = len(A) - len(erode(convex_hull(A), B)) - 1
        if d_est < 1:
            continue
        m = rng.randint(1, min(d_est, 4))
        system = construct_prescribed(A, B, m, seed=rng.randint(0, 10**9))
        assert intersection_multiplicity_smooth(system.f, system.g, system.point) == m
        checked += 1


# --- the Newton-rung ladder ------------------------------------------------------------


def _expand_once_then_double(f, g, p):
    """Reference verifier: expand the branch once at n0, then double up to the
    mixed-volume cap.  Returns (order, transcript)."""
    n0 = len(f.terms) + len(g.terms) + 8
    hard_cap = 4 * (n0 + mixed_volume(convex_hull(f.support()), convex_hull(g.support())))
    n = n0
    while True:
        branch = branch_series(f, p, n)
        series = branch.evaluate_poly(g)
        order = series.order()
        if order is not None:
            return order, {"order": order, "leading_coefficient": series.coefficient(order),
                           "truncation": n, "free_variable": branch.free_variable}
        if n >= hard_cap:
            break
        n = min(2 * n, hard_cap)
    if is_multiple_of(g, f):
        why = "g is a Laurent-polynomial multiple of f"
    else:
        dep = "y" if f.partial("y").evaluate(p) != 0 else "x"
        assert sylvester_resultant(f, g, dep).is_zero()
        why = "resultant vanishes identically: shared component through the branch"
    return NON_ISOLATED, {"order": NON_ISOLATED, "reason": why, "truncation": hard_cap}


def _smooth_through(rng, p, exps, nterms):
    """Random f on monomials drawn from exps, vanishing and smooth at p."""
    while True:
        f = LaurentPolynomial({rng.choice(exps): F(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(nterms)})
        if not f.terms:
            continue
        e0 = next(iter(f.terms))
        f = f - LaurentPolynomial({e0: f.evaluate(p) / (p[0] ** e0[0] * p[1] ** e0[1])})
        if len(f.terms) >= 2 and (f.partial("x").evaluate(p) != 0 or f.partial("y").evaluate(p) != 0):
            return f


def _rung_precisions(n0):
    out = [0]
    while out[-1] < n0:
        out.append(min(n0, 2 * out[-1] + 1))
    return out


def test_rungs_are_prefixes_of_the_full_branch():
    rng = random.Random(606)
    points = [(F(1), F(1)), (F(2), F(-1, 3)), (F(-3, 2), F(1, 2))]
    grids = [[(a, b) for a in range(4) for b in range(4)],
             [(a, b) for a in range(-2, 3) for b in range(-2, 3)]]
    for case in range(30):
        p = points[case % 3]
        f = _smooth_through(rng, p, grids[case % 2], rng.randint(3, 7))
        n0, prefer = rng.randint(0, 24), rng.choice("xy")
        full = branch_series(f, p, n0, prefer=prefer)
        rungs = list(branch_rungs(f, p, n0, prefer=prefer))
        assert [r.truncation_order for r in rungs] == _rung_precisions(n0)
        for r in rungs:
            k = r.truncation_order
            assert r.free_variable == full.free_variable
            assert r.x_series.coeffs == full.x_series.coeffs[:k + 1]
            assert r.y_series.coeffs == full.y_series.coeffs[:k + 1]
        assert rungs[-1].x_series == full.x_series and rungs[-1].y_series == full.y_series


def test_rung_verifier_matches_expand_once_oracle():
    rng = random.Random(707)
    box = [(a, b) for a in range(4) for b in range(4)]
    laurent = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    x, y = LaurentPolynomial({(1, 0): 1}), LaurentPolynomial({(0, 1): 1})
    cases = []
    for i in range(24):
        p = [(F(1), F(1)), (F(2), F(-1, 3)), (F(-1, 2), F(3))][i % 3]
        f = _smooth_through(rng, p, laurent if i % 2 else box, rng.randint(3, 6))
        if i % 4 == 3:
            # the dependent coordinate is x: f_y(p) = 0
            f = (x - p[0]) * rng.randint(1, 5) - (y - p[1]) ** 2 + (x - p[0]) * (y - p[1])
        free = (y - p[1]) if f.partial("y").evaluate(p) == 0 else (x - p[0])
        k = [1, 1, 2, 3, 5, 6, 16, 0][i % 8]
        u = _smooth_through(rng, p, box, 3) + LaurentPolynomial({(0, 0): 1})
        g = free ** k if k == 16 else f * u + free ** k
        cases.append((f, g, p))
    # g a multiple of f, and g sharing a component with f through p
    line = y - x
    cases.append((line * (x + y + 3), line * (x + y + 3) * (x - 2 * y + 7), (F(1), F(1))))
    cases.append((line * (x + y + 3), line * (x - 2 * y + 7), (F(1), F(1))))
    seen = set()
    for f, g, p in cases:
        order, cert = intersection_multiplicity_smooth(f, g, p, with_certificate=True)
        want_order, want = _expand_once_then_double(f, g, p)
        assert order == want_order
        assert cert.kind == "BranchOrder" and cert.inputs == {"f": f, "g": g, "point": p}
        assert cert.transcript == want and list(cert.transcript) == list(want)
        assert replay(cert).transcript == want
        if order == NON_ISOLATED:
            seen.add(f"non-isolated: {want['reason'].split()[0]}")
            continue
        n0 = len(f.terms) + len(g.terms) + 8
        shown = next(r.truncation_order for r in branch_rungs(f, p, n0)
                     if r.evaluate_poly(g).order() is not None)
        seen.add({0: "rung 0", 1: "rung 1", n0: "rung n0"}.get(shown, "middle rung"))
        if cert.transcript["free_variable"] == "y":
            seen.add("dependent x")
        if any(e[0] < 0 or e[1] < 0 for e in f.terms):
            seen.add("Laurent f")
    assert seen == {"rung 0", "rung 1", "middle rung", "rung n0", "dependent x", "Laurent f",
                    "non-isolated: g", "non-isolated: resultant"}


def test_rung_used_for_the_order_is_self_checked(monkeypatch):
    real = verify.branch_rungs

    def corrupted(f, p, order, prefer="y"):
        for br in real(f, p, order, prefer):
            ys = br.y_series.coeffs
            yield BranchParametrization(f, br.base_point, br.free_variable, br.x_series,
                                        TruncatedSeries(ys[:-1] + (ys[-1] + 1,)),
                                        br.truncation_order)

    monkeypatch.setattr(verify, "branch_rungs", corrupted)
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    g = LaurentPolynomial({(1, 1): 1, (0, 0): -1})
    with pytest.raises(AssertionError, match="annihilate"):
        intersection_multiplicity_smooth(f, g, (F(1), F(1)))


# --- line sums -----------------------------------------------------------------------


def test_line_sum_transverse():
    v = LaurentPolynomial({(1, 0): 1, (0, 1): 1})
    assert origin_multiplicity_line_product([(1, 0), (0, 1)], v) == 2


def test_line_sum_worked_examples():
    for (n, k, l), expect in (((3, 2, 0), 6), ((4, 3, 2), 14)):
        _, v, lines, _ = build_line_product_system(n, k, l, seed=5)
        assert origin_multiplicity_line_product(lines, v) == expect


def test_line_sum_rejects_dividing_line():
    v = LaurentPolynomial({(1, 0): 1})  # v = x vanishes on the line x = 0
    with pytest.raises(InputError):
        origin_multiplicity_line_product([(1, 0), (0, 1)], v)


def test_line_sum_rejects_parallel_lines():
    v = LaurentPolynomial({(1, 0): 1, (0, 1): 1})
    with pytest.raises(InputError):
        origin_multiplicity_line_product([(1, 0), (2, 0)], v)


# --- segment products ------------------------------------------------------------------


def test_segment_product():
    fB = LaurentPolynomial({(2, 0): 1, (1, 0): -2, (0, 0): 1})  # (x-1)^2
    fA = LaurentPolynomial({(1, 0): 1, (0, 3): -1, (0, 0): -1})  # x - y^3 - 1
    assert segment_product_multiplicity(fB, fA, (F(1), F(0))) == 6


# --- rank impossibility -----------------------------------------------------------------


def test_rank_impossibility_values():
    assert rank_impossibility([0, 1]).transcript["determinant"] == 1
    assert rank_impossibility([0, 1, 2]).transcript["determinant"] == 2
    # product formula oracle
    nodes = [0, 1, 3, 7]
    prod = 1
    for i in range(4):
        for j in range(i + 1, 4):
            prod *= nodes[j] - nodes[i]
    assert prod == 1008
    assert rank_impossibility(nodes).transcript["determinant"] == 1008


def test_rank_impossibility_rejects_duplicates():
    with pytest.raises(InputError):
        rank_impossibility([0, 1, 1])


# --- certificates -----------------------------------------------------------------------


def test_certificate_replay_bit_exact():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    g = LaurentPolynomial({(1, 1): 1, (0, 0): -1})
    _, cert = intersection_multiplicity_smooth(f, g, (F(1), F(1)), with_certificate=True)
    fresh = replay(cert)
    assert fresh.transcript == cert.transcript

    m, dcert = univariate_multiplicity(UnivariatePolynomial([2, -3, 0, 1]), F(1), with_certificate=True)
    assert replay(dcert).transcript == dcert.transcript

    rcert = rank_impossibility([0, 1, 3, 7])
    assert replay(rcert).transcript == rcert.transcript

    _, v, lines, _ = build_line_product_system(3, 2, 0, seed=5)
    total, lcert = origin_multiplicity_line_product(lines, v, with_certificate=True)
    assert replay(lcert).transcript == lcert.transcript

    fB = LaurentPolynomial({(2, 0): 1, (1, 0): -2, (0, 0): 1})
    fA = LaurentPolynomial({(1, 0): 1, (0, 3): -1, (0, 0): -1})
    m, scert = segment_product_multiplicity(fB, fA, (F(1), F(0)), with_certificate=True)
    assert (m, scert.kind) == (6, "DerivativeTable") and "poly" not in scert.inputs
    assert replay(scert).transcript == scert.transcript


def test_certificate_replay_detects_tampering():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    g = LaurentPolynomial({(1, 1): 1, (0, 0): -1})
    _, cert = intersection_multiplicity_smooth(f, g, (F(1), F(1)), with_certificate=True)
    cert.transcript["order"] = 5
    with pytest.raises(VerificationError):
        replay(cert)

