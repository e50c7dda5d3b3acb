"""The verifier: orders, derivative tables, line sums, impossibility
certificates and replays."""

import hashlib
import json
import random
import re
import sys
import threading
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

from sparsemult import branches, verify
from sparsemult.algebra import (
    LaurentPolynomial,
    TruncatedSeries,
    UnivariatePolynomial,
    sylvester_resultant,
)
from sparsemult.branches import BranchParametrization, branch_rungs, branch_series, is_multiple_of
from sparsemult.construct import build_gap_family_member, build_line_product_system, construct_prescribed
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
    Certificate,
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
        intersection_multiplicity_smooth(node, LaurentPolynomial({(2, 0): 1, (1, 1): 1}), (F(0), F(0)))
    # f does not pass through the node, so the multiplicity there is 0
    assert intersection_multiplicity_smooth(node, f, (F(0), F(0))) == 0


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


def test_intersection_symmetry_at_a_singular_point_of_f():
    # f = x^2 - 2x - y^2 + 2y is singular at (1, 1); g = y - 1 is smooth there,
    # so the order is read along the branch of g in either argument order
    f = LaurentPolynomial({(2, 0): 1, (1, 0): -2, (0, 2): -1, (0, 1): 2})
    g = LaurentPolynomial({(0, 1): 1, (0, 0): -1})
    p = (F(1), F(1))
    for a, b in ((f, g), (g, f)):
        m, cert = intersection_multiplicity_smooth(a, b, p, with_certificate=True)
        assert m == 2
        assert cert.inputs == {"f": a, "g": b, "point": p}
        assert cert.transcript == {"order": 2, "leading_coefficient": F(1),
                                   "truncation": 14, "free_variable": "x"}
        assert replay(cert).transcript == cert.transcript
    # g off the point: the multiplicity is 0 with no branch to read it from
    m, cert = intersection_multiplicity_smooth(f, g - 1, p, with_certificate=True)
    assert m == 0
    assert cert.transcript == {"order": 0, "leading_coefficient": F(-1),
                               "truncation": 14, "free_variable": None}
    assert replay(cert).transcript == cert.transcript
    assert intersection_multiplicity_smooth(f, g - 1, p) == 0
    # both singular: nothing smooth to expand along
    with pytest.raises(InputError, match="singular"):
        intersection_multiplicity_smooth(f, f * F(3) + g * g, p)


def test_order_past_the_first_budget_is_certified_at_the_bernstein_bound():
    # along x = 1 + y^k the branch of f, g = (x - 1)^2 has order 2k; with
    # 3 + 3 terms the budget n0 is 14.  At (1, 0) the bound is the mixed
    # volume with the origin adjoined, 2k, so it is met with equality and,
    # for k >= 8, lies past n0 and becomes the certified truncation
    g = LaurentPolynomial({(2, 0): 1, (1, 0): -2, (0, 0): 1})
    for k, order, truncation in ((8, 16, 16), (20, 40, 40), (7, 14, 14)):
        f = LaurentPolynomial({(1, 0): 1, (0, k): -1, (0, 0): -1})
        m, cert = intersection_multiplicity_smooth(f, g, (F(1), F(0)), with_certificate=True)
        assert m == order == _bound(f, g, (F(1), F(0)))
        assert cert.transcript == {"order": order, "leading_coefficient": F(1),
                                   "truncation": truncation, "free_variable": "y"}
        assert replay(cert).transcript == cert.transcript


def test_a_walk_past_n0_goes_on_from_its_last_rung(monkeypatch):
    # f = x - y^8 - 1, g = (x - 1)^2 at (1, 0): order 16 past n0 = 14.  The
    # rungs to n0 show nothing; the one walk then goes on from rung 14 to the
    # bound 16, and never starts again from rung 0
    entered, evaluated = [], []
    real_rungs, real_evaluate = verify.branch_rungs, BranchParametrization.evaluate_poly

    def counted(*args):
        entered.append(args[3])
        return real_rungs(*args)

    def recorded(branch, h):
        evaluated.append(branch.truncation_order)
        return real_evaluate(branch, h)

    monkeypatch.setattr(verify, "branch_rungs", counted)
    monkeypatch.setattr(BranchParametrization, "evaluate_poly", recorded)
    f = LaurentPolynomial({(1, 0): 1, (0, 8): -1, (0, 0): -1})
    g = LaurentPolynomial({(2, 0): 1, (1, 0): -2, (0, 0): 1})
    order, cert = intersection_multiplicity_smooth(f, g, (F(1), F(0)), with_certificate=True)
    assert order == 16 and entered == [14]
    # g on rungs 3, 7, 14 and 16, then f on rung 16 by its self-check
    assert evaluated == [3, 7, 14, 16, 16]
    assert cert.transcript == {"order": 16, "leading_coefficient": F(1),
                               "truncation": 16, "free_variable": "y"}
    # a replay on the same curve reads the kept rung and enters no walk; once
    # the walks are cleared it enters one, at 14
    assert replay(cert).transcript == cert.transcript and entered == [14]
    verify._walk.cache_clear()
    assert replay(cert).transcript == cert.transcript and entered == [14, 14]


def test_bound_adjoins_the_origin_at_a_zero_coordinate():
    # y and y - x^12 meet at the origin with multiplicity 12, past n0 = 11;
    # the torus mixed volume of their supports is 0, with the origin it is 12
    f = LaurentPolynomial({(0, 1): 1})
    g = LaurentPolynomial({(0, 1): 1, (12, 0): -1})
    p = (F(0), F(0))
    assert mixed_volume(convex_hull(f.support()), convex_hull(g.support())) == 0
    m, cert = intersection_multiplicity_smooth(f, g, p, with_certificate=True)
    assert m == 12 == _bound(f, g, p)
    assert cert.transcript == {"order": 12, "leading_coefficient": F(-1),
                               "truncation": 12, "free_variable": "x"}


def test_bound_adjoins_the_origin_at_exactly_one_zero_coordinate():
    # x + y and x - 2y span parallel segments, torus mixed volume 0; at a
    # point with a zero coordinate, one or both, the origin joins both hulls,
    # which become unit simplices with mixed volume 1
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1})
    g = LaurentPolynomial({(1, 0): 1, (0, 1): -2})
    simplex = convex_hull(SupportSet([(0, 0), (1, 0), (0, 1)]))
    assert mixed_volume(simplex, simplex) == 1
    assert verify._bernstein_bound(f, g, (F(1), F(1))) == 0
    for p in ((F(0), F(1)), (F(1), F(0)), (F(0), F(0))):
        assert verify._bernstein_bound(f, g, p) == 1 == _bound(f, g, p), p


def test_non_isolated_transcripts_name_the_bound():
    # g = (x + 1) f vanishes on the branch, and the bound 16 lies past
    # n0 = 15; for g = x^-3 f the monomial x^-3, a unit at (1, 0), is
    # cleared first, so the bound is mv(f, f) = 8 and the truncation n0 = 14
    f = LaurentPolynomial({(1, 0): 1, (0, 8): -1, (0, 0): -1})
    p = (F(1), F(0))
    for cofactor, cap, truncation in (({(1, 0): 1, (0, 0): 1}, 16, 16), ({(-3, 0): 1}, 8, 14)):
        g = f * LaurentPolynomial(cofactor)
        order, cert = intersection_multiplicity_smooth(f, g, p, with_certificate=True)
        assert order == NON_ISOLATED
        assert cert.transcript == {
            "order": NON_ISOLATED,
            "reason": f"no order within the Bernstein bound mv = {cap} (origin adjoined), "
                      "so the root is not isolated",
            "truncation": truncation}
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


def _singular(h, p):
    return h.partial("x").evaluate(p) == 0 and h.partial("y").evaluate(p) == 0


def _bound(f, g, p):
    """Bernstein's bound on an isolated root's multiplicity, computed apart
    from the verifier: the mixed volume of the hulls at a torus point; at a
    point with a zero coordinate, each polynomial is first multiplied by the
    monomial that clears its negative exponents, and the origin is adjoined."""
    if p[0] != 0 and p[1] != 0:
        return mixed_volume(convex_hull(f.support()), convex_hull(g.support()))
    hulls = []
    for h in (f, g):
        clear = tuple(-min(min(e[i] for e in h.terms), 0) for i in (0, 1))
        h = h * LaurentPolynomial({clear: 1})
        hulls.append(convex_hull(SupportSet(list(h.terms) + [(0, 0)])))
    return mixed_volume(*hulls)


def _expand_to_n0_then_cap(f, g, p):
    """Reference verifier: expand the branch once at n0 and, when no order
    shows there, once more at the Bernstein bound if that is larger.
    Returns (order, transcript, why).  A non-isolated root is confirmed
    apart from the bound: why is "multiple" when g is a Laurent multiple of
    f, and "shared component" when the resultant vanishes identically."""
    curve, other = f, g
    if _singular(f, p) and g.evaluate(p) == 0 and not _singular(g, p):
        curve, other = g, f
    n0 = len(f.terms) + len(g.terms) + 8
    cap = _bound(f, g, p)
    for n in sorted({n0, max(n0, cap)}):
        branch = branch_series(curve, p, n)
        series = branch.evaluate_poly(other)
        order = series.order()
        if order is not None:
            return order, {"order": order, "leading_coefficient": series.coefficient(order),
                           "truncation": n, "free_variable": branch.free_variable}, None
    if is_multiple_of(other, curve):
        why = "multiple"
    else:
        dep = "y" if curve.partial("y").evaluate(p) != 0 else "x"
        assert sylvester_resultant(curve, other, dep).is_zero()
        why = "shared component"
    origin = "" if p[0] != 0 and p[1] != 0 else " (origin adjoined)"
    reason = f"no order within the Bernstein bound mv = {cap}{origin}, so the root is not isolated"
    return NON_ISOLATED, {"order": NON_ISOLATED, "reason": reason, "truncation": max(n0, cap)}, why


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
        n0 = rng.randint(0, 24)
        full = branch_series(f, p, n0)
        rungs = list(branch_rungs(f, p, f.gradient(p), n0))
        assert [r.truncation_order for r in rungs] == _rung_precisions(n0)
        for r in rungs:
            k = r.truncation_order
            assert r.free_variable == full.free_variable
            assert r.x_series.coeffs == full.x_series.coeffs[:k + 1]
            assert r.y_series.coeffs == full.y_series.coeffs[:k + 1]
        assert rungs[-1].x_series == full.x_series and rungs[-1].y_series == full.y_series


def test_a_raised_cap_goes_on_from_the_last_rung():
    # an order sent in place of next after the last rung continues Newton
    # doubling from it; every rung is still a prefix of the branch at the
    # raised order, Laurent f included (its Taylor shift depends on the order)
    rng = random.Random(808)
    points = [(F(1), F(1)), (F(2), F(-1, 3)), (F(-3, 2), F(1, 2))]
    grids = [[(a, b) for a in range(4) for b in range(4)],
             [(a, b) for a in range(-2, 3) for b in range(-2, 3)]]
    for case in range(20):
        p = points[case % 3]
        f = _smooth_through(rng, p, grids[case % 2], rng.randint(3, 7))
        n0 = rng.randint(0, 12)
        cap = n0 + rng.randint(1, 12)
        rungs = branch_rungs(f, p, f.gradient(p), n0)
        walked = [next(rungs)]
        while walked[-1].truncation_order < n0:
            walked.append(next(rungs))
        walked.append(rungs.send(cap))
        walked.extend(rungs)
        want = _rung_precisions(n0)
        while want[-1] < cap:
            want.append(min(cap, 2 * want[-1] + 1))
        assert [r.truncation_order for r in walked] == want
        full = branch_series(f, p, cap)
        for r in walked:
            k = r.truncation_order
            assert r.x_series.coeffs == full.x_series.coeffs[:k + 1]
            assert r.y_series.coeffs == full.y_series.coeffs[:k + 1]


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
    # the bound met with equality: Z(x - 1) meets Z((y - 1)^3) only at (1, 1)
    cases.append((x - 1, (y - 1) ** 3, (F(1), F(1))))
    # the bound past n0: met with equality at (1, 0), and a non-isolated root
    steep = x - y ** 8 - 1
    cases.append((steep, (x - 1) ** 2, (F(1), F(0))))
    cases.append((steep, steep * (x + 1), (F(1), F(0))))
    # f singular at p, g smooth there: the order is read along g
    cases.append((x ** 2 - 2 * x - y ** 2 + 2 * y, y - 1, (F(1), F(1))))
    seen = set()
    for f, g, p in cases:
        order, cert = intersection_multiplicity_smooth(f, g, p, with_certificate=True)
        want_order, want, why = _expand_to_n0_then_cap(f, g, p)
        assert order == want_order
        assert cert.kind == "BranchOrder" and cert.inputs == {"f": f, "g": g, "point": p}
        assert cert.transcript == want and list(cert.transcript) == list(want)
        assert replay(cert).transcript == want
        n0 = len(f.terms) + len(g.terms) + 8
        cap = _bound(f, g, p)
        if cap > n0:
            seen.add("bound past n0")
        if order == NON_ISOLATED:
            seen.add(f"non-isolated: {why}")
            continue
        assert order <= cap
        if order == cap:
            seen.add("order = bound" + ("" if p[0] and p[1] else " off the torus"))
        if _singular(f, p):
            seen.add("singular f")
            continue
        shown = next((r.truncation_order for r in branch_rungs(f, p, f.gradient(p), n0)
                      if r.evaluate_poly(g).order() is not None), None)
        seen.add({0: "rung 0", 1: "rung 1", n0: "rung n0", None: "past n0"}.get(shown, "middle rung"))
        if cert.transcript["free_variable"] == "y":
            seen.add("dependent x")
        if any(e[0] < 0 or e[1] < 0 for e in f.terms):
            seen.add("Laurent f")
    assert seen == {"rung 0", "rung 1", "middle rung", "rung n0", "past n0", "dependent x",
                    "Laurent f", "singular f", "bound past n0", "order = bound",
                    "order = bound off the torus", "non-isolated: multiple",
                    "non-isolated: shared component"}


_POINTS = [(F(1), F(1)), (F(2), F(-1, 3)), (F(0), F(1)), (F(-3, 2), F(0)), (F(0), F(0))]
_TERMS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         st.integers(-5, 5).filter(bool), min_size=1, max_size=5)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(_POINTS), _TERMS, _TERMS, st.integers(0, 6), st.sampled_from("xy"),
       st.tuples(st.integers(-2, 0), st.integers(-2, 0)))
def test_every_order_is_within_the_bernstein_bound(p, fterms, uterms, k, along, shift):
    """At torus points (Laurent supports too) and at points with a zero
    coordinate, no order the verifier returns exceeds the bound."""
    x, y = LaurentPolynomial({(1, 0): 1}), LaurentPolynomial({(0, 1): 1})
    h = LaurentPolynomial(fterms)
    f = h - h.evaluate(p)
    if p[0] != 0 and p[1] != 0:
        f = f * LaurentPolynomial({shift: 1})
    u = LaurentPolynomial(uterms)
    g = f * u + ((x - p[0]) if along == "x" else (y - p[1])) ** k
    if f.is_zero() or g.is_zero() or (_singular(f, p) and (g.evaluate(p) != 0 or _singular(g, p))):
        reject()
    order = intersection_multiplicity_smooth(f, g, p)
    assert order == NON_ISOLATED or order <= _bound(f, g, p)


_ZERO_POINTS = [(F(0), F(1)), (F(-3, 2), F(0)), (F(2), F(0)), (F(0), F(-1, 2))]


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(_ZERO_POINTS),
       st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                       st.integers(-5, 5).filter(bool), min_size=1, max_size=5),
       _TERMS, st.integers(0, 4), st.booleans())
def test_laurent_f_at_a_zero_coordinate_reads_like_its_cleared_form(p, fterms, uterms, k, multiple):
    """A negative exponent in p's non-zero coordinate is a unit at p, so f
    and the polynomial x^a y^b f that clears it have the same order, and
    the same transcript where f is smooth: both have the same branch."""
    x, y = LaurentPolynomial({(1, 0): 1}), LaurentPolynomial({(0, 1): 1})
    # only p's non-zero coordinate may carry a negative exponent
    h = LaurentPolynomial({(a if p[0] else abs(a), b if p[1] else abs(b)): c
                           for (a, b), c in fterms.items()})
    f = h - h.evaluate(p)
    if f.is_zero() or all(e[0] >= 0 and e[1] >= 0 for e in f.terms):
        reject()
    clear = tuple(-min(min(e[i] for e in f.terms), 0) for i in (0, 1))
    cleared = f * LaurentPolynomial({clear: 1})
    g = f * LaurentPolynomial(uterms) if multiple else f * LaurentPolynomial(uterms) + (
        (x - p[0]) if f.gradient(p)[1] else (y - p[1])) ** k
    if g.is_zero() or (_singular(f, p) and (g.evaluate(p) != 0 or _singular(g, p))):
        reject()
    order, cert = intersection_multiplicity_smooth(f, g, p, with_certificate=True)
    cleared_order, cleared_cert = intersection_multiplicity_smooth(cleared, g, p, with_certificate=True)
    assert order == cleared_order
    if _singular(f, p):
        # read along g: the series of f and of its cleared form differ by a unit
        return
    assert cert.transcript == cleared_cert.transcript
    assert order == (NON_ISOLATED if multiple else k)


def test_rung_used_for_the_order_is_self_checked(monkeypatch):
    real = verify.branch_rungs

    def corrupted(f, p, gradient, order):
        for br in real(f, p, gradient, order):
            ys = br.y_series.coeffs
            yield BranchParametrization(f, br.base_point, br.free_variable, br.x_series,
                                        TruncatedSeries(ys[:-1] + (ys[-1] + 1,)),
                                        br.truncation_order)

    monkeypatch.setattr(verify, "branch_rungs", corrupted)
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    g = LaurentPolynomial({(1, 1): 1, (0, 0): -1})
    with pytest.raises(AssertionError, match="annihilate"):
        intersection_multiplicity_smooth(f, g, (F(1), F(1)))


@pytest.mark.parametrize("free", [(2,), (1, 1)])
def test_a_corrupted_free_series_fails_the_check(monkeypatch, free):
    # rungs whose free coordinate is p + 2t (linear, so its powers come by
    # shift-and-add) or p + t + t^2 (convolved): branch_series raises, and so
    # does the verifier on a cold walk and on a walk kept at the last rung the
    # corruption does not reach yet (rung 0 for p + 2t, the tangent for p + t + t^2)
    real = branches.branch_rungs

    def corrupted(f, p, gradient, order):
        for br in real(f, p, gradient, order):
            k = br.truncation_order
            xs = TruncatedSeries(([p[0], *free] + [0] * k)[: k + 1])
            yield BranchParametrization(f, br.base_point, br.free_variable, xs, br.y_series, k)

    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    p = (F(1), F(1))
    order_2 = LaurentPolynomial({(1, 1): 1, (0, 0): -1})
    clean = len(free) - 1  # the highest rung the corruption does not reach
    below = LaurentPolynomial({(0, 0): 1}) if clean == 0 else LaurentPolynomial({(1, 0): 1, (0, 1): -1})
    assert branch_series(f, p, 6).free_variable == "x"
    assert [intersection_multiplicity_smooth(f, g, p) for g in (below, order_2)] == [clean, 2]
    monkeypatch.setattr(branches, "branch_rungs", corrupted)
    monkeypatch.setattr(verify, "branch_rungs", corrupted)
    with pytest.raises(AssertionError, match="annihilate"):
        branch_series(f, p, 6)
    verify._walk.cache_clear()
    with pytest.raises(AssertionError, match="annihilate"):
        intersection_multiplicity_smooth(f, order_2, p)
    assert intersection_multiplicity_smooth(f, below, p) == clean
    assert verify._walk(f, p, corrupted).order == clean
    with pytest.raises(AssertionError, match="annihilate"):
        intersection_multiplicity_smooth(f, order_2, p)


def test_tangent_rung_is_self_checked(monkeypatch):
    # rung 1 is built from the gradient it is handed; given one whose tangent
    # slope -f_x/f_y is one too large, the Newton steps above it keep the
    # wrong t coefficient, and the rung the order is read from fails its check
    real = branches.branch_rungs

    def off_by_one(f, p, gradient, order):
        fx, fy = gradient
        return real(f, p, (fx - fy, fy), order)

    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    p = (F(1), F(1))
    order_2 = LaurentPolynomial({(1, 1): 1, (0, 0): -1})
    order_1 = LaurentPolynomial({(1, 0): 1, (0, 1): -1})
    assert [intersection_multiplicity_smooth(f, g, p) for g in (order_2, order_1)] == [2, 1]
    branch_series(f, p, 6)  # self-checked: the true tangent passes
    monkeypatch.setattr(branches, "branch_rungs", off_by_one)
    monkeypatch.setattr(verify, "branch_rungs", off_by_one)
    with pytest.raises(AssertionError, match="annihilate"):
        branch_series(f, p, 6)
    # order 2: the jet shows no order 1, and rung 3 inherits the wrong tangent;
    # order 1: the tangent rung itself is the one checked
    for g in (order_2, order_1):
        with pytest.raises(AssertionError, match="annihilate"):
            intersection_multiplicity_smooth(f, g, p)


def test_the_gradient_is_read_up_to_scale():
    # branch_rungs reads only the ratio f_free / f_dep: the jet's integer
    # numerators and their multiples by -3, 7 and 1/5 give the same rungs as
    # the gradient itself, and the tangent comes out a Fraction, not a float
    rng = random.Random(909)
    x, y = LaurentPolynomial({(1, 0): 1}), LaurentPolynomial({(0, 1): 1})
    points = [(F(1), F(1)), (F(2), F(-1, 3)), (F(-3, 2), F(1, 2)), (F(0), F(1)), (F(-3, 2), F(0))]
    box = [(a, b) for a in range(4) for b in range(4)]
    for case in range(15):
        p = points[case % 5]
        if case % 3 == 2:
            # f_y(p) = 0: the dependent coordinate is x
            f = (x - p[0]) * rng.randint(1, 5) - (y - p[1]) ** 2 + (x - p[0]) * (y - p[1])
        else:
            f = _through(rng, p, box, rng.randint(3, 6))
            if f.gradient(p) == (0, 0):
                continue
        value, fx, fy, _ = f.jet(p)
        assert value == 0 and all(type(n) is int for n in (fx, fy))
        want = [(r.free_variable, r.x_series, r.y_series) for r in branch_rungs(f, p, f.gradient(p), 9)]
        for k in (1, -3, 7, F(1, 5)):
            rungs = list(branch_rungs(f, p, (k * fx, k * fy), 9))
            assert [(r.free_variable, r.x_series, r.y_series) for r in rungs] == want
            assert all(type(c) is F for s in (rungs[1].x_series, rungs[1].y_series) for c in s.coeffs)
            assert all(type(n) is int for r in rungs for s in (r.x_series, r.y_series)
                       for n in s.nums + (s.den,))


_JET_POINTS = [(F(1), F(1)), (F(2), F(-1, 3)), (F(-3, 2), F(1, 2)),
               (F(0), F(1)), (F(-3, 2), F(0)), (F(0), F(-1, 2)), (F(0), F(0))]


def _laurent_terms(max_size):
    return st.dictionaries(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
                           st.fractions(-5, 5, max_denominator=4).filter(bool),
                           min_size=1, max_size=max_size)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(_JET_POINTS), _laurent_terms(5), _laurent_terms(3), st.integers(0, 1),
       st.fractions(-5, 5, max_denominator=4).filter(bool), st.booleans())
def test_orders_0_and_1_from_the_jet_match_the_expansion(p, fterms, uterms, k, c, dependent_x):
    """Orders 0 and 1 are read off g's value and gradient at p; the
    transcript, key order included, is the one the expansion to n0 gives.
    Laurent exponents lie in p's non-zero coordinates."""
    x, y = LaurentPolynomial({(1, 0): 1}), LaurentPolynomial({(0, 1): 1})

    def on_p(terms):
        # negative exponents only where p's coordinate is non-zero
        return LaurentPolynomial({(a if p[0] else abs(a), b if p[1] else abs(b)): v
                                  for (a, b), v in terms.items()})

    h = on_p(fterms)
    f = h - h.evaluate(p)
    if dependent_x:
        # f_y(p) = 0 and f_x(p) = c: the free coordinate is y
        f = c * (x - p[0]) + (y - p[1]) ** 2 * h
    if f.is_zero() or _singular(f, p):
        reject()
    free = (x - p[0]) if f.gradient(p)[1] else (y - p[1])
    g = f * on_p(uterms) + c * free ** k
    order, cert = intersection_multiplicity_smooth(f, g, p, with_certificate=True)
    want_order, want, _ = _expand_to_n0_then_cap(f, g, p)
    assert order == want_order == k
    assert cert.transcript == want and list(cert.transcript) == list(want)
    if dependent_x:
        assert want["free_variable"] == "y"


# --- the seeded verifier corpus ----------------------------------------------------------

VERIFIER_CORPUS = Path(__file__).parent / "golden" / "verifier_corpus.sha256"


def _through(rng, p, exps, nterms):
    """Random f on monomials drawn from exps, with f(p) = 0 and at least two
    terms: a constant is subtracted, so p may have a zero coordinate."""
    while True:
        h = LaurentPolynomial({rng.choice(exps): F(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(nterms)})
        f = h - h.evaluate(p)
        if len(f.terms) >= 2:
            return f


def _verifier_corpus():
    """(label, f, g, p) for a seeded corpus of verifier calls.

    Families: smooth f with g = f u + c t^k along the free coordinate t, so
    the order is k (k = 0 off the point); random g through p; f with a
    dependent x; Laurent f at torus points and, with its negative exponents
    in p's non-zero coordinate, at points with a zero coordinate; a Laurent
    g with a negative exponent at p's zero coordinate; f singular at p, read
    along g or off g; both singular; non-isolated roots (a multiple, a
    shared line); orders past n0; and rejected inputs."""
    rng = random.Random(2020)
    x, y = LaurentPolynomial({(1, 0): 1}), LaurentPolynomial({(0, 1): 1})
    box = [(a, b) for a in range(4) for b in range(4)]
    laurent = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    torus = [(F(1), F(1)), (F(2), F(-1, 3)), (F(-3, 2), F(1, 2)), (F(-1, 2), F(3))]
    zero = [(F(0), F(1)), (F(-3, 2), F(0)), (F(0), F(0)), (F(2), F(0)), (F(0), F(-1, 2))]

    def q():
        return F(rng.choice([-7, -3, -2, -1, 1, 2, 5]), rng.randint(1, 3))

    def along_free(f, p):
        # the free coordinate minus its value at p: t on f's branch
        return (x - p[0]) if f.gradient(p)[1] != 0 else (y - p[1])

    def off_zero(p):
        # monomials with negative exponents only in p's non-zero coordinates
        return [(a, b) for a in range(-2 if p[0] else 0, 3) for b in range(-2 if p[1] else 0, 3)]

    cases = []
    for i in range(96):
        p = (torus + zero)[i % 9]
        exps = laurent if i % 2 and p[0] and p[1] else box
        while True:
            f = _through(rng, p, exps, rng.randint(2, 6))
            if f.gradient(p) != (0, 0):
                break
        k = [0, 1, 2, 3, 5, 1][i % 6]
        u = _through(rng, p, box, 2) + q()
        cases.append((f"order-k {i}", f, f * u + q() * along_free(f, p) ** k, p))
    for i in range(24):
        p = (torus + zero)[i % 9]
        f = _through(rng, p, box, rng.randint(2, 5))
        if f.gradient(p) == (0, 0):
            continue
        cases.append((f"random-g {i}", f, _through(rng, p, box, rng.randint(2, 5)), p))
    for i in range(24):
        # f_y(p) = 0, f_x(p) != 0: the dependent coordinate is x
        p = (torus + zero)[i % 9]
        u, v = x - p[0], y - p[1]
        f = q() * u + q() * u * v + q() * v ** 2 + (q() * v ** 3 if i % 2 else 0)
        k = [0, 1, 2, 3][i % 4]
        if i % 3:
            g = f * (_through(rng, p, box, 2) + q()) + q() * v ** k
        else:
            g = _through(rng, p, box, rng.randint(2, 4))
        cases.append((f"dependent-x {i}", f, g, p))
    for i in range(20):
        # Laurent f at a point with a zero coordinate: its negative exponents
        # lie in the non-zero coordinate, where the monomials are units
        p = [zero[0], zero[1], zero[3], zero[4]][i % 4]
        while True:
            f = _through(rng, p, off_zero(p), rng.randint(2, 5))
            if any(e[0] < 0 or e[1] < 0 for e in f.terms) and f.gradient(p) != (0, 0):
                break
        k = [0, 1, 2, 3, 4][i % 5]
        g = f * (_through(rng, p, box, 2) + q()) + q() * along_free(f, p) ** k
        cases.append((f"laurent-f-zero {i}", f, g, p))
    for i in range(12):
        # a Laurent g with a negative exponent at p's zero coordinate
        p = zero[i % 5] if i % 5 != 2 else zero[0]
        f = _through(rng, p, box, rng.randint(2, 4))
        zc = 0 if p[0] == 0 else 1
        e = (-1 - i % 2, rng.randint(0, 2)) if zc == 0 else (rng.randint(0, 2), -1 - i % 2)
        cases.append((f"laurent-g-zero {i}", f, _through(rng, p, box, 2) + LaurentPolynomial({e: q()}), p))
    for i in range(24):
        # f singular at p: read along a smooth g through p, or order 0 off g
        p = (torus + zero)[i % 9]
        u, v = x - p[0], y - p[1]
        f = q() * u ** 2 + q() * u * v + q() * v ** 2 + q() * u ** 3 + (q() * v ** 3 if i % 2 else 0)
        if f.gradient(p) != (0, 0) or len(f.terms) < 2:
            continue
        while True:
            g = _through(rng, p, box, rng.randint(2, 4))
            if g.gradient(p) != (0, 0):
                break
        if i % 6 == 5:
            g = g + q()
        # in either argument order: the multiplicity is symmetric
        cases.append((f"singular-f {i}", *((f, g) if i % 4 else (g, f)), p))
    for i in range(4):
        p = torus[i]
        u, v = x - p[0], y - p[1]
        cases.append((f"both-singular {i}", u ** 2 - v ** 2 * q(), u ** 2 * q() + v ** 3, p))
    for i in range(14):
        # non-isolated: a Laurent multiple of f, or a line shared through p
        p = (torus + zero)[i % 9]
        if i % 2:
            f = _through(rng, p, box, rng.randint(2, 4))
            if f.gradient(p) == (0, 0):
                continue
            cofactor = _through(rng, p, box, 2) + q()
            if p[0] and p[1] and i % 4 == 1:
                cofactor = cofactor * LaurentPolynomial({(-1, -2): q()})
            cases.append((f"non-isolated {i}", f, f * cofactor, p))
        else:
            line = (y - p[1]) - q() * (x - p[0])
            cases.append((f"non-isolated {i}", line * (_through(rng, p, box, 2) + q()),
                          line * (_through(rng, p, box, 3) + q()), p))
    for i in range(14):
        # x - p0 = c y^k along f at (p0, 0): (x - p0)^j has order jk > n0
        p0 = [F(1), F(0), F(-3, 2), F(2)][i % 4]
        k = 8 + i % 7
        f = q() * (x - p0) - q() * y ** k
        j = 2 + i % 2
        g = q() * (x - p0) ** j + (q() * y ** (j * k + 1) if i % 3 == 0 else 0)
        cases.append((f"past-n0 {i}", f, g, (p0, F(0))))
    off = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    cases.append(("rejected 0", off, off, (F(0), F(0))))
    cases.append(("rejected 1", off, LaurentPolynomial({}), (F(1), F(1))))
    cases.append(("rejected 2", LaurentPolynomial({(-1, 0): 1, (0, 0): -1}), off, (F(0), F(1))))
    return cases


def _verifier_outcome(f, g, p):
    """The verifier's order and transcript in key order, rationals as
    strings, or the exception's type and message."""
    try:
        order, cert = intersection_multiplicity_smooth(f, g, p, with_certificate=True)
    except (InputError, AssertionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    transcript = {k: str(v) if isinstance(v, F) else v for k, v in cert.transcript.items()}
    return json.dumps({"order": order, "transcript": transcript})


def _verifier_corpus_lines():
    """One `sha256  label` line per corpus case: the digest of its label,
    inputs and outcome."""
    lines = []
    for label, f, g, p in _verifier_corpus():
        record = f"{label}\n{f!r}\n{g!r}\n{p[0]} {p[1]}\n{_verifier_outcome(f, g, p)}\n"
        lines.append(f"{hashlib.sha256(record.encode('utf-8')).hexdigest()}  {label}\n")
    return lines


def test_verifier_corpus_pinned():
    # every transcript or rejection of the corpus, pinned case by case
    # (re-record after a deliberate change of output with `PYTHONPATH=src:tests
    # python -c 'import test_verify as t; print(end="".join(t._verifier_corpus_lines()))'
    # > tests/golden/verifier_corpus.sha256`); the corpus must keep ten cases
    # of each kind below
    cases = _verifier_corpus()
    seen = {}
    for label, f, g, p in cases:
        try:
            order, cert = intersection_multiplicity_smooth(f, g, p, with_certificate=True)
        except InputError:
            continue
        t = cert.transcript
        kinds = {
            "order 0": order == 0,
            "order 1": order == 1,
            "dependent x": t.get("free_variable") == "y",
            "Laurent f at a torus point": p[0] != 0 and p[1] != 0
                                          and any(e[0] < 0 or e[1] < 0 for e in f.terms),
            "zero coordinate": p[0] == 0 or p[1] == 0,
            "singular f read along g": f.gradient(p) == (0, 0) and t.get("free_variable") is not None,
            "non-isolated": order == NON_ISOLATED,
            "past n0": order != NON_ISOLATED and order > len(f.terms) + len(g.terms) + 8,
        }
        for kind, hit in kinds.items():
            seen[kind] = seen.get(kind, 0) + hit
    assert len(seen) == 8 and min(seen.values()) >= 10, seen
    pinned = VERIFIER_CORPUS.read_text(encoding="utf-8").splitlines(keepends=True)
    lines = _verifier_corpus_lines()
    changed = [b.split()[1:] for a, b in zip(lines, pinned) if a != b]
    assert len(lines) == len(pinned) and not changed, changed


def test_no_transcript_of_the_corpus_holds_a_float():
    # the verifier computes on integers and Fractions only: walk every
    # transcript and certificate input of the corpus for a float
    def values(obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                yield k
                yield from values(v)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                yield from values(v)
        else:
            yield obj

    walked = 0
    for label, f, g, p in _verifier_corpus():
        try:
            _, cert = intersection_multiplicity_smooth(f, g, p, with_certificate=True)
        except InputError:
            continue
        found = list(values(cert.transcript)) + list(values(cert.inputs["point"]))
        assert not any(isinstance(v, float) for v in found), label
        assert all(type(v) is F for k, v in cert.transcript.items() if k == "leading_coefficient")
        walked += 1
    assert walked >= 200


# --- the verifier's kept walks ------------------------------------------------------------


def _shared_curve_calls(rng):
    """Calls (f, g, p) in which each curve meets several g, in shuffled order.

    One curve per family: a smooth f with g = f u + c t^k, orders 0 to 7
    (4 and up read off rung 7); f = a (x - p0) - b y^k, on which (x - p0)^2
    has order 2k past n0, certified at the Bernstein bound, met also by g
    of orders up to 15 whose budgets n0 differ; a smooth f with Laurent
    multiples of it, non-isolated; a smooth h through p met by curves
    singular at p, in either argument order, so that each is read along h;
    a Laurent f at a point with a zero coordinate, met also by a g with a
    pole there, which is rejected on every call."""
    x, y = LaurentPolynomial({(1, 0): 1}), LaurentPolynomial({(0, 1): 1})
    box = [(a, b) for a in range(4) for b in range(4)]

    def q():
        return F(rng.choice([-7, -3, -2, -1, 1, 2, 5]), rng.randint(1, 3))

    def smooth(p, exps):
        while True:
            f = _through(rng, p, exps, rng.randint(2, 5))
            if f.gradient(p) != (0, 0):
                return f

    def along_free(f, p):
        return (x - p[0]) if f.gradient(p)[1] != 0 else (y - p[1])

    calls = []
    p = rng.choice([(F(1), F(1)), (F(2), F(-1, 3)), (F(-3, 2), F(1, 2))])
    f = smooth(p, box)
    calls += [(f, f * (_through(rng, p, box, rng.randint(1, 3)) + q()) + q() * along_free(f, p) ** k, p)
              for k in rng.sample(range(8), 5)]
    p0, k = rng.choice([F(1), F(0), F(0), F(-3, 2)]), rng.randint(8, 11)
    f, p = q() * (x - p0) - q() * y ** k, (p0, F(0))
    calls += [(f, q() * (x - p0) ** 2, p), (f, q() * (x - p0) ** 2 + q() * y ** (2 * k + 1), p),
              (f, y ** 15 + q() * (x - p0) ** 2, p), (f, y ** rng.randint(1, 7) + (x - p0) * q(), p),
              (f, f * (_through(rng, p, box, 4) + q()) + y ** rng.randint(4, 7), p)]
    p = rng.choice([(F(1), F(1)), (F(0), F(1)), (F(2), F(0))])
    f = smooth(p, box)
    calls += [(f, f * (_through(rng, p, box, 2) + q()), p), (f, f * q(), p),
              (f, f * (_through(rng, p, box, 2) + q()) + q() * along_free(f, p) ** 3, p)]
    p = rng.choice([(F(1), F(1)), (F(-1, 2), F(3)), (F(0), F(1))])
    h = smooth(p, box)
    u, v = x - p[0], y - p[1]
    for _ in range(3):
        singular = q() * u ** 2 + q() * u * v + q() * v ** 2 + q() * u ** 3
        calls.append((singular, h, p) if rng.random() < 0.5 else (h, singular, p))
    calls.append((h, h * q() + q() * along_free(h, p) ** 4, p))
    p = rng.choice([(F(0), F(1)), (F(-3, 2), F(0)), (F(0), F(-1, 2))])
    laurent = [(a, b) for a in range(-2 if p[0] else 0, 3) for b in range(-2 if p[1] else 0, 3)]
    while True:
        f = smooth(p, laurent)
        if any(e[0] < 0 or e[1] < 0 for e in f.terms):
            break
    pole = (-1, 0) if p[0] == 0 else (0, -1)
    calls += [(f, f * (_through(rng, p, box, 2) + q()) + q() * along_free(f, p) ** k, p)
              for k in rng.sample(range(6), 3)]
    calls.append((f, _through(rng, p, box, 2) + LaurentPolynomial({pole: q()}), p))
    rng.shuffle(calls)
    calls += _kept_then_new_monomials(rng)
    return calls


def _kept_then_new_monomials(rng):
    """Calls, in this order, that keep a walk at K = 7 and one at K past n0,
    then read rung 3 < K from each with a g whose monomials neither the
    curve nor an earlier g has put in the kept rung's tables."""
    x, y = LaurentPolynomial({(1, 0): 1}), LaurentPolynomial({(0, 1): 1})
    box = [(a, b) for a in range(4) for b in range(4)]

    def q():
        return F(rng.choice([-7, -3, -2, -1, 1, 2, 5]), rng.randint(1, 3))

    p = rng.choice([(F(1), F(1)), (F(2), F(-1, 3)), (F(-3, 2), F(1, 2))])
    f = _smooth_through(rng, p, box, rng.randint(2, 5))
    t = (x - p[0]) if f.gradient(p)[1] != 0 else (y - p[1])
    calls = [(f, f * (_through(rng, p, box, 2) + q()) + q() * t ** rng.randint(4, 7), p),
             (f, f * (x ** rng.randint(5, 7) * y ** rng.randint(4, 6) * q() + q()) + q() * t ** 2, p),
             (f, f * (y ** rng.randint(4, 6) + q()) + q() * t ** 3, p)]
    p0, k = rng.choice([F(1), F(0), F(-3, 2)]), rng.randint(8, 11)
    f, p = q() * (x - p0) - q() * y ** k, (p0, F(0))
    calls += [(f, q() * (x - p0) ** 2, p),
              (f, y ** rng.randint(2, 3) + q() * x ** rng.randint(4, 6) * (x - p0) ** 2, p)]
    return calls


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_a_warm_walk_gives_what_a_cold_one_does(seed):
    # every call of the sequence, made while the curves' walks are kept,
    # gives the transcript or the rejection that it gives on a cleared memo
    verify._walk.cache_clear()
    calls = _shared_curve_calls(random.Random(seed))
    warm = [_verifier_outcome(f, g, p) for f, g, p in calls]
    cold = []
    for f, g, p in calls:
        verify._walk.cache_clear()
        cold.append(_verifier_outcome(f, g, p))
    assert warm == cold


def test_a_kept_rung_tables_new_monomials_as_a_fresh_rung_does():
    # a walk kept at K = 7, and one kept at K past n0, read at rung 3 by a g
    # with monomials the kept rung has not tabled: the kept rung tables them,
    # and the transcripts are those of a cleared memo
    calls = _kept_then_new_monomials(random.Random(5))
    verify._walk.cache_clear()
    warm, kept = [], []
    for f, g, p in calls:
        walk = verify._walk(f, p, verify.branch_rungs)
        tabled = set() if walk.branch is None else set(walk.branch._monomial_cache)
        kept.append((walk.order, bool(set(g.terms) - tabled)))
        warm.append(_verifier_outcome(f, g, p))
    cold = []
    for f, g, p in calls:
        verify._walk.cache_clear()
        cold.append(_verifier_outcome(f, g, p))
    assert warm == cold
    orders = [json.loads(o)["order"] for o in warm]
    assert orders[1:3] == [2, 3] and kept[1] == (7, True) and kept[2] == (7, True)
    f, g, _ = calls[3]
    assert kept[4][0] == orders[3] > len(f.terms) + len(g.terms) + 8  # K past n0
    assert orders[4] in (2, 3) and kept[4][1]


def test_shared_curve_calls_cover_every_kind():
    # the kinds the warm-against-cold test must meet, in one sequence
    calls = _shared_curve_calls(random.Random(77))
    outcomes = [json.loads(o) if o.startswith("{") else o for o in
                (_verifier_outcome(f, g, p) for f, g, p in calls)]
    orders = [o["order"] for o in outcomes if isinstance(o, dict)]
    assert any(isinstance(m, int) and m >= 4 for m in orders)
    assert NON_ISOLATED in orders
    assert any(isinstance(o, dict) and isinstance(o["order"], int)
               and o["transcript"]["truncation"] > len(f.terms) + len(g.terms) + 8
               for o, (f, g, _) in zip(outcomes, calls))
    assert any(_singular(f, p) and isinstance(o, dict) and o["transcript"].get("free_variable")
               for o, (f, _, p) in zip(outcomes, calls))
    assert any((p[0] == 0 or p[1] == 0) and any(e[0] < 0 or e[1] < 0 for e in f.terms)
               and isinstance(o, dict) for o, (f, _, p) in zip(outcomes, calls))
    assert "InputError: negative exponent at a zero coordinate" in outcomes


def test_one_walk_shared_by_threads_gives_the_sequential_transcripts():
    # threads that read and extend one curve's kept walk at once, each with
    # its own g: orders 0 to 7, so the walk grows from rung 1 past rung 7
    x, y = LaurentPolynomial({(1, 0): 1}), LaurentPolynomial({(0, 1): 1})
    f = x * y ** 2 - F(3, 2) * x ** 2 + 3 * y - F(5, 2)
    p = (F(1), F(1))
    gs = [f * (x + k) + (x - 1) ** k for k in range(8)]
    expected = []
    for g in gs:
        verify._walk.cache_clear()
        expected.append(_verifier_outcome(f, g, p))
    assert [json.loads(e)["order"] for e in expected] == list(range(8))
    results = {}

    def work(barrier, i):
        barrier.wait(10)
        results[i] = _verifier_outcome(f, gs[i], p)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(12):
            verify._walk.cache_clear()
            _verifier_outcome(f, gs[1], p)  # the walk, kept at rung 1
            barrier = threading.Barrier(8)
            threads = [threading.Thread(target=work, args=(barrier, i)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
            assert [results[i] for i in range(8)] == expected
            results.clear()
    finally:
        sys.setswitchinterval(switch)


def test_a_rung_that_fails_its_check_is_not_kept(monkeypatch):
    # a builder whose rungs from precision `bad` on are off in their last
    # coefficient: the call that reaches such a rung raises, and so does
    # every later one, with no rung kept; the true builder on the same curve
    # and point still gives the transcripts it gave before
    real = verify.branch_rungs

    def corrupted_from(bad):
        def builder(f, p, gradient, order):
            rungs = real(f, p, gradient, order)
            br = next(rungs)
            while True:
                if br.truncation_order >= bad:
                    ys = br.y_series.coeffs
                    br = BranchParametrization(f, br.base_point, br.free_variable, br.x_series,
                                               TruncatedSeries(ys[:-1] + (ys[-1] + 1,)),
                                               br.truncation_order)
                raised = yield br
                try:
                    br = rungs.send(raised)
                except StopIteration:
                    return
        return builder

    x, y = LaurentPolynomial({(1, 0): 1}), LaurentPolynomial({(0, 1): 1})
    f = x + y ** 2 + x * y - 3
    p = (F(1), F(1))
    gs = [f * x + (x - 1) ** k for k in (0, 1, 2, 5)]
    verify._walk.cache_clear()
    want = [_verifier_outcome(f, g, p) for g in gs]
    assert [json.loads(w)["order"] for w in want] == [0, 1, 2, 5]
    stands_for = [0, 1, 3, 7]  # the rung each order is read from
    for bad in (0, 3, 7):
        builder = corrupted_from(bad)
        monkeypatch.setattr(verify, "branch_rungs", builder)
        for _ in range(3):
            for g, w, rung in zip(gs, want, stands_for):
                got = _verifier_outcome(f, g, p)
                if rung >= bad:
                    assert got == "AssertionError: branch expansion does not annihilate f"
                else:
                    assert got == w
                walk = verify._walk(f, p, builder)
                assert walk.rungs is None or walk.order < bad
        monkeypatch.setattr(verify, "branch_rungs", real)
        assert [_verifier_outcome(f, g, p) for g in gs] == want


# --- line sums -----------------------------------------------------------------------


def test_line_sum_transverse():
    v = LaurentPolynomial({(1, 0): 1, (0, 1): 1})
    assert origin_multiplicity_line_product([(1, 0), (0, 1)], v) == 2


def test_line_sum_worked_examples():
    for (n, k, l), expect in (((3, 2, 0), 6), ((4, 3, 2), 14)):
        _, v, lines, _ = build_line_product_system(n, k, l, seed=5)
        assert origin_multiplicity_line_product(lines, v) == expect


def test_line_sum_of_a_form_without_a_pure_x_term():
    # v = x y^2 + y^3 + y^4 is 2t^3 + t^4 along (t, t) and 3t^3 + t^4 along
    # (2t, t); its degree, 4, is the largest e1 + e2, not e1 - e2
    v = LaurentPolynomial({(1, 2): 1, (0, 3): 1, (0, 4): 1})
    total, cert = origin_multiplicity_line_product([(1, -1), (1, -2)], v, with_certificate=True)
    assert total == 6 and cert.transcript["per_line_orders"] == [3, 3]


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


def test_segment_product_with_negative_exponents():
    # x^-2 (x - 1)^2: shifting by x^2 keeps the double root at x = 1, and
    # y^-1 - 1 crosses y = 1 simply, so the product is 2
    f = LaurentPolynomial({(-2, 0): 1, (-1, 0): -2, (0, 0): 1})
    g = LaurentPolynomial({(0, -1): 1, (0, 0): -1})
    total, cert = segment_product_multiplicity(f, g, (F(1), F(1)), with_certificate=True)
    assert total == 2 and (cert.transcript["m1"], cert.transcript["m2"]) == (2, 1)
    # a negative exponent needs its coordinate off zero
    x_minus_1 = LaurentPolynomial({(1, 0): 1, (0, 0): -1})
    y_minus_1 = LaurentPolynomial({(0, 1): 1, (0, 0): -1})
    for first, second, p in ((f, y_minus_1, (F(0), F(1))), (x_minus_1, g, (F(1), F(0)))):
        with pytest.raises(InputError, match="negative exponents"):
            segment_product_multiplicity(first, second, p)


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


def test_rank_impossibility_rejects_a_multiplicity_below_k():
    assert rank_impossibility([0, 1, 3]).transcript["requested_multiplicity"] == 3
    assert rank_impossibility([0, 1, 3], 5).transcript["requested_multiplicity"] == 5
    with pytest.raises(InputError):
        rank_impossibility([0, 1, 3], 2)


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

    _, ecert = build_gap_family_member(5, 9)
    assert replay(ecert).transcript == ecert.transcript


def _branch_order_cert():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    g = LaurentPolynomial({(1, 1): 1, (0, 0): -1})
    return intersection_multiplicity_smooth(f, g, (F(1), F(1)), with_certificate=True)[1]


def _segment_cert():
    fB = LaurentPolynomial({(2, 0): 1, (1, 0): -2, (0, 0): 1})
    fA = LaurentPolynomial({(1, 0): 1, (0, 3): -1, (0, 0): -1})
    return segment_product_multiplicity(fB, fA, (F(1), F(0)), with_certificate=True)[1]


def _line_sum_cert():
    _, v, lines, _ = build_line_product_system(3, 2, 0, seed=5)
    return origin_multiplicity_line_product(lines, v, with_certificate=True)[1]


# one certificate per producer, with one transcript entry to change
_TAMPERED = {
    "BranchOrder": (_branch_order_cert, "order", 5),
    "DerivativeTable-univariate": (
        lambda: univariate_multiplicity(UnivariatePolynomial([2, -3, 0, 1]), F(1), True)[1],
        "multiplicity", 3),
    "DerivativeTable-segment": (_segment_cert, "product", 7),
    "LineSum": (_line_sum_cert, "total", 7),
    "RankImpossibility": (lambda: rank_impossibility([0, 1, 3, 7], 5), "determinant", 1009),
    "EliminationImpossibility": (lambda: build_gap_family_member(3, 5)[1], "phi", [1, 1, 2, 4]),
}


def test_every_kind_has_a_tampering_case():
    assert {case.split("-")[0] for case in _TAMPERED} == set(verify.CHECKS)


@pytest.mark.parametrize("case", sorted(_TAMPERED))
def test_certificate_replay_detects_tampering(case):
    make, key, value = _TAMPERED[case]
    cert = make()
    assert cert.kind == case.split("-")[0] and replay(cert) == cert
    with pytest.raises(VerificationError):
        replay(replace(cert, transcript={**cert.transcript, key: value}))


def test_replay_rejects_an_unknown_kind():
    with pytest.raises(InputError, match="cannot replay"):
        replay(Certificate("Handwaving", {}, {}))


def test_replay_rejects_a_gap_family_certificate_for_an_even_multiplicity():
    _, cert = build_gap_family_member(5, 9)
    with pytest.raises(InputError):
        replay(replace(cert, inputs={**cert.inputs, "multiplicity": 8}))


def test_readme_lists_every_certificate_kind():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"kind one of (.*?), the keys of\s+`verify\.CHECKS`", readme, re.S)
    assert listed is not None
    assert sorted(re.findall(r"`(\w+)`", listed.group(1))) == sorted(verify.CHECKS)

