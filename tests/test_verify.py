"""The verifier: orders, derivative tables, line sums, impossibility
certificates and replays."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, reject, settings, strategies as st

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

