"""Constructors: univariate sparse roots, osculants, line contact, and the
worked families.  Every derived value is recomputed by an oracle in-test."""

import json
import random
import sys
import threading
from fractions import Fraction as F
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from sparsemult.algebra import (
    LaurentPolynomial,
    TruncatedSeries,
    UnivariatePolynomial,
    integer_kernel,
    poly_gcd,
    poly_kernel_basis,
    rank,
    _convolve,
)
from sparsemult import construct
from sparsemult.branches import BranchParametrization, branch_series, compute_dim_V, osculating_matrix
from sparsemult.construct import (
    _draw_through_one,
    _line_rows,
    build_gap_family_member,
    build_line_product_system,
    construct_multipoint,
    construct_prescribed,
    construct_univariate,
    gap_family_achievable_set,
    gap_family_supports,
    line_contact_construct,
)
from sparsemult.errors import (
    ConstructionFailure,
    HypothesisViolation,
    InputError,
    RetryBudgetExhausted,
)
from sparsemult.jsonio import system_to_json
from sparsemult.lattice import (
    SupportSet,
    convex_hull,
    erode,
    is_segment,
    lattice_points,
    primitivity_index,
    simplex_map,
    unimodular_triple,
)
from sparsemult.verify import (
    Certificate,
    gap_family_phi,
    intersection_multiplicity_smooth,
    replay,
    segment_product_multiplicity,
    univariate_multiplicity,
)

SIMPLEX = SupportSet([(0, 0), (1, 0), (0, 1)])
SQUARE = SupportSet([(0, 0), (1, 0), (0, 1), (1, 1)])


# --- univariate ---------------------------------------------------------------


def test_univariate_013_l2():
    p = construct_univariate([0, 1, 3], 2)
    # oracle: the two linear conditions solved by hand give (2, -3, 1),
    # i.e. (t - 1)^2 (t + 2)
    assert p == UnivariatePolynomial([2, -3, 0, 1])
    factored = UnivariatePolynomial([-1, 1]) ** 2 * UnivariatePolynomial([2, 1])
    assert p == factored
    assert univariate_multiplicity(p, F(1)) == 2


def test_univariate_l0_nonvanishing_full_support():
    p = construct_univariate([0, 1], 0)
    assert p(F(1)) != 0
    assert p.degree() == 1 and all(c != 0 for c in p.coeffs)


def test_univariate_impossibility_certificate():
    cert = construct_univariate([0, 1, 3, 7], 4)
    assert isinstance(cert, Certificate)
    assert cert.kind == "RankImpossibility"
    # Vandermonde product oracle: (1)(3)(7)(2)(6)(4)
    assert cert.transcript["determinant"] == 1 * 3 * 7 * 2 * 6 * 4 == 1008


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True), st.integers(0, 8))
def test_univariate_impossibility_replays_to_the_vandermonde(exps, extra):
    cert = construct_univariate(exps, len(exps) + extra)
    assert replay(cert) == cert
    # the power matrix rows are a^j, so its determinant is the Vandermonde product
    assert cert.transcript["determinant"] == prod(
        b - a for i, a in enumerate(exps) for b in exps[i + 1:])


def test_univariate_negative_exponents():
    p = construct_univariate([-2, 0, 3], 2)
    assert univariate_multiplicity(p, F(1)) == 2


def test_univariate_all_multiplicities():
    for exps in ([0, 1, 3, 7], [0, 2, 5], [-1, 1, 4, 6, 9]):
        for l in range(len(exps)):
            p = construct_univariate(exps, l)
            assert univariate_multiplicity(p, F(1)) == l


def test_univariate_power_matrix_never_singular():
    # exhaustive for small sizes, sampled for the rest, exponents in [0, 20]
    from itertools import combinations
    from sparsemult.algebra import det

    for k in (2, 3):
        for exps in combinations(range(0, 21), k):
            rows = [[F(a) ** j for a in exps] for j in range(k)]
            assert det(rows) != 0
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randint(4, 7)
        exps = rng.sample(range(0, 21), k)
        rows = [[F(a) ** j for a in exps] for j in range(k)]
        assert det(rows) != 0


# --- branches -----------------------------------------------------------------


def test_branch_linear():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    br = branch_series(f, (F(1), F(1)), 5)
    assert br.y_series.coeffs == (F(1), F(-1), 0, 0, 0, 0)


def test_branch_parabola():
    f = LaurentPolynomial({(0, 1): 1, (2, 0): -1})
    br = branch_series(f, (F(1), F(1)), 3)
    assert br.y_series.coeffs == (F(1), F(2), F(1), F(0))


def test_branch_hyperbola_vs_series_oracle():
    f = LaurentPolynomial({(1, 1): 1, (0, 0): -1})
    br = branch_series(f, (F(1), F(1)), 3)
    oracle = TruncatedSeries([F(1), F(1), 0, 0]).inverse()
    assert br.y_series.coeffs == oracle.coeffs


def test_branch_rejects_bad_points():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    with pytest.raises(InputError):
        branch_series(f, (F(1), F(2)), 3)
    sing = LaurentPolynomial({(2, 0): 1, (0, 2): -1})  # x^2 - y^2, singular at 0
    with pytest.raises(InputError):
        branch_series(sing, (F(0), F(0)), 3)


def test_branch_annihilates_f():
    rng = random.Random(21)
    for _ in range(10):
        f = LaurentPolynomial(
            {
                (0, 0): F(rng.randint(1, 5)),
                (1, 0): F(rng.randint(1, 5)),
                (0, 1): F(rng.randint(1, 5)),
                (1, 1): F(rng.randint(-5, -1)),
            }
        )
        val = f.evaluate((F(1), F(1)))
        f = f - LaurentPolynomial({(0, 0): val})
        if f.partial("y").evaluate((F(1), F(1))) == 0:
            continue
        br = branch_series(f, (F(1), F(1)), 8)
        assert all(c == 0 for c in br.evaluate_poly(f).coeffs)


def _naive_branch(f, p, order):
    """Reference expansion: every term of f and of its dep-derivative raised
    to its power anew at every Newton step.  Returns (x_series, y_series)."""
    dep = "y" if f.partial("y").evaluate(p) != 0 else "x"
    free_val, dep_val = (p[0], p[1]) if dep == "y" else (p[1], p[0])
    free_series = TruncatedSeries(([free_val, F(1)] + [F(0)] * order)[: order + 1])

    def along(poly, dep_series):
        n = dep_series.truncation_order
        fs = free_series.truncate(n)
        xs, ys = (fs, dep_series) if dep == "y" else (dep_series, fs)
        acc = TruncatedSeries.constant(0, n)
        for e, c in poly.terms.items():
            acc = acc + (xs.int_pow(e[0]) * ys.int_pow(e[1])) * c
        return acc

    f_dep = f.partial(dep)
    y_cur = TruncatedSeries.constant(dep_val, min(1, order))
    good = 0
    while good < order:
        target = min(order, 2 * good + 1)
        y_ext = TruncatedSeries(
            tuple(y_cur.coeffs) + (F(0),) * max(0, target - y_cur.truncation_order)
        ).truncate(target)
        y_cur = y_ext + along(f, y_ext) * along(f_dep, y_ext).inverse() * -1
        good = target
    y_cur = y_cur.truncate(order)
    assert all(c == 0 for c in along(f, y_cur).coeffs)
    return (free_series, y_cur) if dep == "y" else (y_cur, free_series)


def _curve_through(rng, p, xs, ys, nterms, dep="y"):
    """Random f with exponents drawn from xs x ys, vanishing and smooth at p;
    with dep="x", df/dy(p) = 0, so the branch solves for x."""
    while True:
        exps = list({(rng.choice(xs), rng.choice(ys)) for _ in range(nterms)})
        f = LaurentPolynomial({e: F(rng.randint(-9, 9), rng.randint(1, 4)) for e in exps})
        if not f.terms:
            continue
        e0 = next(iter(f.terms))
        at_e0 = p[0] ** e0[0] * p[1] ** e0[1]
        if at_e0 == 0:
            continue
        f = f - LaurentPolynomial({e0: f.evaluate(p) / at_e0})
        if dep == "x":
            # h - (h_y / f_y) f vanishes at p with zero y-derivative there
            h = _curve_through(rng, p, xs, ys, nterms)
            fy = f.partial("y").evaluate(p)
            if fy == 0:
                continue
            f = h - f * (h.partial("y").evaluate(p) / fy)
        fx, fy = f.partial("x").evaluate(p), f.partial("y").evaluate(p)
        if len(f.terms) >= 3 and (fy != 0 if dep == "y" else fx != 0):
            return f


_KERNEL_CASES = [
    # (base point, x exponents, y exponents)
    ((F(1), F(1)), range(0, 5), range(0, 5)),
    ((F(2), F(-1, 3)), range(0, 4), range(0, 4)),
    ((F(-3, 2), F(2)), range(-2, 3), range(-2, 3)),
    ((F(1), F(1)), range(-2, 2), range(-3, 1)),
    ((F(1, 2), F(-2)), range(-2, 3), range(-1, 3)),
    ((F(0), F(2)), range(0, 4), range(0, 4)),
    ((F(3, 2), F(0)), range(0, 4), range(0, 4)),
    ((F(2), F(3)), range(0, 4), range(1, 4)),
    ((F(-1), F(2)), range(2, 5), range(0, 4)),
]


def test_branch_kernel_matches_naive_expansion():
    rng = random.Random(2024)
    seen = set()
    for p, xs, ys in _KERNEL_CASES:
        lo = -2 if min(xs) < 0 or min(ys) < 0 else 0
        monomials = [(a, b) for a in range(lo, 4) for b in range(lo, 4)]
        for dep in ("x", "y"):
            f = _curve_through(rng, p, xs, ys, rng.randint(3, 7), dep)
            if min(e[0] for e in f.terms) < 0 and min(e[1] for e in f.terms) < 0:
                seen.add("negative exponents in both variables")
            for order in (0, 1, 12, 24):
                br = branch_series(f, p, order)
                nx, ny = _naive_branch(f, p, order)
                assert br.x_series == nx and br.y_series == ny
                for e in monomials:
                    assert TruncatedSeries._make(*br._monomial(e)) == nx.int_pow(e[0]) * ny.int_pow(e[1])
            free = 0 if br.free_variable == "x" else 1
            seen.add(f"dependent {'yx'[free]}")
            if min(e[1 - free] for e in f.terms) < 0:
                seen.add(f"negative exponent of dependent {'yx'[free]}")
            if p[free] == 0:
                seen.add("zero free coordinate")
            if min(e[1 - free] for e in f.terms) > 0:
                seen.add("no dependent^0 term")
    assert seen == {"dependent x", "dependent y", "zero free coordinate", "no dependent^0 term",
                    "negative exponents in both variables", "negative exponent of dependent x",
                    "negative exponent of dependent y"}


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32), st.sampled_from(_KERNEL_CASES), st.sampled_from("xy"),
       st.integers(0, 12),
       st.dictionaries(st.tuples(st.integers(-3, 4), st.integers(-3, 4)),
                       st.builds(F, st.integers(-9, 9), st.integers(1, 6)), max_size=7))
def test_evaluate_poly_matches_products_of_powers(seed, case, dep, order, gterms):
    # g along the branch, from the integer power tables, against
    # sum c * x(t)^i * y(t)^j built by TruncatedSeries arithmetic
    p, xs, ys = case
    rng = random.Random(seed)
    br = branch_series(_curve_through(rng, p, xs, ys, rng.randint(3, 7), dep), p, order)
    if p[0] == 0 or p[1] == 0:
        gterms = {e: c for e, c in gterms.items() if min(e) >= 0}
    g = LaurentPolynomial(gterms)
    nx, ny = br.x_series, br.y_series
    expected = TruncatedSeries.constant(0, order)
    for (i, j), c in g.terms.items():
        expected = expected + nx.int_pow(i) * ny.int_pow(j) * c
    assert br.evaluate_poly(g) == expected


def _series_numerators(kind):
    # numerators through t^15 of a base b0 + b1 t (+ higher terms): constant
    # (b1 = 0) or linear, b0 of either sign or zero, or with a term past t
    small = st.integers(-9, 9)
    if kind == "constant":
        return small.map(lambda b0: [b0] + [0] * 15)
    if kind == "linear":
        return st.tuples(small, small).map(lambda b: list(b) + [0] * 14)
    tail = st.lists(small, min_size=14, max_size=14).filter(any)
    return st.tuples(small, small, tail).map(lambda b: [b[0], b[1]] + b[2])


_BASE_KINDS = st.sampled_from(["constant", "linear", "longer"])


@settings(deadline=None, max_examples=200)
@given(_BASE_KINDS.flatmap(_series_numerators), _BASE_KINDS.flatmap(_series_numerators),
       st.integers(1, 6), st.integers(0, 15),
       st.lists(st.tuples(st.integers(0, 1), st.integers(-12, 12)), min_size=1, max_size=8))
def test_power_tables_equal_repeated_convolution(xnums, ynums, den, order, asked):
    # each power of a table, whichever path grows it and in whatever order
    # the powers are asked, holds the numerators and the denominator that
    # |k| convolutions of 1 by the base (by its inverse, for k < 0) give
    bases = [TruncatedSeries._make(nums[: order + 1], den) for nums in (xnums, ynums)]
    br = BranchParametrization(LaurentPolynomial({(0, 0): 1}), (F(1), F(1)), "x", *bases, order)
    for var, e in asked:
        base = bases[var]
        if e < 0:
            if base.nums[0] == 0:
                continue
            base = base.inverse()
        nums, d = [1] + [0] * order, 1
        for _ in range(abs(e)):
            nums, d = _convolve(nums, base.nums), d * base.den
        got = br._power(var, e)
        assert list(got[0]) == nums and got[1] == d


# --- osculating matrices --------------------------------------------------------


def test_osculating_simplex_rows():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    br = branch_series(f, (F(1), F(1)), 6)
    # expansions: 1 -> [1, 0]; y = 1 - t -> [1, -1]; x = 1 + t -> [1, 1]
    assert SIMPLEX.sorted_points() == ((0, 0), (0, 1), (1, 0))
    assert _rational(osculating_matrix(SIMPLEX, br, 1)) == [[1, 1, 1], [0, -1, 1]]


def test_osculating_constant_column():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    br = branch_series(f, (F(1), F(1)), 4)
    assert _rational(osculating_matrix(SupportSet([(0, 0)]), br, 0)) == [[1]]


def test_osculating_square_row2():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    br = branch_series(f, (F(1), F(1)), 6)
    # xy = (1+t)(1-t) = 1 - t^2 contributes the only t^2 term
    assert _rational(osculating_matrix(SQUARE, br, 2))[2] == [0, 0, 0, -1]


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32), st.sampled_from(_KERNEL_CASES), st.sampled_from("xy"),
       st.integers(0, 6), st.integers(0, 3),
       st.sets(st.tuples(st.integers(-3, 4), st.integers(-3, 4)), min_size=1, max_size=8))
def test_osculating_matrix_is_the_monomial_tables(seed, case, dep, m, extra, A):
    # rows[i][j] / dens[j] is the t^i coefficient of the j-th monomial, on
    # Laurent exponents, dependent x or y, and m = 0; the rows are fresh
    p, xs, ys = case
    rng = random.Random(seed)
    br = branch_series(_curve_through(rng, p, xs, ys, rng.randint(3, 7), dep), p, m + extra)
    if p[0] == 0 or p[1] == 0:
        A = {e for e in A if min(e) >= 0} or {(0, 0)}
    A = SupportSet(A)
    rows, dens = osculating_matrix(A, br, m)
    assert len(rows) == m + 1 and all(d > 0 for d in dens)
    assert br.free_variable == ("y" if dep == "x" else "x")
    for j, e in enumerate(A.sorted_points()):
        series = TruncatedSeries._make(*br._monomial(e))
        assert [F(rows[i][j], dens[j]) for i in range(m + 1)] == [series.coefficient(i) for i in range(m + 1)]
    # eliminating the rows in place leaves the branch's tables as they were
    expected = [list(row) for row in rows]
    for row in rows:
        row[:] = [0] * len(row)
    assert osculating_matrix(A, br, m) == (expected, dens)


def _rational(matrix):
    # the t^i coefficients rows[i][j] / dens[j]
    rows, dens = matrix
    return [[F(c, d) for c, d in zip(row, dens)] for row in rows]


def _kernel_accepts(A, rows, m):
    # construct_prescribed's check for contact order exactly m: rows
    # 0..m-1 leave a kernel of |A| - m vectors, one of them off row m; the
    # check eliminates its rows in place, so it gets copies.  The vector it
    # picks is the first of integer_kernel's full basis off row m
    assert len(rows[m]) == len(A)
    u = construct._exact_contact_vector([list(r) for r in rows[: m + 1]], m)
    basis = integer_kernel([list(r) for r in rows[:m]], len(A))
    full = len(basis) == len(A) - m
    assert u == next((v for _, v in basis if full and sum(c * w for c, w in zip(rows[m], v))), None)
    return u is not None


def test_kernel_check_matches_prefix_rank():
    # the kernel check against rank() of rows 0..m, on seeded branches and
    # on chains that stall before they grow again
    x, y = LaurentPolynomial({(1, 0): 1}), LaurentPolynomial({(0, 1): 1})
    one = LaurentPolynomial({(0, 0): 1})
    flex = y - one - (x - one) ** 3  # y = 1 + t^3: the t^2 row of 1, x, y is 0
    rows, dens = osculating_matrix(SIMPLEX, branch_series(flex, (F(1), F(1)), 3), 3)
    assert [rank(_rational((rows[:i], dens))) for i in range(1, 5)] == [1, 2, 2, 3]
    assert [_kernel_accepts(SIMPLEX, rows, m) for m in range(4)] == [True, True, False, False]
    rng = random.Random(23)
    stalled = in_span = checked = 0
    while checked < 60:
        if checked % 2:
            A = SupportSet((rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(2, 7)))
            f = _draw_through_one(SupportSet((rng.randrange(4), rng.randrange(4)) for _ in range(4)), rng)
            if f is None or not (f.partial("x").evaluate((1, 1)) or f.partial("y").evaluate((1, 1))):
                continue
        else:
            # y = 1 + c t^k: rows 1..k-1 see only the x-exponents, here at most 2
            A = SupportSet((rng.randrange(2), rng.randrange(5)) for _ in range(rng.randint(2, 7)))
            f = y - one - (x - one) ** rng.randint(2, 5) * rng.choice([-3, -1, 2, 5])
        m = rng.randint(0, 8)
        rows, dens = osculating_matrix(A, branch_series(f, (F(1), F(1)), m), m)
        r = [rank(_rational((rows[:i], dens))) for i in range(1, m + 2)]
        accepts = [_kernel_accepts(A, rows, k) for k in range(m + 1)]
        assert accepts == [r[k] == k + 1 for k in range(m + 1)]
        stalled += any(a == b < r[-1] for a, b in zip(r, r[1:]))
        # rows 0..k-1 independent and row k in their span: the kernel has
        # full size but no vector off row k
        in_span += sum(r[k] == k and (k == 0 or r[k - 1] == k) for k in range(m + 1))
        checked += 1
    assert stalled >= 10 and in_span >= 20


# --- dim V ----------------------------------------------------------------------


def test_dim_v_convex_equality():
    two_simplex = lattice_points(convex_hull(SupportSet([(0, 0), (2, 0), (0, 2)])))
    f = LaurentPolynomial({(0, 0): F(3), (1, 0): F(2), (0, 1): F(-5)})
    assert compute_dim_V(two_simplex, f) == (3, 3)


def test_dim_v_empty_erosion():
    f = LaurentPolynomial({(0, 0): 1, (2, 0): 2, (0, 2): 3})
    assert compute_dim_V(SIMPLEX, f) == (0, 0)


def test_dim_v_nonconvex_bounded():
    rng = random.Random(22)
    for _ in range(20):
        pts = {(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(4, 8))}
        A = SupportSet(pts)
        B = SupportSet({(rng.randrange(2), rng.randrange(2)) for _ in range(3)})
        if len(B) < 2:
            continue
        f = LaurentPolynomial({e: F(rng.randint(1, 9)) for e in B})
        dim, bound = compute_dim_V(A, f)
        assert dim <= bound
        if A == lattice_points(convex_hull(A)):
            assert dim == bound


# --- prescribed contact -----------------------------------------------------------


def test_prescribed_square_vs_simplex_m2():
    system = construct_prescribed(SQUARE, SIMPLEX, 2, seed=7)
    assert system.multiplicities == (2,)
    # oracle: substitute the branch of f into g by hand and check a double root;
    # with f = a + bx + cy (a+b+c = 0), y(x) solves linearly, so g restricted to
    # the branch must be c2 (x-1)^2 exactly
    f, g = system.f, system.g
    b = f.terms.get((1, 0), 0)
    c = f.terms.get((0, 1), 0)
    # y = 1 - (b/c)(x - 1) on the curve
    slope = -b / c
    x = UnivariatePolynomial([0, 1], "x")
    ypoly = UnivariatePolynomial([1 - slope, slope], "x")
    acc = UnivariatePolynomial([], "x")
    for (e1, e2), coeff in g.terms.items():
        acc = acc + (x**e1) * (ypoly**e2) * coeff
    assert acc(F(1)) == 0
    assert acc.derivative()(F(1)) == 0
    assert acc.derivative().derivative()(F(1)) != 0


def test_prescribed_m0():
    system = construct_prescribed(SQUARE, SIMPLEX, 0, seed=3)
    assert system.g.evaluate((F(1), F(1))) != 0


def test_prescribed_deep_contact_on_cubic():
    A3 = lattice_points(convex_hull(SupportSet([(0, 0), (3, 0), (0, 3)])))
    system = construct_prescribed(A3, A3, 8, seed=11)
    assert system.multiplicities == (8,)
    fresh = intersection_multiplicity_smooth(system.f, system.g, system.point)
    assert fresh == 8


def test_prescribed_rejects_segments():
    with pytest.raises(HypothesisViolation):
        construct_prescribed(SupportSet([(0, 0), (1, 0)]), SIMPLEX, 1)


def test_prescribed_rejects_sublattice_pairs():
    A = SupportSet([(0, 0), (2, 0), (0, 2)])
    with pytest.raises(HypothesisViolation):
        construct_prescribed(A, A, 1)


def test_prescribed_rejects_oversized_m():
    with pytest.raises(HypothesisViolation):
        construct_prescribed(SQUARE, SIMPLEX, 5, seed=1)


def test_prescribed_deterministic():
    s1 = construct_prescribed(SQUARE, SIMPLEX, 2, seed=42)
    s2 = construct_prescribed(SQUARE, SIMPLEX, 2, seed=42)
    assert s1.f == s2.f and s1.g == s2.g


def test_prescribed_rank_chain():
    # on every successful run the solution-space dimension drops by one per row
    system = construct_prescribed(SQUARE, SIMPLEX, 2, seed=7)
    br = branch_series(system.f, system.point, 2 + len(SQUARE) + 4)
    rows = _rational(osculating_matrix(SQUARE, br, 2))
    assert [rank(rows[:i]) for i in range(1, 4)] == [1, 2, 3]


# --- the probe cache ----------------------------------------------------------------


def _criterion_2_ops(pairs):
    """The first support pairs of acceptance criterion 2, every order from 1 to
    one past the pairing bound, under two seeds per pair, so that orders of a
    pair share their draws and one support is drawn on under two seeds."""
    rng = random.Random(616)
    ops = []
    while pairs:
        na, nb = rng.randint(3, 8), rng.randint(3, 8)
        A = SupportSet({(rng.randrange(6), rng.randrange(6)) for _ in range(na)})
        B = SupportSet({(rng.randrange(6), rng.randrange(6)) for _ in range(nb)})
        if is_segment(A) or is_segment(B) or primitivity_index(A, B) != 1:
            continue
        d = len(A) - len(erode(convex_hull(A), B)) - 1
        if d < 1:
            continue
        pairs -= 1
        ops.extend((A, B, m, 2 * pairs + m % 2) for m in range(1, d + 2))
    return ops


def _prescribed_outcome(op):
    """Canonical JSON of the system, or the class and text of the failure."""
    A, B, m, seed = op
    try:
        s = construct_prescribed(A, B, m, seed=seed)
    except (HypothesisViolation, RetryBudgetExhausted) as exc:
        return f"{type(exc).__name__}: {exc} {getattr(exc, 'diagnostics', '')}"
    return json.dumps([system_to_json(s), s.retries_used], sort_keys=True)


def test_probe_replays_the_draw_stream():
    B = SupportSet([(0, 0), (2, 0), (0, 1), (1, 2), (2, 2)])
    rng = random.Random(99)
    stream = [_draw_through_one(B, rng) for _ in range(12)]
    probe = construct._Probe(B, 99)
    for k in (0, 3, 1, 11, 6):  # past the prefix, then inside it
        f, smooth = probe.draw(k)
        assert f == stream[k]
        assert smooth == (f is not None and f.gradient((F(1), F(1))) != (0, 0))


def test_prescribed_same_on_cold_and_warm_probe_cache():
    ops = _criterion_2_ops(25)
    cold = []
    for op in ops:
        construct._probe.cache_clear()
        cold.append(_prescribed_outcome(op))
    order = list(range(len(ops)))
    random.Random(3).shuffle(order)
    shuffled = {i: _prescribed_outcome(ops[i]) for i in order}
    assert [shuffled[i] for i in range(len(ops))] == cold
    assert [_prescribed_outcome(op) for op in ops] == cold
    assert construct._probe.cache_info().hits > len(ops)


def test_warm_probe_cache_still_verifies_every_system(monkeypatch):
    ops, systems = [], []
    for A, B, m, seed in _criterion_2_ops(10):
        try:
            systems.append(construct_prescribed(A, B, m, seed=seed))
        except (HypothesisViolation, RetryBudgetExhausted):
            continue
        ops.append((A, B, m, seed))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return intersection_multiplicity_smooth(*args, **kwargs)

    construct._line_failure.cache_clear()  # line contact checks through this name too
    monkeypatch.setattr(construct, "intersection_multiplicity_smooth", counted)
    hits = construct._probe.cache_info().hits
    for (A, B, m, seed), s in zip(ops, systems):
        before = len(calls)
        again = construct_prescribed(A, B, m, seed=seed)
        assert system_to_json(again) == system_to_json(s)
        assert len(calls) == before + 1 and calls[-1][:2] == (again.f, again.g)
    assert construct._probe.cache_info().hits == hits + len(ops)


def test_probe_shared_by_threads_gives_the_same_systems():
    # threads that grow one probe's power tables at once: an append computed
    # from a stale table end would shift every higher power
    A = lattice_points(convex_hull(SupportSet([(0, 0), (10, 0), (0, 10)])))
    short = lattice_points(convex_hull(SupportSet([(0, 0), (3, 0), (0, 3)])))
    construct._probe.cache_clear()
    expected = system_to_json(construct_prescribed(A, SQUARE, 6, seed=1))
    results = []

    def work(barrier):
        barrier.wait(10)
        results.append(system_to_json(construct_prescribed(A, SQUARE, 6, seed=1)))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(12):
            construct._probe.cache_clear()
            construct_prescribed(short, SQUARE, 6, seed=1)  # the branch, with short tables
            barrier = threading.Barrier(8)
            threads = [threading.Thread(target=work, args=(barrier,)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert len(results) == 96 and all(r == expected for r in results)


def test_probe_cache_keeps_at_most_its_capacity():
    cap = construct.PROBE_CAPACITY
    assert construct._probe.cache_info().maxsize == cap
    for seed in range(cap + 20):
        construct_prescribed(SQUARE, SIMPLEX, 1, seed=seed)
        assert construct._probe.cache_info().currsize <= cap
    assert construct._probe.cache_info().currsize == cap
    misses = construct._probe.cache_info().misses
    construct_prescribed(SQUARE, SIMPLEX, 1, seed=0)  # the oldest, evicted
    assert construct._probe.cache_info().misses == misses + 1


# --- multipoint -------------------------------------------------------------------


def test_multipoint_single_reduces():
    system = construct_multipoint(SQUARE, SIMPLEX, [2], seed=5)
    assert system.multiplicities[0] >= 2


def test_multipoint_two_points():
    two_simplex = lattice_points(convex_hull(SupportSet([(0, 0), (2, 0), (0, 2)])))
    system = construct_multipoint(two_simplex, SIMPLEX, [1, 1], seed=5)
    assert len(system.points) == 2
    for pt, m in zip(system.points, system.multiplicities):
        assert m >= 1
        assert system.g.evaluate(pt) == 0


def test_multipoint_full_budget():
    two_simplex = lattice_points(convex_hull(SupportSet([(0, 0), (2, 0), (0, 2)])))
    # D = 6 - dim V - 1; against the simplex dim V = |erode| = 3, so D = 2
    system = construct_multipoint(two_simplex, SIMPLEX, [1, 1], seed=9)
    got = [
        intersection_multiplicity_smooth(system.f, system.g, pt)
        for pt in system.points
    ]
    assert all(o >= m for o, m in zip(got, system.multiplicities))


def test_multipoint_line_rule_never_blocks_a_satisfiable_request(monkeypatch):
    # the loop runs with the Descartes rule off: no request it satisfies may
    # be one the rule stops, and the rule must fire on some it cannot satisfy
    rule = construct._forces_the_line
    monkeypatch.setattr(construct, "_forces_the_line", lambda A, B, ms: False)
    rng = random.Random(39)
    fired = satisfied = 0
    for _ in range(400):
        A = SupportSet((rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(3, 8)))
        B = SupportSet((rng.randrange(3), rng.randrange(3)) for _ in range(rng.randint(3, 6)))
        ms = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
        try:
            construct_multipoint(A, B, ms, seed=rng.randrange(100), retries=4)
        except (HypothesisViolation, InputError):
            continue  # stopped by a screen that runs before the rule
        except RetryBudgetExhausted:
            fired += rule(A, B, ms)
            continue
        satisfied += 1
        assert not rule(A, B, ms), (sorted(A.points), sorted(B.points), ms)
    assert fired >= 20 and satisfied >= 100


# --- line contact -----------------------------------------------------------------


QUAD = SupportSet([(0, 0), (1, 0), (0, 1), (-1, -1)])


def test_line_contact_inflection_body_fails_exactly():
    with pytest.raises(ConstructionFailure) as exc:
        line_contact_construct(QUAD, 3, seed=3)
    diagnostics = exc.value.diagnostics
    assert "rank_minors" in diagnostics and "kind" not in diagnostics


def test_line_contact_square_fails():
    with pytest.raises(ConstructionFailure):
        line_contact_construct(SQUARE, 3, seed=3)


def test_line_contact_simplex_r2_fails():
    with pytest.raises(ConstructionFailure):
        line_contact_construct(SIMPLEX, 2, seed=3)


def test_line_contact_succeeds_on_two_simplex_points():
    A = lattice_points(convex_hull(SupportSet([(0, 0), (2, 0), (0, 2)])))
    system = line_contact_construct(A, 2, seed=3)
    assert system.multiplicities == (2,)
    got = intersection_multiplicity_smooth(system.g, system.f, system.point)
    assert got == 2


def _line_failure_of(A, r, seed):
    """(message, diagnostics) of line_contact_construct's ConstructionFailure."""
    with pytest.raises(ConstructionFailure) as exc:
        line_contact_construct(A, r, seed=seed)
    return str(exc.value), exc.value.diagnostics


@pytest.mark.parametrize("A", [QUAD, SQUARE], ids=["inflection-body", "square"])
def test_remembered_line_failure_equals_a_fresh_search(A):
    Anorm = simplex_map(*unimodular_triple(A)).apply_set(A)
    with pytest.raises(ConstructionFailure) as searched:
        construct._search_line_contact(Anorm, 3, 3, construct.RETRY_BUDGET)
    fresh = str(searched.value), searched.value.diagnostics
    construct._line_failure.cache_clear()
    assert _line_failure_of(A, 3, 3) == fresh
    hits = construct._line_failure.cache_info().hits
    for _ in range(2):
        assert _line_failure_of(A, 3, 3) == fresh
    assert construct._line_failure.cache_info().hits == hits + 2


def test_remembered_line_failure_hands_out_its_own_diagnostics():
    construct._line_failure.cache_clear()
    _, first = _line_failure_of(QUAD, 3, 3)
    kept = json.dumps(first)
    first["support"][0][0] = 99
    first["support"].append([7, 7])
    first["rank_minors"].clear()
    del first["contact_order"]
    _, second = _line_failure_of(QUAD, 3, 3)
    assert construct._line_failure.cache_info().hits == 1
    assert json.dumps(second) == kept


def test_line_contact_witness_is_searched_and_verified_on_every_call(monkeypatch):
    A = lattice_points(convex_hull(SupportSet([(0, 0), (2, 0), (0, 2)])))
    searches, checks = [], []
    search, check = construct._search_line_contact, construct.intersection_multiplicity_smooth

    def counted_search(*args):
        searches.append(args)
        return search(*args)

    def counted_check(*args, **kwargs):
        checks.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(construct, "_search_line_contact", counted_search)
    monkeypatch.setattr(construct, "intersection_multiplicity_smooth", counted_check)
    construct._line_failure.cache_clear()
    systems = []
    for calls in range(1, 4):
        before = len(checks)
        system = line_contact_construct(A, 2, seed=3)
        assert len(searches) == calls and len(checks) > before
        # the last check the search made is the one on the returned pair
        assert checks[-1][:2] == (system.g, system.f)
        systems.append(system_to_json(system))
    assert systems[1:] == systems[:-1]
    assert construct._line_failure.cache_info().currsize == 0


def _plain(value):
    """Whether value is built of str, int, list and dict only."""
    if isinstance(value, dict):
        return all(isinstance(k, str) and _plain(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(_plain(v) for v in value)
    return type(value) in (str, int)


def test_line_failure_memo_is_bounded_and_keeps_no_curve():
    cap = construct.LINE_FAILURE_CAPACITY
    assert cap >= 67  # the failing normalized supports of the bound-2 atlas
    assert construct._line_failure.cache_info().maxsize == cap
    construct._line_failure.cache_clear()
    witness_support = lattice_points(convex_hull(SupportSet([(0, 0), (2, 0), (0, 2)])))
    for seed in range(cap + 10):
        _line_failure_of(QUAD, 3, seed)
        line_contact_construct(witness_support, 2, seed=seed)
        assert construct._line_failure.cache_info().currsize <= min(seed + 1, cap)
    assert construct._line_failure.cache_info().currsize == cap
    # a hit returns the memo's own entry: a message and plain diagnostics
    for seed in range(10, cap + 10):
        entry = construct._line_failure(QUAD, 3, seed, construct.RETRY_BUDGET)
        assert _plain(entry) and isinstance(entry, tuple) and len(entry) == 2
    misses = construct._line_failure.cache_info().misses
    _line_failure_of(QUAD, 3, 0)  # the oldest, evicted
    assert construct._line_failure.cache_info().misses == misses + 1


def _random_line_supports(seed, count):
    """Seeded supports of 3-8 points in [-3, 5]^2 with a contact order 2-5."""
    rng = random.Random(seed)
    for _ in range(count):
        pts = set()
        k = rng.randint(3, 8)
        while len(pts) < k:
            pts.add((rng.randint(-3, 5), rng.randint(-3, 5)))
        yield SupportSet(pts), rng.randint(2, 5), F(rng.randint(-9, 9) or 1, rng.randint(1, 4))


S_VAR = UnivariatePolynomial([0, 1], "s")


def test_line_rows_match_series_products():
    for A, r, s0 in _random_line_supports(31, 40):
        x = TruncatedSeries([F(1), F(1)] + [F(0)] * (r - 1))
        y = TruncatedSeries([F(1), s0] + [F(0)] * (r - 1))
        expect = [x.int_pow(a) * y.int_pow(b) for a, b in A.sorted_points()]
        rows = _line_rows(A, r)
        assert [[c(s0) for c in row] for row in rows] == [
            [col.coefficient(i) for col in expect] for i in range(r + 1)]
        # the vertical line (1, 1 + t): row i is the s^i coefficient of row i
        vertical = [x.int_pow(b) for _, b in A.sorted_points()]
        assert [[c.coefficient(i) for c in row] for i, row in enumerate(rows)] == [
            [c.coefficient(i) for c in vertical] for i in range(r + 1)]


def _gbinom(n, k):
    """C(n, k) for any integer n: the falling factorial over k!."""
    return prod(n - i for i in range(k)) // factorial(k)


def _binomial_sum_rows(A, r, dx, dy):
    """Reference rows: sum_j C(a, i-j) C(b, j) dx^(i-j) dy^j, term by term
    in the ring of dy."""
    return [
        [sum(_gbinom(a, i - j) * _gbinom(b, j) * dx ** (i - j) * dy**j for j in range(i + 1))
         for a, b in A.sorted_points()]
        for i in range(r + 1)
    ]


def test_symbolic_line_rows_specialize():
    for A, r, s0 in _random_line_supports(32, 40):
        symbolic = _line_rows(A, r)
        assert [[c(s0) for c in row] for row in symbolic] == _binomial_sum_rows(A, r, 1, s0)


@settings(deadline=None, max_examples=150)
@given(st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=8),
       st.integers(0, 6))
def test_line_rows_match_binomial_sum(pts, r):
    A = SupportSet(pts)
    rows = _line_rows(A, r)
    assert rows == _binomial_sum_rows(A, r, 1, S_VAR)
    assert [[c.coefficient(i) for c in row] for i, row in enumerate(rows)] == _binomial_sum_rows(A, r, 0, 1)


def test_poly_kernel_identity_primitive_monic():
    one = UnivariatePolynomial([1], "s")
    for A, r, _ in _random_line_supports(33, 40):
        rows = _line_rows(A, r)[:r]
        basis, pivots = poly_kernel_basis(rows)
        assert len(basis) + len(pivots) == len(A)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)).is_zero()
            g = UnivariatePolynomial.zero("s")
            for c in v:
                g = poly_gcd(g, c)
            assert g == one
            # the free column is the last non-zero entry
            free_entry = [c for c in v if not c.is_zero()][-1]
            assert free_entry.leading() == 1


# --- worked families ----------------------------------------------------------------


def test_line_product_systems():
    for (n, k, l), expect in (((3, 2, 0), 6), ((4, 3, 2), 14), ((5, 4, 0), 20)):
        u, v, lines, claimed = build_line_product_system(n, k, l, seed=5)
        assert claimed == expect == n * k + l
        # u really is the product of the lines
        prod = LaurentPolynomial({(0, 0): F(1)})
        for a, b in lines:
            prod = prod * LaurentPolynomial({(1, 0): a, (0, 1): b})
        assert (prod - u).is_zero()
        assert u.support().points <= lattice_points(
            convex_hull(SupportSet([(0, 0), (n, 0), (0, n)]))
        ).points


def test_line_product_validates_parameters():
    with pytest.raises(InputError):
        build_line_product_system(3, 3, 0)  # k must stay below n


def test_gap_family_phi_is_positive_recursion():
    phi = gap_family_phi(7)
    assert phi == [1, 1, 2, 5, 14, 42, 132]
    # oracle: re-run the defining recursion independently
    ref = [1]
    for k in range(2, 8):
        ref.append(sum(ref[i - 1] * ref[k - i - 1] for i in range(1, k)))
    assert phi == ref


def test_gap_family_members_n3():
    A, B = gap_family_supports(3)
    assert len(A) == 5 and len(B) == 4
    for m in (1, 2, 3, 4):
        kind, payload = build_gap_family_member(3, m)
        assert kind == "system"
        assert payload["f_A"].support().points <= A.points
        assert payload["f_B"].support().points <= B.points
        got = intersection_multiplicity_smooth(payload["f_A"], payload["f_B"], payload["point"])
        assert got == m
    kind, payload = build_gap_family_member(3, 6)
    assert kind == "system"
    got = segment_product_multiplicity(payload["f_B"], payload["f_A"], payload["point"])
    assert got == 6


def test_gap_family_obstruction():
    kind, cert = build_gap_family_member(3, 5)
    assert kind == "impossible"
    assert cert.inputs == {"n": 3, "multiplicity": 5}
    assert cert.transcript["phi"] == [1, 1, 2, 5]
    assert replay(cert).transcript == cert.transcript
    assert gap_family_achievable_set(3) == [1, 2, 3, 4, 6]


def test_gap_family_larger_n():
    assert gap_family_achievable_set(5) == [1, 2, 3, 4, 5, 6, 8, 10]
    kind, _ = build_gap_family_member(5, 7)
    assert kind == "impossible"
    kind, payload = build_gap_family_member(5, 6)
    assert kind == "system"
    got = intersection_multiplicity_smooth(payload["f_A"], payload["f_B"], payload["point"])
    assert got == 6


def test_gap_family_rejects_bad_parameters():
    with pytest.raises(InputError):
        build_gap_family_member(4, 2)
    with pytest.raises(InputError):
        build_gap_family_member(3, 7)
