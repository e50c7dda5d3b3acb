"""Exact algebra: series, fraction-free linear algebra, resultants."""

import random
from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from sparsemult.algebra import (
    LaurentPolynomial,
    MPoly,
    TruncatedSeries,
    UnivariatePolynomial,
    det,
    factor_out_roots,
    integer_kernel,
    kernel_basis,
    mpoly_resultant,
    poly_gcd,
    rank,
    rational_roots,
    solve_linear,
    sylvester_resultant,
)
from sparsemult.errors import InputError
from sparsemult.jsonio import upoly_to_json


# --- truncated series ----------------------------------------------------------


def test_geometric_series():
    s = TruncatedSeries([F(1), F(-1), 0, 0, 0, 0])
    assert s.inverse().coeffs == tuple([F(1)] * 6)


def test_binomial_cube():
    s = TruncatedSeries([F(1), F(1), 0, 0])
    assert s.int_pow(3).coeffs == (F(1), F(3), F(3), F(1))


def test_negative_power_and_check():
    s = TruncatedSeries([F(1), F(1), 0, 0, 0])
    inv2 = s.int_pow(-2)
    assert inv2.coeffs == (F(1), F(-2), F(3), F(-4), F(5))
    # oracle: multiply back by (1+t)^2 and compare with 1
    back = inv2 * s.int_pow(2)
    assert back.coeffs == (F(1), F(0), F(0), F(0), F(0))


def test_inverse_requires_unit():
    with pytest.raises(InputError):
        TruncatedSeries([F(0), F(1)]).inverse()


def test_inverse_random_units():
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [F(rng.randint(1, 5))] + [F(rng.randint(-4, 4)) for _ in range(6)]
        s = TruncatedSeries(coeffs)
        prod = s * s.inverse()
        assert prod.coeffs[0] == 1 and all(c == 0 for c in prod.coeffs[1:])


def _ref_mul(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(n)]


def _ref_inverse(a):
    inv = [1 / a[0]]
    for k in range(1, len(a)):
        inv.append(-sum((a[j] * inv[k - j] for j in range(1, k + 1)), F(0)) / a[0])
    return inv


def _ref_pow(a, e):
    base = a if e >= 0 else _ref_inverse(a)
    out = [F(1)] + [F(0)] * (len(a) - 1)
    for _ in range(abs(e)):
        out = _ref_mul(out, base)
    return out


def _assert_exact(series, expected):
    assert list(series.coeffs) == expected
    for c in series.coeffs:
        assert type(c) is F and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def test_series_arithmetic_matches_fraction_reference():
    rng = random.Random(11)

    def draw(n, unit=False):
        dens = rng.choice([(1,), (1, 2, 3), (5, 7, 12, 35), (1, 9, 27, 1024)])
        cs = [F(rng.choice([0, 0, rng.randint(-30, 30)]), rng.choice(dens)) for _ in range(n + 1)]
        if unit and cs[0] == 0:
            cs[0] = F(-3, rng.choice(dens))
        return cs

    for _ in range(60):
        a, b = draw(rng.randint(0, 12)), draw(rng.randint(0, 12))
        sa, sb = TruncatedSeries(a), TruncatedSeries(b)
        _assert_exact(sa * sb, _ref_mul(a, b))
        _assert_exact(sb * sa, _ref_mul(a, b))
        _assert_exact(sa + sb, [x + y for x, y in zip(a, b)])
        u = draw(rng.randint(0, 12), unit=True)
        su = TruncatedSeries(u)
        _assert_exact(su.inverse(), _ref_inverse(u))
        for e in (0, 1, 2, 5, -1, -3):
            _assert_exact(su.int_pow(e), _ref_pow(u, e))


def test_series_order():
    assert TruncatedSeries([0, 0, F(5), 0]).order() == 2
    assert TruncatedSeries([0, 0, 0]).order() is None


# rationals with mixed denominators, zeros and negatives; series of unequal orders
_rationals = st.builds(F, st.integers(-40, 40), st.sampled_from([1, 1, 2, 3, 4, 6, 9, 35, 1024]))
_coeff_lists = st.lists(st.one_of(st.just(F(0)), _rationals), min_size=1, max_size=9)
_unit_lists = _coeff_lists.filter(lambda cs: cs[0] != 0)


def _assert_normal(series, expected):
    """Value against a plain-Fraction reference, and the normal form:
    integer numerators over a positive denominator, in lowest terms."""
    assert series.coeffs == tuple(expected)
    assert all(type(c) is int for c in series.nums) and type(series.den) is int
    assert series.den > 0 and gcd(series.den, *series.nums) == 1
    assert series == TruncatedSeries(expected)


@settings(deadline=None)
@given(_coeff_lists, _coeff_lists, _rationals)
def test_series_ring_operations_are_exact_and_normal(a, b, c):
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    _assert_normal(sa, a)
    _assert_normal(sa * sb, _ref_mul(a, b))
    _assert_normal(sa + sb, [x + y for x, y in zip(a, b)])
    _assert_normal(sa - sb, [x - y for x, y in zip(a, b)])
    _assert_normal(-sa, [-x for x in a])
    _assert_normal(sa * c, [x * c for x in a])
    _assert_normal(sa + c, [a[0] + c] + a[1:])
    _assert_normal(sa.truncate(len(b) - 1), a[:len(b)])


@settings(deadline=None)
@given(_unit_lists, st.integers(-4, 4))
def test_series_inverse_and_powers_are_exact_and_normal(u, e):
    su = TruncatedSeries(u)
    _assert_normal(su.inverse(), _ref_inverse(u))
    _assert_normal(su.int_pow(e), _ref_pow(u, e))


def _ref_evaluate(p, point):
    # the plain loop over Fraction powers
    acc = F(0)
    for (e1, e2), c in p.terms.items():
        acc = acc + c * point[0] ** e1 * point[1] ** e2
    return acc


@settings(deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), _rationals, max_size=8),
       _rationals.filter(lambda v: v != 0), _rationals.filter(lambda v: v != 0))
def test_evaluate_matches_the_fraction_loop(terms, px, py):
    p = LaurentPolynomial(terms)
    for point in ((px, py), (-px, py), (F(1), F(1)), (px, F(1))):
        value = p.evaluate(point)
        assert type(value) is F and value == _ref_evaluate(p, point)


@settings(deadline=None, max_examples=300)
@given(st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), _rationals, max_size=8),
       _rationals.filter(lambda v: v != 0), _rationals.filter(lambda v: v != 0))
def test_gradient_matches_the_evaluated_partials(terms, px, py):
    # rational torus points (Laurent terms included) and points with a zero
    # coordinate, where a negative exponent there raises in both
    p = LaurentPolynomial(terms)
    for point in ((px, py), (F(0), py), (px, F(0)), (F(0), F(0))):
        try:
            expected = (p.partial("x").evaluate(point), p.partial("y").evaluate(point))
        except InputError:
            with pytest.raises(InputError, match="zero coordinate"):
                p.gradient(point)
            with pytest.raises(InputError, match="zero coordinate"):
                p.evaluate(point)
            continue
        gradient = p.gradient(point)
        assert gradient == expected and all(type(v) is F for v in gradient)


_EXPONENTS = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(deadline=None, max_examples=300)
@given(st.dictionaries(_EXPONENTS, _rationals, max_size=8),
       _rationals.filter(lambda v: v != 0), _rationals.filter(lambda v: v != 0),
       st.one_of(st.none(), _EXPONENTS))
def test_jet_is_the_value_and_the_evaluated_partials(terms, px, py, parameter_at):
    # one pass gives the value and both partials, integers over one positive
    # denominator, at torus points (Laurent terms included) and at points
    # with one or two zero coordinates; a negative exponent there, else an
    # MPoly coefficient, raises in jet, evaluate and gradient alike
    if parameter_at is not None:
        terms = {**terms, parameter_at: MPoly.var(("s",), "s")}
    p = LaurentPolynomial(terms)
    for point in ((px, py), (F(0), py), (px, F(0)), (F(0), F(0))):
        if any((e1 < 0 and point[0] == 0) or (e2 < 0 and point[1] == 0) for e1, e2 in p.terms):
            message = "negative exponent at a zero coordinate"
        elif parameter_at is not None:
            message = "only a polynomial with rational coefficients can be evaluated"
        else:
            v, dx, dy, den = p.jet(point)
            assert all(type(n) is int for n in (v, dx, dy, den)) and den > 0
            want = [_ref_evaluate(h, point) for h in (p, p.partial("x"), p.partial("y"))]
            assert [F(v, den), F(dx, den), F(dy, den)] == want
            read = [p.evaluate(point), *p.gradient(point)]
            assert read == want and all(type(c) is F for c in read)
            continue
        for method in (p.jet, p.evaluate, p.gradient):
            with pytest.raises(InputError) as raised:
                method(point)
            assert str(raised.value) == message


@settings(deadline=None, max_examples=100)
@given(st.dictionaries(_EXPONENTS, _rationals, min_size=1, max_size=8),
       st.lists(st.tuples(_rationals, _rationals), min_size=1, max_size=6))
def test_jets_are_kept_one_per_point(terms, points):
    # a polynomial keeps the jet of each point it is asked at, one entry per
    # point however the point is written, equal to a fresh polynomial's jet;
    # a point that raises is never kept, so it raises on every call
    p = LaurentPolynomial(terms)
    asked = set()
    for point in points + [(F(0), F(0))] + points[::-1] + [(F(0), F(0))]:
        fresh = LaurentPolynomial(p.terms)
        try:
            want = fresh.jet(point)
        except InputError as exc:
            with pytest.raises(InputError) as raised:
                p.jet(point)
            assert str(raised.value) == str(exc) == "negative exponent at a zero coordinate"
            continue
        for written in (point, tuple(int(c) if c.denominator == 1 else c for c in point)):
            assert p.jet(written) == want
        asked.add(point)
        assert sorted(p._jets) == sorted((x.numerator, x.denominator, y.numerator, y.denominator)
                                         for x, y in asked)


def test_evaluate_at_a_zero_coordinate_and_with_parameters():
    p = LaurentPolynomial({(2, 0): F(3, 2), (0, 1): F(-1), (1, 1): F(5, 7)})
    assert p.evaluate((F(0), F(-2, 3))) == F(2, 3)
    assert p.evaluate((F(-1, 2), F(0))) == F(3, 8)
    assert LaurentPolynomial({}).evaluate((F(0), F(0))) == 0
    for point in ((F(0), F(1)), (F(1), F(0))):
        with pytest.raises(InputError):
            LaurentPolynomial({(-1, 0): F(1), (0, -1): F(1)}).evaluate(point)
    # parameters are carried by the resultant, never evaluated
    s = MPoly.var(("s",), "s")
    q = LaurentPolynomial({(1, -1): s, (0, 2): F(1, 2), (-2, 0): s * s})
    for point in ((F(2), F(-1, 3)), (F(0), F(1))):
        with pytest.raises(InputError):
            q.evaluate(point)
        with pytest.raises(InputError):
            q.gradient(point)


# --- kernels and ranks ---------------------------------------------------------


def test_kernel_identity_empty():
    eye = [[F(1), 0, 0], [0, F(1), 0], [0, 0, F(1)]]
    assert kernel_basis(eye) == []


def test_kernel_single_row():
    basis = kernel_basis([[F(1), F(1), F(1)]])
    assert len(basis) == 2


def test_kernel_vandermonde_rows():
    rows = [[F(a) ** j for a in (0, 1, 3, 7)] for j in range(3)]
    # oracle: independent fraction elimination to count rank
    import copy

    m = copy.deepcopy(rows)
    r = 0
    for c in range(4):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    assert r == 3
    assert len(kernel_basis(rows)) == 4 - r == 1


def test_kernel_exactness_random():
    rng = random.Random(4)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nc)] for _ in range(nr)]
        basis = kernel_basis(rows)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
        assert rank(rows) + len(basis) == nc


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 6), st.lists(st.lists(st.integers(-5, 5), min_size=6, max_size=6), max_size=5),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=3), st.booleans())
def test_integer_kernel_agrees_with_kernel_basis(ncols, base, combos, zero_row):
    # on the empty row set, zero rows and rank-deficient matrices: the free
    # columns are the non-pivot ones, and each integer vector scaled to 1 at
    # its free column is the kernel_basis vector
    rows = [r[:ncols] for r in base]
    for a, b in combos:
        if rows:
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    if zero_row and rows:
        rows.insert(len(rows) // 2, [0] * ncols)
    pairs = integer_kernel([list(r) for r in rows], ncols)
    cols = [[r[c] for r in rows] for c in range(ncols)]
    ranks = [rank(list(zip(*cols[:c]))) if rows and c else 0 for c in range(ncols + 1)]
    assert [fc for fc, _ in pairs] == [c for c in range(ncols) if ranks[c + 1] == ranks[c]]
    for fc, v in pairs:
        assert all(isinstance(c, int) for c in v) and v[fc] != 0
        assert all(v[c] == 0 for c, _ in pairs if c != fc)
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)
    fractions = [[F(c) for c in r] for r in rows]
    assert [[F(c, v[fc]) for c in v] for fc, v in pairs] == kernel_basis(fractions, ncols=ncols)


def _oracle_kernel(rows):
    """Kernel basis by Gauss-Jordan elimination over Fractions: for each free
    column in ascending order, that variable 1, the other free ones 0."""
    m = [[F(c) for c in row] for row in rows]
    ncols = len(m[0])
    piv = []
    for c in range(ncols):
        r = len(piv)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        piv.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in piv):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for k, pc in enumerate(piv):
            v[pc] = -m[k][fc]
        basis.append(v)
    return basis


_entries = st.one_of(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=5))


@st.composite
def _deficient_matrices(draw):
    """Rows of rationals, with zero rows and combinations of earlier rows
    mixed in, so that ranks fall short and pivots come out negative."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "combination")))
        if kind == "zero":
            extra = [F(0)] * ncols
        else:
            a, b = draw(_entries), draw(_entries)
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            extra = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@settings(deadline=None, max_examples=300)
@given(_deficient_matrices())
def test_kernel_matches_fraction_back_substitution(rows):
    basis = kernel_basis(rows)
    assert basis == _oracle_kernel(rows)
    assert all(type(c) is F for v in basis for c in v)


def test_kernel_negative_pivots():
    # both Bareiss pivots are negative (-2, then -6)
    rows = [[F(-2), F(1), F(3)], [F(4), F(1), F(1)]]
    assert kernel_basis(rows) == _oracle_kernel(rows) == [[F(1, 3), F(-7, 3), F(1)]]


def _oracle_solve(rows, rhs):
    """Gauss-Jordan on [rows | rhs]: consistent exactly when the rhs column
    is free, and then its kernel vector (free variables 0, that entry 1) is
    (-x, 1).  A pivot on the last column leaves 0 there in every vector."""
    n = len(rows[0])
    basis = _oracle_kernel([list(r) + [b] for r, b in zip(rows, rhs)])
    if not basis or basis[-1][n] != 1:
        return None
    return [-c for c in basis[-1][:n]]


@st.composite
def _linear_systems(draw):
    """Rank-deficient rows with a right-hand side in their span or drawn freely."""
    rows = draw(_deficient_matrices())
    if draw(st.booleans()):
        x0 = draw(st.lists(_entries, min_size=len(rows[0]), max_size=len(rows[0])))
        rhs = [sum(F(a) * F(b) for a, b in zip(row, x0)) for row in rows]
    else:
        rhs = draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


@settings(deadline=None, max_examples=300)
@given(_linear_systems())
def test_solve_linear_matches_gauss_jordan(system):
    rows, rhs = system
    x = solve_linear(rows, rhs)
    assert x == _oracle_solve(rows, rhs)
    if x is not None:
        assert all(type(c) is F for c in x)
        assert [sum(F(a) * c for a, c in zip(row, x)) for row in rows] == [F(b) for b in rhs]


def test_solve_linear_examples():
    assert solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None
    assert solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]) == [F(1), F(0)]
    assert solve_linear([[F(0), F(0)]], [F(0)]) == [F(0), F(0)]
    assert solve_linear([[F(0), F(0)]], [F(1)]) is None
    assert solve_linear([[F(-2), F(1), F(3)], [F(4), F(1), F(1)]], [F(1), F(1, 2)]) == [
        F(-1, 12), F(5, 6), F(0)]
    assert solve_linear([], []) is None


def test_det_values():
    assert det([[F(2)]]) == 2
    assert det([[F(1), F(2)], [F(3), F(4)]]) == -2
    rows = [[F(a) ** j for a in (0, 1, 3, 7)] for j in range(4)]
    assert det(rows) == 1008


# --- univariate polynomials ----------------------------------------------------


def test_poly_eval_and_derivative():
    p = UnivariatePolynomial([2, -3, 0, 1])  # 2 - 3t + t^3
    assert p(F(1)) == 0
    assert p.derivative()(F(1)) == 0
    assert p.derivative().derivative()(F(1)) == 6


def test_factor_out_roots_examples():
    # a^2 (a + 1)
    p = UnivariatePolynomial([0, 0, 1]) * UnivariatePolynomial([1, 1])
    q, mults = factor_out_roots(p, [F(0), F(-1)])
    assert mults == (2, 1)
    assert q.degree() == 0
    # a^3 - a after removing 0 is a^2 - 1
    p2 = UnivariatePolynomial([0, -1, 0, 1])
    q2, mults2 = factor_out_roots(p2, [F(0)])
    assert mults2 == (1,)
    assert q2 == UnivariatePolynomial([-1, 0, 1])


def test_rational_roots():
    p = UnivariatePolynomial([-6, 1, 1])  # (t-2)(t+3)
    assert rational_roots(p) == [F(-3), F(2)]
    q = UnivariatePolynomial([1, 1, 1])  # no rational roots
    assert rational_roots(q) == []
    r = UnivariatePolynomial([0, -1, 0, 2])  # t(2t^2 - 1)
    assert rational_roots(r) == [F(0)]


def test_gcd():
    a = UnivariatePolynomial([1, -1]) ** 2
    b = UnivariatePolynomial([1, -1]) * UnivariatePolynomial([5, 1])
    g = poly_gcd(a, b)
    assert g == UnivariatePolynomial([-1, 1])  # monic t - 1


def test_exact_floordiv():
    rng = random.Random(21)
    for _ in range(30):
        a = UnivariatePolynomial([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)], "s")
        b = UnivariatePolynomial([F(rng.randint(-5, 5)) for _ in range(3)] + [F(1)], "s")
        if a.is_zero():
            continue
        assert (a * b) // b == a
        # a*b + 1 leaves the remainder 1 on division by b (deg b = 3 > 0)
        with pytest.raises(ArithmeticError):
            (a * b + 1) // b
    with pytest.raises(ZeroDivisionError):
        UnivariatePolynomial([1, 1], "s") // UnivariatePolynomial.zero("s")


def _ref_synthetic_division(coeffs, r):
    """Quotient and remainder of a Fraction coefficient list by (t - r)."""
    acc, out = F(0), []
    for c in reversed(coeffs):
        acc = acc * r + c
        out.append(acc)
    out.reverse()
    return out[1:], out[0]


def _ref_factor_out_roots(p, roots):
    # repeated Fraction synthetic division by the monic (t - r)
    coeffs, mults = list(p.coeffs), []
    for r in roots:
        m = 0
        while coeffs:
            quot, rem = _ref_synthetic_division(coeffs, r)
            if rem != 0:
                break
            coeffs, m = quot, m + 1
        mults.append(m)
    return UnivariatePolynomial(coeffs, p.var), tuple(mults)


def _ref_rational_roots(p):
    # every ±(divisor of the lowest non-zero coefficient) / (divisor of the
    # leading one) of the integer polynomial, evaluated over Fraction
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    low = next(i for i, v in enumerate(ints) if v)
    roots = {F(0)} if low else set()

    def divisors(n):
        n = abs(n)
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return small + [n // d for d in small]

    coeffs = list(p.coeffs)
    for num in divisors(ints[low]):
        for d in divisors(ints[-1]):
            for cand in (F(num, d), F(-num, d)):
                if _uref_eval(coeffs, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


# roots that matter for the triangle decision (0, -1), non-integral ones and
# a few more; each comes with a multiplicity up to 4, and 0 means absent
_ROOT_POOL = (F(0), F(-1), F(2, 3), F(-1, 2), F(1), F(3), F(-5, 4), F(7, 6))
_root_powers = st.lists(st.tuples(st.sampled_from(_ROOT_POOL), st.integers(0, 4)),
                        max_size=4, unique_by=lambda rp: rp[0])
_scalars = st.builds(F, st.integers(-60, 60).filter(bool), st.sampled_from([1, 2, 3, 7, 12, 35]))
_cofactors = st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(any)


def _product(c, root_powers, cofactor):
    """c · cofactor · ∏ (b·t − a)^e over the roots a/b."""
    p = UnivariatePolynomial(cofactor, "a") * c
    for r, e in root_powers:
        p = p * UnivariatePolynomial([-r.numerator, r.denominator], "a") ** e
    return p


@settings(deadline=None, max_examples=300)
@given(_scalars, _root_powers, _cofactors, st.lists(st.sampled_from(_ROOT_POOL), max_size=4))
def test_factor_out_roots_matches_synthetic_division(c, root_powers, cofactor, extra):
    p = _product(c, root_powers, cofactor)
    roots = [r for r, _ in root_powers] + extra
    q, mults = factor_out_roots(p, roots)
    ref_q, ref_mults = _ref_factor_out_roots(p, roots)
    assert mults == ref_mults
    assert _in_normal_form(q) and q == ref_q and q.var == "a"
    assert all(type(v) is F for v in q.coeffs)
    for r, e in root_powers:
        assert mults[roots.index(r)] >= e


def test_factor_out_roots_content_and_integer_roots():
    # 6/35 · (3a - 2)^2 (2a + 1) a^3: content 6/35, roots 2/3, -1/2 and 0
    p = _product(F(6, 35), [(F(2, 3), 2), (F(-1, 2), 1), (F(0), 3)], [1])
    q, mults = factor_out_roots(p, [F(0), F(-1), F(2, 3), F(-1, 2), 3])
    assert mults == (3, 0, 2, 1, 0)
    assert q == UnivariatePolynomial([F(6 * 9 * 2, 35)], "a")
    with pytest.raises(InputError):
        factor_out_roots(UnivariatePolynomial.zero(), [F(0)])


@settings(deadline=None, max_examples=300)
@given(_scalars, _root_powers.filter(lambda rps: sum(e for _, e in rps) <= 5), _cofactors)
def test_rational_roots_match_brute_force(c, root_powers, cofactor):
    p = _product(c, root_powers, cofactor)
    roots = rational_roots(p)
    assert roots == _ref_rational_roots(p)
    assert {r for r, e in root_powers if e} <= set(roots)


# --- the integer univariate type against lists of Fractions ------------------
# Each reference below works on plain ascending lists of Fractions, with no
# trailing zero, and shares no code with UnivariatePolynomial.


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _uref_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _uref_mul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _uref_eval(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _uref_divmod(a, b):
    r, q = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            r[k + j] -= q[k] * c
    return _trim(q), _trim(r[: len(b) - 1])


def _uref_monic_gcd(a, b):
    while b:
        a, b = b, _uref_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else a


def _uref_primitive(a):
    den = 1
    for c in a:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in a]
    g = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [F(v // g) for v in ints]


def _in_normal_form(p):
    """The fields of p are its unique normal form."""
    assert p.den > 0 and all(type(c) is int for c in p.nums)
    assert gcd(p.den, *p.nums) == 1 and (not p.nums or p.nums[-1] != 0)
    assert p.nums or p.den == 1
    return True


_small_fracs = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 4, 6, 35]))
_flists = st.lists(_small_fracs, max_size=6).map(_trim)
# 0, negative integers and non-integral rationals of either sign
_at = st.one_of(st.just(F(0)), st.builds(F, st.integers(-7, -1)),
                st.builds(F, st.integers(-9, 9), st.sampled_from([2, 3, 5, 12])))


@settings(deadline=None, max_examples=400)
@given(_flists, _flists, _at, _small_fracs)
def test_univariate_ring_operations_match_fraction_lists(a, b, x, c):
    pa, pb = UnivariatePolynomial(a, "s"), UnivariatePolynomial(b, "s")
    neg_b = [-v for v in b]
    for got, want in (
        (pa + pb, _uref_add(a, b)),
        (pa - pb, _uref_add(a, neg_b)),
        (pa * pb, _uref_mul(a, b)),
        (pa * c, _uref_mul(a, [c])),
        (c - pa, _uref_add([c], [-v for v in a])),
        (pa.derivative(), _trim([v * i for i, v in enumerate(a)][1:])),
    ):
        assert _in_normal_form(got) and got.var == "s"
        assert list(got.coeffs) == want
        assert got == UnivariatePolynomial(want, "s")
        assert all(type(v) is F for v in got.coeffs)
    assert pa(x) == _uref_eval(a, x) and type(pa(x)) is F
    if a:
        prim = pa.primitive_integer()
        assert _in_normal_form(prim) and prim.den == 1 and list(prim.coeffs) == _uref_primitive(a)
    q, rem = pa.divmod_linear(x)
    ref_q, ref_rem = _ref_synthetic_division(a, x) if a else ([], F(0))
    assert _in_normal_form(q) and list(q.coeffs) == _trim(ref_q) and rem == ref_rem
    assert (pa == c) == (a == _trim([c])) and (pa != 0) == bool(a)


@settings(deadline=None, max_examples=300)
@given(_flists, _flists.filter(bool), _flists)
def test_univariate_division_matches_fraction_long_division(q, b, r):
    r = _uref_divmod(r, b)[1]  # deg r < deg b
    a = _uref_add(_uref_mul(q, b), r)
    pa, pb = UnivariatePolynomial(a), UnivariatePolynomial(b)
    if r:
        with pytest.raises(ArithmeticError):
            pa // pb
    else:
        got = pa // pb
        assert _in_normal_form(got) and list(got.coeffs) == q
    g = poly_gcd(pa, pb)
    assert _in_normal_form(g) and list(g.coeffs) == _uref_monic_gcd(a, b)


@settings(deadline=None, max_examples=300)
@given(_flists, st.integers(-40, 40).filter(bool))
def test_integer_constructor_is_the_fraction_constructor(a, k):
    # numerators over any non-zero multiple of the least common denominator
    den = k
    for c in a:
        den = den * c.denominator // gcd(den, c.denominator)
    nums = [int(c * den) for c in a] + [0] * (k % 3)
    p, q = UnivariatePolynomial(a, "y"), UnivariatePolynomial.from_integers(nums, "y", den)
    assert _in_normal_form(q) and p == q and hash(p) == hash(q)
    assert upoly_to_json(p) == upoly_to_json(q) and repr(p) == repr(q)
    assert q.coeffs == tuple(a) and q.degree() == len(a) - 1
    if a:
        assert q.leading() == a[-1] and q.coefficient(0) == a[0] and q.coefficient(len(a)) == 0


# --- Laurent polynomials -------------------------------------------------------


def test_laurent_arithmetic_and_eval():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    assert f.evaluate((F(1), F(1))) == 0
    g = LaurentPolynomial({(-1, -1): 1})
    assert g.evaluate((F(2), F(3))) == F(1, 6)
    with pytest.raises(InputError):
        g.evaluate((F(0), F(1)))
    prod = f * g
    assert prod.coefficient((0, -1)) == 1


def test_laurent_partials():
    f = LaurentPolynomial({(2, 1): F(3), (0, 0): F(5)})
    fx = f.partial("x")
    assert fx.coefficient((1, 1)) == 6
    fy = f.partial("y")
    assert fy.coefficient((2, 0)) == 3


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       st.integers(-5, 5).filter(bool), min_size=1, max_size=9),
       st.randoms(use_true_random=False))
def test_laurent_hash_ignores_term_order_and_coefficient_type(terms, rnd):
    items = list(terms.items())
    rnd.shuffle(items)
    from_ints = LaurentPolynomial(dict(items))
    from_fractions = LaurentPolynomial({e: F(c) for e, c in terms.items()})
    assert from_ints == from_fractions
    assert hash(from_ints) == hash(from_fractions) == hash(from_ints)
    # the cached hash is the hash of the terms
    assert hash(from_ints) == hash(frozenset(from_fractions.terms.items()))
    other = from_ints + LaurentPolynomial({(4, 4): 1})
    assert other != from_ints and hash(other) == hash(frozenset(other.terms.items()))


# --- resultants ----------------------------------------------------------------


def test_resultant_substitution_oracle():
    # eliminate y from (x + y - 2, x - y): substitute y = x to get 2x - 2
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    g = LaurentPolynomial({(1, 0): 1, (0, 1): -1})
    r = sylvester_resultant(f, g, "y")
    expected = UnivariatePolynomial([-2, 2], "x")
    ratio = None
    assert r.degree() == expected.degree()
    for c1, c2 in zip(r.coeffs, expected.coeffs):
        if ratio is None:
            ratio = c1 / c2
        assert c1 == ratio * c2
    assert ratio != 0


def test_resultant_symbolic_parameters():
    pv = ("a", "b")
    a = MPoly.var(pv, "a")
    b = MPoly.var(pv, "b")
    one = MPoly.const(pv, 1)
    Fp = LaurentPolynomial({(0, 1): one, (0, 0): a - 1, (1, 0): -a})
    Gp = LaurentPolynomial({(0, 1): one, (3, 0): -b, (4, 0): b - 1})
    R = sylvester_resultant(Fp, Gp, "y")
    expected = UnivariatePolynomial([-one, one], "x") * UnivariatePolynomial(
        [a - one, -one, -one, b - one], "x"
    )
    assert R == expected


def test_resultant_shared_factor_is_zero():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    assert sylvester_resultant(f, f, "y").is_zero()
    rng = random.Random(6)
    for _ in range(10):
        shared = LaurentPolynomial(
            {(1, 0): F(rng.randint(1, 4)), (0, 1): F(rng.randint(1, 4)), (0, 0): F(rng.randint(-4, -1))}
        )
        u = LaurentPolynomial({(1, 0): F(rng.randint(1, 3)), (0, 0): F(rng.randint(1, 3))})
        v = LaurentPolynomial({(0, 1): F(rng.randint(1, 3)), (0, 0): F(rng.randint(1, 3))})
        assert sylvester_resultant(shared * u, shared * v, "y").is_zero()


def test_resultant_requires_variable():
    f = LaurentPolynomial({(1, 0): 1, (0, 0): 1})
    g = LaurentPolynomial({(2, 0): 1, (0, 0): -1})
    with pytest.raises(InputError):
        sylvester_resultant(f, g, "y")


def test_mpoly_resultant_linear():
    pv = ("a", "b")
    a = MPoly.var(pv, "a")
    b = MPoly.var(pv, "b")
    c1 = a + b - 4
    c2 = b * 3 - 6
    r = mpoly_resultant(c1, c2, "a")
    # deg_a(c2) = 0, so the resultant is c2^deg_a(c1), now over ("b",)
    assert r == MPoly(("b",), {(1,): F(3), (0,): F(-6)})
    # two genuinely bivariate conditions
    d1 = a * b - 1
    d2 = a + b
    rr = mpoly_resultant(d1, d2, "a")
    assert rr == MPoly(("b",), {(2,): F(1), (0,): F(1)})  # b^2 + 1


def test_mpoly_arithmetic():
    pv = ("a",)
    a = MPoly.var(pv, "a")
    p = (a + 1) * (a - 1)
    assert p == a * a - 1
    q = (a * a - 1) // (a - 1)
    assert q == a + 1
    with pytest.raises(ArithmeticError):
        (a * a + 1) // (a - 1)


# --- determinism ----------------------------------------------------------------


def test_bit_exact_reproducibility():
    rng1 = random.Random(99)
    rng2 = random.Random(99)

    def run(rng):
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)] for _ in range(3)]
        return kernel_basis(rows)

    assert run(rng1) == run(rng2)
