"""Exact algebra: series, fraction-free linear algebra, resultants."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from sparsemult.algebra import (
    LaurentPolynomial,
    MPoly,
    TruncatedSeries,
    UnivariatePolynomial,
    det,
    factor_out_roots,
    kernel_basis,
    mpoly_resultant,
    poly_gcd,
    rank,
    rational_roots,
    squarefree_part,
    sylvester_resultant,
)
from sparsemult.errors import InputError


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
        ca, cb = F(rng.randint(-9, 9), rng.randint(1, 6)), F(rng.randint(-9, 9), rng.randint(1, 6))
        _assert_exact(TruncatedSeries.linear_combination([(ca, sa), (cb, sb)]),
                      [ca * x + cb * y for x, y in zip(a, b)])
        u = draw(rng.randint(0, 12), unit=True)
        su = TruncatedSeries(u)
        _assert_exact(su.inverse(), _ref_inverse(u))
        for e in (0, 1, 2, 5, -1, -3):
            _assert_exact(su.int_pow(e), _ref_pow(u, e))


def test_series_order():
    assert TruncatedSeries([0, 0, F(5), 0]).order() == 2
    assert TruncatedSeries([0, 0, 0]).order() is None


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


def test_squarefree_part():
    # (t-1)^2 (t+2) -> (t-1)(t+2) up to normalization
    p = UnivariatePolynomial([1, -1]) ** 2 * UnivariatePolynomial([2, 1])
    sf = squarefree_part(p)
    assert sf.degree() == 2
    assert sf(F(1)) == 0 and sf(F(-2)) == 0


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
    assert p.subs({"a": F(3)}) == 8
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
