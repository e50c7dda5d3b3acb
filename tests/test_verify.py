"""The independent verifier: orders, derivative tables, line sums,
impossibility certificates and replays."""

import random
from fractions import Fraction as F

import pytest

from sparsemult.algebra import LaurentPolynomial, UnivariatePolynomial
from sparsemult.construct import build_line_product_system, construct_prescribed
from sparsemult.errors import InputError, VerificationError
from sparsemult.lattice import SupportSet, convex_hull, erode, is_segment, primitivity_index
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


def test_intersection_monotone_in_truncation():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    g = LaurentPolynomial({(1, 1): 1, (0, 0): -1})
    from sparsemult.branches import branch_series

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


def test_certificate_replay_detects_tampering():
    f = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -2})
    g = LaurentPolynomial({(1, 1): 1, (0, 0): -1})
    _, cert = intersection_multiplicity_smooth(f, g, (F(1), F(1)), with_certificate=True)
    cert.transcript["order"] = 5
    with pytest.raises(VerificationError):
        replay(cert)

