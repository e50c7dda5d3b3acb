"""Local branch expansions of plane curves and the osculation machinery.

A smooth point of a curve has a unique local branch; we parametrize it by
setting the free coordinate to ``p + t`` and solving for the dependent one
as an exact truncated series (Newton iteration on the implicit equation).
The t-expansions of the monomials along such a branch assemble into the
derivative-style coefficient matrix whose prefix ranks control which
contact orders hyperplane sections can realize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import (
    LaurentPolynomial,
    TruncatedSeries,
    kernel_basis,
    rank,
    solve_linear,
    _frac,
)
from .errors import InputError, TruncationInsufficient
from .lattice import SupportSet, convex_hull, erode, lattice_points


@dataclass
class BranchParametrization:
    """Local parametrization of Z(f) at a point where f is smooth.

    ``free_variable`` is the coordinate set to ``p + t``; the other one is
    the solved series.  The defining identity f(x(t), y(t)) = 0 holds
    exactly through the truncation order.
    """

    defining_polynomial: LaurentPolynomial
    base_point: Tuple[Fraction, Fraction]
    free_variable: str
    x_series: TruncatedSeries
    y_series: TruncatedSeries
    truncation_order: int
    _monomial_cache: Dict[Tuple[int, int], TruncatedSeries] = field(default_factory=dict, repr=False)
    _powers: Dict[Tuple[int, bool], List[TruncatedSeries]] = field(default_factory=dict, repr=False)

    def _power(self, var: int, e: int) -> TruncatedSeries:
        """x^e (var 0) or y^e (var 1), one product per power not yet tabled.

        The table for (var, e < 0) holds base^(+-k) at index k, with the
        constant 1 at index 0."""
        key = (var, e < 0)
        table = self._powers.get(key)
        if table is None:
            base = self.x_series if var == 0 else self.y_series
            table = [TruncatedSeries.constant(1, self.truncation_order),
                     base if e >= 0 else base.inverse()]
            self._powers[key] = table
        e = abs(e)
        while len(table) <= e:
            table.append(table[-1] * table[1])
        return table[e]

    def monomial_series(self, e: Tuple[int, int]) -> TruncatedSeries:
        e = (int(e[0]), int(e[1]))
        cached = self._monomial_cache.get(e)
        if cached is None:
            if e[1] == 0:
                cached = self._power(0, e[0])
            elif e[0] == 0:
                cached = self._power(1, e[1])
            else:
                cached = self._power(0, e[0]) * self._power(1, e[1])
            self._monomial_cache[e] = cached
        return cached

    def evaluate_poly(self, g: LaurentPolynomial) -> TruncatedSeries:
        if not g.terms:
            return TruncatedSeries.constant(0, self.truncation_order)
        return TruncatedSeries.linear_combination(
            [(_frac(c), self.monomial_series(e)) for e, c in g.terms.items()])


def _shifted_power(p: Fraction, i: int, order: int) -> List[Fraction]:
    """Coefficients of (p + t)^i through t^order.

    Generalized binomials C(i, k) p^(i-k), so i may be negative (then p
    must be non-zero); for i >= 0 the expansion stops after t^i."""
    out = [Fraction(0)] * (order + 1)
    binom = 1
    for k in range(order + 1):
        if binom == 0:
            break
        out[k] = binom * p ** (i - k)
        binom = binom * (i - k) // (k + 1)
    return out


def _horner(coeffs: Dict[int, TruncatedSeries], y: TruncatedSeries) -> TruncatedSeries:
    """Sum of coeffs[j] * y^j by Horner's rule in y, truncated to y's order.

    Exponents run from min(j, 0) up; a negative lowest exponent is
    factored out and multiplied back as a power of y."""
    n = y.truncation_order
    lo, hi = min(min(coeffs), 0), max(coeffs)
    acc = coeffs[hi].truncate(n)
    for j in range(hi - 1, lo - 1, -1):
        acc = acc * y
        if j in coeffs:
            acc = acc + coeffs[j].truncate(n)
    return acc * y.int_pow(lo) if lo < 0 else acc


def branch_series(
    f: LaurentPolynomial,
    p: Tuple[Fraction, Fraction],
    order: int,
    prefer: str = "y",
) -> BranchParametrization:
    """Expand the branch of Z(f) through p to the given truncation order.

    The dependent coordinate is one with a non-zero partial derivative at p
    (``prefer`` wins when both qualify).  Raises for points off the curve
    and for singular points.

    f is written once as sum_j a_j(t) dep^j with the free coordinate
    Taylor-shifted to p + t; each Newton step then evaluates f and its
    dep-derivative along the current series by Horner's rule in dep.
    """
    p = (_frac(p[0]), _frac(p[1]))
    if order < 0:
        raise InputError("truncation order must be non-negative")
    if f.evaluate(p) != 0:
        raise InputError("base point is not on the curve")
    fx = f.partial("x").evaluate(p)
    fy = f.partial("y").evaluate(p)
    if fx == 0 and fy == 0:
        raise InputError("curve is singular at the base point")
    if prefer == "y":
        dep = "y" if fy != 0 else "x"
    else:
        dep = "x" if fx != 0 else "y"

    if any(e[0] < 0 or e[1] < 0 for e in f.terms) and (p[0] == 0 or p[1] == 0):
        raise InputError("Laurent support needs a torus base point")

    free_val, dep_val = (p[0], p[1]) if dep == "y" else (p[1], p[0])
    dep_idx = 1 if dep == "y" else 0

    grouped: Dict[int, List[Fraction]] = {}
    for e, c in f.terms.items():
        c = _frac(c)
        acc = grouped.setdefault(e[dep_idx], [Fraction(0)] * (order + 1))
        for k, b in enumerate(_shifted_power(free_val, e[1 - dep_idx], order)):
            if b:
                acc[k] += c * b
    a = {j: TruncatedSeries(cs) for j, cs in grouped.items()}
    da = {j - 1: s * j for j, s in a.items() if j != 0}

    # Newton iteration, doubling the reliable order each step.  f along the
    # padded series vanishes through t^good, so the correction is
    # t^(good+1) * (its upper part / f_dep), and f_dep is needed only
    # through t^good.
    y_cur = TruncatedSeries.constant(dep_val, 0)
    good = 0
    while good < order:
        target = min(order, 2 * good + 1)
        y_ext = TruncatedSeries(y_cur.coeffs + (Fraction(0),) * (target - good))
        upper = TruncatedSeries(_horner(a, y_ext).coeffs[good + 1:])
        step = upper * _horner(da, y_cur).inverse()
        y_cur = TruncatedSeries(y_cur.coeffs + (-step).coeffs)
        good = target

    free_series = TruncatedSeries.from_coeff_map({0: free_val, 1: Fraction(1)}, order)
    if dep == "y":
        xs, ys = free_series, y_cur
    else:
        xs, ys = y_cur, free_series
    branch = BranchParametrization(f, p, "x" if dep == "y" else "y", xs, ys, order)
    # checked term by term, apart from the Taylor shift and Horner scheme above
    if any(c != 0 for c in branch.evaluate_poly(f).coeffs):
        raise AssertionError("branch expansion does not annihilate f")
    return branch


@dataclass
class OsculatingData:
    """Monomial t-expansions along a branch, one row per t-power."""

    support: SupportSet
    matrix: List[List[Fraction]]
    row_ranks: List[int]

    def columns(self) -> Tuple[Tuple[int, int], ...]:
        return self.support.sorted_points()


def osculating_matrix(A: SupportSet, branch: BranchParametrization, m: int) -> OsculatingData:
    """Rows 0..m of the monomial expansions of A along the branch.

    Row i holds the t^i coefficients of every monomial; consecutive prefix
    ranks increase by at most 1.  Raises TruncationInsufficient when the
    branch is too shallow to read off row m.
    """
    if branch.truncation_order < m:
        raise TruncationInsufficient(f"need order {m}, branch has {branch.truncation_order}")
    cols = A.sorted_points()
    series = [branch.monomial_series(e) for e in cols]
    matrix = [[s.coefficient(i) for s in series] for i in range(m + 1)]
    ranks = []
    for i in range(1, m + 2):
        ranks.append(rank(matrix[:i]))
    return OsculatingData(A, matrix, ranks)


def compute_dim_V(A: SupportSet, f: LaurentPolynomial) -> Tuple[int, int]:
    """Dimension of { g supported in A : g is a Laurent-polynomial multiple of f }.

    Returns (dim, bound) where bound is the erosion count from the hull of
    A; dim never exceeds bound and equals it whenever A is convex.
    """
    if f.is_zero():
        raise InputError("zero polynomial")
    B = f.support()
    hull = convex_hull(A)
    C = erode(hull, B)
    bound = len(C)
    if bound == 0:
        return 0, 0
    cvec = C.sorted_points()
    Aset = A.points
    constraints_idx: Dict[Tuple[int, int], int] = {}
    rows: List[List[Fraction]] = []
    for ci, c in enumerate(cvec):
        for b, coeff in f.terms.items():
            e = (c[0] + b[0], c[1] + b[1])
            if e in Aset:
                continue
            if e not in constraints_idx:
                constraints_idx[e] = len(rows)
                rows.append([Fraction(0)] * len(cvec))
            rows[constraints_idx[e]][ci] += _frac(coeff)
    if not rows:
        dim = bound
    else:
        dim = len(kernel_basis(rows))
    if dim > bound:
        raise AssertionError("dimension exceeded its erosion bound")
    if A == lattice_points(hull) and dim != bound:
        raise AssertionError("convex support must meet the erosion bound")
    return dim, bound


def multiple_witness(g: LaurentPolynomial, f: LaurentPolynomial) -> Optional[LaurentPolynomial]:
    """The Laurent cofactor c with g = c*f, or None if g is not a multiple."""
    if g.is_zero():
        return LaurentPolynomial({})
    hull = convex_hull(g.support())
    C = erode(hull, f.support())
    if len(C) == 0:
        return None
    cvec = C.sorted_points()
    exps: Dict[Tuple[int, int], int] = {}
    for c in cvec:
        for b in f.terms:
            e = (c[0] + b[0], c[1] + b[1])
            if e not in exps:
                exps[e] = len(exps)
    for e in g.terms:
        if e not in exps:
            return None
    rows = [[Fraction(0)] * len(cvec) for _ in exps]
    rhs = [Fraction(0)] * len(exps)
    for ci, c in enumerate(cvec):
        for b, coeff in f.terms.items():
            e = (c[0] + b[0], c[1] + b[1])
            rows[exps[e]][ci] += _frac(coeff)
    for e, coeff in g.terms.items():
        rhs[exps[e]] = _frac(coeff)
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    c = LaurentPolynomial({cv: s for cv, s in zip(cvec, sol)})
    if (c * f - g).is_zero():
        return c
    return None


def is_multiple_of(g: LaurentPolynomial, f: LaurentPolynomial) -> bool:
    return multiple_witness(g, f) is not None
