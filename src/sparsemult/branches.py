"""Local branch expansions of plane curves and the osculation machinery.

A smooth point of a curve has a unique local branch; we parametrize it by
setting the free coordinate to ``p + t`` and solving for the dependent one
as an exact truncated series (Newton iteration on the implicit equation).
The t-expansions of the monomials along such a branch assemble into the
derivative-style coefficient matrix whose kernels control which contact
orders hyperplane sections can realize.  Newton's Horner steps and
the power tables run on integer numerator lists over one denominator; a
series is reduced, by one gcd, only where a caller receives it.  The
osculating matrix is handed out in the same form: integer rows over one
denominator per column, ready for fraction-free elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    LaurentPolynomial,
    TruncatedSeries,
    rank,
    solve_linear,
    _combine,
    _convolve,
    _frac,
)
from .errors import InputError
from .lattice import SupportSet, convex_hull, erode, is_convex_support

# How many curves a process keeps a branch of: the constructors' probes, one
# per (support, seed), and the verifier's walks, one per (curve, point).  The
# th2-atlas draws on the 132 convex supports of the bound-2 box under one
# seed, so 160 keep all of them.  More would only hold memory where the seed
# changes per call: the criterion-2 sweep draws a fresh seed for every
# construction and never asks for a probe twice.
PROBE_CAPACITY = 160


@dataclass
class BranchParametrization:
    """Local parametrization of Z(f) at a point where f is smooth.

    ``free_variable`` is the coordinate set to ``p + t``; the other one is
    the solved series.  The defining identity f(x(t), y(t)) = 0 holds
    exactly through the truncation order.

    Powers of x(t) and y(t) and monomials x^i y^j are tabled unreduced,
    each one integer multiplication (shift-and-add for a linear base, a
    convolution otherwise); ``assert_annihilates`` still sums f over them
    term by term.  The tables grow in place as curves are evaluated, so a
    branch that is kept and shared (a probe's, a verifier walk's) is read
    under its owner's lock.
    """

    defining_polynomial: LaurentPolynomial
    base_point: Tuple[Fraction, Fraction]
    free_variable: str
    x_series: TruncatedSeries
    y_series: TruncatedSeries
    truncation_order: int
    _monomial_cache: Dict[Tuple[int, int], Tuple[List[int], int]] = field(default_factory=dict, repr=False)
    _powers: Dict[Tuple[int, bool], List[Tuple[List[int], int]]] = field(default_factory=dict, repr=False)

    def _power(self, var: int, e: int) -> Tuple[List[int], int]:
        """x^e (var 0) or y^e (var 1) as (numerators, denominator), one
        multiplication by the base per power not yet tabled.

        The table for (var, e < 0) holds base^(+-k) at index k, with the
        constant 1 at index 0.  A base b0 + b1 t with no higher term (the
        free coordinate p + t, and the dependent one on rungs 0 and 1) is
        multiplied by shift-and-add, next[i] = b0 cur[i] + b1 cur[i-1]: the
        integers a convolution with (b0, b1, 0, ...) gives, in two products
        per coefficient.  Inverses and longer bases are convolved."""
        key = (var, e < 0)
        table = self._powers.get(key)
        if table is None:
            base = self.x_series if var == 0 else self.y_series
            base = base if e >= 0 else base.inverse()
            table = [([1] + [0] * self.truncation_order, 1), (base.nums, base.den)]
            self._powers[key] = table
        e = abs(e)
        while len(table) <= e:
            (cur, d), (b, bd) = table[-1], table[1]
            if key[1] or any(b[2:]):
                nums = _convolve(cur, b)
            else:
                nums = [b[0] * cur[0]] + [b[0] * c + b[1] * c1 for c, c1 in zip(cur[1:], cur)]
            table.append((nums, d * bd))
        return table[e]

    def _monomial(self, e: Tuple[int, int]) -> Tuple[List[int], int]:
        cached = self._monomial_cache.get(e)
        if cached is None:
            if e[1] == 0:
                cached = self._power(0, e[0])
            elif e[0] == 0:
                cached = self._power(1, e[1])
            else:
                (a, ad), (b, bd) = self._power(0, e[0]), self._power(1, e[1])
                cached = (_convolve(a, b), ad * bd)
            self._monomial_cache[e] = cached
        return cached

    def evaluate_poly(self, g: LaurentPolynomial) -> TruncatedSeries:
        """g along the branch: the sum of c * monomial over one common
        denominator, reduced once."""
        if not g.terms:
            return TruncatedSeries.constant(0, self.truncation_order)
        return TruncatedSeries._make(*_combine(
            [(_frac(c), *self._monomial(e)) for e, c in g.terms.items()]))

    def assert_annihilates(self) -> None:
        """Check f(x(t), y(t)) = 0 through the truncation order, term by
        term over power tables built by multiplication, apart from the
        Taylor shift and Horner scheme that built the series."""
        if any(self.evaluate_poly(self.defining_polynomial).nums):
            raise AssertionError("branch expansion does not annihilate f")


def _shifted_power(p: Fraction, i: int, order: int) -> Tuple[List[int], int]:
    """(p + t)^i through t^order, as numerators over a denominator of either
    sign; for i >= 0 the list stops after t^min(i, order), leaving out the
    zero tail.

    Generalized binomials C(i, k) p^(i-k), so i may be negative (then p
    must be non-zero).  With p = u/v the numerators are C(i, k) u^(i-k) v^k
    over v^i for i >= 0, and C(i, k) v^(k-i) u^(order-k) over u^(order-i)
    for i < 0."""
    u, v = p.numerator, p.denominator
    nums = []
    binom = 1
    for k in range(min(i, order) + 1 if i >= 0 else order + 1):
        nums.append(binom * (u ** (i - k) * v**k if i >= 0 else v ** (k - i) * u ** (order - k)))
        binom = binom * (i - k) // (k + 1)
    return nums, v**i if i >= 0 else u ** (order - i)


def branch_rungs(
    f: LaurentPolynomial,
    p: Tuple[Fraction, Fraction],
    gradient: Tuple,
    order: int,
) -> Iterator[BranchParametrization]:
    """Yield the branch of Z(f) through p at each precision Newton doubling
    reaches: 0, 1, 3, 7, ..., capped at ``order``, which is always the last.
    Sending a larger order in place of ``next`` raises the cap, so a walk
    that reached ``order`` goes on from the last rung.

    The caller passes p as Fractions, has checked f(p) = 0, and passes
    ``gradient``, (df/dx, df/dy) at p up to any non-zero scale (the
    numerators of ``f.jet(p)`` will do), which it has computed anyway.
    Rung 1 is the tangent, read off the gradient's ratio without a Newton
    step; Newton doubling starts from it.  Exact Newton steps never revise
    a coefficient they have fixed, so each rung's series are prefixes of
    the next rung's and of the branch at any higher order.  The rungs are
    not self-checked here; a caller that uses one checks it with
    ``assert_annihilates``, which also catches a wrong gradient: its
    tangent survives into every later rung.  Raises, on the first ``next``,
    for singular points (a zero gradient).  Laurent f is accepted at any p
    where it can be evaluated, so every negative exponent lies in a
    non-zero coordinate of p.

    The dependent coordinate is y unless df/dy(p) = 0, then x.  f is
    written once as sum_j a_j(t) dep^j with the free coordinate
    Taylor-shifted to p + t and every a_j over one common denominator D.
    Each Newton step evaluates f and its dep-derivative along the current
    series dep = Y/d by an integer Horner loop, acc <- acc*Y + a_j D
    d^(hi-j), whose value is acc/(D d^hi).  A step inverts the derivative
    once, takes one convolution and reduces the new rung once, by one gcd
    over its common denominator; nothing in between is reduced.
    """
    if order < 0:
        raise InputError("truncation order must be non-negative")
    fx, fy = gradient
    if fx == 0 and fy == 0:
        raise InputError("curve is singular at the base point")
    dep = "y" if fy != 0 else "x"
    free_val, dep_val = (p[0], p[1]) if dep == "y" else (p[1], p[0])
    dep_idx = 1 if dep == "y" else 0

    def shifted(n: int) -> Tuple[Dict[int, List[int]], int]:
        # a[j] = numerators of a_j(t) through t^n over the common denominator
        # D, one Taylor shift per distinct exponent of the free coordinate
        shifts = {i: _shifted_power(free_val, i, n) for i in {e[1 - dep_idx] for e in f.terms}}
        terms = [(e[dep_idx], _frac(c), *shifts[e[1 - dep_idx]]) for e, c in f.terms.items()]
        D = lcm(*[c.denominator * d for _, c, _, d in terms])
        a: Dict[int, List[int]] = {}
        for j, c, nums, d in terms:
            w = c.numerator * (D // (c.denominator * d))
            row = a.setdefault(j, [0] * (n + 1))
            for i, x in enumerate(nums):
                row[i] += w * x
        return a, D

    a = D = None  # shifted on the first Newton step, and again when the cap rises

    def along(ys: Sequence[int], d: int, k: int) -> Tuple[List[int], int]:
        # f (k = 0) or its dep-derivative (k = 1: a_j weighted by j) along
        # dep = ys/d, as raw numerators over their denominator; exponents run
        # from min(j, 0) up, a negative lowest one multiplied back
        js = [j - k for j in a if j or not k]
        lo, hi = min(min(js), 0), max(js)
        acc = [(hi + k) ** k * c for c in a[hi + k][: len(ys)]]
        for j in range(hi - 1, lo - 1, -1):
            acc = _convolve(acc, ys)
            if j in js:
                w = (j + k) ** k * d ** (hi - j)
                acc = [x + w * c for x, c in zip(acc, a[j + k])]
        if lo < 0:
            back = TruncatedSeries._make(ys, d).int_pow(lo)
            return _convolve(acc, back.nums), D * d ** (hi - lo) * back.den
        return acc, D * d ** (hi - lo)

    # the free coordinate p + t, as numerators over p's denominator
    free_num, free_den = free_val.numerator, free_val.denominator

    def rung(dep_series: TruncatedSeries, k: int) -> BranchParametrization:
        free_series = TruncatedSeries._make(((free_num, free_den) + (0,) * k)[: k + 1], free_den)
        xs, ys = (free_series, dep_series) if dep == "y" else (dep_series, free_series)
        return BranchParametrization(f, p, "x" if dep == "y" else "y", xs, ys, k)

    # Newton iteration, doubling the reliable order each step.  f along the
    # padded series vanishes through t^good, so the correction is
    # t^(good+1) * (its upper part / f_dep), and f_dep is needed only
    # through t^good.  Padding, slicing and splicing act on the numerators.
    y_cur = TruncatedSeries.constant(dep_val, 0)
    good = 0
    raised = yield rung(y_cur, 0)
    while True:
        if raised is not None and raised > order:
            order, a = raised, None
        if good == order:
            return
        if good == 0:
            # rung 1 is the tangent: dep = dep_val - (f_free / f_dep) t, and
            # f_free = df/dy = 0 when the dependent coordinate is x
            y_cur, good = TruncatedSeries((dep_val, Fraction(-fx, fy) if dep == "y" else 0)), 1
        else:
            if a is None:
                a, D = shifted(order)
            target = min(order, 2 * good + 1)
            ys, d = y_cur.nums, y_cur.den
            h, hd = along(ys + (0,) * (target - good), d, 0)
            inv = TruncatedSeries._make(*along(ys, d, 1)).inverse()
            step, sd = _convolve(h[good + 1:], inv.nums), hd * inv.den
            den = lcm(d, sd)
            ys_scale, step_scale = den // d, den // sd
            y_cur = TruncatedSeries._make(
                [c * ys_scale for c in ys] + [-c * step_scale for c in step], den)
            good = target
        raised = yield rung(y_cur, good)


def branch_series(
    f: LaurentPolynomial,
    p: Tuple[Fraction, Fraction],
    order: int,
) -> BranchParametrization:
    """Expand the branch of Z(f) through p to the given truncation order:
    the last rung of ``branch_rungs``, self-checked.  Raises for points off
    the curve and for singular points."""
    p = (_frac(p[0]), _frac(p[1]))
    value, fx, fy, _ = f.jet(p)
    if value:
        raise InputError("base point is not on the curve")
    for branch in branch_rungs(f, p, (fx, fy), order):
        pass
    branch.assert_annihilates()
    return branch


def osculating_matrix(
    A: SupportSet, branch: BranchParametrization, m: int
) -> Tuple[List[List[int]], List[int]]:
    """Rows 0..m of the monomial expansions of A along the branch, as
    (rows, dens): integer rows and one positive denominator per column.

    Column j is the point ``A.sorted_points()[j]``, and rows[i][j] /
    dens[j] is the t^i coefficient of its monomial: the branch's own
    monomial table, unreduced.  The rows are fresh lists, so a caller may
    eliminate them in place.  Scaling a column changes no rank, and u is in
    the integer kernel exactly when (dens[j] * u[j])_j is in the rational
    one.  So a kernel vector u of rows 0..m-1 with a non-zero dot product
    with row m gives a curve, with coefficients dens[j] * u[j], meeting the
    branch with contact order exactly m.  Raises InputError when the branch
    is too shallow to read off row m.
    """
    if branch.truncation_order < m:
        raise InputError(f"need order {m}, branch has {branch.truncation_order}")
    cols = [branch._monomial(e) for e in A.sorted_points()]
    return [[nums[i] for nums, _ in cols] for i in range(m + 1)], [den for _, den in cols]


def _product_rows(
    C: SupportSet, f: LaurentPolynomial, skip
) -> Tuple[Dict[Tuple[int, int], int], List[List[Fraction]]]:
    """The linear map c -> c*f on coefficient vectors c over
    ``C.sorted_points()``: one row per exponent of c*f not in ``skip``, in
    the order first met, and the row index of each such exponent."""
    cvec = C.sorted_points()
    index: Dict[Tuple[int, int], int] = {}
    rows: List[List[Fraction]] = []
    for ci, c in enumerate(cvec):
        for b, coeff in f.terms.items():
            e = (c[0] + b[0], c[1] + b[1])
            if e in skip:
                continue
            if e not in index:
                index[e] = len(rows)
                rows.append([Fraction(0)] * len(cvec))
            rows[index[e]][ci] += _frac(coeff)
    return index, rows


def compute_dim_V(A: SupportSet, f: LaurentPolynomial) -> Tuple[int, int]:
    """Dimension of { g supported in A : g is a Laurent-polynomial multiple of f }.

    Returns (dim, bound) where bound is the erosion count from the hull of
    A; dim never exceeds bound and equals it whenever A is convex.  A
    multiple c*f lies in A exactly when c is supported in C = erode(conv A,
    supp f) and its coefficients cancel every exponent of c*f outside A,
    so dim = |C| - rank of those cancellation rows.
    """
    if f.is_zero():
        raise InputError("zero polynomial")
    C = erode(convex_hull(A), f.support())
    bound = len(C)
    if bound == 0:
        return 0, 0
    dim = bound - rank(_product_rows(C, f, A.points)[1])
    if dim > bound:
        raise AssertionError("dimension exceeded its erosion bound")
    if dim != bound and is_convex_support(A):
        raise AssertionError("convex support must meet the erosion bound")
    return dim, bound


def multiple_witness(g: LaurentPolynomial, f: LaurentPolynomial) -> Optional[LaurentPolynomial]:
    """The Laurent cofactor c with g = c*f, or None if g is not a multiple."""
    if g.is_zero():
        return LaurentPolynomial({})
    C = erode(convex_hull(g.support()), f.support())
    if len(C) == 0:
        return None
    exps, rows = _product_rows(C, f, ())
    if any(e not in exps for e in g.terms):
        return None
    rhs = [Fraction(0)] * len(exps)
    for e, coeff in g.terms.items():
        rhs[exps[e]] = _frac(coeff)
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    c = LaurentPolynomial({cv: s for cv, s in zip(C.sorted_points(), sol)})
    if (c * f - g).is_zero():
        return c
    return None


def is_multiple_of(g: LaurentPolynomial, f: LaurentPolynomial) -> bool:
    return multiple_witness(g, f) is not None
