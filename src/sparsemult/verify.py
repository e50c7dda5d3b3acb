"""Exact verification of multiplicity claims.

The verifier never trusts a constructor: it expands branches itself (with
the constructors' Newton code, ``branch_rungs``) and reports orders read
off exact series coefficients.  It keeps, per (curve, point), the walk
along the branch that it has made and checked itself: the live rung
generator and its highest rung that passed ``assert_annihilates``, with
that rung's power and monomial tables.  A later call on the same curve and
point evaluates the other curve once on the kept rung and reads its rungs
as prefixes of that value, or goes on with the same walk; both jets are
still read, and every rejection applied, on every call.  The memo is the
verifier's own: the constructors never read or fill it, and it never reads
their probes.

A branch order is certified within a budget n0 = |f| + |g| + 8, raised to
the Bernstein bound when nothing shows: no isolated root exceeds it, so
nothing showing by then means the root is not isolated.  The bound is
computed only then, and the walk goes on from rung n0 instead of starting
again.  Orders 0 and 1 are read off the jets of f and g at p, one pass per
polynomial giving integers over one denominator: g(p), else g's derivative
along the tangent of f, one Fraction each.  A higher order is read from the
shortest Newton rung, of precision 3 or more, that shows it, which gives
the coefficient of the expansion to the budget.  Either way the rung the
order stands for (p, the tangent or the Newton rung) is checked to
annihilate its curve before it is kept, or is a prefix of a kept rung that
was.  At a singular point of f the order is 0 when g(p) != 0, read with no
branch.  Laurent input is accepted wherever it can be evaluated: a negative
exponent needs a non-zero coordinate.  Every check returns a replayable
certificate whose transcript is reproduced bit for bit when re-run on the
same inputs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import LaurentPolynomial, TruncatedSeries, UnivariatePolynomial, det, _frac
from .branches import PROBE_CAPACITY, branch_rungs
from .errors import InputError, VerificationError
from .lattice import SupportSet, convex_hull, mixed_volume

#: Sentinel returned when the checked root is not isolated.
NON_ISOLATED = "non-isolated"


@dataclass(frozen=True)
class Certificate:
    """Replayable record of one exact claim.

    ``kind`` is a key of ``CHECKS``: BranchOrder, DerivativeTable, LineSum,
    RankImpossibility or EliminationImpossibility.  ``inputs`` identifies
    the checked objects; ``transcript`` holds the exact data that forces the
    verdict (leading series coefficient, derivative values, per-line orders,
    determinant or obstruction sequence).  ``replay`` re-runs the same check
    and compares transcripts: it shows a claim reproducible, not confirmed
    by an independent method.  A BranchOrder replay in the same process
    reads the rung the verifier kept, with its power and monomial tables,
    from its first check of the curve at that point, so it re-reads the
    order from the same checked branch rather than expanding it anew.
    A BranchOrder ``truncation`` is the budget within which the order is
    certified (n0, or the Bernstein bound past it), not the length of the
    expansion it was read from: orders 0 and 1 come from g's value and
    gradient at p (rungs 0 and 1, p and the tangent), higher ones from the
    shortest Newton rung that shows them.
    """

    kind: str
    inputs: Dict[str, object] = field(default_factory=dict)
    transcript: Dict[str, object] = field(default_factory=dict)


def univariate_multiplicity(
    P: UnivariatePolynomial, t0: Fraction, with_certificate: bool = False
):
    """Largest m with P and its first m-1 derivatives vanishing at t0."""
    if P.is_zero():
        raise InputError("zero polynomial has no multiplicity")
    t0 = _frac(t0)
    values: List[Fraction] = []
    d = P
    m = 0
    while True:
        v = d(t0)
        values.append(v)
        if v != 0:
            break
        m += 1
        d = d.derivative()
    if not with_certificate:
        return m
    return m, Certificate("DerivativeTable", {"poly": P, "point": t0},
                          {"derivative_values": values, "multiplicity": m})


def _bernstein_bound(f: LaurentPolynomial, g: LaurentPolynomial, p: Tuple[Fraction, Fraction]) -> int:
    """Bound on the multiplicity of p as an isolated root of (f, g): the
    mixed volume of the hulls (Bernstein 1975), with the origin adjoined at
    a point with a zero coordinate (Li & Wang 1996).  There a negative
    exponent lies in p's non-zero coordinate and is first cleared by a
    monomial factor, a unit at p."""

    def hull(S: SupportSet):
        if p[0] != 0 and p[1] != 0:
            return convex_hull(S)
        x, y = S.min_corner()
        return convex_hull(SupportSet(S.translate((-min(x, 0), -min(y, 0))).points | {(0, 0)}))

    return mixed_volume(hull(f.support()), hull(g.support()))


class _Walk:
    """The verifier's own walk along one curve's branch at one point: the
    live ``branch_rungs`` generator and the highest rung it has yielded that
    passed ``assert_annihilates``, kept with its power and monomial tables.
    Rung k up to that one is its prefix: a curve evaluated on the kept rung
    and truncated to t^k, reduced by ``_make``, gives the unique normal form
    of its value on rung k, which annihilates the curve through t^k as the
    kept rung does through its own order.  The tables grow in place with the
    curves evaluated on it, so one thread at a time reads or extends a
    walk."""

    __slots__ = ("lock", "rungs", "branch")

    def __init__(self):
        self.lock = threading.Lock()
        self.drop()

    def drop(self) -> None:
        self.rungs = self.branch = None

    @property
    def order(self) -> int:
        """The kept rung's order, -1 when none is kept."""
        return -1 if self.branch is None else self.branch.truncation_order


@lru_cache(maxsize=PROBE_CAPACITY)
def _walk(curve: LaurentPolynomial, p: Tuple[Fraction, Fraction], builder) -> _Walk:
    """The walk along ``curve`` at p, shared by every call on them.  The
    builder is the ``branch_rungs`` looked up at call time, so a test or a
    tracer that rebinds it starts walks of its own and sees every one."""
    return _Walk()


def intersection_multiplicity_smooth(
    f: LaurentPolynomial,
    g: LaurentPolynomial,
    p: Tuple[Fraction, Fraction],
    with_certificate: bool = False,
):
    """Local intersection multiplicity of Z(f) and Z(g) at p, computed as
    the vanishing order of g along the branch of f.

    Requires f(p) = 0.  Where f is smooth its single branch carries the
    whole local intersection number: the order is 0 when g(p) != 0, else 1
    when g's derivative along f's tangent at p is non-zero, both read off
    the jets of f and g with no series; only a higher order expands the
    branch by Newton rungs, along the curve's kept walk, which goes on from
    its last rung when it is too short.  Where f is singular the
    multiplicity is 0 if g(p) != 0 (free variable None); else f is read
    along g's branch, as the multiplicity is symmetric, and a singular g too
    raises InputError.  So does a negative exponent at a zero coordinate of
    p.  Returns
    NON_ISOLATED when no order shows by the Bernstein bound, which an
    isolated root cannot exceed.
    """
    p = (_frac(p[0]), _frac(p[1]))
    if f.is_zero() or g.is_zero():
        raise InputError("zero polynomial")
    f_jet = f.jet(p)
    if f_jet[0]:
        raise InputError("point is not on the first curve")
    g_jet = g.jet(p)  # raises for a negative exponent at a zero coordinate
    n0 = len(f.terms) + len(g.terms) + 8
    # g's value at p; like the order-1 lead below, a Fraction only when non-zero
    value = Fraction(g_jet[0], g_jet[3]) if g_jet[0] else 0
    curve, other, (_, cx, cy, _), (_, ox, oy, od) = f, g, f_jet, g_jet
    if not (cx or cy or value) and (g_jet[1] or g_jet[2]):
        # f is singular: it is read along g; its value at p is 0 as g's is
        curve, other, (_, cx, cy, _), (_, ox, oy, od) = g, f, g_jet, f_jet
    if not (cx or cy) and value:
        # p is not on the second curve: order 0 without any branch
        return _result({"order": 0, "leading_coefficient": value, "truncation": n0,
                        "free_variable": None}, f, g, p, with_certificate)

    # Rungs are prefixes of the branch, so the first rung on which the other
    # curve shows a non-zero coefficient gives the order and leading
    # coefficient that the expansion to the budget would.  On rung 0 (p) that
    # coefficient is the other curve's value, on rung 1 (the tangent) its
    # derivative along the tangent: both are read off its jet at p.  Higher
    # rungs come from the curve's walk: a prefix of its kept rung, on which
    # the other curve is evaluated once, over the tables the rung keeps;
    # else the walk goes on under this call's budget.  A walk that reaches
    # n0 with nothing shown goes on, from the same rungs, to the Bernstein
    # bound when that is larger.  The rung the order stands for is checked to annihilate
    # the curve before it is kept; one the walk kept was checked when it was.
    n, cap = n0, None
    walk = _walk(curve, p, branch_rungs)
    with walk.lock:
        kept, top = walk.order, None  # top: the last rung this call took from the walk
        on_kept = None  # the other curve on the kept rung, evaluated once

        def along(k: int) -> TruncatedSeries:
            # the other curve on rung k: a prefix of its value on the kept
            # rung, else on the rung the walk yields at k or past it
            nonlocal on_kept
            if k <= kept:
                if on_kept is None:
                    on_kept = walk.branch.evaluate_poly(other)
                return on_kept.truncate(k)
            advance(k)
            return top.evaluate_poly(other).truncate(k)

        def advance(k: int) -> None:
            nonlocal top
            if walk.rungs is None:
                rungs = branch_rungs(curve, p, (cx, cy), n)
                top = next(rungs)  # raises at a singular point
                walk.rungs = rungs
            while top is None or top.truncation_order < k:
                top = walk.rungs.send(n)

        try:
            if kept < 0:
                advance(0)
            k, order, lead = 0, 0, value
            while not lead:
                if k == n:
                    if cap is not None:
                        break
                    cap = _bernstein_bound(f, g, p)
                    if cap <= n0:
                        break
                    n = cap
                k = min(n, 2 * k + 1)
                if k == 1:
                    # the tangent is (c_y, -c_x) up to scale when c_y != 0, else (0, 1)
                    num, den = (ox * cy - oy * cx, od * cy) if cy else (oy, od)
                    order, lead = 1, Fraction(num, den) if num else 0
                else:
                    series = along(k)
                    order = series.order()
                    lead = 0 if order is None else series.coefficient(order)
            if k > kept:
                advance(k)
                top.assert_annihilates()
                walk.branch = top
        except BaseException:
            # a failed check, or a walk left past its kept rung
            walk.drop()
            raise
        free_variable = walk.branch.free_variable
    if lead:
        transcript = {"order": order, "leading_coefficient": lead, "truncation": n,
                      "free_variable": free_variable}
    else:
        origin = "" if p[0] != 0 and p[1] != 0 else " (origin adjoined)"
        transcript = {"order": NON_ISOLATED,
                      "reason": f"no order within the Bernstein bound mv = {cap}{origin}, "
                                "so the root is not isolated",
                      "truncation": max(n0, cap)}
    return _result(transcript, f, g, p, with_certificate)


def _result(transcript, f, g, p, with_certificate):
    order = transcript["order"]
    if not with_certificate:
        return order
    return order, Certificate("BranchOrder", {"f": f, "g": g, "point": p}, transcript)


def origin_multiplicity_line_product(
    lines: Sequence[Tuple[Fraction, Fraction]],
    v: LaurentPolynomial,
    with_certificate: bool = False,
):
    """Origin multiplicity of the system (product of lines, v).

    ``lines`` are coefficient pairs (alpha, beta) of pairwise independent
    forms alpha*x + beta*y; the multiplicity is the sum over the lines of
    the vanishing order of v along each line through the origin.
    """
    if v.is_zero():
        raise InputError("zero polynomial")
    if any(e[0] < 0 or e[1] < 0 for e in v.terms):
        raise InputError("origin multiplicity needs polynomial (non-Laurent) input")
    forms = [(_frac(a), _frac(b)) for a, b in lines]
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            if forms[i][0] * forms[j][1] - forms[i][1] * forms[j][0] == 0:
                raise InputError("line forms must be pairwise independent")
    deg = max(e[0] + e[1] for e in v.terms)
    orders = []
    for a, b in forms:
        # parametrize a*x + b*y = 0 through the origin by (-b*t, a*t)
        coeffs = [Fraction(0)] * (deg + 1)
        for (e1, e2), c in v.terms.items():
            coeffs[e1 + e2] += _frac(c) * (-b) ** e1 * a**e2
        ordr = next((i for i, c in enumerate(coeffs) if c != 0), None)
        if ordr is None:
            raise InputError("a line form divides v: the root is not isolated")
        orders.append(ordr)
    total = sum(orders)
    if not with_certificate:
        return total
    return total, Certificate("LineSum", {"lines": forms, "v": v},
                              {"per_line_orders": orders, "total": total})


def segment_product_multiplicity(
    f_x_only: LaurentPolynomial,
    g: LaurentPolynomial,
    p: Tuple[Fraction, Fraction],
    with_certificate: bool = False,
):
    """Multiplicity at p of a system whose first member depends on x alone.

    For p = (x0, y0) this is m1 * m2 with m1 the multiplicity of x0 in the
    univariate first member and m2 the multiplicity of y0 in g(x0, y).
    """
    p = (_frac(p[0]), _frac(p[1]))
    if any(e[1] != 0 for e in f_x_only.terms):
        raise InputError("first member must depend on x alone")
    if (p[0] == 0 and any(e[0] < 0 for e in f_x_only.terms)) or (
        (p[0] == 0 or p[1] == 0) and any(e[0] < 0 or e[1] < 0 for e in g.terms)
    ):
        raise InputError("negative exponents need non-zero coordinates")
    # both members become integer numerators over one denominator: f's
    # coefficients over their lcm, and g(x0, y) with x0 = a/b over that of
    # g's times a^-lo b^hi, for lo <= 0 <= hi bounding g's x-exponents
    shift = -min(min((e[0] for e in f_x_only.terms), default=0), 0)
    den = lcm(*[c.denominator for c in f_x_only.terms.values()])
    dense = [0] * (max(e[0] + shift for e in f_x_only.terms) + 1)
    for (e1, _), c in f_x_only.terms.items():
        dense[e1 + shift] = c.numerator * (den // c.denominator)
    px = UnivariatePolynomial.from_integers(dense, "x", den)
    m1, c1 = univariate_multiplicity(px, p[0], with_certificate=True)
    a, b = p[0].numerator, p[0].denominator
    e1s = [e[0] for e in g.terms]
    lo, hi = min(min(e1s), 0), max(max(e1s), 0)
    den = lcm(*[c.denominator for c in g.terms.values()])
    sections: Dict[int, int] = {}
    for (e1, e2), c in g.terms.items():
        w = c.numerator * (den // c.denominator) * a ** (e1 - lo) * b ** (hi - e1)
        sections[e2] = sections.get(e2, 0) + w
    shift2 = -min(min(sections), 0)
    qy = UnivariatePolynomial.from_integers(
        [sections.get(i - shift2, 0) for i in range(max(sections) + shift2 + 1)],
        "y",
        den * a ** -lo * b ** hi,
    )
    if qy.is_zero():
        raise InputError("vertical section vanishes identically: not isolated")
    m2, c2 = univariate_multiplicity(qy, p[1], with_certificate=True)
    total = m1 * m2
    if not with_certificate:
        return total
    return total, Certificate("DerivativeTable", {"f": f_x_only, "g": g, "point": p}, {
        "m1": m1,
        "m2": m2,
        "product": total,
        "m1_table": c1.transcript["derivative_values"],
        "m2_table": c2.transcript["derivative_values"],
    })


def rank_impossibility(exponents: Sequence[int], l: Optional[int] = None) -> Certificate:
    """Certificate that no sparse polynomial on these exponents has a root
    of multiplicity l >= k = |exponents| at t = 1 (l defaults to k): the
    k x k power-basis matrix is non-singular (a Vandermonde after row
    reduction), so k vanishing conditions leave only the zero vector."""
    exps = [int(a) for a in exponents]
    if len(set(exps)) != len(exps):
        raise InputError("exponents must be distinct")
    k = len(exps)
    l = k if l is None else l
    if l < k:
        raise InputError(f"multiplicity {l} is below the {k} exponents: no rank obstruction")
    d = det([[a ** j for a in exps] for j in range(k)])
    if d == 0:
        raise AssertionError("distinct exponents cannot give a singular power matrix")
    return Certificate("RankImpossibility", {"exponents": exps, "l": l}, {
        "exponents": list(exps),
        "requested_multiplicity": l,
        "determinant": d,
        "statement": "the k x k power-basis matrix is non-singular, so only the zero "
                     "coefficient vector satisfies k vanishing conditions at t = 1",
    })


def gap_family_phi(upto: int) -> List[int]:
    """The positive integer sequence from the gap family's obstruction
    recursion (phi_1 = 1, phi_k = sum phi_i phi_{k-i})."""
    phi = [0, 1]
    for k in range(2, upto + 1):
        phi.append(sum(phi[i] * phi[k - i] for i in range(1, k)))
    return phi[1:]


def elimination_impossibility(n: int, m: int) -> Certificate:
    """Certificate that the gap-family pair of parameter n has no root of
    the odd multiplicity m above n + 1: the solved coefficients alternate
    in sign, and the order-(n + 1) obstruction sum is phi_{n + 1}, which
    the recursion keeps positive.  Issued only after phi is recomputed and
    every value is seen positive."""
    if n < 3 or n % 2 == 0 or m % 2 == 0 or not n + 1 < m <= 2 * n:
        raise InputError(f"no elimination obstruction for n={n}, m={m}: "
                         "needs n odd >= 3, m odd and n + 1 < m <= 2n")
    phi = gap_family_phi(n + 1)
    if not all(v > 0 for v in phi):
        raise VerificationError("the obstruction recursion is not positive")
    return Certificate("EliminationImpossibility", {"n": n, "multiplicity": m}, {
        "phi": phi,
        "statement": (
            "with both mixed terms present, the composed equation forces the "
            "solved coefficients into a sign-alternating pattern whose order-"
            f"{n + 1} obstruction sum is a positive combination (phi_{n + 1} = "
            f"{phi[-1]} > 0), so no odd multiplicity above n + 1 is reachable; "
            "degenerate members only merge even root counts"
        ),
    })


def _derivative_table(inputs) -> Certificate:
    # one kind, two producers: a univariate table, or a segment product's two
    if "poly" in inputs:
        return univariate_multiplicity(inputs["poly"], inputs["point"], True)[1]
    return segment_product_multiplicity(inputs["f"], inputs["g"], inputs["point"], True)[1]


#: Each certificate kind and the function that recomputes it from its inputs.
CHECKS: Dict[str, Callable[[Dict[str, object]], Certificate]] = {
    "BranchOrder": lambda i: intersection_multiplicity_smooth(i["f"], i["g"], i["point"], True)[1],
    "DerivativeTable": _derivative_table,
    "LineSum": lambda i: origin_multiplicity_line_product(i["lines"], i["v"], True)[1],
    "RankImpossibility": lambda i: rank_impossibility(i["exponents"], i["l"]),
    "EliminationImpossibility": lambda i: elimination_impossibility(i["n"], i["multiplicity"]),
}


def replay(cert: Certificate) -> Certificate:
    """Re-run the check recorded in a certificate; returns the fresh
    certificate, raising VerificationError if the transcript changed and
    InputError for a kind with no check.  A BranchOrder is re-read along
    the curve's kept walk when the verifier has one, so within a process
    its branch is not expanded again."""
    check = CHECKS.get(cert.kind)
    if check is None:
        raise InputError(f"cannot replay certificate kind {cert.kind!r}")
    fresh = check(cert.inputs)
    if fresh.transcript != cert.transcript:
        raise VerificationError("replay produced a different transcript")
    return fresh
