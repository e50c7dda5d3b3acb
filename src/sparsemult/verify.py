"""Exact verification of multiplicity claims.

The verifier never trusts a constructor: it recomputes branches from
scratch (with the constructors' Newton code, ``branch_rungs``) and reports
orders read off exact series coefficients.  A branch order is certified
within a budget n0 = |f| + |g| + 8, raised to the Bernstein bound when
nothing shows: no isolated root exceeds it, so nothing showing by then
means the root is not isolated.  The order is read from the shortest
Newton rung that shows it, which gives the coefficient of the expansion to
the budget, and that rung is checked to annihilate its curve.  At a
singular point of f the order is 0 when g(p) != 0, read with no branch.
Every check returns a replayable certificate whose transcript is
reproduced bit for bit when re-run on the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .algebra import LaurentPolynomial, UnivariatePolynomial, det, _frac
from .branches import branch_rungs
from .errors import InputError, VerificationError
from .lattice import SupportSet, convex_hull, mixed_volume

#: Sentinel returned when the checked root is not isolated.
NON_ISOLATED = "non-isolated"


@dataclass
class MultiplicityCertificate:
    """Replayable record of one verification.

    ``kind`` is one of BranchOrder, DerivativeTable, LineSum and
    RankImpossibility.  ``inputs`` identifies the checked objects;
    ``transcript`` holds the exact data that forces the verdict (leading
    series coefficient, derivative values, per-line orders or determinant).
    ``replay`` re-runs the same check and compares transcripts: it shows a
    claim reproducible, not confirmed by an independent method.
    A BranchOrder ``truncation`` is the budget within which the order is
    certified (n0, or the Bernstein bound past it), not the length of the
    expansion it was read from: the order comes from the shortest Newton
    rung that shows it.
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
    cert = MultiplicityCertificate(
        kind="DerivativeTable",
        inputs={"poly": P, "point": t0},
        transcript={"derivative_values": list(values), "multiplicity": m},
    )
    if with_certificate:
        return m, cert
    return m


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


def intersection_multiplicity_smooth(
    f: LaurentPolynomial,
    g: LaurentPolynomial,
    p: Tuple[Fraction, Fraction],
    with_certificate: bool = False,
):
    """Local intersection multiplicity of Z(f) and Z(g) at p, computed as
    the vanishing order of g along the branch of f.

    Requires f(p) = 0.  Where f is smooth its single branch carries the
    whole local intersection number.  Where f is singular the multiplicity
    is 0 if g(p) != 0 (free variable None); else f is read along g's branch,
    as the multiplicity is symmetric, and a singular g too raises
    InputError.  Returns NON_ISOLATED when no order shows by the Bernstein
    bound, which an isolated root cannot exceed.
    """
    p = (_frac(p[0]), _frac(p[1]))
    if f.is_zero() or g.is_zero():
        raise InputError("zero polynomial")
    if f.evaluate(p) != 0:
        raise InputError("point is not on the first curve")
    n0 = len(f.terms) + len(g.terms) + 8
    curve, other, transcript = f, g, None
    gradient = f.gradient(p)
    if gradient == (0, 0):
        gp = g.evaluate(p)
        if gp != 0:
            # p is not on the second curve: order 0 without any branch
            transcript = {"order": 0, "leading_coefficient": gp, "truncation": n0,
                          "free_variable": None}
        else:
            g_gradient = g.gradient(p)
            if g_gradient != (0, 0):
                curve, other, gradient = g, f, g_gradient

    def certified(n):
        # Rungs are prefixes of the branch at n, so the first rung on which
        # the other curve shows a non-zero coefficient gives the order and
        # leading coefficient that the expansion at n would.
        for branch in branch_rungs(curve, p, gradient, n):
            series = branch.evaluate_poly(other)
            order = series.order()
            if order is not None:
                branch.assert_annihilates()
                return {"order": order, "leading_coefficient": series.coefficient(order),
                        "truncation": n, "free_variable": branch.free_variable}
        branch.assert_annihilates()
        return None

    if transcript is None:
        transcript = certified(n0)
    if transcript is None:
        cap = _bernstein_bound(f, g, p)
        transcript = certified(cap) if cap > n0 else None
        if transcript is None:
            origin = "" if p[0] != 0 and p[1] != 0 else " (origin adjoined)"
            transcript = {"order": NON_ISOLATED,
                          "reason": f"no order within the Bernstein bound mv = {cap}{origin}, "
                                    "so the root is not isolated",
                          "truncation": max(n0, cap)}
    order = transcript["order"]
    if not with_certificate:
        return order
    return order, MultiplicityCertificate("BranchOrder", {"f": f, "g": g, "point": p}, transcript)


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
    cert = MultiplicityCertificate(
        kind="LineSum",
        inputs={"lines": [(a, b) for a, b in forms], "v": v},
        transcript={"per_line_orders": orders, "total": total},
    )
    if with_certificate:
        return total, cert
    return total


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
    shift = -min(min((e[0] for e in f_x_only.terms), default=0), 0)
    px = UnivariatePolynomial(
        [
            next((c for e, c in f_x_only.terms.items() if e[0] + shift == i), Fraction(0))
            for i in range(max(e[0] + shift for e in f_x_only.terms) + 1)
        ],
        "x",
    )
    m1, c1 = univariate_multiplicity(px, p[0], with_certificate=True)
    sections: Dict[int, Fraction] = {}
    for (e1, e2), c in g.terms.items():
        sections[e2] = sections.get(e2, Fraction(0)) + _frac(c) * p[0] ** e1
    shift2 = -min(min(sections, default=0), 0)
    qy = UnivariatePolynomial(
        [sections.get(i - shift2, Fraction(0)) for i in range(max(sections) + shift2 + 1)],
        "y",
    )
    if qy.is_zero():
        raise InputError("vertical section vanishes identically: not isolated")
    m2, c2 = univariate_multiplicity(qy, p[1], with_certificate=True)
    total = m1 * m2
    cert = MultiplicityCertificate(
        kind="DerivativeTable",
        inputs={"f": f_x_only, "g": g, "point": p},
        transcript={
            "m1": m1,
            "m2": m2,
            "product": total,
            "m1_table": c1.transcript["derivative_values"],
            "m2_table": c2.transcript["derivative_values"],
        },
    )
    if with_certificate:
        return total, cert
    return total


def rank_impossibility(exponents: Sequence[int]) -> MultiplicityCertificate:
    """Certificate that no sparse polynomial on these exponents has a root
    of multiplicity |exponents| at t = 1: the power-basis matrix is square
    and non-singular (a Vandermonde after row reduction)."""
    exps = [int(a) for a in exponents]
    if len(set(exps)) != len(exps):
        raise InputError("exponents must be distinct")
    k = len(exps)
    rows = [[Fraction(a) ** j for a in exps] for j in range(k)]
    d = det(rows)
    if d == 0:
        raise AssertionError("distinct exponents cannot give a singular power matrix")
    return MultiplicityCertificate(
        kind="RankImpossibility",
        inputs={"exponents": exps},
        transcript={"determinant": d, "order_blocked": k},
    )


def replay(cert: MultiplicityCertificate):
    """Re-run the verification recorded in a certificate; returns the fresh
    certificate, raising VerificationError if the transcript changed."""
    if cert.kind == "DerivativeTable" and "poly" in cert.inputs:
        _, fresh = univariate_multiplicity(
            cert.inputs["poly"], cert.inputs["point"], with_certificate=True
        )
    elif cert.kind == "DerivativeTable":
        _, fresh = segment_product_multiplicity(
            cert.inputs["f"], cert.inputs["g"], cert.inputs["point"], with_certificate=True
        )
    elif cert.kind == "BranchOrder":
        _, fresh = intersection_multiplicity_smooth(
            cert.inputs["f"], cert.inputs["g"], cert.inputs["point"], with_certificate=True
        )
    elif cert.kind == "LineSum":
        _, fresh = origin_multiplicity_line_product(
            cert.inputs["lines"], cert.inputs["v"], with_certificate=True
        )
    elif cert.kind == "RankImpossibility":
        fresh = rank_impossibility(cert.inputs["exponents"])
    else:
        raise InputError(f"cannot replay certificate kind {cert.kind!r}")
    if fresh.transcript != cert.transcript:
        raise VerificationError("replay produced a different transcript")
    return fresh

