"""Decision procedures: inflection admissibility of trinomial supports and
the multiplicity-3 classification of support pairs.

A triangle support admits a torus inflection iff a one-parameter Hessian
polynomial keeps a root after the two degenerate-coefficient roots (0 and
-1) are stripped; existence over C is decided by the degree of the reduced
factor, never by numeric root hunting.  The pair classification rests on
the root-count criterion (mixed volume at most 2) and cross-checks every
impossible verdict against the exceptional-family catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    LaurentPolynomial,
    UnivariatePolynomial,
    factor_out_roots,
)
from .construct import (
    DEFAULT_SEED,
    RETRY_BUDGET,
    ConstructedSystem,
    contact_bound,
    construct_univariate,
    probe_curve,
    _line_contact_on,
    _prescribed,
)
from .errors import (
    ConstructionFailure,
    HypothesisViolation,
    InputError,
    RetryBudgetExhausted,
)
from .lattice import (
    Point,
    SupportSet,
    UnimodularAffineMap,
    area2,
    convex_hull,
    cross,
    is_convex_support,
    is_segment,
    mixed_volume,
    normal_form,
    primitivity_index,
    unimodular_frame,
)
from .verify import segment_product_multiplicity

# the line-preserving monomial projectivities: coordinate swap and
# (i, j) -> (i, -i-j), generating an order-6 group of exponent maps
_SWAP = ((0, 1), (1, 0))
_TAU = ((1, 0), (-1, -1))


def _group_elements() -> List[UnimodularAffineMap]:
    gens = [UnimodularAffineMap(((1, 0), (0, 1))), UnimodularAffineMap(_SWAP), UnimodularAffineMap(_TAU)]
    seen = {}
    frontier = list(gens)
    while frontier:
        g = frontier.pop()
        if g.matrix in seen:
            continue
        seen[g.matrix] = g
        for h in gens[1:]:
            frontier.append(g.compose(h))
    return [seen[m] for m in sorted(seen)]


PROJECTIVE_GROUP = _group_elements()


def _image(g: UnimodularAffineMap, pts: Sequence[Point]) -> List[Point]:
    """The images of points that are already pairs of ints under a group
    element, a linear map: its matrix applied with no revalidation."""
    (a, b), (c, d) = g.matrix
    return [(a * x + b * y, c * x + d * y) for x, y in pts]


def _linear_triple(p: Sequence[int], q: Sequence[int], r: Sequence[int]) -> List[int]:
    """Coefficients of (p0 + p1 a)(q0 + q1 a)(r0 + r1 a), ascending."""
    (p0, p1), (q0, q1), (r0, r1) = p, q, r
    return [
        p0 * q0 * r0,
        p1 * q0 * r0 + p0 * q1 * r0 + p0 * q0 * r1,
        p1 * q1 * r0 + p1 * q0 * r1 + p0 * q1 * r1,
        p1 * q1 * r1,
    ]


def hessian_at_one(n: int, m: int, k: int, l: int) -> UnivariatePolynomial:
    """Bordered-Hessian determinant at (1, 1) for the one-parameter family
    of trinomials on the triangle {(0,0), (n,m), (k,l)}.

    The family is 1 + a*x^n*y^m - (1+a)*x^k*y^l, so the value at a is the
    Hessian of the member with parameter a: each derivative at (1, 1) is
    c1*a + c2*(-1-a), and He = 2 fx fy fxy - fx^2 fyy - fy^2 fxx is a cubic
    in a.  Its coefficients are computed as integers; the anchor identities
    He(0) = -k*l*(k+l) and He(-1) = -m*n*(m+n) are asserted on those
    integers on every call, and the returned polynomial keeps them as its
    integer numerators.
    """
    if n * l - m * k == 0:
        raise InputError("collinear triangle")

    def comb(c1, c2):
        return (-c2, c1 - c2)

    fx = comb(n, k)
    fy = comb(m, l)
    fxx = comb(n * (n - 1), k * (k - 1))
    fyy = comb(m * (m - 1), l * (l - 1))
    fxy = comb(n * m, k * l)
    he = [
        2 * u - v - w
        for u, v, w in zip(
            _linear_triple(fx, fy, fxy), _linear_triple(fx, fx, fyy), _linear_triple(fy, fy, fxx)
        )
    ]
    if he[0] != -k * l * (k + l) or he[0] - he[1] + he[2] - he[3] != -m * n * (m + n):
        raise AssertionError("Hessian anchor identities failed")
    return UnivariatePolynomial.from_integers(he, "a")


def theta_poly(n: int, m: int, k: int) -> UnivariatePolynomial:
    """Reduced Hessian for a triangle in the axis-aligned position
    {(n,0), (m,0), (0,k)}: the full Hessian is (1+a)*k*Theta(a), where
    Theta(a) = (k-1)(n + a m)^2 - k(1 + a)(n(n-1) + a m(m-1)).  The
    coefficients are computed as integers, the returned polynomial's
    numerators."""
    nn, mm = n * (n - 1), m * (m - 1)
    return UnivariatePolynomial.from_integers(
        [
            (k - 1) * n * n - k * nn,
            2 * (k - 1) * n * m - k * (nn + mm),
            (k - 1) * m * m - k * mm,
        ],
        "a",
    )


@dataclass
class TriangleClass:
    triangle: SupportSet
    verdict: str  # "NoInflection" | "HasInflection"
    family: Optional[int] = None
    witness_map: Optional[UnimodularAffineMap] = None
    decision_poly: Optional[UnivariatePolynomial] = None
    reduced_factor: Optional[UnivariatePolynomial] = None
    case: str = ""


# the roots that the degenerate members a = 0 and a = -1 put on every
# decision polynomial
_DEGENERATE_ROOTS = (Fraction(0), Fraction(-1))


def _edge_directions(pts: Sequence[Point]) -> List[Point]:
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            out.append((pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]))
    return out


def _is_special(d: Point) -> bool:
    return d[0] == 0 or d[1] == 0 or d[0] + d[1] == 0


def triangle_inflection(T: SupportSet) -> TriangleClass:
    """Decide whether curves supported at a lattice triangle admit an
    inflection point on the complex torus.

    Generic triangles are decided by the Hessian family directly; triangles
    with a horizontal, vertical or anti-diagonal edge are first moved to an
    axis-aligned position by line-preserving monomial projectivities and
    decided through the reduced factor.  The verdict only depends on the
    orbit of the triangle under those projectivities.
    """
    pts = T.sorted_points()
    if len(pts) != 3:
        raise InputError("triangle support needs exactly 3 points")
    if cross(pts[0], pts[1], pts[2]) == 0:
        raise InputError("collinear input")

    dirs = _edge_directions(pts)
    if not any(_is_special(d) for d in dirs):
        base = pts[0]
        (n, m) = (pts[1][0] - base[0], pts[1][1] - base[1])
        (k, l) = (pts[2][0] - base[0], pts[2][1] - base[1])
        he = hessian_at_one(n, m, k, l)
        reduced, _ = factor_out_roots(he, _DEGENERATE_ROOTS)
        case = "generic"
        decision = he
    else:
        n, m, k = _axis_position(pts)
        decision = theta_poly(n, m, k)
        reduced, _ = factor_out_roots(decision, _DEGENERATE_ROOTS) if not decision.is_zero() else (decision, (0, 0))
        case = "axis-aligned"

    if not reduced.is_zero() and reduced.degree() >= 1:
        return TriangleClass(
            triangle=T,
            verdict="HasInflection",
            decision_poly=decision,
            reduced_factor=reduced,
            case=case,
        )
    family, wmap = _match_triangle_family(T)
    if family is None:
        raise AssertionError(
            f"no-inflection triangle {pts} matches no catalogued family"
        )
    return TriangleClass(
        triangle=T,
        verdict="NoInflection",
        family=family,
        witness_map=wmap,
        decision_poly=decision,
        reduced_factor=reduced,
        case=case,
    )


def _axis_position(pts: Sequence[Point]) -> Tuple[int, int, int]:
    """Move a triangle with a special edge to {(n,0), (m,0), (0,k)} using
    only line-preserving projectivities and translations."""
    for g in PROJECTIVE_GROUP:
        img = _image(g, pts)
        for i in range(3):
            for j in range(i + 1, 3):
                if img[i][1] == img[j][1]:
                    third = [img[t] for t in range(3) if t not in (i, j)][0]
                    dy = img[i][1]
                    n = img[i][0] - third[0]
                    m = img[j][0] - third[0]
                    k = third[1] - dy
                    if k != 0 and n != m:
                        return n, m, k
    raise AssertionError("special edge vanished under the projective group")


def _match_triangle_family(T: SupportSet) -> Tuple[Optional[int], Optional[UnimodularAffineMap]]:
    """Match a triangle against the no-inflection families, up to the
    line-preserving projectivities and translations.

    Families can overlap; the smallest matching family index is reported.
    Family 3, {(1,0), (b,0), (0,1)}, is never reported: the group element
    ((0,1), (-1,-1)) maps it to {(0,-1), (1,-1), (0,-b)}, a family-1
    triangle, so families 1 and 3 are one class under the group and only
    families 1, 2 and 4 are tried.
    """
    pts = T.sorted_points()

    def fam14(img, want):
        for base_idx in range(3):
            base = img[base_idx]
            others = [img[i] for i in range(3) if i != base_idx]
            d = [(o[0] - base[0], o[1] - base[1]) for o in others]
            for d1, d2 in (d, d[::-1]):
                if want == 1 and d1 == (1, 0) and d2[0] == 0 and d2[1] != 0:
                    return True
                if want == 4 and d1[1] == 0 and d2[0] == 0 and d1[0] == d2[1] and d1[0] != 0:
                    return True
        return False

    def fam2(img):
        for i in range(3):
            for j in range(i + 1, 3):
                third = img[3 - i - j]
                if (img[i][1] == img[j][1] and third[1] == img[i][1] + 1
                        and img[i][0] + img[j][0] - 2 * third[0] == 1):
                    return True
        return False

    for fam in (1, 2, 4):
        for g in PROJECTIVE_GROUP:
            img = _image(g, pts)
            hit = fam2(img) if fam == 2 else fam14(img, fam)
            if hit:
                return fam, g
    return None, None


# ---------------------------------------------------------------------------
# the multiplicity-3 classification of pairs


@dataclass
class Mult3Report:
    A: SupportSet
    B: SupportSet
    mixed_volume: int
    verdict: str  # "Impossible" | "Achievable"
    family: Optional[Dict[str, object]] = None
    construction: Optional[ConstructedSystem] = None
    route: Optional[str] = None
    route_log: List[str] = field(default_factory=list)


def _segment_measurements(S: SupportSet, Q: SupportSet) -> Tuple[int, int]:
    """(h, v) for a segment support S against Q, as if S were horizontal.

    h = gcd(dx, dy) + 1 is the lattice length of S's hull plus one, (dx, dy)
    its endpoint difference.  v is the range plus one of Q's levels
    a*y - b*x, with (a, b) the primitive direction of S ((1, 0) for a single
    point): a unimodular map taking S horizontal has second row +-(-b, a),
    so these are its levels up to sign and shift.  Extents (not sparse point
    counts) are what the root-count criterion sees: roots off the torus can
    exhaust the full exponent gap of a sparse support.
    """
    pts = S.sorted_points()
    dx, dy = pts[-1][0] - pts[0][0], pts[-1][1] - pts[0][1]
    g = gcd(dx, dy)
    a, b = (dx // g, dy // g) if g else (1, 0)
    levels = [a * y - b * x for x, y in Q.points]
    return g + 1, max(levels) - min(levels) + 1


def match_exceptional_family(A: SupportSet, B: SupportSet) -> Optional[Dict[str, object]]:
    """Membership of (A, B) in the no-multiplicity-3 catalogue, up to
    monomial changes of variables and transposition of the pair, read off
    elementary lattice invariants.

    Family 1: one support on a segment, measured by (h, v) with
    (h-1)(v-1) <= 2 (see :func:`_segment_measurements`).  Family 2: equal
    full-dimensional supports equivalent, by one common map, to the unit
    square or to the four-point L; that is, B a translate of A, |A| = 4 and
    area2(conv A) = 2.  By Pick's theorem conv A then has 4 boundary and no
    interior points: an empty quadrilateral is a unimodular parallelogram
    (the square), a triangle with one edge midpoint is the L.  Family 3: one
    support X a unimodular triangle (|X| = 3, area2 = 1) and the other
    inside a doubled simplex under the same map.  Any map taking X onto the
    standard simplex will do, since each symmetry of the simplex carries
    its double to a translate of it; the other support's image Z fits in
    the double after a translation iff max(x + y) - min x - min y <= 2.
    """
    if len(A) == 0 or len(B) == 0:
        raise InputError("empty support")

    if is_segment(A) or is_segment(B):
        for X, Y, orient in ((A, B, "as-given"), (B, A, "transposed")):
            if is_segment(X):
                h, v = _segment_measurements(X, Y)
                if (h - 1) * (v - 1) <= 2:
                    return {"family": 1, "h": h, "v": v, "orientation": orient}
        return None
    # both full-dimensional from here on

    a0, b0 = A.sorted_points()[0], B.sorted_points()[0]
    if len(A) == 4 and area2(convex_hull(A)) == 2 and B == A.translate((b0[0] - a0[0], b0[1] - a0[1])):
        return {"family": 2, "shape": "unit-square" if len(convex_hull(A).vertices) == 4 else "four-point-L"}
    for X, Y, orient in ((A, B, "as-given"), (B, A, "transposed")):
        if len(X) == 3 and area2(convex_hull(X)) == 1:
            Z = unimodular_frame(X)[1].apply_set(Y).points
            if max(x + y for x, y in Z) - min(x for x, _ in Z) - min(y for _, y in Z) <= 2:
                return {"family": 3, "orientation": orient}
    return None


def _mult3_witness_routes(
    A: SupportSet, B: SupportSet, seed: int = DEFAULT_SEED, retries: int = RETRY_BUDGET
) -> Tuple[Optional[ConstructedSystem], List[str]]:
    """Try the constructive routes for a verified multiplicity-3 witness.

    Route order: prescribed osculation (both orientations), contact with a
    line (the line living in whichever support holds a unimodular triangle),
    and the univariate route for segment pairs.  The log records, for every
    applicable route, either success or the exact reason it cannot work.
    Route i checks the pairing itself (no segment, primitivity index 1) and
    computes ``contact_bound`` D on draw 0; only when D >= 3 does it run
    the draws of ``construct_prescribed``, without that function's input
    checks, handing them D, which stands in for the bound check on draw 0
    when that draw is smooth.  Its witness is the one
    ``construct_prescribed(X, Y, 3, seed, retries)`` returns.
    """
    log: List[str] = []

    # route (i): prescribed contact when the pairing bound allows m = 3
    for X, Y, orient in ((A, B, "(A,B)"), (B, A, "(B,A)")):
        if is_segment(X) or is_segment(Y):
            continue
        if primitivity_index(X, Y) != 1:
            log.append(f"route i {orient}: inapplicable (sublattice pair)")
            continue
        d = contact_bound(X, Y, probe_curve(Y, seed, 0))
        if d < 3:
            log.append(f"route i {orient}: inapplicable (contact bound D={d} < 3)")
            continue
        try:
            # D >= 3 keeps m = 3 within |X| - 1, construct_prescribed's own m check
            system = _prescribed(X, Y, 3, seed, retries, draw0_bound=d)
            log.append(f"route i {orient}: witness found")
            return system, log
        except (HypothesisViolation, RetryBudgetExhausted) as exc:
            log.append(f"route i {orient}: failed ({exc})")

    # route (ii): order-3 contact with a line supported in the other member
    for X, Y, orient in ((A, B, "line in A"), (B, A, "line in B")):
        triple, M = unimodular_frame(X)
        if triple is None:
            log.append(f"route ii {orient}: inapplicable (no unimodular triangle)")
            continue
        if len(Y) < 3:
            log.append(f"route ii {orient}: inapplicable (curve support below contact order)")
            continue
        Ynorm = M.apply_set(Y)
        try:
            system = replace(_line_contact_on(Ynorm, 3, seed, retries), normalization=M)
            log.append(f"route ii {orient}: witness found")
            return system, log
        except ConstructionFailure as exc:
            log.append(f"route ii {orient}: certified failure ({exc})")
        except (HypothesisViolation, RetryBudgetExhausted) as exc:
            log.append(f"route ii {orient}: failed ({exc})")

    # route (iii): segment pairs via sparse univariate multiplicities
    for X, Y, orient in ((A, B, "segment A"), (B, A, "segment B")):
        if not is_segment(X):
            continue
        system = _segment_route(X, Y, orient, log)
        if system is not None:
            return system, log
    return None, log


# How many triple-root univariates a process remembers: route iii of the
# bound-2 th2-atlas reads 79 exponent tuples.
TRIPLE_ROOT_CAPACITY = 256


@lru_cache(maxsize=TRIPLE_ROOT_CAPACITY)
def _triple_root(exps: Tuple[int, ...]) -> UnivariatePolynomial:
    """construct_univariate(exps, 3) per exponent tuple.  Route iii asks
    only with four exponents or more, so the memo keeps polynomials, never
    a certificate, a curve or a system."""
    return construct_univariate(exps, 3)


def _triple_root_on(exps: Sequence[int], place) -> LaurentPolynomial:
    """The remembered construct_univariate(exps, 3), its exponent e put on
    the monomial place(e)."""
    p_poly = _triple_root(tuple(exps))
    shift = -min(min(exps), 0)
    return LaurentPolynomial({place(e): p_poly.coefficient(e + shift) for e in exps})


def _binomial(p: Point, q: Point) -> LaurentPolynomial:
    """The monomial at p minus the monomial at q, which vanishes at (1, 1)."""
    return LaurentPolynomial({p: Fraction(1), q: Fraction(-1)})


def _segment_route(X: SupportSet, Y: SupportSet, orient: str, log: List[str]):
    """A triple root at (1, 1) with X horizontal: on the h side the triple
    root lies in x and a binomial on Y's two lowest levels crosses simply;
    on the v side the triple root runs across Y's levels and a binomial in
    x crosses simply.  Only called with mixed volume above 2, so X has two
    points and Y two levels."""
    _, M = normal_form(X)
    Xn, Yn = M.apply_set(X), M.apply_set(Y)
    x_exps = sorted(p[0] for p in Xn)
    levels = sorted({p[1] for p in Yn})
    reps = {lvl: min(p[0] for p in Yn if p[1] == lvl) for lvl in levels}
    # the univariate constructions need point counts, not extents
    h, v = len(x_exps), len(levels)
    if h >= 4:
        side = "h"
        f = _triple_root_on(x_exps, lambda e: (e, 0))
        g = _binomial((reps[levels[0]], levels[0]), (reps[levels[1]], levels[1]))
    elif v >= 4:
        side = "v"
        g = _triple_root_on(levels, lambda lvl: (reps[lvl], lvl))
        f = _binomial((x_exps[0], 0), (x_exps[1], 0))
    else:
        log.append(f"route iii {orient}: inapplicable (h={h}, v={v} both below 4)")
        return None
    total, cert = segment_product_multiplicity(f, g, (Fraction(1), Fraction(1)), True)
    if total != 3:
        log.append(f"route iii {orient}: product came out {total}")
        return None
    log.append(f"route iii {orient}: witness found ({side} side)")
    return ConstructedSystem(
        f=f, g=g, points=((Fraction(1), Fraction(1)),), multiplicities=(3,),
        seed=0, retries_used=0, exact=True, certificate=cert, normalization=M,
    )


def decide_mult3(
    A: SupportSet, B: SupportSet, seed: int = DEFAULT_SEED, retries: int = RETRY_BUDGET
) -> Mult3Report:
    """Classify a support pair by whether multiplicity 3 is achievable.

    The verdict is the root-count criterion on the hulls: a mixed volume
    of at most 2 proves Impossible, and any larger one is reported
    Achievable.  Impossible verdicts are cross-checked against the
    exceptional-family catalogue.  An Achievable verdict is proved only
    when it comes with a verified witness, which one of the constructive
    routes finds whenever it succeeds over Q; without one it is unproven,
    and some such verdicts are false (a segment against the 3x3 box).
    """
    mv = mixed_volume(convex_hull(A), convex_hull(B))
    if mv <= 2:
        fam = match_exceptional_family(A, B)
        if fam is None:
            if is_convex_support(A) and is_convex_support(B):
                raise AssertionError(
                    f"convex pair with mixed volume {mv} matched no exceptional family"
                )
            fam = {"family": None, "note": "non-convex support outside the catalogue"}
        return Mult3Report(A=A, B=B, mixed_volume=mv, verdict="Impossible", family=fam)
    system, log = _mult3_witness_routes(A, B, seed=seed, retries=retries)
    route = None
    if system is not None:
        route = next((entry for entry in log if "witness found" in entry), None)
    return Mult3Report(
        A=A,
        B=B,
        mixed_volume=mv,
        verdict="Achievable",
        construction=system,
        route=route,
        route_log=log,
    )

