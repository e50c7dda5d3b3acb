"""Constructors for systems with prescribed root multiplicities.

Everything here follows one recipe: realize the target contact order as a
linear-algebra condition on coefficients, solve it exactly over Q, and
re-check the candidate with the verifier before returning it.  The verifier
expands branches with the same Newton code (``branch_rungs``), so the
re-check is not independent.  A constructor never returns unverified
output; randomized draws are retried up to a budget and failures surface as
exceptions with diagnostics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    LaurentPolynomial,
    UnivariatePolynomial,
    kernel_basis,
    poly_kernel_basis,
    rational_roots,
    _frac,
)
from .branches import (
    branch_series,
    compute_dim_V,
    is_multiple_of,
    osculating_matrix,
)
from .errors import (
    ConstructionFailure,
    HypothesisViolation,
    InputError,
    RetryBudgetExhausted,
)
from .lattice import (
    SupportSet,
    UnimodularAffineMap,
    is_convex_support,
    is_segment,
    primitivity_index,
    simplex_map,
    unimodular_triple,
)
from .verify import intersection_multiplicity_smooth, rank_impossibility

DEFAULT_SEED = 1729
RETRY_BUDGET = 16


@dataclass
class ConstructedSystem:
    """A verified system (f, g) with prescribed local intersection data.

    ``f`` is supported in the second member of the pair, ``g`` in the first;
    ``multiplicities[i]`` is the verified local intersection multiplicity at
    ``points[i]``.  ``exact`` records whether every entry is certified as an
    exact order or only as a lower bound.
    """

    f: LaurentPolynomial
    g: LaurentPolynomial
    points: Tuple[Tuple[Fraction, Fraction], ...]
    multiplicities: Tuple[int, ...]
    seed: int
    retries_used: int
    exact: bool = True
    certificate: Optional[object] = None
    normalization: Optional[UnimodularAffineMap] = None

    @property
    def point(self) -> Tuple[Fraction, Fraction]:
        return self.points[0]


@dataclass
class ImpossibilityCertificate:
    """Exact witness that a requested multiplicity cannot be realized."""

    kind: str
    transcript: Dict[str, object]


# ---------------------------------------------------------------------------
# univariate sparse polynomials (one variable, prescribed exponents)


def _power_rows(exponents: Sequence[int], nrows: int) -> List[List[Fraction]]:
    return [[Fraction(a) ** j for a in exponents] for j in range(nrows)]


def _repair_full_support(
    v: List[Fraction], basis: List[List[Fraction]], residual_row: List[Fraction]
) -> List[Fraction]:
    """Make every coordinate non-zero by adding other kernel vectors,
    keeping the residual against ``residual_row`` non-zero."""

    def residual(w):
        return sum(r * c for r, c in zip(residual_row, w))

    for idx in range(len(v)):
        if v[idx] != 0:
            continue
        helper = next((b for b in basis if b[idx] != 0), None)
        if helper is None:
            continue
        for lam in range(1, 4 * len(v) + 4):
            cand = [a + lam * b for a, b in zip(v, helper)]
            if all(c != 0 for c in cand) or (
                cand[idx] != 0 and all(c != 0 for i, c in enumerate(cand) if v[i] != 0 or i == idx)
            ):
                if residual(cand) != 0:
                    v = cand
                    break
    return v


def construct_univariate(exponents: Sequence[int], l: int):
    """Sparse polynomial on the given exponents with a root of multiplicity
    exactly ``l`` at t = 1.

    For l >= k (k the number of exponents) no non-trivial solution exists;
    an :class:`ImpossibilityCertificate` carrying the non-zero k x k
    determinant is returned instead.  Output is deterministic, integral and
    primitive.  Conditions are imposed through the power basis
    (t d/dt)^j P at 1, which is equivalent to the derivative conditions.
    """
    exps = [int(a) for a in exponents]
    if len(set(exps)) != len(exps):
        raise InputError("exponents must be distinct")
    k = len(exps)
    if k == 0:
        raise InputError("need at least one exponent")
    if l < 0:
        raise InputError("multiplicity must be non-negative")
    if l >= k:
        d = rank_impossibility(exps).transcript["determinant"]
        return ImpossibilityCertificate(
            kind="RankImpossibility",
            transcript={
                "exponents": list(exps),
                "requested_multiplicity": l,
                "determinant": d,
                "statement": "the k x k power-basis matrix is non-singular, so only the zero "
                "coefficient vector satisfies k vanishing conditions at t = 1",
            },
        )
    rows = _power_rows(exps, l)
    basis = kernel_basis(rows, ncols=k)
    residual_row = [Fraction(a) ** l for a in exps]

    def residual(w):
        return sum(r * c for r, c in zip(residual_row, w))

    chosen = next((b for b in basis if residual(b) != 0), None)
    if chosen is None:
        raise AssertionError("rank of the power matrix must grow at row l")
    chosen = _repair_full_support(list(chosen), basis, residual_row)

    shift = -min(min(exps), 0)
    coeffs: Dict[int, Fraction] = {}
    for a, c in zip(exps, chosen):
        coeffs[a + shift] = c
    dense = [coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)]
    poly = UnivariatePolynomial(dense, "t").primitive_integer()
    return poly


# ---------------------------------------------------------------------------
# prescribed-order osculants along a random smooth curve


def _draw_through_one(B: SupportSet, rng: random.Random) -> Optional[LaurentPolynomial]:
    """Random small-integer polynomial on B with f(1,1) = 0, full support."""
    pts = B.sorted_points()
    coeffs = [rng.randint(-10, 10) for _ in pts[:-1]]
    last = -sum(coeffs)
    coeffs.append(last)
    if any(c == 0 for c in coeffs):
        return None
    return LaurentPolynomial({e: Fraction(c) for e, c in zip(pts, coeffs)})


def construct_prescribed(
    A: SupportSet,
    B: SupportSet,
    m: int,
    seed: int = DEFAULT_SEED,
    retries: int = RETRY_BUDGET,
) -> ConstructedSystem:
    """Osculating curve supported at A meeting a random curve supported at B
    with local intersection multiplicity exactly m at (1, 1).

    Requires the pairing hypotheses: neither support on a segment and
    primitivity index 1.  m may not exceed D = |A| - dim V - 1 for the drawn
    curve; for convex A that is |A| - |erode(conv A, B)| - 1 on every draw,
    so the first draw past it raises HypothesisViolation.  A draw is kept
    when the kernel of osculating rows 0..m-1 has |A| - m vectors and one of
    them is non-zero on row m; the first such vector is g.  The returned
    order is re-verified from scratch by the verifier.
    """
    if is_segment(A) or is_segment(B):
        raise HypothesisViolation("both supports must be full-dimensional (not segments)")
    if primitivity_index(A, B) != 1:
        raise HypothesisViolation("supports must not fit in a common proper sublattice")
    if m < 0:
        raise InputError("multiplicity must be non-negative")
    if m > len(A) - 1:
        raise HypothesisViolation(
            f"m={m} exceeds |A| - 1 = {len(A) - 1}, the largest value D = |A| - dim V - 1 can take")

    rng = random.Random(seed)
    p = (Fraction(1), Fraction(1))
    diagnostics: List[str] = []
    bound_checks = 0
    bound_failures = 0
    for attempt in range(retries):
        f = _draw_through_one(B, rng)
        if f is None or f.gradient(p) == (0, 0):
            diagnostics.append(f"attempt {attempt}: degenerate draw")
            continue
        dim_v, _bound = compute_dim_V(A, f)
        D = len(A) - dim_v - 1
        bound_checks += 1
        if m > D:
            if is_convex_support(A):
                raise HypothesisViolation(
                    f"m={m} exceeds D = |A| - |erode(conv A, B)| - 1 = {D}, "
                    "the same for every draw since A is convex")
            bound_failures += 1
            diagnostics.append(f"attempt {attempt}: m={m} exceeds D={D}")
            continue
        try:
            # rows 0..m of the osculating matrix are exact from order m on
            branch = branch_series(f, p, m)
            rows = osculating_matrix(A, branch, m)
        except InputError as exc:
            diagnostics.append(f"attempt {attempt}: {exc}")
            continue
        # contact order exactly m needs rank m on rows 0..m-1 and row m
        # outside their span: a full-size kernel with a vector off row m
        basis = kernel_basis(rows[:m], ncols=len(A))
        chosen = next((v for v in basis if sum(map(mul, rows[m], v))), None)
        if len(basis) != len(A) - m or chosen is None:
            diagnostics.append(f"attempt {attempt}: rank chain stalled")
            continue
        first = next(i for i, c in enumerate(chosen) if c != 0)
        chosen = [c / chosen[first] for c in chosen]
        g = LaurentPolynomial({e: c for e, c in zip(A.sorted_points(), chosen) if c != 0})
        observed, cert = intersection_multiplicity_smooth(f, g, p, with_certificate=True)
        if observed != m:
            diagnostics.append(f"attempt {attempt}: verifier saw {observed}, wanted {m}")
            continue
        return ConstructedSystem(
            f=f,
            g=g,
            points=(p,),
            multiplicities=(m,),
            seed=seed,
            retries_used=attempt,
            exact=True,
            certificate=cert,
        )
    if bound_checks > 0 and bound_failures == bound_checks:
        raise HypothesisViolation(
            f"m={m} exceeded the achievable bound D on every draw: {diagnostics[-1]}"
        )
    raise RetryBudgetExhausted(
        f"no verified system after {retries} attempts", {"log": diagnostics}
    )


def construct_multipoint(
    A: SupportSet,
    B: SupportSet,
    multiplicities: Sequence[int],
    seed: int = DEFAULT_SEED,
    retries: int = RETRY_BUDGET,
) -> ConstructedSystem:
    """One curve supported at A meeting a random curve supported at B with
    multiplicity at least m_i at the i-th of several distinct points.

    The guarantee is "at least": per-point exactness is not promised.
    """
    ms = [int(m) for m in multiplicities]
    if any(m < 0 for m in ms) or not ms:
        raise InputError("multiplicities must be non-negative and non-empty")
    if is_segment(A) or is_segment(B):
        raise HypothesisViolation("both supports must be full-dimensional (not segments)")
    if primitivity_index(A, B) != 1:
        raise HypothesisViolation("supports must not fit in a common proper sublattice")
    l = len(ms)
    if l >= len(B):
        raise HypothesisViolation("need fewer points than |B| to pass a curve through them")
    if sum(ms) > len(A) - 1:
        raise HypothesisViolation(
            f"sum(m)={sum(ms)} exceeds |A| - 1 = {len(A) - 1}, "
            "the largest value D = |A| - dim V - 1 can take")

    rng = random.Random(seed)
    diagnostics: List[str] = []
    abscissa_shift = 0
    for attempt in range(retries):
        points = [(Fraction(1 + i + abscissa_shift), Fraction(1)) for i in range(l)]
        Bpts = B.sorted_points()
        eval_rows = [
            [_frac(pt[0]) ** e[0] * _frac(pt[1]) ** e[1] for e in Bpts] for pt in points
        ]
        fbasis = kernel_basis(eval_rows, ncols=len(Bpts))
        if not fbasis:
            abscissa_shift += 1
            diagnostics.append(f"attempt {attempt}: no curve through the points")
            continue
        coeffs = [Fraction(0)] * len(Bpts)
        for b in fbasis:
            lam = rng.randint(-10, 10)
            coeffs = [c + lam * bc for c, bc in zip(coeffs, b)]
        f = LaurentPolynomial({e: c for e, c in zip(Bpts, coeffs) if c != 0})
        if f.is_zero() or any(f.evaluate(pt) != 0 for pt in points):
            diagnostics.append(f"attempt {attempt}: degenerate combination")
            continue
        if any(f.gradient(pt) == (0, 0) for pt in points):
            diagnostics.append(f"attempt {attempt}: singular at a chosen point")
            abscissa_shift += 1
            continue
        dim_v, _ = compute_dim_V(A, f)
        D = len(A) - dim_v - 1
        if sum(ms) > D:
            diagnostics.append(f"attempt {attempt}: sum(m)={sum(ms)} exceeds D={D}")
            continue
        stacked: List[List[Fraction]] = []
        ok = True
        for pt, mi in zip(points, ms):
            try:
                branch = branch_series(f, pt, mi)
                stacked.extend(osculating_matrix(A, branch, mi)[:mi])
            except InputError as exc:
                diagnostics.append(f"attempt {attempt}: {exc}")
                ok = False
                break
        if not ok:
            continue
        gbasis = kernel_basis(stacked, ncols=len(A))
        # every kernel vector meets f to the orders asked for, but one that
        # shares a component with f through the points has a non-isolated
        # order there, so each vector is verified in turn
        shortfalls = []
        for v in gbasis:
            g = LaurentPolynomial({e: c for e, c in zip(A.sorted_points(), v) if c != 0})
            if g.is_zero() or is_multiple_of(g, f):
                continue
            observed = []
            for pt, mi in zip(points, ms):
                o = intersection_multiplicity_smooth(f, g, pt)
                if not isinstance(o, int) or o < mi:
                    shortfalls.append(f"order {o} at {pt}, wanted >= {mi}")
                    break
                observed.append(o)
            else:
                break  # g verified at every point
        else:
            first = shortfalls[0] if shortfalls else "kernel contained only multiples of f"
            diagnostics.append(f"attempt {attempt}: {first}")
            continue
        return ConstructedSystem(
            f=f,
            g=g,
            points=tuple(points),
            multiplicities=tuple(observed),
            seed=seed,
            retries_used=attempt,
            exact=False,
        )
    raise RetryBudgetExhausted(
        f"no verified multi-point system after {retries} attempts", {"log": diagnostics}
    )


# ---------------------------------------------------------------------------
# contact with a line (slope solved exactly)


def _binom(n: int, k: int) -> int:
    """Generalized binomial coefficient C(n, k) for any integer n and k >= 0."""
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def _line_rows(A: SupportSet, r: int) -> List[List[UnivariatePolynomial]]:
    """t-expansions of the monomials of A along (1 + t, 1 + s*t), rows 0..r,
    as polynomials in the symbolic slope s.

    Row i holds the t^i coefficient of x^a*y^b, which is
    sum_j C(a, i-j) C(b, j) s^j with generalized binomials (the exponents
    may be negative): an integer coefficient list in s.  Its s^i
    coefficient C(b, i) is the t^i coefficient along the vertical
    (1, 1 + t).
    """
    pts = A.sorted_points()
    return [
        [UnivariatePolynomial([_binom(a, i - j) * _binom(b, j) for j in range(i + 1)], "s")
         for a, b in pts]
        for i in range(r + 1)
    ]


def line_contact_construct(
    A: SupportSet,
    r: int,
    seed: int = DEFAULT_SEED,
    retries: int = RETRY_BUDGET,
) -> ConstructedSystem:
    """Curve supported at A meeting a line through (1, 1) with contact order
    exactly r; the line is smooth, so the system multiplicity equals r.

    The support must contain a unimodular triangle (so a line lives in it
    after normalization) and at least r points.  The slope is treated as an
    unknown and solved exactly: if no rational slope admits order-r contact,
    a definitive :class:`ConstructionFailure` with the obstruction
    transcript is raised.
    """
    if r < 2:
        raise InputError("contact order below 2 is not a tangency question")
    if len(A) < r:
        raise HypothesisViolation(f"support of {len(A)} points cannot reach contact {r}")
    triple = unimodular_triple(A)
    if triple is None:
        raise HypothesisViolation("support contains no unimodular triangle, so no line fits")
    M = simplex_map(*triple)
    Anorm = M.apply_set(A)

    system = _line_contact_on(Anorm, r, seed, retries)
    system.normalization = M
    return system


def _line_contact_on(
    A: SupportSet, r: int, seed: int, retries: int
) -> ConstructedSystem:
    rng = random.Random(seed)
    rows = _line_rows(A, r)
    cols = A.sorted_points()
    basis, minors = poly_kernel_basis(rows[:r])
    residual_polys = [sum(rr * vv for rr, vv in zip(rows[r], v)) for v in basis]

    transcript: Dict[str, object] = {
        "support": [list(p) for p in cols],
        "contact_order": r,
        "generic_residuals": [repr(q) for q in residual_polys],
    }

    def line_poly(slope: Fraction) -> LaurentPolynomial:
        return LaurentPolynomial(
            {(0, 1): Fraction(1), (1, 0): -slope, (0, 0): slope - 1}
        )

    def candidates():
        """(line, kernel vectors, residual row) for each line to try, in order."""
        # generic slopes: specialized kernel stays a kernel away from minor roots
        if any(not q.is_zero() for q in residual_polys):
            bad: List[Fraction] = []
            for q in minors + residual_polys:
                if not q.is_zero():
                    bad.extend(rational_roots(q))
            for _ in range(retries):
                s0 = Fraction(rng.randint(1, 12), rng.randint(1, 4))
                if rng.random() < 0.5:
                    s0 = -s0
                if s0 == 0 or s0 in bad:
                    continue
                yield (
                    line_poly(s0),
                    [[c(s0) for c in v] for v in basis],
                    [c(s0) for c in rows[r]],
                )

        # special slopes: rank drops of the condition matrix can open new
        # kernels; the horizontal tangent (slope 0) also needs its own pass
        # because the symbolic kernel treats s as a generic unit
        special: List[Fraction] = [Fraction(0)]
        for q in minors:
            if q.degree() > 0:
                special.extend(rational_roots(q))
        special = sorted(set(special))
        transcript["special_slopes_tested"] = [str(s) for s in special]
        transcript["rank_minors"] = [repr(q) for q in minors]
        for s0 in special:
            num_rows = [[c(s0) for c in row] for row in rows[:r]]
            yield line_poly(s0), kernel_basis(num_rows, ncols=len(cols)), [c(s0) for c in rows[r]]

        # vertical tangent candidate: along (1, 1 + t) row i is the s^i
        # coefficient of the symbolic row i
        vert_rows = [[c.coefficient(i) for c in row] for i, row in enumerate(rows)]
        yield (
            LaurentPolynomial({(1, 0): Fraction(1), (0, 0): Fraction(-1)}),
            kernel_basis(vert_rows[:r], ncols=len(cols)),
            vert_rows[r],
        )

    def try_slope(line: LaurentPolynomial, vectors, res_row) -> Optional[LaurentPolynomial]:
        for v in vectors:
            resid = sum(rr * vv for rr, vv in zip(res_row, v))
            if resid == 0:
                continue
            g = LaurentPolynomial({e: c for e, c in zip(cols, v) if c != 0})
            observed = intersection_multiplicity_smooth(line, g, (Fraction(1), Fraction(1)))
            if observed == r:
                return g
        return None

    for line, vectors, res_row in candidates():
        g = try_slope(line, vectors, res_row)
        if g is not None:
            return ConstructedSystem(
                f=g,
                g=line,
                points=((Fraction(1), Fraction(1)),),
                multiplicities=(r,),
                seed=seed,
                retries_used=0,
                exact=True,
            )

    raise ConstructionFailure(
        f"no rational slope admits contact order exactly {r} on this support",
        certificate={"kind": "EliminationImpossibility", "transcript": transcript},
    )


# ---------------------------------------------------------------------------
# worked families


def build_line_product_system(
    n: int, k: int, l: int, seed: int = DEFAULT_SEED, retries: int = RETRY_BUDGET
):
    """Homogeneous pair with an origin root of multiplicity n*k + l.

    The first polynomial is a product of n pairwise independent lines
    through the origin; the second is a degree-k form vanishing on the first
    l of those lines plus a degree-(k+1) form vanishing on none of them.
    Returns (u, v, lines, expected_multiplicity).
    """
    if not (0 <= l <= k <= n - 1):
        raise InputError("need 0 <= l <= k <= n - 1")
    rng = random.Random(seed)
    lines = [(Fraction(1), Fraction(-i)) for i in range(1, n + 1)]  # x - i*y

    def line_poly(alpha, beta):
        return LaurentPolynomial({(1, 0): alpha, (0, 1): beta})

    u = LaurentPolynomial({(0, 0): Fraction(1)})
    for a, b in lines:
        u = u * line_poly(a, b)

    if l == 0:
        base = line_poly(Fraction(1), Fraction(-(n + 1))) ** k
    else:
        base = LaurentPolynomial({(0, 0): Fraction(1)})
        parts = [1] * (l - 1) + [k - l + 1]
        for (a, b), mult in zip(lines[:l], parts):
            base = base * line_poly(a, b) ** mult

    for _ in range(retries):
        H = LaurentPolynomial(
            {(j, k + 1 - j): Fraction(rng.randint(-9, 9)) for j in range(k + 2)}
        )
        if H.is_zero():
            continue
        if all(H.evaluate((Fraction(i), Fraction(1))) != 0 for i in range(1, n + 1)):
            v = base + H
            return u, v, lines, n * k + l
    raise RetryBudgetExhausted("no admissible higher form found", {})


def require_gap_family_n(n: int) -> None:
    """Reject a gap-family parameter outside the odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise InputError("the family is defined for odd n >= 3")


def gap_family_supports(n: int) -> Tuple[SupportSet, SupportSet]:
    """The support pair whose achievable multiplicity set has gaps."""
    require_gap_family_n(n)
    A = SupportSet([(0, 0), (1, 0)] + [(0, j) for j in range(1, n + 1)])
    B = SupportSet([(0, 0), (0, 1), (1, 0), (2, 0)])
    return A, B


def gap_family_phi(upto: int) -> List[int]:
    """The positive integer sequence from the obstruction recursion
    (phi_1 = 1, phi_k = sum phi_i phi_{k-i})."""
    phi = [0, 1]
    for k in range(2, upto + 1):
        phi.append(sum(phi[i] * phi[k - i] for i in range(1, k)))
    return phi[1:]


def gap_family_achievable_set(n: int) -> List[int]:
    out = set(range(1, n + 2)) | {2 * j for j in range(1, n + 1)}
    return sorted(out)


def build_gap_family_member(n: int, m: int, seed: int = DEFAULT_SEED):
    """Explicit system on the gap-family pair with an origin root of
    multiplicity exactly m, or an ImpossibilityCertificate when m is odd and
    larger than n + 1 (the obstruction coefficient never vanishes).

    Returns (kind, payload): kind is "system" or "impossible".
    """
    A, B = gap_family_supports(n)
    if not (1 <= m <= 2 * n):
        raise InputError(f"multiplicity must be between 1 and {2 * n}")

    if m <= n + 1:
        # triangular solve: f_A = x - q(y), f_B = y - p(x), p(s) = s^2 + s,
        # q chosen so p(q(y)) - y vanishes to order exactly m at y = 0; that
        # is q_1 = 1, q_j = -sum q_i q_(j-i), so q_j = (-1)^(j+1) phi_j
        f_terms: Dict[Tuple[int, int], Fraction] = {(1, 0): Fraction(1)}
        for j, phi_j in enumerate(gap_family_phi(m)[: m - 1], start=1):
            f_terms[(0, j)] = Fraction((-1) ** j * phi_j)
        fA = LaurentPolynomial(f_terms)  # x - q(y)
        fB = LaurentPolynomial(
            {(0, 1): Fraction(1), (2, 0): -Fraction(1), (1, 0): -Fraction(1)}
        )  # y - (x^2 + x)
        return "system", {
            "f_A": fA,
            "f_B": fB,
            "point": (Fraction(0), Fraction(0)),
            "multiplicity": m,
            "route": "triangular",
        }

    if m % 2 == 0:
        j = m // 2
        if j > n:
            raise InputError("even multiplicity exceeds the lattice bound")
        fA = LaurentPolynomial(
            {(1, 0): Fraction(1), (0, j): -Fraction(1), (0, 0): -Fraction(1)}
        )  # x - y^j - 1
        fB = LaurentPolynomial(
            {(2, 0): Fraction(1), (1, 0): Fraction(-2), (0, 0): Fraction(1)}
        )  # (x - 1)^2
        return "system", {
            "f_A": fA,
            "f_B": fB,
            "point": (Fraction(1), Fraction(0)),
            "multiplicity": m,
            "route": "glued-even",
        }

    phi = gap_family_phi(n + 1)
    return "impossible", ImpossibilityCertificate(
        kind="EliminationImpossibility",
        transcript={
            "multiplicity": m,
            "phi": phi,
            "all_positive": all(v > 0 for v in phi),
            "statement": (
                "with both mixed terms present, the composed equation forces the "
                "solved coefficients into a sign-alternating pattern whose order-"
                f"{n + 1} obstruction sum is a positive combination (phi_{n + 1} = "
                f"{phi[-1]} > 0), so no odd multiplicity above n + 1 is reachable; "
                "degenerate members only merge even root counts"
            ),
        },
    )
