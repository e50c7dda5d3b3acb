"""Constructors for systems with prescribed root multiplicities.

Everything here follows one recipe: realize the target contact order as a
linear-algebra condition on coefficients, solve it exactly over Q, and hand
the candidate to the independent verifier before returning it.  A
constructor never returns unverified output; randomized draws are retried
up to a budget and failures surface as exceptions with diagnostics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    LaurentPolynomial,
    UnivariatePolynomial,
    det,
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
    is_segment,
    primitivity_index,
    unimodular_triple,
)

DEFAULT_SEED = 1729
RETRY_BUDGET = 16

STANDARD_SIMPLEX = SupportSet([(0, 0), (1, 0), (0, 1)])


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

    @property
    def claimed_multiplicity(self) -> int:
        return self.multiplicities[0]


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
        square = _power_rows(exps, k)
        d = det(square)
        if d == 0:
            raise AssertionError("power matrix on distinct exponents cannot be singular")
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


def _smooth_at(f: LaurentPolynomial, p) -> bool:
    return f.partial("x").evaluate(p) != 0 or f.partial("y").evaluate(p) != 0


def construct_prescribed(
    A: SupportSet,
    B: SupportSet,
    m: int,
    seed: int = DEFAULT_SEED,
    retries: int = RETRY_BUDGET,
    truncation: Optional[int] = None,
) -> ConstructedSystem:
    """Osculating curve supported at A meeting a random curve supported at B
    with local intersection multiplicity exactly m at (1, 1).

    Requires the pairing hypotheses: neither support on a segment and
    primitivity index 1.  m may not exceed D = |A| - dim V - 1 for the drawn
    curve.  The returned order is re-verified from scratch by the verifier.
    """
    if is_segment(A) or is_segment(B):
        raise HypothesisViolation("both supports must be full-dimensional (not segments)")
    if primitivity_index(A, B) != 1:
        raise HypothesisViolation("supports must not fit in a common proper sublattice")
    if m < 0:
        raise InputError("multiplicity must be non-negative")
    if truncation is not None and truncation < m:
        raise InputError(f"truncation {truncation} is below the multiplicity {m}")

    from .verify import intersection_multiplicity_smooth

    rng = random.Random(seed)
    p = (Fraction(1), Fraction(1))
    diagnostics: List[str] = []
    bound_checks = 0
    bound_failures = 0
    for attempt in range(retries):
        f = _draw_through_one(B, rng)
        if f is None or not _smooth_at(f, p):
            diagnostics.append(f"attempt {attempt}: degenerate draw")
            continue
        dim_v, _bound = compute_dim_V(A, f)
        D = len(A) - dim_v - 1
        bound_checks += 1
        if m > D:
            bound_failures += 1
            diagnostics.append(f"attempt {attempt}: m={m} exceeds D={D}")
            continue
        N = truncation if truncation is not None else m + len(A) + 4
        try:
            branch = branch_series(f, p, N)
            osc = osculating_matrix(A, branch, m)
        except InputError as exc:
            diagnostics.append(f"attempt {attempt}: {exc}")
            continue
        if osc.row_ranks[m] != m + 1 or (m > 0 and osc.row_ranks[m - 1] != m):
            diagnostics.append(f"attempt {attempt}: rank chain stalled {osc.row_ranks}")
            continue
        basis = kernel_basis(osc.matrix[:m], ncols=len(A)) if m > 0 else kernel_basis([], ncols=len(A))
        residual_row = osc.matrix[m]
        chosen = None
        for v in basis:
            if sum(r * c for r, c in zip(residual_row, v)) != 0:
                chosen = v
                break
        if chosen is None:
            diagnostics.append(f"attempt {attempt}: no kernel vector with non-zero residual")
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

    from .verify import intersection_multiplicity_smooth

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
        if not all(_smooth_at(f, pt) for pt in points):
            diagnostics.append(f"attempt {attempt}: singular at a chosen point")
            abscissa_shift += 1
            continue
        dim_v, _ = compute_dim_V(A, f)
        D = len(A) - dim_v - 1
        if sum(ms) > D:
            diagnostics.append(f"attempt {attempt}: sum(m)={sum(ms)} exceeds D={D}")
            continue
        N = max(ms) + len(A) + 4
        stacked: List[List[Fraction]] = []
        ok = True
        for pt, mi in zip(points, ms):
            try:
                branch = branch_series(f, pt, N)
                osc = osculating_matrix(A, branch, mi)
            except InputError as exc:
                diagnostics.append(f"attempt {attempt}: {exc}")
                ok = False
                break
            stacked.extend(osc.matrix[:mi])
        if not ok:
            continue
        gbasis = kernel_basis(stacked, ncols=len(A)) if stacked else kernel_basis([], ncols=len(A))
        g = None
        for v in gbasis:
            cand = LaurentPolynomial({e: c for e, c in zip(A.sorted_points(), v) if c != 0})
            if cand.is_zero() or is_multiple_of(cand, f):
                continue
            g = cand
            break
        if g is None:
            diagnostics.append(f"attempt {attempt}: kernel contained only multiples of f")
            continue
        observed = []
        for pt, mi in zip(points, ms):
            o = intersection_multiplicity_smooth(f, g, pt)
            if not isinstance(o, int) or o < mi:
                diagnostics.append(f"attempt {attempt}: order {o} at {pt}, wanted >= {mi}")
                ok = False
                break
            observed.append(o)
        if not ok:
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


def _line_rows(A: SupportSet, r: int, dx, dy) -> List[list]:
    """t-expansions of the monomials of A along (1 + dx*t, 1 + dy*t), rows 0..r.

    Row i holds the t^i coefficient of x^a*y^b, which is
    sum_j C(a, i-j) C(b, j) dx^(i-j) dy^j with generalized binomials (the
    exponents may be negative).  dx and dy are rationals, or polynomials in
    a symbolic slope.
    """
    pts = A.sorted_points()
    return [
        [
            sum(_binom(a, i - j) * _binom(b, j) * dx ** (i - j) * dy**j for j in range(i + 1))
            for a, b in pts
        ]
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
    p0, q0, r0 = triple
    M = _basis_to_simplex_map(p0, q0, r0)
    Anorm = M.apply_set(A)

    system = _line_contact_on(Anorm, r, seed, retries)
    system.normalization = M
    return system


def _basis_to_simplex_map(p0, q0, r0) -> UnimodularAffineMap:
    d1 = (q0[0] - p0[0], q0[1] - p0[1])
    d2 = (r0[0] - p0[0], r0[1] - p0[1])
    detd = d1[0] * d2[1] - d1[1] * d2[0]
    inv = ((d2[1] * detd, -d2[0] * detd), (-d1[1] * detd, d1[0] * detd))
    lin = UnimodularAffineMap(inv)
    shift = lin.apply((-p0[0], -p0[1]))
    return UnimodularAffineMap(inv, shift)


def _line_contact_on(
    A: SupportSet, r: int, seed: int, retries: int
) -> ConstructedSystem:
    from .verify import intersection_multiplicity_smooth

    rng = random.Random(seed)
    rows = _line_rows(A, r, 1, UnivariatePolynomial([0, 1], "s"))
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

        # vertical tangent candidate: parametrize (1, 1 + t)
        vert_rows = _line_rows(A, r, 0, 1)
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
            if g.is_zero() or is_multiple_of(g, line):
                continue
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


def gap_family_supports(n: int) -> Tuple[SupportSet, SupportSet]:
    """The support pair whose achievable multiplicity set has gaps."""
    if n < 3 or n % 2 == 0:
        raise InputError("the family is defined for odd n >= 3")
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
    if n < 3 or n % 2 == 0:
        raise InputError("the family is defined for odd n >= 3")
    if not (1 <= m <= 2 * n):
        raise InputError(f"multiplicity must be between 1 and {2 * n}")
    A, B = gap_family_supports(n)

    if m <= n + 1:
        # triangular solve: f_A = x - q(y), f_B = y - p(x), p(s) = s^2 + s,
        # q chosen so p(q(y)) - y vanishes to order exactly m at y = 0
        a_param = Fraction(1)
        qc = [Fraction(0)] * (n + 1)  # q coefficients, a_0 = 0
        for j in range(1, m):
            if j == 1:
                qc[1] = 1 / a_param
            else:
                s = sum(qc[i] * qc[j - i] for i in range(1, j))
                qc[j] = -s / a_param
        f_terms: Dict[Tuple[int, int], Fraction] = {(1, 0): Fraction(1)}
        for j, c in enumerate(qc):
            if c != 0:
                f_terms[(0, j)] = f_terms.get((0, j), Fraction(0)) - c
        fA = LaurentPolynomial(f_terms)  # x - q(y)
        fB = LaurentPolynomial(
            {(0, 1): Fraction(1), (2, 0): -Fraction(1), (1, 0): -a_param}
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
