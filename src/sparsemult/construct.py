"""Constructors for systems with prescribed root multiplicities.

Everything here follows one recipe: realize the target contact order as a
linear-algebra condition on coefficients, solve it exactly over Q, and
re-check the candidate with the verifier before returning it.  The verifier
expands branches with the same Newton code (``branch_rungs``), so the
re-check is not independent.  A constructor never returns unverified
output; randomized draws are retried up to a budget and failures surface as
exceptions with diagnostics.

The random curve f of ``construct_prescribed`` depends only on its support
B and the seed, not on A or m, so an atlas draws the same few curves for
every pair.  A bounded cache of probes, keyed by (B's point set, seed),
keeps each key's draws, whether each is smooth at (1, 1), and each
self-checked branch with its power and monomial tables.  That is safe: the
key fixes everything a probe holds, and every system is still verified
before it is returned, by a verifier that never reads the cache; it keeps
only the rungs that it walked and checked itself.

``construct_prescribed`` is its input checks in front of ``_prescribed``,
the draws.  The multiplicity-3 classifier's route i checks the pairing and
computes the draw-0 bound D itself, and calls ``_prescribed`` with that D;
it gets the system ``construct_prescribed`` would return.  The draws and
g are built from int exponents and non-zero coefficients, by the trusted
``LaurentPolynomial._make``, with no re-check of each term.

Line contact (route ii of the classifier) searches slopes on a normalized
support, and the outcome depends only on that support's point set, the
contact order, the seed and the budget.  A bounded memo keeps each
failure's message and diagnostics, never a curve or a system, and raises it
again with a fresh copy of the diagnostics; a witness is searched for and
verified on every call.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    LaurentPolynomial,
    UnivariatePolynomial,
    _bareiss_echelon,
    _kernel_numerators,
    integer_kernel,
    kernel_basis,
    poly_kernel_basis,
    rational_roots,
)
from .branches import (
    PROBE_CAPACITY,
    BranchParametrization,
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
    convex_hull,
    erode,
    is_convex_support,
    is_segment,
    primitivity_index,
    unimodular_frame,
)
from .verify import (
    Certificate,
    elimination_impossibility,
    gap_family_phi,
    intersection_multiplicity_smooth,
    rank_impossibility,
)

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
    certificate: Optional[Certificate] = None
    normalization: Optional[UnimodularAffineMap] = None

    @property
    def point(self) -> Tuple[Fraction, Fraction]:
        return self.points[0]


# ---------------------------------------------------------------------------
# univariate sparse polynomials (one variable, prescribed exponents)


def _repair_full_support(
    v: List[int], basis: List[List[int]], residual_row: List[int]
) -> List[int]:
    """Make every coordinate non-zero by adding other kernel vectors,
    keeping the residual against ``residual_row`` non-zero."""
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
                if sum(map(mul, residual_row, cand)):
                    v = cand
                    break
    return v


def construct_univariate(exponents: Sequence[int], l: int):
    """Sparse polynomial on the given exponents with a root of multiplicity
    exactly ``l`` at t = 1.

    For l >= k (k the number of exponents) no non-trivial solution exists;
    the RankImpossibility certificate of ``rank_impossibility``, carrying
    the non-zero k x k determinant, is returned instead.  Output is
    deterministic, integral and primitive.  Conditions are imposed through
    the power basis (t d/dt)^j P at 1, which is equivalent to the
    derivative conditions.
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
        return rank_impossibility(exps, l)
    *rows, residual_row = [[a ** j for a in exps] for j in range(l + 1)]
    # every integer kernel vector has the last pivot as its free entry, so
    # sums of them are the normalized (free entry 1) ones times that pivot,
    # and the zero tests and the primitive result are those of the latter
    basis = [v for _, v in integer_kernel(rows, k)]
    chosen = next((b for b in basis if sum(map(mul, residual_row, b))), None)
    if chosen is None:
        raise AssertionError("rank of the power matrix must grow at row l")
    chosen = _repair_full_support(list(chosen), basis, residual_row)

    shift = -min(min(exps), 0)
    dense = [0] * (max(exps) + shift + 1)
    for a, c in zip(exps, chosen):
        dense[a + shift] = c
    return UnivariatePolynomial.from_integers(dense, "t").primitive_integer()


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
    return LaurentPolynomial._make({e: Fraction(c) for e, c in zip(pts, coeffs)})


_ONE = (Fraction(1), Fraction(1))


class _Probe:
    """The random curves ``construct_prescribed`` draws on one support B with
    one seed, and their branches at (1, 1), shared by every A paired with B.

    Draw k is the k-th call of ``_draw_through_one`` on
    ``random.Random(seed)``, as the retry loop makes them.  No generator is
    kept (its state is about 2.8 KB): reaching past the drawn prefix replays
    the stream from the seed, at least doubling the prefix.  A branch is
    ``branch_series`` of a draw, self-checked there; its lazy power and
    monomial tables grow with the A's that read it.  They grow in place, so
    one thread at a time reads or extends a probe.
    """

    __slots__ = ("support", "seed", "draws", "branches", "lock")

    def __init__(self, support: SupportSet, seed: int):
        self.support = support
        self.seed = seed
        self.draws: List[Tuple[Optional[LaurentPolynomial], bool]] = []
        self.branches: Dict[Tuple[int, int], BranchParametrization] = {}
        self.lock = threading.Lock()

    def draw(self, attempt: int) -> Tuple[Optional[LaurentPolynomial], bool]:
        """Draw number ``attempt`` and whether it is smooth at (1, 1)."""
        with self.lock:
            if attempt >= len(self.draws):
                rng = random.Random(self.seed)
                fresh = [_draw_through_one(self.support, rng)
                         for _ in range(max(attempt + 1, 2 * len(self.draws)))]
                self.draws.extend((f, f is not None and any(f.jet(_ONE)[1:3]))
                                  for f in fresh[len(self.draws):])
            return self.draws[attempt]

    def osculating_rows(self, attempt: int, A: SupportSet, order: int) -> Tuple[List[List[int]], List[int]]:
        """``osculating_matrix`` of A along the branch of the smooth draw
        ``attempt`` through (1, 1), expanded to ``order``: fresh integer
        rows and the column denominators."""
        with self.lock:
            key = (attempt, order)
            branch = self.branches.get(key)
            if branch is None:
                branch = self.branches[key] = branch_series(self.draws[attempt][0], _ONE, order)
            return osculating_matrix(A, branch, order)


@lru_cache(maxsize=PROBE_CAPACITY)
def _probe(support: SupportSet, seed: int) -> _Probe:
    """The shared probe of (support, seed): equal point sets share one."""
    return _Probe(support, seed)


def probe_curve(B: SupportSet, seed: int, attempt: int) -> Optional[LaurentPolynomial]:
    """Draw number ``attempt`` of ``construct_prescribed`` on B under ``seed``,
    or None when that draw is degenerate (a zero coefficient)."""
    return _probe(B, seed).draw(attempt)[0]


def contact_bound(A: SupportSet, B: SupportSet, f: Optional[LaurentPolynomial]) -> int:
    """D = |A| - dim V - 1 along the curve f on B, V the multiples of f
    supported in A: they lie in the kernel of every osculating row, so rows
    0..m reach rank m + 1 only for m <= D.  Without a curve (a degenerate
    draw) D is the erosion estimate |A| - |erode(conv A, B)| - 1, which
    dim V meets when A is convex."""
    if f is None:
        return len(A) - len(erode(convex_hull(A), B)) - 1
    return len(A) - compute_dim_V(A, f)[0] - 1


def _require_pairing(A: SupportSet, B: SupportSet) -> None:
    """Neither support on a segment, and primitivity index 1."""
    if is_segment(A) or is_segment(B):
        raise HypothesisViolation("both supports must be full-dimensional (not segments)")
    if primitivity_index(A, B) != 1:
        raise HypothesisViolation("supports must not fit in a common proper sublattice")


def _exact_contact_vector(rows: List[List[int]], m: int) -> Optional[List[int]]:
    """The integer kernel vector of osculating rows 0..m-1 that gives
    contact order exactly m, or None when the rank chain stalls.

    Contact order exactly m needs rank m on rows 0..m-1 and row m outside
    their span: a kernel of full size len(rows[m]) - m with a vector whose
    dot product with row m is non-zero; the first such vector of
    ``integer_kernel``'s basis is returned.  The vectors are
    back-substituted one at a time, up to that one.  Rows 0..m-1 are
    eliminated in place."""
    ech, piv, _ = _bareiss_echelon(rows[:m])
    # the kernel has len(rows[m]) - len(piv) vectors
    if len(piv) != m:
        return None
    row = rows[m]
    return next((v for _, v in _kernel_numerators(ech, piv, len(row), 0, 1) if sum(map(mul, row, v))), None)


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
    primitivity index 1.  Each smooth draw f is checked against its own
    ``contact_bound`` D = |A| - dim V - 1, and skipped when m > D; for
    convex A that is |A| - |erode(conv A, B)| - 1 on every draw, so the
    first draw past it raises HypothesisViolation.  A draw is kept when the
    kernel of osculating rows 0..m-1 has |A| - m vectors and one of them is
    non-zero on row m; the first such vector is g.  The rows are the
    integer numerators of ``osculating_matrix``, so Bareiss elimination, the
    kernel and the row-m dot product run on integers; g's coefficients are
    made Fractions once, from the column denominators.  The returned order
    is re-verified by the verifier, which never reads the probe.
    """
    _require_pairing(A, B)
    if m < 0:
        raise InputError("multiplicity must be non-negative")
    if m > len(A) - 1:
        raise HypothesisViolation(
            f"m={m} exceeds |A| - 1 = {len(A) - 1}, the largest value D = |A| - dim V - 1 can take")
    return _prescribed(A, B, m, seed, retries)


def _prescribed(
    A: SupportSet, B: SupportSet, m: int, seed: int, retries: int, draw0_bound: Optional[int] = None
) -> ConstructedSystem:
    """The draws of ``construct_prescribed``, on a pairing and an m its
    callers have checked.  ``draw0_bound`` is ``contact_bound`` on draw 0
    when the caller has it; it stands in for that check only when draw 0 is
    smooth, the one case where the loop reads a bound on draw 0."""
    probe = _probe(B, seed)
    p = _ONE
    diagnostics: List[str] = []
    bound_checks = 0
    bound_failures = 0
    for attempt in range(retries):
        f, smooth = probe.draw(attempt)
        if not smooth:
            diagnostics.append(f"attempt {attempt}: degenerate draw")
            continue
        D = draw0_bound if attempt == 0 and draw0_bound is not None else contact_bound(A, B, f)
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
            rows, dens = probe.osculating_rows(attempt, A, m)
        except InputError as exc:
            diagnostics.append(f"attempt {attempt}: {exc}")
            continue
        u = _exact_contact_vector(rows, m)
        if u is None:
            diagnostics.append(f"attempt {attempt}: rank chain stalled")
            continue
        # g's coefficients are dens[j] * u[j], scaled to 1 at the first
        # non-zero one
        first = next(j for j, c in enumerate(u) if c)
        lead = dens[first] * u[first]
        g = LaurentPolynomial._make({e: Fraction(d * c, lead)
                                     for e, d, c in zip(A.sorted_points(), dens, u) if c})
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


def _forces_the_line(A: SupportSet, B: SupportSet, ms: Sequence[int]) -> bool:
    """Whether every pair the multipoint loop can build shares y - 1.  By
    Descartes' rule a k-term polynomial has at most k - 1 positive roots with
    multiplicity.  With at most l = len(ms) x-exponents in B, f(x, 1)
    vanishes at the l points on y = 1, so y - 1 divides f, and f smooth there
    meets g to the orders of g(x, 1)'s roots; with at most sum(ms)
    x-exponents in A they reach sum(ms) only if g(x, 1) = 0 too."""
    return (len({x for x, _ in B.points}) <= len(ms)
            and len({x for x, _ in A.points}) <= sum(ms))


def construct_multipoint(
    A: SupportSet,
    B: SupportSet,
    multiplicities: Sequence[int],
    seed: int = DEFAULT_SEED,
    retries: int = RETRY_BUDGET,
) -> ConstructedSystem:
    """One curve supported at A meeting a random curve supported at B with
    multiplicity at least m_i at the i-th of several distinct points.

    The guarantee is "at least": per-point exactness is not promised.  The
    points lie on y = 1; ``_forces_the_line`` screens requests before any draw.
    """
    ms = [int(m) for m in multiplicities]
    if any(m < 0 for m in ms) or not ms:
        raise InputError("multiplicities must be non-negative and non-empty")
    _require_pairing(A, B)
    l = len(ms)
    if l >= len(B):
        raise HypothesisViolation("need fewer points than |B| to pass a curve through them")
    if sum(ms) > len(A) - 1:
        raise HypothesisViolation(
            f"sum(m)={sum(ms)} exceeds |A| - 1 = {len(A) - 1}, "
            "the largest value D = |A| - dim V - 1 can take")
    if _forces_the_line(A, B, ms):
        raise HypothesisViolation(
            f"every curve on B through {l} points of y = 1 contains that line, and so would "
            f"every curve on A meeting it to a total order of {sum(ms)} there")

    rng = random.Random(seed)
    diagnostics: List[str] = []
    abscissa_shift = 0
    for attempt in range(retries):
        points = [(Fraction(1 + i + abscissa_shift), Fraction(1)) for i in range(l)]
        Bpts = B.sorted_points()
        eval_rows = [[pt[0] ** e[0] * pt[1] ** e[1] for e in Bpts] for pt in points]
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
        D = contact_bound(A, B, f)
        if sum(ms) > D:
            diagnostics.append(f"attempt {attempt}: sum(m)={sum(ms)} exceeds D={D}")
            continue
        try:
            # each point's block has its own column denominators, so the
            # blocks are stacked as rationals
            stacked = []
            for pt, mi in zip(points, ms):
                rows, dens = osculating_matrix(A, branch_series(f, pt, mi), mi)
                stacked += [[Fraction(c, d) for c, d in zip(row, dens)] for row in rows[:mi]]
        except InputError as exc:
            diagnostics.append(f"attempt {attempt}: {exc}")
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
                    # p/q, as the reports write a rational
                    at = ", ".join(f"{c.numerator}/{c.denominator}" for c in pt)
                    shortfalls.append(f"order {o} at ({at}), wanted >= {mi}")
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
        [UnivariatePolynomial.from_integers([_binom(a, i - j) * _binom(b, j) for j in range(i + 1)], "s")
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
    unknown: random generic slopes, the rational roots of the rank minors,
    slope 0 and the vertical are tried.  When none gives order-r contact,
    :class:`ConstructionFailure` is raised with the data the search ran on
    as ``diagnostics``; it shows that no rational slope works, not that no
    line does (an irrational slope may).
    """
    if r < 2:
        raise InputError("contact order below 2 is not a tangency question")
    if len(A) < r:
        raise HypothesisViolation(f"support of {len(A)} points cannot reach contact {r}")
    triple, M = unimodular_frame(A)
    if triple is None:
        raise HypothesisViolation("support contains no unimodular triangle, so no line fits")
    return replace(_line_contact_on(M.apply_set(A), r, seed, retries), normalization=M)


# How many line-contact failures a process remembers: the bound-2 th2-atlas
# fails on 67 normalized supports under one seed.
LINE_FAILURE_CAPACITY = 128


class _Witness(Exception):
    """Carries a line-contact system out of ``_line_failure``, whose memo
    keeps what the function returns and never what it raises."""


def _fresh(value):
    """A copy of nested dicts and lists that shares none of them with value."""
    if isinstance(value, dict):
        return {k: _fresh(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_fresh(v) for v in value]
    return value


@lru_cache(maxsize=LINE_FAILURE_CAPACITY)
def _line_failure(A: SupportSet, r: int, seed: int, retries: int) -> Tuple[str, Dict]:
    """The message and diagnostics of the search's ConstructionFailure on
    (A's point set, r, seed, retries); a witness leaves as ``_Witness``."""
    try:
        system = _search_line_contact(A, r, seed, retries)
    except ConstructionFailure as exc:
        return str(exc), exc.diagnostics
    raise _Witness(system)


def _line_contact_on(
    A: SupportSet, r: int, seed: int, retries: int
) -> ConstructedSystem:
    """Order-r contact of a curve on the normalized support A with a line
    through (1, 1), or ConstructionFailure.  A remembered failure is raised
    again without a search, with diagnostics of its own; a witness is
    searched for and verified on every call."""
    try:
        message, diagnostics = _line_failure(A, r, seed, retries)
    except _Witness as found:
        return found.args[0]
    raise ConstructionFailure(message, _fresh(diagnostics))


def _search_line_contact(
    A: SupportSet, r: int, seed: int, retries: int
) -> ConstructedSystem:
    """The slope search on a normalized support A, as the public line-contact
    constructor describes it: a witness, or ConstructionFailure."""
    rng = random.Random(seed)
    rows = _line_rows(A, r)
    cols = A.sorted_points()
    basis, minors = poly_kernel_basis(rows[:r])
    residual_polys = [sum(rr * vv for rr, vv in zip(rows[r], v)) for v in basis]
    # rank drops of the condition matrix: generic slopes avoid them, and
    # each one is tried as a special slope
    minor_roots = [s0 for q in minors if q.degree() > 0 for s0 in rational_roots(q)]
    special = sorted(set([Fraction(0)] + minor_roots))

    def line_poly(slope: Fraction) -> LaurentPolynomial:
        return LaurentPolynomial(
            {(0, 1): Fraction(1), (1, 0): -slope, (0, 0): slope - 1}
        )

    def candidates():
        """(line, kernel vectors, residual row) for each line to try, in order."""
        # generic slopes: specialized kernel stays a kernel away from minor roots
        if any(not q.is_zero() for q in residual_polys):
            bad = minor_roots + [s0 for q in residual_polys if not q.is_zero()
                                 for s0 in rational_roots(q)]
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
        {
            "support": [list(p) for p in cols],
            "contact_order": r,
            "generic_residuals": [repr(q) for q in residual_polys],
            "special_slopes_tested": [str(s0) for s0 in special],
            "rank_minors": [repr(q) for q in minors],
        },
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


def gap_family_achievable_set(n: int) -> List[int]:
    out = set(range(1, n + 2)) | {2 * j for j in range(1, n + 1)}
    return sorted(out)


def build_gap_family_member(n: int, m: int, seed: int = DEFAULT_SEED):
    """Explicit system on the gap-family pair with an origin root of
    multiplicity exactly m, or the EliminationImpossibility certificate of
    ``elimination_impossibility`` when m is odd and larger than n + 1 (the
    obstruction coefficient never vanishes).

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

    return "impossible", elimination_impossibility(n, m)
