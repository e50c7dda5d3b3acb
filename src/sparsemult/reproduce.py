"""Named reproduction scenarios with built-in expected-value checks.

Each scenario runs a self-contained computation and returns a report dict
with a ``checks`` list; a check is {"name", "pass", ...detail}.  The CLI
``reproduce`` subcommand and the acceptance suite both run these.

Scenario ids (stable, part of the CLI surface):
  exim           mixed-volume-4 pair: multiplicity 3 achievable, 4 obstructed
  ex3            line-product systems with origin multiplicity n*k + l
  ex10           the achievable-set family with a gap at n + 2
  triangle-atlas exhaustive trinomial inflection classification in a box
  th2-atlas      multiplicity-3 classification over a box of polygon pairs
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

from .algebra import MPoly, mpoly_resultant
from .classify import (
    PROJECTIVE_GROUP,
    decide_mult3,
    hessian_at_one,
    match_exceptional_family,
    triangle_inflection,
    _image,
)
from .construct import (
    DEFAULT_SEED,
    build_gap_family_member,
    build_line_product_system,
    gap_family_achievable_set,
    require_gap_family_n,
)
from .errors import InputError
from .jsonio import MAX_GAP_FAMILY_N, MAX_TRIANGLE_BOUND
from .lattice import (
    SupportSet,
    convex_hull,
    cross,
    is_convex_support,
    mixed_volume,
)
from .verify import (
    gap_family_phi,
    intersection_multiplicity_smooth,
    origin_multiplicity_line_product,
    replay,
    segment_product_multiplicity,
)


def _progress(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _check(checks: List[dict], name: str, passed: bool, **detail):
    entry = {"name": name, "pass": bool(passed)}
    entry.update(detail)
    checks.append(entry)
    return passed


def eliminate_chain(conditions: List[MPoly], variable_order: List[str]):
    """Iterated resultant elimination.

    A common zero of the conditions forces every computed resultant to
    vanish, so a non-zero constant anywhere certifies unsolvability.
    Returns (nonzero_constants, transcript).
    """
    cur = [c for c in conditions if c]
    transcript: List[dict] = [{"conditions": [repr(c) for c in conditions]}]
    for v in variable_order:
        with_v = [c for c in cur if not c.is_const() and c.degree(v) > 0]
        without = [c for c in cur if c.is_const() or c.degree(v) == 0]
        if len(with_v) >= 2:
            pivot = min(with_v, key=lambda c: c.degree(v))
            new = []
            for q in with_v:
                if q is pivot:
                    continue
                r = mpoly_resultant(pivot, q, v)
                transcript.append({"eliminated": v, "resultant": repr(r)})
                if r:
                    new.append(r)
                else:
                    transcript.append({"note": f"resultant in {v} vanished identically"})
            cur = without + new
        else:
            cur = without  # dropping a condition only enlarges the solution set
    nonzero = [c.const_value() for c in cur if c and c.is_const()]
    transcript.append({"final_constants": [str(c) for c in nonzero]})
    return nonzero, transcript


# ---------------------------------------------------------------------------


def scenario_exim(seed: int = DEFAULT_SEED) -> dict:
    """The pair with mixed volume 4 where multiplicity 3 occurs but 4 cannot."""
    checks: List[dict] = []
    A = SupportSet([(0, 0), (1, 0), (0, 1)])
    B = SupportSet([(0, 1), (3, 0), (4, 0)])
    mv = mixed_volume(convex_hull(A), convex_hull(B))
    _check(checks, "mixed volume equals 4", mv == 4, mixed_volume=mv)

    # resultant of the tangency family, symbolic in (a, b)
    x, y, a, b = (MPoly.var(("x", "y", "a", "b"), v) for v in "xyab")
    F = y + a - 1 - a * x
    G = y - b * x ** 3 + (b - 1) * x ** 4
    R = mpoly_resultant(F, G, "y")
    x, a, b = (MPoly.var(R.vars, v) for v in R.vars)  # R is over (x, a, b)
    _check(checks, "resultant equals (x-1)(-1+a-x-x^2-x^3+b x^3)",
           R == (x - 1) * (a - 1 - x - x ** 2 - x ** 3 + b * x ** 3))

    # reduced factor and the order conditions at x = 1: the value and the
    # first two derivatives there, sums over the coefficients in x
    _check(checks, "x = 1 divides the resultant exactly", not sum(R.coeffs_in("x")))
    cs = list(enumerate((R // (x - 1)).coeffs_in("x")))
    conds = [sum(c for _, c in cs), sum(i * c for i, c in cs), sum(i * (i - 1) * c for i, c in cs)]
    nonzero, transcript = eliminate_chain(conds, ["a", "b"])
    _check(
        checks,
        "order >= 3 of the reduced factor at 1 is unsolvable in (a, b)",
        bool(nonzero) and all(v != 0 for v in nonzero),
        conditions=[repr(c) for c in conds],
        final_constants=[str(v) for v in nonzero],
        chain=transcript,
    )

    # multiplicity 3 is achievable, with a verified system
    w = decide_mult3(A, B, seed=seed).construction
    detail = {}
    if w is not None:
        detail = {
            "witness_multiplicity": list(w.multiplicities),
            "witness_f": repr(w.f),
            "witness_line": repr(w.g),
        }
    _check(checks, "multiplicity 3 witness found and verified", w is not None, **detail)

    return {"scenario": "exim", "checks": checks, "ok": all(c["pass"] for c in checks)}


# the (n, k, l) of the line-product systems that ex3 builds
_EX3_CASES = ((3, 2, 0), (4, 3, 2), (5, 4, 0))


def scenario_ex3(seed: int = DEFAULT_SEED) -> dict:
    """Line-product systems: origin multiplicity n*k + l, verified by
    summing vanishing orders along the lines."""
    checks: List[dict] = []
    for n, k, l in _EX3_CASES:
        u, v, lines, expected = build_line_product_system(n, k, l, seed=seed)
        got = origin_multiplicity_line_product(lines, v)
        _check(
            checks,
            f"(n,k,l)=({n},{k},{l}) has origin multiplicity {expected}",
            got == expected == n * k + l,
            computed=got,
        )
    return {"scenario": "ex3", "checks": checks, "ok": all(c["pass"] for c in checks)}


def scenario_ex10(n: int = 3, seed: int = DEFAULT_SEED) -> dict:
    """The gap family: all achievable multiplicities realized and verified,
    the odd values above n + 1 obstructed by the positive recursion."""
    require_gap_family_n(n)
    if n > MAX_GAP_FAMILY_N:
        raise InputError(f"ex10 needs n <= {MAX_GAP_FAMILY_N}, got {n}")
    checks: List[dict] = []
    achievable = gap_family_achievable_set(n)
    realized = []
    for m in range(1, 2 * n + 1):
        kind, payload = build_gap_family_member(n, m, seed=seed)
        if kind == "system":
            fA, fB, pt = payload["f_A"], payload["f_B"], payload["point"]
            if payload["route"] == "triangular":
                got = intersection_multiplicity_smooth(fA, fB, pt)
            else:
                got = segment_product_multiplicity(fB, fA, pt)
            ok = got == m
            if ok:
                realized.append(m)
            _check(checks, f"n={n}: multiplicity {m} realized exactly", ok, route=payload["route"])
        else:
            replay(payload)  # raises unless phi is recomputed, and positive, as certified
            _check(checks, f"n={n}: multiplicity {m} obstructed", m not in achievable,
                   phi=payload.transcript["phi"])
    _check(
        checks,
        f"n={n}: achievable set matches",
        realized == achievable,
        realized=realized,
        expected=achievable,
    )
    phi = gap_family_phi(n + 1)
    _check(checks, "phi sequence positive with phi_1 = 1", phi[0] == 1 and all(p > 0 for p in phi), phi=phi)
    return {"scenario": "ex10", "checks": checks, "ok": all(c["pass"] for c in checks)}


# ---------------------------------------------------------------------------


def _triangle_projective_canonical(pts) -> Tuple:
    best = None
    for g in PROJECTIVE_GROUP:
        img = sorted(_image(g, pts))
        mx = min(p[0] for p in img)
        my = min(p[1] for p in img)
        key = tuple((p[0] - mx, p[1] - my) for p in img)
        if best is None or key < best:
            best = key
    return best


def _family_members_in_box(bound: int) -> List[Tuple]:
    """All no-inflection family representatives with coordinates in the box."""
    out = []
    for n in range(-bound, bound + 1):
        if n != 0:
            out.append(((0, 0), (1, 0), (0, n)))  # family 1
            out.append(((0, 0), (n, 0), (0, n)))  # family 4
        out.append(((n, 0), (1 - n, 0), (0, 1)))  # family 2
        if n != 1:
            out.append(((1, 0), (n, 0), (0, 1)))  # family 3
    keep = []
    for tri in out:
        pts = set(tri)
        if len(pts) < 3:
            continue
        if cross(tri[0], tri[1], tri[2]) == 0:
            continue
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        shifted = {(x - min(xs), y - min(ys)) for x, y in pts}
        if all(0 <= x <= bound and 0 <= y <= bound for x, y in shifted):
            keep.append(tuple(sorted(shifted)))
    return sorted(set(keep))


def scenario_triangle_atlas(bound: int = 5) -> dict:
    """Classify every non-degenerate triangle with coordinates in
    [0, bound]^2; check family coverage, orbit consistency and the Hessian
    anchor identities.

    The projective canonical form does not change under translation, so it
    is computed once per translation class, keyed by the differences from a
    triangle's first point (its minimum: ``combinations`` walks the points
    in sorted order).  Every triangle is still classified on its own."""
    if not 1 <= bound <= MAX_TRIANGLE_BOUND:
        raise InputError(f"triangle-atlas needs 1 <= bound <= {MAX_TRIANGLE_BOUND}, got {bound}")
    checks: List[dict] = []
    pts_all = [(x, y) for x in range(bound + 1) for y in range(bound + 1)]
    verdict_by_class: Dict[Tuple, str] = {}
    canonical: Dict[Tuple, Tuple] = {}
    family_counts: Dict[int, int] = {}
    n_triangles = 0
    mismatches = []
    anchor_failures = 0
    for tri in combinations(pts_all, 3):
        if cross(tri[0], tri[1], tri[2]) == 0:
            continue
        n_triangles += 1
        T = SupportSet(tri)
        tc = triangle_inflection(T)
        if tc.verdict == "NoInflection":
            family_counts[tc.family] = family_counts.get(tc.family, 0) + 1
        base = tri[0]
        shape = (tri[1][0] - base[0], tri[1][1] - base[1], tri[2][0] - base[0], tri[2][1] - base[1])
        key = canonical.get(shape)
        if key is None:
            key = canonical[shape] = _triangle_projective_canonical(tri)
        prev = verdict_by_class.get(key)
        if prev is None:
            verdict_by_class[key] = tc.verdict
        elif prev != tc.verdict:
            mismatches.append(tri)
        # anchor identities, formal for any non-degenerate triangle
        n_, m_, k_, l_ = shape
        he = hessian_at_one(n_, m_, k_, l_)
        if he(Fraction(0)) != -k_ * l_ * (k_ + l_) or he(Fraction(-1)) != -m_ * n_ * (m_ + n_):
            anchor_failures += 1

    _check(checks, "orbit-consistent verdicts", not mismatches, mismatch_count=len(mismatches))
    _check(checks, "Hessian anchors hold on every triangle", anchor_failures == 0,
           triangles=n_triangles)

    no_inflection_members = _family_members_in_box(bound)
    wrong = []
    for tri in no_inflection_members:
        tc = triangle_inflection(SupportSet(tri))
        if tc.verdict != "NoInflection":
            wrong.append(tri)
    _check(
        checks,
        "every catalogued family member in range is verdict NoInflection",
        not wrong,
        members_checked=len(no_inflection_members),
        failures=wrong,
    )
    # triangle_inflection raises when a NoInflection verdict matches no family,
    # so reaching this point certifies coverage
    _check(checks, "every NoInflection verdict matched a family", True,
           family_counts={str(k): v for k, v in sorted(family_counts.items())},
           classes=len(verdict_by_class))
    return {
        "scenario": "triangle-atlas",
        "bound": bound,
        "triangles": n_triangles,
        "checks": checks,
        "ok": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------


def _convex_supports_in_box(bound: int) -> List[SupportSet]:
    """All convex supports (lattice points of their hulls) inside
    [0, bound]^2, normalized to touch the axes, deduplicated."""
    pts_all = [(x, y) for x in range(bound + 1) for y in range(bound + 1)]
    seen = {}
    for r in range(1, len(pts_all) + 1):
        for combo in combinations(pts_all, r):
            S = SupportSet(combo)
            mx, my = S.min_corner()
            if (mx, my) != (0, 0):
                continue
            if not is_convex_support(S):
                continue
            seen[S.sorted_points()] = S
    return [seen[k] for k in sorted(seen)]


def _pair_key(A: SupportSet, B: SupportSet) -> Tuple:
    a = A.sorted_points()
    b = B.sorted_points()
    return min((a, b), (b, a))


def scenario_th2_atlas(bound: int = 2, seed: int = DEFAULT_SEED) -> dict:
    """Classify all pairs of convex supports in [0, bound]^2: the verdict
    criterion must agree with family membership, and achievable pairs must
    get verified witnesses unless every route certifies failure.

    The bound is capped at 3: the box scan visits 2^((bound + 1)^2)
    subsets, about 3.4e7 at bound 4."""
    if not 0 <= bound <= 3:
        raise InputError(f"th2-atlas needs 0 <= bound <= 3, got {bound}")
    checks: List[dict] = []
    supports = _convex_supports_in_box(bound)
    _progress(f"th2-atlas: {len(supports)} convex supports in the box")
    done = set()
    agree = True
    n_pairs = 0
    witnessed = 0
    unwitnessed: List[dict] = []
    disagreements: List[dict] = []
    for i, A in enumerate(supports):
        for B in supports[i:]:
            key = _pair_key(A, B)
            if key in done:
                continue
            done.add(key)
            n_pairs += 1
            report = decide_mult3(A, B, seed=seed)
            impossible = report.verdict == "Impossible"
            # decide_mult3 matched every Impossible pair already, and raises
            # when a convex pair (every atlas support is one) matches nothing
            fam = report.family if impossible else match_exceptional_family(A, B)
            if impossible != (fam is not None):
                agree = False
                disagreements.append(
                    {"A": list(A.sorted_points()), "B": list(B.sorted_points()),
                     "verdict": report.verdict, "family": fam}
                )
            if not impossible:
                if report.construction is not None:
                    witnessed += 1
                else:
                    certified = all(
                        ("inapplicable" in line) or ("certified failure" in line)
                        for line in report.route_log
                        if not line.endswith("witness found")
                    )
                    unwitnessed.append(
                        {
                            "A": list(A.sorted_points()),
                            "B": list(B.sorted_points()),
                            "mv": report.mixed_volume,
                            "all_routes_certified": certified,
                            "log": report.route_log,
                        }
                    )
        if (i + 1) % 10 == 0:
            _progress(f"th2-atlas: processed {i + 1}/{len(supports)} support rows")

    _check(checks, "verdict agrees with family membership on every pair", agree,
           pairs=n_pairs, disagreements=disagreements)
    all_certified = all(u["all_routes_certified"] for u in unwitnessed)
    _check(
        checks,
        "achievable pairs carry witnesses unless every route certified failure",
        all_certified,
        witnessed=witnessed,
        unwitnessed=[{k: u[k] for k in ("A", "B", "mv")} for u in unwitnessed],
    )
    return {
        "scenario": "th2-atlas",
        "bound": bound,
        "pairs": n_pairs,
        "witnessed": witnessed,
        "unwitnessed_count": len(unwitnessed),
        "unwitnessed": unwitnessed,
        "checks": checks,
        "ok": all(c["pass"] for c in checks),
    }


SCENARIOS = {
    "exim": scenario_exim,
    "ex3": scenario_ex3,
    "ex10": scenario_ex10,
    "triangle-atlas": scenario_triangle_atlas,
    "th2-atlas": scenario_th2_atlas,
}


def run_scenario(name: str, **kwargs) -> dict:
    if name not in SCENARIOS:
        raise InputError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    return SCENARIOS[name](**kwargs)
