"""Classification: Hessian identities, triangle verdicts and the pair
catalogue."""

import hashlib
import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sparsemult import classify, construct
from sparsemult.algebra import UnivariatePolynomial, factor_out_roots
from sparsemult.classify import (
    PROJECTIVE_GROUP,
    _mult3_witness_routes,
    decide_mult3,
    hessian_at_one,
    match_exceptional_family,
    theta_poly,
    triangle_inflection,
)
from sparsemult.construct import construct_univariate
from sparsemult.errors import InputError
from sparsemult.jsonio import _value_to_json, system_to_json
from sparsemult.lattice import (
    SupportSet,
    UnimodularAffineMap,
    is_segment,
    normal_form,
)
from sparsemult.reproduce import _convex_supports_in_box
from sparsemult.verify import intersection_multiplicity_smooth

GOLDEN = Path(__file__).parent / "golden"
SIMPLEX = SupportSet([(0, 0), (1, 0), (0, 1)])
SQUARE = SupportSet([(0, 0), (1, 0), (0, 1), (1, 1)])
# elementary unimodular maps: two shears, the swap and an inverse shear
GENERATORS = [
    UnimodularAffineMap(((1, 1), (0, 1))),
    UnimodularAffineMap(((1, 0), (1, 1))),
    UnimodularAffineMap(((0, 1), (1, 0))),
    UnimodularAffineMap(((1, -1), (0, 1))),
]


def random_map(rng):
    """A product of 4 random generators."""
    M = UnimodularAffineMap(((1, 0), (0, 1)))
    for _ in range(4):
        M = rng.choice(GENERATORS).compose(M)
    return M


# --- Hessian identities ---------------------------------------------------------


def test_hessian_anchor_identities_random():
    rng = random.Random(41)
    done = 0
    while done < 500:
        n, m, k, l = (rng.randint(-6, 6) for _ in range(4))
        if n * l - m * k == 0:
            continue
        he = hessian_at_one(n, m, k, l)
        assert he(F(0)) == -k * l * (k + l)
        assert he(F(-1)) == -m * n * (m + n)
        done += 1


def test_hessian_leading_coefficient_case1():
    # under the anchor normalization the cubic coefficient comes out as
    # (n-k)(m-l)(n+m-k-l); its magnitude is the catalogued product
    rng = random.Random(42)
    done = 0
    while done < 200:
        n, m, k, l = (rng.randint(-6, 6) for _ in range(4))
        if n * l - m * k == 0:
            continue
        lead = (n - k) * (m - l) * (n + m - k - l)
        if lead == 0:
            continue
        he = hessian_at_one(n, m, k, l)
        assert he.degree() == 3
        assert he.coeffs[3] == lead
        assert abs(he.coeffs[3]) == abs((l - m) * (k - n) * (k + l - m - n))
        done += 1


def test_hessian_rejects_collinear():
    with pytest.raises(InputError):
        hessian_at_one(1, 1, 2, 2)


def test_theta_factorization():
    # the axis-aligned Hessian factors as (1+a) * k * Theta(a)
    from sparsemult.algebra import UnivariatePolynomial

    rng = random.Random(43)
    for _ in range(100):
        n, m, k = rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)
        if k == 0 or n == m:
            continue
        th = theta_poly(n, m, k)
        direct = hessian_at_one(n, 0, 0, k) if m == 0 else None
        lift = UnivariatePolynomial([k, k], "a") * th
        # recompute the Hessian of x^n + a x^m - (1+a) y^k directly
        A = UnivariatePolynomial([0, 1], "a")
        B = UnivariatePolynomial([-1, -1], "a")
        fx = A * m + n
        fy = B * k
        fxx = A * (m * (m - 1)) + n * (n - 1)
        fyy = B * (k * (k - 1))
        fxy = UnivariatePolynomial([], "a")
        he = fx * fy * fxy * 2 - fx * fx * fyy - fy * fy * fxx
        assert he == lift


def _ref_hessian_at_one(n, m, k, l):
    # the Fraction-polynomial formula: He = 2 fx fy fxy - fx^2 fyy - fy^2 fxx
    # with each derivative at (1, 1) equal to c1*a + c2*(-1-a)
    A = UnivariatePolynomial([0, 1], "a")
    B = UnivariatePolynomial([-1, -1], "a")

    def comb(c1, c2):
        return A * c1 + B * c2

    fx, fy = comb(n, k), comb(m, l)
    fxx = comb(n * (n - 1), k * (k - 1))
    fyy = comb(m * (m - 1), l * (l - 1))
    fxy = comb(n * m, k * l)
    return fx * fy * fxy * 2 - fx * fx * fyy - fy * fy * fxx


def _ref_theta_poly(n, m, k):
    # (k-1)(n + a m)^2 - k (1 + a)(n(n-1) + a m(m-1)) over Fraction polynomials
    lin = UnivariatePolynomial([n, m], "a")
    one_plus = UnivariatePolynomial([1, 1], "a")
    return lin * lin * (k - 1) - one_plus * UnivariatePolynomial([n * (n - 1), m * (m - 1)], "a") * k


_exponents = st.integers(-8, 8)


@settings(deadline=None, max_examples=500)
@given(_exponents, _exponents, _exponents, _exponents)
def test_hessian_matches_fraction_polynomial_oracle(n, m, k, l):
    if n * l - m * k == 0:
        with pytest.raises(InputError):
            hessian_at_one(n, m, k, l)
        return
    he = hessian_at_one(n, m, k, l)
    assert he == _ref_hessian_at_one(n, m, k, l)
    assert he.var == "a" and all(type(c) is F for c in he.coeffs)


@settings(deadline=None, max_examples=500)
@given(_exponents, _exponents, _exponents)
def test_theta_matches_fraction_polynomial_oracle(n, m, k):
    th = theta_poly(n, m, k)
    assert th == _ref_theta_poly(n, m, k)
    assert th.var == "a" and all(type(c) is F for c in th.coeffs)


# --- triangle verdicts ------------------------------------------------------------


def test_triangle_family_examples():
    assert triangle_inflection(SupportSet([(0, 0), (3, 0), (0, 3)])).family == 4
    assert triangle_inflection(SupportSet([(0, 0), (1, 0), (0, 5)])).family == 1
    tc = triangle_inflection(SupportSet([(0, 0), (2, 1), (1, 2)]))
    assert tc.verdict == "HasInflection"
    assert tc.reduced_factor.degree() >= 1


_ROTATE = next(g for g in PROJECTIVE_GROUP if g.matrix == ((0, 1), (-1, -1)))


@pytest.mark.parametrize("b", [b for b in range(-12, 13) if b not in (0, 1)])
def test_family_3_triangles_are_family_1(b):
    # the group element ((0,1), (-1,-1)) maps the family-3 triangle
    # {(1,0), (b,0), (0,1)} to {(0,-1), (1,-1), (0,-b)}, whose edges from
    # (0,-1) are (1,0) and (0, 1-b): the family-1 shape
    tri = [(1, 0), (b, 0), (0, 1)]
    img = [_ROTATE.apply(q) for q in tri]
    assert sorted(img) == sorted([(0, -1), (1, -1), (0, -b)])
    tc = triangle_inflection(SupportSet(tri))
    assert tc.verdict == "NoInflection" and tc.family == 1


def test_triangle_has_inflection_generic_case():
    tc = triangle_inflection(SupportSet([(0, 0), (1, 2), (2, 1)]))
    assert tc.verdict == "HasInflection"
    red, _ = factor_out_roots(tc.decision_poly, [F(0), F(-1)])
    assert red.degree() == 2  # frozen from the symbolic Hessian oracle


def test_triangle_rejects_collinear():
    with pytest.raises(InputError):
        triangle_inflection(SupportSet([(0, 0), (1, 1), (2, 2)]))


def test_triangle_projective_invariance():
    rng = random.Random(44)
    done = 0
    while done < 40:
        pts = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)]
        T = SupportSet(pts)
        if len(T) < 3:
            continue
        from sparsemult.lattice import cross

        p = T.sorted_points()
        if cross(p[0], p[1], p[2]) == 0:
            continue
        base = triangle_inflection(T).verdict
        for g in PROJECTIVE_GROUP:
            img = SupportSet(g.apply(q) for q in T)
            assert triangle_inflection(img).verdict == base
        done += 1


def test_unimodular_maps_do_not_preserve_inflection():
    # shear image of the simplex: same lattice class, different verdict;
    # this is why the triangle atlas is organized by the projective group
    assert triangle_inflection(SIMPLEX).verdict == "NoInflection"
    sheared = SupportSet([(0, 0), (2, 1), (1, 1)])
    assert UnimodularAffineMap(((2, 1), (1, 1))).apply_set(SIMPLEX) == sheared
    assert triangle_inflection(sheared).verdict == "HasInflection"


# --- pair catalogue -----------------------------------------------------------------


def test_match_family_examples():
    assert match_exceptional_family(SIMPLEX, SIMPLEX)["family"] == 3
    L = SupportSet([(0, 0), (1, 0), (0, 1), (2, 0)])
    assert match_exceptional_family(L, L)["family"] == 2
    quad = SupportSet([(0, 0), (1, 0), (0, 1), (-1, -1)])
    assert match_exceptional_family(SIMPLEX, quad) is None


def test_match_family_needs_common_map():
    # a square against its shear image is not an exceptional pair even
    # though both supports are squares up to lattice equivalence
    shear = SupportSet([(0, 0), (1, 0), (1, 1), (2, 1)])
    assert UnimodularAffineMap(((1, 1), (0, 1))).apply_set(SQUARE) == shear
    assert match_exceptional_family(SQUARE, shear) is None
    assert match_exceptional_family(SQUARE, SQUARE)["family"] == 2
    assert match_exceptional_family(SQUARE, SQUARE.translate((5, -2)))["family"] == 2


def _catalogue_lines():
    """One ``A | B -> entry`` line for every ordered pair of bound-2 convex
    supports and for 400 seeded pairs in boxes up to [0, 3]^2, moved by one
    common random unimodular map and shift; B is a translate of A in about
    30% of them."""
    supports = _convex_supports_in_box(2)
    pairs = [(A, B) for A in supports for B in supports]
    rng = random.Random(31)

    def draw():
        w, h = rng.randint(2, 4), rng.randint(2, 4)
        return SupportSet((rng.randrange(w), rng.randrange(h)) for _ in range(rng.randint(1, 6)))

    for _ in range(400):
        A = draw()
        B = A.translate((rng.randint(-3, 3), rng.randint(-3, 3))) if rng.random() < 0.3 else draw()
        M = random_map(rng).compose(UnimodularAffineMap.translation((rng.randint(-5, 5), rng.randint(-5, 5))))
        pairs.append((M.apply_set(A), M.apply_set(B)))
    return [
        f"{list(A.sorted_points())} | {list(B.sorted_points())} -> {match_exceptional_family(A, B)}"
        for A, B in pairs
    ]


def _catalogue_digest():
    text = "\n".join(_catalogue_lines()) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_catalogue_pinned():
    # the catalogue entries are pinned by digest (re-record after a
    # deliberate change of an entry with
    # `PYTHONPATH=src:tests python -c 'import test_classify as t; print(t._catalogue_digest())'`)
    pinned = (GOLDEN / "catalogue.sha256").read_text(encoding="utf-8").split()[0]
    assert _catalogue_digest() == pinned


# every unimodular matrix with entries in [-3, 3]; the edge matrix of a
# unimodular triple in [0, 3]^2 has such an inverse, so these maps reach every
# family-2 and family-3 pair of supports in that box
SMALL_MATRICES = [
    ((a, b), (c, d)) for a, b, c, d in itertools.product(range(-3, 4), repeat=4) if abs(a * d - b * c) == 1
]


def _image_at_origin(m, S):
    """The image of S under the matrix m, translated to touch both axes."""
    (a, b), (c, d) = m
    img = [(a * x + b * y, c * x + d * y) for x, y in S]
    x0, y0 = min(x for x, _ in img), min(y for _, y in img)
    return frozenset((x - x0, y - y0) for x, y in img)


FAMILY2_SHAPES = [("unit-square", SQUARE.points), ("four-point-L", frozenset({(0, 0), (1, 0), (2, 0), (0, 1)}))]
# the doubled simplex is closed downwards, so a set fits in it after some
# translation exactly when it fits after touching both axes
TWO_SIMPLEX = frozenset((i, j) for i in range(3) for j in range(3 - i))


def _catalogue_oracle(A, B):
    """match_exceptional_family by brute force: family 1 measured on the
    normal form of the segment, families 2 and 3 by trying every matrix of
    SMALL_MATRICES."""
    if is_segment(A) or is_segment(B):
        for X, Y, orient in ((A, B, "as-given"), (B, A, "transposed")):
            if not is_segment(X):
                continue
            canon, M = normal_form(X)
            h = max(x for x, _ in canon) - min(x for x, _ in canon) + 1
            levels = [y for _, y in M.apply_set(Y)]
            v = max(levels) - min(levels) + 1
            if (h - 1) * (v - 1) <= 2:
                return {"family": 1, "h": h, "v": v, "orientation": orient}
        return None
    for name, shape in FAMILY2_SHAPES:
        if any(_image_at_origin(m, A) == shape == _image_at_origin(m, B) for m in SMALL_MATRICES):
            return {"family": 2, "shape": name}
    for X, Y, orient in ((A, B, "as-given"), (B, A, "transposed")):
        for m in SMALL_MATRICES:
            if _image_at_origin(m, X) == SIMPLEX.points and _image_at_origin(m, Y) <= TWO_SIMPLEX:
                return {"family": 3, "orientation": orient}
    return None


@st.composite
def _box_support(draw, max_size=6):
    """A support in [0, w] x [0, h] for a drawn w, h <= 3; small boxes make
    squares, L shapes and unimodular triangles common."""
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(1, min(max_size, (w + 1) * (h + 1))))
    return SupportSet(draw(st.sets(st.tuples(st.integers(0, w), st.integers(0, h)), min_size=n, max_size=n)))


@st.composite
def _box_pairs(draw):
    """Support pairs in [0, 3]^2, in either order: the second member is a
    translate of the first in a third of the draws, and has at most 3 points
    in another third."""
    A = draw(_box_support())
    kind = draw(st.sampled_from(["any", "translate", "small"]))
    if kind == "translate":
        B = A.translate(draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))))
    else:
        B = draw(_box_support(3 if kind == "small" else 6))
    return (B, A) if draw(st.booleans()) else (A, B)


@settings(deadline=None, max_examples=400)
@given(_box_pairs())
def test_catalogue_matches_brute_force_oracle(pair):
    A, B = pair
    assert match_exceptional_family(A, B) == _catalogue_oracle(A, B)


def test_decide_examples():
    rep = decide_mult3(SQUARE, SQUARE)
    assert rep.verdict == "Impossible" and rep.family["family"] == 2 and rep.mixed_volume == 2

    B = SupportSet([(0, 1), (3, 0), (4, 0)])
    rep2 = decide_mult3(SIMPLEX, B)
    assert rep2.verdict == "Achievable" and rep2.mixed_volume == 4
    assert rep2.construction is not None
    w = rep2.construction
    assert intersection_multiplicity_smooth(w.g, w.f, w.point) == 3

    segA = SupportSet([(0, 0), (1, 0)])
    segB = SupportSet([(0, 0), (0, 1), (0, 2), (1, 0)])
    rep3 = decide_mult3(segA, segB)
    assert rep3.verdict == "Impossible"
    assert rep3.family["family"] == 1 and (rep3.family["h"], rep3.family["v"]) == (2, 3)


def test_decide_inflection_quad_logged():
    quad = SupportSet([(0, 0), (1, 0), (0, 1), (-1, -1)])
    rep = decide_mult3(quad, quad)
    assert rep.verdict == "Achievable" and rep.mixed_volume == 3
    assert rep.construction is None
    assert all(
        "inapplicable" in line or "certified failure" in line for line in rep.route_log
    )


def _canonical_mult3(A, B):
    rep = decide_mult3(A, B)
    w = rep.construction
    return json.dumps({
        "mixed_volume": rep.mixed_volume, "verdict": rep.verdict,
        "family": _value_to_json(rep.family), "route": rep.route, "route_log": rep.route_log,
        "construction": None if w is None else [system_to_json(w), w.retries_used],
    }, sort_keys=True)


def test_decide_same_on_cold_and_warm_probe_cache():
    # route i draws its probe curve from the cache that construct_prescribed
    # fills; no order of earlier pairs may change a report
    pairs = random.Random(8).sample(
        list(itertools.combinations_with_replacement(_convex_supports_in_box(2), 2)), 200)
    cold = []
    for A, B in pairs:
        construct._probe.cache_clear()
        construct._line_failure.cache_clear()
        classify._triple_root.cache_clear()
        cold.append(_canonical_mult3(A, B))
    order = list(range(len(pairs)))
    random.Random(9).shuffle(order)
    shuffled = {i: _canonical_mult3(*pairs[i]) for i in order}
    assert [shuffled[i] for i in range(len(pairs))] == cold
    assert [_canonical_mult3(A, B) for A, B in pairs] == cold
    assert sum("route i" in line and "witness found" in line for c in cold
               for line in json.loads(c)["route_log"]) >= 50


def test_decide_same_on_cold_and_warm_line_failure_memo():
    # route ii raises a remembered failure without a search; on pairs that
    # reach it no order of earlier pairs may change a report
    reach = []
    for A, B in random.Random(28).sample(
            list(itertools.combinations_with_replacement(_convex_supports_in_box(2), 2)), 3000):
        log = decide_mult3(A, B).route_log or []
        if any(line.startswith("route ii ") and "inapplicable" not in line for line in log):
            reach.append((A, B))
    pairs = reach[:120]
    cold = []
    for A, B in pairs:
        construct._line_failure.cache_clear()
        cold.append(_canonical_mult3(A, B))
    order = list(range(len(pairs)))
    random.Random(29).shuffle(order)
    shuffled = {i: _canonical_mult3(*pairs[i]) for i in order}
    assert [shuffled[i] for i in range(len(pairs))] == cold
    hits = construct._line_failure.cache_info().hits
    assert [_canonical_mult3(A, B) for A, B in pairs] == cold
    # the last pass reads every failure from the memo
    logs = [json.loads(c)["route_log"] for c in cold]
    failures = sum(line.startswith("route ii ") and "certified failure" in line for log in logs for line in log)
    assert construct._line_failure.cache_info().hits == hits + failures
    assert failures >= 50
    assert sum(line.startswith("route ii ") and "witness found" in line for log in logs for line in log) >= 1


def _route_iii_pairs():
    """Seeded bound-2 atlas pairs whose route iii builds a triple root."""
    reach = []
    for A, B in random.Random(30).sample(
            list(itertools.combinations_with_replacement(_convex_supports_in_box(2), 2)), 3000):
        log = decide_mult3(A, B).route_log or []
        if any(line.startswith("route iii ") and "inapplicable" not in line for line in log):
            reach.append((A, B))
    return reach


def test_decide_same_on_cold_and_warm_triple_root_memo(monkeypatch):
    # route iii reads its triple-root univariate from a memo, and its
    # witness is still verified on every call: no order of earlier pairs
    # may change a report
    pairs = _route_iii_pairs()[:80]
    assert len(pairs) >= 40
    cold = []
    for A, B in pairs:
        classify._triple_root.cache_clear()
        cold.append(_canonical_mult3(A, B))
    order = list(range(len(pairs)))
    random.Random(31).shuffle(order)
    shuffled = {i: _canonical_mult3(*pairs[i]) for i in order}
    assert [shuffled[i] for i in range(len(pairs))] == cold
    # a warm pass hits the memo on every triple root and verifies every witness
    verified = []
    real = classify.segment_product_multiplicity

    def counted(f, g, point, with_certificate):
        verified.append(point)
        return real(f, g, point, with_certificate)

    monkeypatch.setattr(classify, "segment_product_multiplicity", counted)
    info = classify._triple_root.cache_info()
    assert [_canonical_mult3(A, B) for A, B in pairs] == cold
    logs = [json.loads(c)["route_log"] for c in cold]
    built = sum(line.startswith("route iii ") and "inapplicable" not in line for log in logs for line in log)
    assert len(verified) == built
    assert classify._triple_root.cache_info().hits == info.hits + built
    assert classify._triple_root.cache_info().misses == info.misses
    assert sum(line.startswith("route iii ") and "witness found" in line for log in logs for line in log) >= 40


def test_triple_root_memo_is_bounded_and_keeps_polynomials_only(monkeypatch):
    cap = classify.TRIPLE_ROOT_CAPACITY
    assert cap >= 79  # the exponent tuples route iii reads in the bound-2 atlas
    assert classify._triple_root.cache_info().maxsize == cap
    # record the keys a real pass stores; patching construct_univariate
    # clears the memo first, so every key goes through the wrapper
    keys = []
    real = classify.construct_univariate

    def recorded(exps, l):
        keys.append(exps)
        return real(exps, l)

    classify._triple_root.cache_clear()
    monkeypatch.setattr(classify, "construct_univariate", recorded)
    for A, B in _route_iii_pairs()[:40]:
        decide_mult3(A, B)
    monkeypatch.setattr(classify, "construct_univariate", real)
    classify._triple_root.cache_clear()
    assert keys and len(set(keys)) == len(keys)
    for exps in keys:
        p = classify._triple_root(exps)
        assert type(p) is UnivariatePolynomial and classify._triple_root(exps) is p
        assert p == construct_univariate(list(exps), 3)
    # bounded: the oldest entry is evicted once the capacity is reached
    classify._triple_root.cache_clear()
    for k in range(cap + 10):
        entry = classify._triple_root((0, 1, 2, 4 + k))
        assert type(entry) is UnivariatePolynomial
        assert classify._triple_root.cache_info().currsize == min(k + 1, cap)
    misses = classify._triple_root.cache_info().misses
    classify._triple_root((0, 1, 2, 4))
    assert classify._triple_root.cache_info().misses == misses + 1
    classify._triple_root.cache_clear()


def _route_i_witness(monkeypatch, A, B, seed):
    """Route i's witness on (A, B) under seed, as (X, Y, system), and the
    (support, curve) of each compute_dim_V call the routes made on X; None
    when another route, or none, finds the witness."""
    calls = []
    real = construct.compute_dim_V

    def counted(S, f):
        calls.append((S, f))
        return real(S, f)

    monkeypatch.setattr(construct, "compute_dim_V", counted)
    system, log = _mult3_witness_routes(A, B, seed=seed)
    monkeypatch.setattr(construct, "compute_dim_V", real)
    won = [line for line in log if line.startswith("route i (") and line.endswith("witness found")]
    if not won:
        return None
    X, Y = (A, B) if won[0] == "route i (A,B): witness found" else (B, A)
    return X, Y, system, [f for S, f in calls if S == X]


def _assert_route_i_is_construct_prescribed(X, Y, seed, system, dim_v_curves):
    expected = construct.construct_prescribed(X, Y, 3, seed=seed)
    assert (system.f, system.g, system.retries_used) == (expected.f, expected.g, expected.retries_used)
    assert system.certificate.kind == expected.certificate.kind
    assert system.certificate.transcript == expected.certificate.transcript
    # one compute_dim_V call per (X, draw): route i's on draw 0 unless it is
    # degenerate (then D is the erosion estimate), the constructor's on each
    # later smooth draw it reads
    draws = [construct._probe(Y, seed).draw(k) for k in range(system.retries_used + 1)]
    want = [f for k, (f, smooth) in enumerate(draws) if (f is not None if k == 0 else smooth)]
    assert dim_v_curves == want


def test_route_i_hands_its_checks_to_the_constructor(monkeypatch):
    # route i skips construct_prescribed's input checks and its draw-0 bound
    # check, and must still return that function's witness
    supports = _convex_supports_in_box(2)
    pairs = list(itertools.combinations_with_replacement(supports, 2))
    rng = random.Random(27)
    rng.shuffle(pairs)
    won = 0
    for A, B in pairs:
        seed = rng.choice([construct.DEFAULT_SEED, rng.randrange(2**32)])
        hit = _route_i_witness(monkeypatch, A, B, seed)
        if hit is not None:
            X, Y, system, curves = hit
            _assert_route_i_is_construct_prescribed(X, Y, seed, system, curves)
            won += 1
            if won == 100:
                break
    assert won == 100
    # a seeded search for a draw 0 that is degenerate (a zero coefficient)
    # and one that is singular at (1, 1), each on a pair route i wins
    full = [S for S in supports if not is_segment(S)]
    found = set()
    for _ in range(20000):
        Y, seed = rng.choice(full), rng.randrange(2**32)
        f, smooth = construct._probe(Y, seed).draw(0)
        kind = "degenerate" if f is None else None if smooth else "singular"
        if kind is None or kind in found:
            continue
        for X in rng.sample(full, 20):
            hit = _route_i_witness(monkeypatch, X, Y, seed)
            if hit is not None and hit[1] == Y:
                _assert_route_i_is_construct_prescribed(*hit[:2], seed, *hit[2:])
                assert hit[2].retries_used >= 1
                found.add(kind)
                break
        if len(found) == 2:
            break
    assert found == {"degenerate", "singular"}


def test_segment_measurement_uses_extents():
    # a skew two-point segment spans more of the lattice than it has points
    A = SupportSet([(0, 0), (0, 1), (0, 2)])
    B = SupportSet([(0, 0), (2, 1)])
    assert match_exceptional_family(A, B) is None
    assert decide_mult3(A, B).verdict == "Achievable"

