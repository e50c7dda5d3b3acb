"""Exact lattice geometry: frozen examples plus randomized invariants.

Derived expected values are computed by independent brute-force oracles
defined in this file (half-plane scans, pairwise-sum hulls, minor gcds),
never by the code paths under test.
"""

import hashlib
import random
from math import gcd, inf
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sparsemult import lattice
from sparsemult.algebra import LaurentPolynomial
from sparsemult.lattice import (
    SupportSet,
    UnimodularAffineMap,
    area2,
    convex_hull,
    cross,
    erode,
    is_segment,
    lattice_points,
    mixed_volume,
    normal_form,
    primitivity_index,
    simplex_map,
)
from sparsemult.errors import InputError
from sparsemult.reproduce import _convex_supports_in_box

GOLDEN = Path(__file__).parent / "golden"
SIMPLEX = SupportSet([(0, 0), (1, 0), (0, 1)])
SQUARE = SupportSet([(0, 0), (1, 0), (0, 1), (1, 1)])


# --- oracles -----------------------------------------------------------------


def oracle_points_in_hull(vertex_pts):
    """Brute-force lattice points of conv(vertex_pts) via orientation tests."""
    hull = convex_hull(SupportSet(vertex_pts))  # only for the vertex cycle
    xs = [p[0] for p in vertex_pts]
    ys = [p[1] for p in vertex_pts]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            v = hull.vertices
            inside = all(
                cross(v[i], v[(i + 1) % len(v)], (x, y)) >= 0 for i in range(len(v))
            )
            if inside:
                out.append((x, y))
    return sorted(out)


def oracle_minkowski(P, Q):
    pts = {(a[0] + b[0], a[1] + b[1]) for a in P.vertices for b in Q.vertices}
    return convex_hull(SupportSet(pts))


def oracle_hnf_index(vectors):
    """gcd of all 2x2 minors of the difference vectors (0 means rank < 2)."""
    d = 0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            d = gcd(d, abs(vectors[i][0] * vectors[j][1] - vectors[i][1] * vectors[j][0]))
    return d


_coords = st.integers(-6, 6)
_shift = st.integers(-3, 3)


@st.composite
def _hull_points(draw):
    """Point sets whose hull is a point, a segment or a polygon."""
    kind = draw(st.sampled_from(("point", "segment", "polygon")))
    base = (draw(_coords), draw(_coords))
    if kind == "point":
        return [base]
    if kind == "segment":
        d = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda v: v != (0, 0)))
        ks = draw(st.sets(st.integers(-2, 2), min_size=2, max_size=4))
        return [(base[0] + k * d[0], base[1] + k * d[1]) for k in ks]
    return draw(st.lists(st.tuples(_coords, _coords), min_size=3, max_size=8))


def random_polygon(rng, box=10, npts=6):
    while True:
        pts = {(rng.randrange(box), rng.randrange(box)) for _ in range(npts)}
        S = SupportSet(pts)
        h = convex_hull(S)
        if h.dim == 2:
            return h


def random_unimodular(rng, steps=5):
    M = UnimodularAffineMap(((1, 0), (0, 1)))
    gens = [
        UnimodularAffineMap(((1, 1), (0, 1))),
        UnimodularAffineMap(((1, -1), (0, 1))),
        UnimodularAffineMap(((1, 0), (1, 1))),
        UnimodularAffineMap(((1, 0), (-1, 1))),
        UnimodularAffineMap(((0, 1), (1, 0))),
    ]
    for _ in range(steps):
        M = rng.choice(gens).compose(M)
    return UnimodularAffineMap(M.matrix, (rng.randint(-3, 3), rng.randint(-3, 3)))


# --- convex hull -------------------------------------------------------------


def test_hull_unit_square():
    h = convex_hull(SQUARE)
    assert h.dim == 2
    assert set(h.vertices) == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_hull_collinear_segment():
    h = convex_hull(SupportSet([(0, 0), (2, 0), (1, 0)]))
    assert h.dim == 1
    assert set(h.vertices) == {(0, 0), (2, 0)}


def test_hull_thin_triangle():
    h = convex_hull(SupportSet([(0, 1), (3, 0), (4, 0)]))
    assert h.dim == 2
    assert set(h.vertices) == {(0, 1), (3, 0), (4, 0)}


def test_hull_contains_all_points():
    rng = random.Random(11)
    for _ in range(30):
        pts = [(rng.randrange(8), rng.randrange(8)) for _ in range(7)]
        h = convex_hull(SupportSet(pts))
        assert all(h.contains(p) for p in pts)


# --- lattice points ----------------------------------------------------------


def test_lattice_points_unit_square():
    assert len(lattice_points(convex_hull(SQUARE))) == 4


def test_lattice_points_two_simplex():
    h = convex_hull(SupportSet([(0, 0), (2, 0), (0, 2)]))
    assert len(lattice_points(h)) == 6


def test_lattice_points_thin_triangle_oracle():
    pts = [(0, 1), (3, 0), (4, 0)]
    expected = oracle_points_in_hull(pts)
    assert expected == [(0, 1), (3, 0), (4, 0)]  # frozen from the oracle
    got = lattice_points(convex_hull(SupportSet(pts)))
    assert got.sorted_points() == tuple(expected)


# --- area --------------------------------------------------------------------


def test_area2_values():
    assert area2(convex_hull(SQUARE)) == 2
    assert area2(convex_hull(SupportSet([(0, 0), (3, 0), (0, 3)]))) == 9
    assert area2(convex_hull(SupportSet([(0, 1), (3, 0), (4, 0)]))) == 1
    assert area2(convex_hull(SupportSet([(0, 0), (5, 0)]))) == 0


# --- erosion -----------------------------------------------------------------


def test_erode_self_contains_origin():
    h = convex_hull(SIMPLEX)
    assert erode(h, SIMPLEX).sorted_points() == ((0, 0),)


def test_erode_two_simplex_by_simplex():
    h = convex_hull(SupportSet([(0, 0), (2, 0), (0, 2)]))
    # oracle: brute scan of candidate shifts
    expected = []
    for cx in range(-3, 4):
        for cy in range(-3, 4):
            if all(h.contains((cx + bx, cy + by)) for bx, by in SIMPLEX):
                expected.append((cx, cy))
    assert sorted(expected) == [(0, 0), (0, 1), (1, 0)]
    assert erode(h, SIMPLEX).sorted_points() == tuple(sorted(expected))


def test_erode_square_by_corner():
    h = convex_hull(SQUARE)
    got = erode(h, SupportSet([(0, 0), (1, 0), (0, 1)]))
    assert got.sorted_points() == ((0, 0),)


def oracle_erode(hull_pts, B):
    """Shifts c with c + B inside conv(hull_pts), by a scan around the
    bounding box.  A polygon is the intersection of the half-planes left of
    p -> r over the point pairs with no point right of that line, so the
    oracle needs no hull code; segments and points go by collinearity."""
    pts = sorted(set(hull_pts))
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]

    def inside(q):
        if len(pts) == 1:
            return q == pts[0]
        a, b = pts[0], pts[-1]
        if all(cross(a, b, p) == 0 for p in pts):
            return (cross(a, b, q) == 0 and min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
                    and min(a[1], b[1]) <= q[1] <= max(a[1], b[1]))
        return all(cross(p, r, q) >= 0 or any(cross(p, r, w) < 0 for w in pts)
                   for p in pts for r in pts if p != r)

    out = []
    for cx in range(min(xs) - 8, max(xs) + 9):
        for cy in range(min(ys) - 8, max(ys) + 9):
            if all(inside((cx + bx, cy + by)) for bx, by in B):
                out.append((cx, cy))
    return tuple(sorted(out))


@settings(deadline=None, max_examples=400)
@given(_hull_points(), st.sets(st.tuples(_shift, _shift), min_size=1, max_size=4))
def test_erode_matches_scan_oracle(hull_pts, bpts):
    B = SupportSet(bpts)
    hull = convex_hull(SupportSet(hull_pts))
    assert erode(hull, B).sorted_points() == oracle_erode(hull_pts, B)
    # lattice_points is the erosion by the origin; is_segment reads the hull
    assert lattice_points(hull).sorted_points() == oracle_erode(hull_pts, [(0, 0)])
    a, b = min(hull_pts), max(hull_pts)
    assert is_segment(SupportSet(hull_pts)) == all(cross(a, b, p) == 0 for p in hull_pts)


def test_convex_hull_is_stored_per_support():
    rng = random.Random(11)
    for _ in range(20):
        S = SupportSet((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 7)))
        first = convex_hull(S)
        assert convex_hull(S) is first
        fresh = convex_hull(SupportSet(S.points))
        assert fresh == first and fresh is not first
    with pytest.raises(AttributeError):
        first.dim = 0


def test_erode_monotone():
    rng = random.Random(7)
    for _ in range(25):
        P = random_polygon(rng)
        pts = [(rng.randrange(3), rng.randrange(3)) for _ in range(4)]
        B = SupportSet(pts[:2])
        B2 = SupportSet(pts)
        small = erode(P, B2)
        big = erode(P, B)
        assert small.points <= big.points


def test_erosion_sum_containment():
    rng = random.Random(8)
    for _ in range(25):
        P = random_polygon(rng)
        B = SupportSet([(rng.randrange(3), rng.randrange(3)) for _ in range(3)])
        E = erode(P, B)
        if len(E) == 0:
            continue
        cloud = SupportSet(
            (e[0] + b[0], e[1] + b[1]) for e in E for b in B
        )
        inner = lattice_points(convex_hull(cloud))
        outer = lattice_points(P)
        assert inner.points <= outer.points


# --- mixed volume ------------------------------------------------------------


def oracle_mixed_volume(P, Q):
    """Mixed area from support functions (Schneider, Convex Bodies, 5.1):
    the sum over the counterclockwise edges a -> b of P of the support
    function of Q at the outward normal (b_y - a_y, -(b_x - a_x)).  A
    segment is its two opposite edges; a point has none."""
    v = P.vertices
    if len(v) == 1:
        return 0
    edges = [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]
    return sum(max((b[1] - a[1]) * q[0] - (b[0] - a[0]) * q[1] for q in Q.vertices)
               for a, b in edges)


@settings(deadline=None, max_examples=300)
@given(_hull_points(), _hull_points())
def test_mixed_volume_matches_support_function_oracle(p_pts, q_pts):
    P, Q = convex_hull(SupportSet(p_pts)), convex_hull(SupportSet(q_pts))
    # and from areas: 2 mv(P, Q) = area2(P + Q) - area2(P) - area2(Q)
    by_area = area2(oracle_minkowski(P, Q)) - area2(P) - area2(Q)
    assert mixed_volume(P, Q) == oracle_mixed_volume(P, Q) == oracle_mixed_volume(Q, P) == by_area // 2
    assert by_area % 2 == 0


def test_mixed_volume_bezout():
    A3 = convex_hull(SupportSet([(0, 0), (3, 0), (0, 3)]))
    assert mixed_volume(A3, A3) == 9


def test_mixed_volume_thin_pair():
    assert mixed_volume(
        convex_hull(SIMPLEX), convex_hull(SupportSet([(0, 1), (3, 0), (4, 0)]))
    ) == 4


def test_mixed_volume_point():
    P = convex_hull(SQUARE)
    assert mixed_volume(P, convex_hull(SupportSet([(2, 7)]))) == 0


def test_mixed_volume_properties():
    rng = random.Random(9)
    for _ in range(20):
        P = random_polygon(rng)
        Q = random_polygon(rng)
        assert mixed_volume(P, Q) == mixed_volume(Q, P)
        assert mixed_volume(P, P) == area2(P)
        t = convex_hull(SupportSet(Q.vertices).translate((rng.randint(-4, 4), rng.randint(-4, 4))))
        assert mixed_volume(P, t) == mixed_volume(P, Q)
        M = random_unimodular(rng)
        MP = convex_hull(M.apply_set(SupportSet(P.vertices)))
        MQ = convex_hull(M.apply_set(SupportSet(Q.vertices)))
        assert mixed_volume(MP, MQ) == mixed_volume(P, Q)


# --- Pick's theorem --------------------------------------------------------


def test_pick_three_simplex():
    h = convex_hull(SupportSet([(0, 0), (3, 0), (0, 3)]))
    # enumeration oracle
    pts = oracle_points_in_hull([(0, 0), (3, 0), (0, 3)])
    boundary = [p for p in pts if p[0] == 0 or p[1] == 0 or p[0] + p[1] == 3]
    assert (len(pts) - len(boundary), len(boundary)) == (1, 9)
    assert lattice_points(h).sorted_points() == tuple(pts)
    assert area2(h) == 2 * 1 + 9 - 2


def test_pick_identity_random():
    # area2 and lattice_points agree by Pick: area2 = 2 i + b - 2, with the
    # b boundary points counted by edge gcds
    rng = random.Random(10)
    for _ in range(30):
        P = random_polygon(rng)
        b = sum(gcd(abs(v[0] - u[0]), abs(v[1] - u[1])) for u, v in P.edges())
        assert area2(P) == 2 * (len(lattice_points(P)) - b) + b - 2


# --- segments and primitivity ------------------------------------------------


def test_is_segment():
    assert is_segment(SupportSet([(0, 0), (2, 4), (1, 2)]))
    assert not is_segment(SIMPLEX)
    assert is_segment(SupportSet([(5, 5)]))


def test_primitivity_simplex_pair():
    assert primitivity_index(SIMPLEX, SIMPLEX) == 1


def test_primitivity_hnf_oracle():
    A = SupportSet([(0, 0), (2, 0), (0, 2)])
    B = SupportSet([(0, 0), (2, 2)])
    vectors = [(2, 0), (0, 2), (2, 2)]
    assert oracle_hnf_index(vectors) == 4  # frozen from the minor-gcd oracle
    assert primitivity_index(A, B) == 4


def test_primitivity_rank_deficient():
    assert primitivity_index(SupportSet([(0, 0), (1, 0)]), SupportSet([(0, 0), (1, 0)])) == inf


def _all_pairs_index(A, B):
    """The gcd of the cross products of every pair of difference vectors,
    each support's differences taken from its lowest point; inf for rank < 2."""
    vecs = []
    for S in (A, B):
        base = min(S.points)
        vecs += [(x - base[0], y - base[1]) for x, y in S.points if (x, y) != base]
    d = 0
    for i, (a, b) in enumerate(vecs):
        for c, e in vecs[i + 1:]:
            d = gcd(d, abs(a * e - b * c))
    return d if d else inf


_lattice_pts = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
# general supports, points on one line through the origin (collinear, possibly
# a single point), and supports on a sublattice 2Z x 2Z or 3Z x Z
_any_support = st.lists(_lattice_pts, min_size=1, max_size=6)
_on_line = st.builds(lambda d, ks: [(d[0] * k, d[1] * k) for k in ks],
                     st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (1, 3)]),
                     st.lists(st.integers(-3, 3), min_size=1, max_size=4))
_scaled = st.builds(lambda s, pts: [(s[0] * x, s[1] * y) for x, y in pts],
                    st.sampled_from([(2, 2), (3, 1), (1, 2)]), _any_support)


@settings(deadline=None, max_examples=400)
@given(st.one_of(_any_support, _on_line, _scaled), st.one_of(_any_support, _on_line, _scaled))
def test_primitivity_matches_all_pairs_gcd(a, b):
    A, B = SupportSet(a), SupportSet(b)
    want = _all_pairs_index(A, B)
    assert primitivity_index(A, B) == want == primitivity_index(B, A)
    if want == inf:
        assert primitivity_index(A, B) is lattice.INFINITE_INDEX


# --- normal forms ------------------------------------------------------------


SEGMENT = SupportSet([(0, 0), (1, 2), (3, 6)])


def test_normal_form_translation_quotient():
    for S in (SEGMENT, SupportSet([(2, 5)])):
        c1, _ = normal_form(S)
        c2, _ = normal_form(S.translate((7, -3)))
        assert c1 == c2


def test_normal_form_swap_consistency():
    M = UnimodularAffineMap(((0, 1), (1, 0)))
    c1, _ = normal_form(SEGMENT)
    c2, _ = normal_form(M.apply_set(SEGMENT))
    assert c1 == c2 == SupportSet([(0, 0), (1, 0), (3, 0)])


def _random_segment(rng):
    """A point or up to five points on a line through a point of [-3, 3]^2."""
    d = (rng.randint(-3, 3), rng.randint(-3, 3))
    base = (rng.randint(-3, 3), rng.randint(-3, 3))
    ks = {rng.randint(-2, 2) for _ in range(rng.randint(1, 5))}
    return SupportSet((base[0] + k * d[0], base[1] + k * d[1]) for k in ks)


def test_normal_form_witness_and_idempotence():
    rng = random.Random(13)
    for _ in range(50):
        S = _random_segment(rng)
        canon, M = normal_form(S)
        assert M.apply_set(S) == canon
        assert all(y == 0 for _, y in canon) and canon.min_corner() == (0, 0)
        canon2, M2 = normal_form(canon)
        assert canon2 == canon


def test_normal_form_invariance_under_random_maps():
    rng = random.Random(14)
    bases = [
        SupportSet([(0, 0)]),
        SupportSet([(0, 0), (1, 0)]),
        SupportSet([(0, 0), (1, 0), (3, 0)]),
        SupportSet([(0, 0), (2, 1), (4, 2), (8, 4)]),
    ]
    for S in bases:
        canon, _ = normal_form(S)
        for _ in range(100):
            M = random_unimodular(rng)
            c, _ = normal_form(M.apply_set(S))
            assert c == canon


def test_segment_normal_forms():
    c1, _ = normal_form(SupportSet([(0, 0), (2, 4)]))
    c2, _ = normal_form(SupportSet([(1, 1), (2, 3)]))
    assert c1.sorted_points() == ((0, 0), (2, 0))
    assert c2.sorted_points() == ((0, 0), (1, 0))
    with pytest.raises(InputError, match="full-dimensional"):
        normal_form(SIMPLEX)


def test_normal_form_cached_equals_fresh():
    # the cached (canon, map) is the one a computation on an equal new set
    # finds; route iii prints the map, so it must match as well as the set.
    # The atlas holds a single point and segments, so every branch is covered.
    rng = random.Random(17)
    supports = [S for S in _convex_supports_in_box(2) if is_segment(S)]
    supports += [_random_segment(rng) for _ in range(100)]
    for S in supports:
        first = normal_form(S)
        assert normal_form(S) is first
        assert normal_form(SupportSet(S.points)) == first
        canon, M = first
        assert M.apply_set(S) == canon and normal_form(canon)[0] == canon


def _canonical_form_lines():
    """One ``support -> canonical points`` line for every point and segment
    among the bound-2 convex supports and 200 seeded random supports in
    [0, 5]^2."""
    rng = random.Random(23)
    supports = _convex_supports_in_box(2)
    for _ in range(200):
        supports.append(SupportSet((rng.randrange(6), rng.randrange(6)) for _ in range(rng.randint(1, 8))))
    return [f"{list(S.sorted_points())} -> {list(normal_form(S)[0].sorted_points())}"
            for S in supports if is_segment(S)]


def _canonical_forms_digest():
    text = "\n".join(_canonical_form_lines()) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_canonical_forms_pinned():
    # the canonical point sets are pinned by digest (re-record after a
    # deliberate change of the canonical order with
    # `PYTHONPATH=src:tests python -c 'import test_lattice as t; print(t._canonical_forms_digest())'`)
    pinned = (GOLDEN / "normal_forms.sha256").read_text(encoding="utf-8").split()[0]
    assert _canonical_forms_digest() == pinned


def test_normal_form_computes_once_per_instance(monkeypatch):
    computed = []
    segment_normal_form = lattice._segment_normal_form

    def counted(S):
        computed.append(S)
        return segment_normal_form(S)

    monkeypatch.setattr(lattice, "_segment_normal_form", counted)
    S = SupportSet([(0, 0), (3, 1), (6, 2)])
    canon, M = normal_form(S)
    assert normal_form(S) == (canon, M) and len(computed) == 1
    equal = SupportSet(S.points)
    assert normal_form(equal) == (canon, M) and len(computed) == 2


# --- affine maps -------------------------------------------------------------


def test_apply_map_identity_and_shift():
    assert UnimodularAffineMap(((1, 0), (0, 1))).apply_set(SIMPLEX) == SIMPLEX
    shifted = UnimodularAffineMap.translation((1, 1)).apply_set(SIMPLEX)
    assert shifted.sorted_points() == ((1, 1), (1, 2), (2, 1))


def test_unimodular_preserves_area():
    rng = random.Random(15)
    for _ in range(20):
        P = random_polygon(rng)
        M = random_unimodular(rng)
        img = convex_hull(M.apply_set(SupportSet(P.vertices)))
        assert area2(img) == area2(P)


def test_map_compose_inverse():
    rng = random.Random(16)
    for _ in range(20):
        M = random_unimodular(rng)
        N = M.inverse()
        both = N.compose(M)
        p = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert both.apply(p) == p


def test_non_unimodular_rejected():
    with pytest.raises(InputError):
        UnimodularAffineMap(((2, 0), (0, 1)))
    # apply_set trusts its images to be pairs of ints, so the entries must be
    for matrix, shift in ((((1.0, 0), (0, 1)), (0, 0)), (((1, 0), (0, 1)), (0.5, 0)),
                          (((True, 0), (0, 1)), (0, 0))):
        with pytest.raises(InputError):
            UnimodularAffineMap(matrix, shift)


def test_apply_set_agrees_with_apply():
    rng = random.Random(19)
    for _ in range(20):
        M = random_unimodular(rng)
        S = SupportSet((rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 8)))
        assert M.apply_set(S) == SupportSet(M.apply(p) for p in S)


@settings(deadline=None, max_examples=300)
@given(_hull_points(), st.sets(st.tuples(_shift, _shift), min_size=1, max_size=4),
       st.tuples(_shift, _shift), st.integers(0, 2**16),
       st.sampled_from([True, False, 1.0, -2.5]), st.integers(0, 1))
def test_trusted_supports_equal_checked_ones(hull_pts, bpts, v, map_seed, bad, at):
    # erode, translate, apply_set and support build their results with no
    # per-point check; each must equal the checked SupportSet of its points
    S = SupportSet(hull_pts)
    M = random_unimodular(random.Random(map_seed))
    f = LaurentPolynomial({p: i + 1 for i, p in enumerate(S)})
    for trusted in (erode(convex_hull(S), SupportSet(bpts)), S.translate(v), M.apply_set(S), f.support()):
        checked = SupportSet(list(trusted.points))
        assert trusted == checked and hash(trusted) == hash(checked)
        assert trusted.sorted_points() == checked.sorted_points()
    # the public constructors still reject a bool or float coordinate
    point = list(hull_pts[0])
    point[at] = bad
    with pytest.raises(InputError):
        SupportSet(hull_pts + [tuple(point)])
    with pytest.raises(InputError):
        S.translate(tuple(point))
    with pytest.raises(InputError):
        LaurentPolynomial({tuple(point): 1})
    with pytest.raises(InputError):
        LaurentPolynomial({hull_pts[0]: bad})


def test_simplex_map_takes_triple_to_simplex():
    rng = random.Random(20)
    for _ in range(20):
        M = random_unimodular(rng)
        p, q, r = (M.apply(v) for v in ((0, 0), (1, 0), (0, 1)))
        for a, b, c in ((p, q, r), (q, r, p), (r, p, q)):
            N = simplex_map(a, b, c)
            assert (N.apply(a), N.apply(b), N.apply(c)) == ((0, 0), (1, 0), (0, 1))
    with pytest.raises(InputError):
        simplex_map((0, 0), (2, 0), (0, 1))
