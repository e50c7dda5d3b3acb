"""Exact 2D lattice geometry.

Points are ``(x, y)`` pairs of Python ints, so every predicate in this
module is exact; there is no floating point anywhere.  Convex hulls carry an
explicit dimension flag (0 for a point, 1 for a segment, 2 for a genuine
polygon) and degenerate hulls are ordinary values, not errors.

The operations here are the geometric substrate for everything else:
hulls, lattice-point enumeration, erosions (the set of shifts taking one
set inside another), normalized 2D mixed volumes and canonical forms under
the unimodular affine group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, List, Optional, Tuple

from .errors import InputError

Point = Tuple[int, int]

#: Returned by primitivity_index when the difference lattice has rank < 2.
INFINITE_INDEX = math.inf


def _as_point(p) -> Point:
    try:
        x, y = p
    except (TypeError, ValueError):
        raise InputError(f"lattice point must be a pair of ints, got {p!r}")
    if isinstance(x, bool) or isinstance(y, bool):
        raise InputError(f"lattice point must be a pair of ints, got {p!r}")
    if not isinstance(x, int) or not isinstance(y, int):
        raise InputError(f"lattice point must be a pair of ints, got {p!r}")
    return (x, y)


def cross(o: Point, a: Point, b: Point) -> int:
    """Twice the signed area of the triangle (o, a, b)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class SupportSet:
    """A finite set of lattice points (a Newton support).

    Set semantics: duplicates collapse and equality ignores order.  The
    empty set is allowed (erosions can be empty); operations that need a
    polynomial support check non-emptiness themselves.  The point set never
    changes, so the sorted points, the convex hull and the normal form are
    computed once, on first use, and stored on the instance.
    """

    __slots__ = ("_points", "_sorted", "_hull", "_normal")

    def __init__(self, points: Iterable = ()):
        self._points = frozenset(_as_point(p) for p in points)
        self._sorted: Optional[Tuple[Point, ...]] = None
        self._hull: Optional["LatticePolygon"] = None
        self._normal: Optional[Tuple["SupportSet", "UnimodularAffineMap"]] = None

    @property
    def points(self) -> frozenset:
        return self._points

    def sorted_points(self) -> Tuple[Point, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self._points))
        return self._sorted

    def translate(self, v: Point) -> "SupportSet":
        dx, dy = v
        return SupportSet((x + dx, y + dy) for x, y in self._points)

    def min_corner(self) -> Point:
        if not self._points:
            raise InputError("empty support has no corner")
        return (min(x for x, _ in self._points), min(y for _, y in self._points))

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.sorted_points())

    def __contains__(self, p) -> bool:
        return _as_point(p) in self._points

    def __eq__(self, other) -> bool:
        return isinstance(other, SupportSet) and self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:
        return f"SupportSet({list(self.sorted_points())})"


@dataclass(frozen=True)
class LatticePolygon:
    """Convex hull of a support, vertices counterclockwise.

    ``dim`` is 0 (single point), 1 (segment: the two endpoints), or
    2 (at least three extreme points, no three consecutive collinear).
    Construct via :func:`convex_hull`.
    """

    vertices: Tuple[Point, ...]
    dim: int

    def edges(self) -> List[Tuple[Point, Point]]:
        v = self.vertices
        if self.dim < 2:
            return []
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def bbox(self) -> Tuple[int, int, int, int]:
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def contains(self, p) -> bool:
        """Exact membership test for the closed region."""
        p = _as_point(p)
        if self.dim == 0:
            return p == self.vertices[0]
        if self.dim == 1:
            a, b = self.vertices
            if cross(a, b, p) != 0:
                return False
            lo_x, hi_x = sorted((a[0], b[0]))
            lo_y, hi_y = sorted((a[1], b[1]))
            return lo_x <= p[0] <= hi_x and lo_y <= p[1] <= hi_y
        return all(cross(a, b, p) >= 0 for a, b in self.edges())

    def translate(self, v: Point) -> "LatticePolygon":
        dx, dy = v
        return LatticePolygon(tuple((x + dx, y + dy) for x, y in self.vertices), self.dim)


def convex_hull(S: SupportSet) -> LatticePolygon:
    """Convex hull with correct dimension flag (monotone chain).

    The hull is cached on the instance S: later calls on S return the same
    (frozen) polygon without computing it again.
    """
    if S._hull is None:
        S._hull = _monotone_chain(S.sorted_points())
    return S._hull


def _monotone_chain(pts: Tuple[Point, ...]) -> LatticePolygon:
    if not pts:
        raise InputError("convex hull of an empty set")
    if len(pts) == 1:
        return LatticePolygon((pts[0],), 0)
    if all(cross(pts[0], pts[1], p) == 0 for p in pts[2:]):
        return LatticePolygon((pts[0], pts[-1]), 1)

    def half(points):
        chain: List[Point] = []
        for p in points:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(list(reversed(pts)))
    verts = lower[:-1] + upper[:-1]
    start = verts.index(min(verts))
    verts = verts[start:] + verts[:start]
    return LatticePolygon(tuple(verts), 2)


def lattice_points(P: LatticePolygon) -> SupportSet:
    """All integer points in the closed region of P.

    These are the shifts c with c + (0, 0) in P, so the set is the erosion
    of P by the origin, which :func:`erode` finds row by row.
    """
    return erode(P, SupportSet([(0, 0)]))


def area2(P: LatticePolygon) -> int:
    """Twice the Euclidean area (shoelace); 0 for dim <= 1."""
    if P.dim < 2:
        return 0
    v = P.vertices
    s = 0
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        s += a[0] * b[1] - b[0] * a[1]
    return abs(s)


def erode(P: LatticePolygon, B: SupportSet) -> SupportSet:
    """Region erosion: all shifts c with c + b inside P for every b in B.

    The result is empty whenever no translate of B fits inside P.  For a
    polygon (dim 2) the result is the intersection of the translates P - b:
    each edge's half-plane is shifted by the minimum of its linear form
    over B, and each row of the result is the x-interval those half-planes
    cut out, by exact floor and ceil division.  The work is per row and
    per edge, plus the output points; no bounding-box point is tested.
    Points and segments keep the bounding-box scan.
    """
    if len(B) == 0:
        raise InputError("erosion by an empty set")
    x0, y0, x1, y1 = P.bbox()
    pts = B.sorted_points()
    bys = [p[1] for p in pts]
    bx0, by0, bx1, by1 = pts[0][0], min(bys), pts[-1][0], max(bys)
    if x1 - x0 < bx1 - bx0 or y1 - y0 < by1 - by0:
        return SupportSet()
    if P.dim < 2:
        return SupportSet(
            (cx, cy)
            for cx in range(x0 - bx0, x1 - bx1 + 1)
            for cy in range(y0 - by0, y1 - by1 + 1)
            if all(P.contains((cx + bx, cy + by)) for bx, by in B)
        )
    # c + B lies left of the edge a -> a + (ex, ey) exactly when
    # ex*cy - ey*cx >= h = ex*ay - ey*ax - min over b of (ex*by - ey*bx).
    # A horizontal edge is the top or bottom of P; its constraint is the
    # row range below.  Other edges bound cx from above if they rise
    # (ey > 0), from below if they fall.
    rising, falling = [], []
    for a, b in P.edges():
        ex, ey = b[0] - a[0], b[1] - a[1]
        if ey:
            h = ex * a[1] - ey * a[0] - min([ex * by - ey * bx for bx, by in pts])
            (rising if ey > 0 else falling).append((ex, ey, h))
    out = []
    for cy in range(y0 - by0, y1 - by1 + 1):
        hi = min([(ex * cy - h) // ey for ex, ey, h in rising])
        lo = -min([(ex * cy - h) // -ey for ex, ey, h in falling])
        out.extend((cx, cy) for cx in range(lo, hi + 1))
    return SupportSet(out)


def _support_sum(P: LatticePolygon, Q: LatticePolygon) -> int:
    """Sum over the counterclockwise edges a -> b of P of the support
    function of Q at the outward normal (b_y - a_y, a_x - b_x), whose
    length is the edge's.  A segment is its two opposite edges; a point
    has none."""
    v, w = P.vertices, Q.vertices
    if len(v) == 1:
        return 0
    total, a = 0, v[-1]
    for b in v:
        ex, ey = b[0] - a[0], b[1] - a[1]
        total += max([ey * qx - ex * qy for qx, qy in w])
        a = b
    return total


def mixed_volume(P: LatticePolygon, Q: LatticePolygon) -> int:
    """Normalized 2D mixed volume: mv(P, P) equals area2(P).

    With this normalization mv equals the generic number of torus roots of
    a system with these Newton polygons.  It is the sum of Q's support
    function over the edge normals of P (Schneider, Convex Bodies, 5.1),
    and the same sum with P and Q swapped; both are computed and must agree.
    """
    s, t = _support_sum(P, Q), _support_sum(Q, P)
    if s != t or s < 0:
        raise AssertionError(f"mixed volume sums {s} and {t} differ or are negative")
    return s


def is_segment(S: SupportSet) -> bool:
    """True iff all points are collinear (single points count): the stored
    hull of S has dimension below 2."""
    if not S.points:
        raise InputError("empty support")
    return convex_hull(S).dim < 2


def is_convex_support(S: SupportSet) -> bool:
    """True when S is exactly the lattice points of its hull."""
    return lattice_points(convex_hull(S)) == S


def _difference_vectors(S: SupportSet) -> List[Point]:
    pts = S.sorted_points()
    base = pts[0]
    return [(p[0] - base[0], p[1] - base[1]) for p in pts[1:]]


def primitivity_index(A: SupportSet, B: SupportSet):
    """Index in Z^2 of the lattice generated by the differences of A and B.

    1 means A and B cannot be shifted to a common proper sublattice.  When
    the difference lattice has rank < 2 the index is infinite and
    ``INFINITE_INDEX`` is returned.  The index is the gcd of the pairwise
    cross products of the differences, so it stops at the first gcd of 1.
    """
    vecs = [v for v in _difference_vectors(A) + _difference_vectors(B) if v != (0, 0)]
    d = 0
    for i, (a, b) in enumerate(vecs):
        for c, e in vecs[i + 1:]:
            d = gcd(d, a * e - b * c)
            if d == 1:
                return 1
    return d or INFINITE_INDEX


@dataclass(frozen=True)
class UnimodularAffineMap:
    """p -> M p + shift with M an integer matrix of determinant +-1."""

    matrix: Tuple[Tuple[int, int], Tuple[int, int]]
    shift: Point = (0, 0)

    def __post_init__(self):
        (a, b), (c, d) = self.matrix
        if abs(a * d - b * c) != 1:
            raise InputError(f"matrix {self.matrix} is not unimodular")

    @classmethod
    def identity(cls) -> "UnimodularAffineMap":
        return cls(((1, 0), (0, 1)), (0, 0))

    @classmethod
    def translation(cls, v: Point) -> "UnimodularAffineMap":
        return cls(((1, 0), (0, 1)), _as_point(v))

    def apply(self, p) -> Point:
        x, y = _as_point(p)
        (a, b), (c, d) = self.matrix
        return (a * x + b * y + self.shift[0], c * x + d * y + self.shift[1])

    def apply_set(self, S: SupportSet) -> SupportSet:
        # the points of S are already pairs of ints; SupportSet checks the images
        (a, b), (c, d) = self.matrix
        sx, sy = self.shift
        return SupportSet((a * x + b * y + sx, c * x + d * y + sy) for x, y in S.points)

    def compose(self, other: "UnimodularAffineMap") -> "UnimodularAffineMap":
        """self after other: (self . other)(p) = self(other(p))."""
        (a, b), (c, d) = self.matrix
        (e, f), (g, h) = other.matrix
        m = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
        sx, sy = other.shift
        shift = (a * sx + b * sy + self.shift[0], c * sx + d * sy + self.shift[1])
        return UnimodularAffineMap(m, shift)

    def inverse(self) -> "UnimodularAffineMap":
        (a, b), (c, d) = self.matrix
        det = a * d - b * c
        inv = ((d * det, -b * det), (-c * det, a * det))
        (p, q), (r, s) = inv
        sx, sy = self.shift
        return UnimodularAffineMap(inv, (-(p * sx + q * sy), -(r * sx + s * sy)))


def _translate_normalized(S: SupportSet) -> Tuple[SupportSet, Point]:
    cx, cy = S.min_corner()
    return S.translate((-cx, -cy)), (-cx, -cy)


def _maxside(S: SupportSet) -> int:
    xs = [p[0] for p in S]
    ys = [p[1] for p in S]
    return max(max(xs) - min(xs), max(ys) - min(ys))


def _set_key(S: SupportSet):
    T, _ = _translate_normalized(S)
    xs = [p[0] for p in T]
    ys = [p[1] for p in T]
    w, h = max(xs), max(ys)
    return (max(w, h), w, h, T.sorted_points())


_ELEMENTARY = [
    ((1, 1), (0, 1)),
    ((1, -1), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, 0), (-1, 1)),
    ((0, 1), (1, 0)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, 1)),
]


def _greedy_reduce(S: SupportSet) -> UnimodularAffineMap:
    """Shrink the bounding box by elementary unimodular moves (local search)."""
    M = UnimodularAffineMap.identity()
    cur = S
    key = _set_key(cur)
    for _ in range(200):
        best = None
        for mat in _ELEMENTARY:
            E = UnimodularAffineMap(mat)
            cand = E.apply_set(cur)
            k = _set_key(cand)
            if k < key and (best is None or k < best[0]):
                best = (k, E, cand)
        if best is None:
            return M
        key, E, cur = best
        M = E.compose(M)
    return M


def _candidate_maps(S: SupportSet, radius: int) -> Iterator[UnimodularAffineMap]:
    """All unimodular linear maps M with the two reference difference vectors
    mapped into the box [-radius, radius]^2.

    d1 is the shortest non-zero difference vector of S and d2 the shortest
    one not parallel to it.  A map is fixed by the images w1 = M d1 and
    w2 = M d2, so every pair (w1, w2) of box points with
    det(w1, w2) = +-det(d1, d2) is tried, and M = [w1 w2] [d1 d2]^-1 is
    yielded when it is integral; its determinant is then +-1.  Every map
    whose image of S has maxside <= radius appears here, which is what
    makes the canonical form below input-independent.
    """
    diffs = sorted(
        (v for v in {(q[0] - p[0], q[1] - p[1]) for p in S for q in S} if v != (0, 0)),
        key=lambda v: (v[0] * v[0] + v[1] * v[1], v),
    )
    d1 = diffs[0]
    d2 = next(v for v in diffs if d1[0] * v[1] - d1[1] * v[0] != 0)
    det_d = d1[0] * d2[1] - d1[1] * d2[0]
    box = [(x, y) for x in range(-radius, radius + 1) for y in range(-radius, radius + 1)]
    for w1x, w1y in box:
        for w2x, w2y in box:
            if abs(w1x * w2y - w1y * w2x) != abs(det_d):
                continue
            # [w1 w2] times the adjugate of [d1 d2], exact when det_d divides it
            m = (w1x * d2[1] - w2x * d1[1], w2x * d1[0] - w1x * d2[0],
                 w1y * d2[1] - w2y * d1[1], w2y * d1[0] - w1y * d2[0])
            if any(v % det_d for v in m):
                continue
            yield UnimodularAffineMap(((m[0] // det_d, m[1] // det_d), (m[2] // det_d, m[3] // det_d)))


def _ext_gcd_solution(a: int, b: int, c: int) -> Tuple[int, int]:
    """One integer solution (x, y) of a*x + b*y = c (gcd(a,b) divides c)."""

    def ext(a, b):
        if b == 0:
            return a, 1, 0
        g, x, y = ext(b, a % b)
        return g, y, x - (a // b) * y

    g, x, y = ext(abs(a), abs(b))
    if c % g != 0:
        raise ArithmeticError("no solution")
    f = c // g
    x *= f * (1 if a >= 0 else -1)
    y *= f * (1 if b >= 0 else -1)
    return x, y


def normal_form(S: SupportSet) -> Tuple[SupportSet, UnimodularAffineMap]:
    """Canonical representative of S under translation + GL(2, Z).

    The canonical set minimizes (maxside, width, height, sorted point list)
    over all unimodular images, so two sets are equivalent iff their normal
    forms are equal.  Returns the witnessing affine map; idempotent.

    A full-dimensional S is first shrunk by :func:`_greedy_reduce`, whose
    image bounds the maxside of the minimum; :func:`_candidate_maps` then
    lists every map within that radius, and each image is scored.  When S
    has symmetries several maps reach the canonical set and the first one
    found is returned, so a full-dimensional witness is fixed only up to
    the symmetries of the canonical set.  Points and segments are mapped
    directly, and their maps are fixed.

    The result is cached on the instance S: later calls on S return the same
    (immutable) set and map without searching again.
    """
    if S._normal is None:
        S._normal = _search_normal_form(S)
    return S._normal


def _search_normal_form(S: SupportSet) -> Tuple[SupportSet, UnimodularAffineMap]:
    pts = S.sorted_points()
    if not pts:
        raise InputError("normal form of an empty set")
    if len(pts) == 1:
        t = UnimodularAffineMap.translation((-pts[0][0], -pts[0][1]))
        return SupportSet([(0, 0)]), t
    if is_segment(S):
        return _segment_normal_form(S)

    M0 = _greedy_reduce(S)
    reduced = M0.apply_set(S)
    radius = max(_maxside(reduced), 1)
    best = None
    for M in _candidate_maps(S, radius):
        img = M.apply_set(S)
        if _maxside(img) > radius:
            continue
        k = _set_key(img)
        if best is None or k < best[0]:
            best = (k, M)
    key, M = best
    canon_pts = key[3]
    img = M.apply_set(S)
    shift = img.min_corner()
    full = UnimodularAffineMap.translation((-shift[0], -shift[1])).compose(M)
    return SupportSet(canon_pts), full


def _segment_normal_form(S: SupportSet) -> Tuple[SupportSet, UnimodularAffineMap]:
    pts = S.sorted_points()
    d = (pts[-1][0] - pts[0][0], pts[-1][1] - pts[0][1])
    g = gcd(abs(d[0]), abs(d[1]))
    prim = (d[0] // g, d[1] // g)
    best = None
    for direction in (prim, (-prim[0], -prim[1])):
        a, b = direction
        x, y = _ext_gcd_solution(a, b, 1)
        M = UnimodularAffineMap(((x, y), (-b, a)))
        img = M.apply_set(S)
        T, t = _translate_normalized(img)
        k = T.sorted_points()
        if best is None or k < best[0]:
            best = (k, UnimodularAffineMap.translation(t).compose(M))
    k, full = best
    return SupportSet(k), full


def unimodular_triple(S: SupportSet) -> Optional[Tuple[Point, Point, Point]]:
    """First point triple spanning a unimodular triangle, in sorted order."""
    pts = S.sorted_points()
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if abs(cross(pts[i], pts[j], pts[k])) == 1:
                    return pts[i], pts[j], pts[k]
    return None


def simplex_map(p: Point, q: Point, r: Point) -> UnimodularAffineMap:
    """The unimodular affine map taking the unimodular triple p, q, r to
    (0, 0), (1, 0), (0, 1), the inverse of [q - p, r - p] + p."""
    return UnimodularAffineMap(((q[0] - p[0], r[0] - p[0]), (q[1] - p[1], r[1] - p[1])), p).inverse()
