"""Exact 2D lattice geometry.

Points are ``(x, y)`` pairs of Python ints, so every predicate in this
module is exact; there is no floating point anywhere.  Convex hulls carry an
explicit dimension flag (0 for a point, 1 for a segment, 2 for a genuine
polygon) and degenerate hulls are ordinary values, not errors.

The operations here are the geometric substrate for everything else:
hulls, lattice-point enumeration, erosions (the set of shifts taking one
set inside another), normalized 2D mixed volumes and canonical forms of
points and segments under the unimodular affine group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    changes, so what it fixes is computed once, on first use, and stored on
    the instance: the sorted points, the convex hull, the index of the
    difference lattice (:func:`lattice_index`), the first unimodular triple
    with its simplex map (:func:`unimodular_frame`) and, for a point or a
    segment, the normal form.  None of these enter equality or the hash.
    """

    __slots__ = ("_points", "_sorted", "_hull", "_normal", "_index", "_frame")

    def __init__(self, points: Iterable = ()):
        self._points = frozenset(_as_point(p) for p in points)
        self._sorted: Optional[Tuple[Point, ...]] = None
        self._hull: Optional["LatticePolygon"] = None
        self._normal: Optional[Tuple["SupportSet", "UnimodularAffineMap"]] = None
        self._index = None
        self._frame = None

    @classmethod
    def _make(cls, points: Iterable[Point]) -> "SupportSet":
        # trusted constructor: points the program computed as pairs of ints
        s = object.__new__(cls)
        s._points = frozenset(points)
        s._sorted = s._hull = s._normal = s._index = s._frame = None
        return s

    @property
    def points(self) -> frozenset:
        return self._points

    def sorted_points(self) -> Tuple[Point, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self._points))
        return self._sorted

    def translate(self, v: Point) -> "SupportSet":
        dx, dy = _as_point(v)
        return SupportSet._make((x + dx, y + dy) for x, y in self._points)

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
    Construct via :func:`convex_hull`.  The bounding box, the edges (a
    tuple, empty below dimension 2) and twice the area are computed once,
    at construction, and kept outside equality and the hash.
    """

    vertices: Tuple[Point, ...]
    dim: int
    _bbox: Tuple[int, int, int, int] = field(init=False, repr=False, compare=False)
    _edges: Tuple[Tuple[Point, Point], ...] = field(init=False, repr=False, compare=False)
    _area2: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = self.vertices
        xs = [p[0] for p in v]
        ys = [p[1] for p in v]
        edges = tuple(zip(v, v[1:] + v[:1])) if self.dim == 2 else ()
        object.__setattr__(self, "_bbox", (min(xs), min(ys), max(xs), max(ys)))
        object.__setattr__(self, "_edges", edges)
        # the shoelace sum
        object.__setattr__(self, "_area2", abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in edges)))

    def edges(self) -> Tuple[Tuple[Point, Point], ...]:
        return self._edges

    def bbox(self) -> Tuple[int, int, int, int]:
        return self._bbox

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
    """Twice the Euclidean area (shoelace), kept on P; 0 for dim <= 1."""
    return P._area2


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
        return SupportSet._make(())
    if P.dim < 2:
        return SupportSet._make(
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
    return SupportSet._make(out)


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


def _generated_index(vecs: List[Point]):
    """Index in Z^2 of the lattice the non-zero vectors generate: the gcd of
    their pairwise cross products, which stops at the first gcd of 1, or
    ``INFINITE_INDEX`` when they have rank < 2."""
    d = 0
    for i, (a, b) in enumerate(vecs):
        for c, e in vecs[i + 1:]:
            d = gcd(d, a * e - b * c)
            if d == 1:
                return 1
    return d or INFINITE_INDEX


def lattice_index(S: SupportSet):
    """Index in Z^2 of the lattice generated by the differences of S, or
    ``INFINITE_INDEX`` below rank 2.  It is stored on the instance S."""
    if S._index is None:
        S._index = _generated_index(_difference_vectors(S))
    return S._index


def primitivity_index(A: SupportSet, B: SupportSet):
    """Index in Z^2 of the lattice generated by the differences of A and B.

    1 means A and B cannot be shifted to a common proper sublattice.  When
    the difference lattice has rank < 2 the index is infinite and
    ``INFINITE_INDEX`` is returned.  The joint lattice contains the
    difference lattice of each support, so it is Z^2 when either one's
    stored :func:`lattice_index` is 1; otherwise the index is the gcd of
    the pairwise cross products of both supports' differences.
    """
    if lattice_index(A) == 1 or lattice_index(B) == 1:
        return 1
    return _generated_index(_difference_vectors(A) + _difference_vectors(B))


@dataclass(frozen=True)
class UnimodularAffineMap:
    """p -> M p + shift with M an integer matrix of determinant +-1."""

    matrix: Tuple[Tuple[int, int], Tuple[int, int]]
    shift: Point = (0, 0)

    def __post_init__(self):
        # int entries only: apply_set builds its images with no further check
        (a, b), (c, d) = _as_point(self.matrix[0]), _as_point(self.matrix[1])
        _as_point(self.shift)
        if abs(a * d - b * c) != 1:
            raise InputError(f"matrix {self.matrix} is not unimodular")

    @classmethod
    def translation(cls, v: Point) -> "UnimodularAffineMap":
        return cls(((1, 0), (0, 1)), _as_point(v))

    def apply(self, p) -> Point:
        x, y = _as_point(p)
        (a, b), (c, d) = self.matrix
        return (a * x + b * y + self.shift[0], c * x + d * y + self.shift[1])

    def apply_set(self, S: SupportSet) -> SupportSet:
        # the points of S and the entries of the map are ints, so are the images
        (a, b), (c, d) = self.matrix
        sx, sy = self.shift
        return SupportSet._make((a * x + b * y + sx, c * x + d * y + sy) for x, y in S.points)

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
    """Canonical representative of a point or a segment S under translation
    + GL(2, Z), and the affine map that takes S onto it.

    A point goes to the origin.  A segment goes onto the x-axis, starting at
    the origin; of the two maps that do this, one for each direction of the
    segment, the one whose image has the smaller sorted point list is kept.
    So two points or segments are equivalent iff their normal forms are
    equal; the form is idempotent and its map is fixed.  A full-dimensional
    S has no normal form here and raises InputError.

    The result is cached on the instance S: later calls on S return the same
    (immutable) set and map without computing them again.
    """
    if S._normal is None:
        pts = S.sorted_points()
        if not pts:
            raise InputError("normal form of an empty set")
        if len(pts) == 1:
            S._normal = SupportSet([(0, 0)]), UnimodularAffineMap.translation((-pts[0][0], -pts[0][1]))
        elif is_segment(S):
            S._normal = _segment_normal_form(S)
        else:
            raise InputError("normal form of a full-dimensional support: only points and segments have one")
    return S._normal


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
        cx, cy = img.min_corner()
        t = (-cx, -cy)
        k = img.translate(t).sorted_points()
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


def unimodular_frame(
    S: SupportSet,
) -> Tuple[Optional[Tuple[Point, Point, Point]], Optional[UnimodularAffineMap]]:
    """The first unimodular triple of S (:func:`unimodular_triple`) and its
    :func:`simplex_map`, or (None, None) when S holds no unimodular
    triangle.  The pair is stored on the instance S."""
    if S._frame is None:
        triple = unimodular_triple(S)
        S._frame = (None, None) if triple is None else (triple, simplex_map(*triple))
    return S._frame


def simplex_map(p: Point, q: Point, r: Point) -> UnimodularAffineMap:
    """The unimodular affine map taking the unimodular triple p, q, r to
    (0, 0), (1, 0), (0, 1), the inverse of [q - p, r - p] + p."""
    return UnimodularAffineMap(((q[0] - p[0], r[0] - p[0]), (q[1] - p[1], r[1] - p[1])), p).inverse()
