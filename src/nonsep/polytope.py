"""Convex polytopes with synchronized facet and vertex descriptions.

A `Polytope` always carries both sides of the duality: facet halfspaces
``<a_i, x> <= b_i`` with unit outer normals, and the vertex list.
Constructing from one side completes the other by a qhull hull: of the
points, or of the polar points a_i / (b_i - <a_i, c>) about a
Chebyshev centre c, whose vertices are the irredundant facets and whose
facets are the vertices. Redundant data is dropped and the pair is
cross-validated. Instances are immutable; the arrays are read-only.

Also here: support functions, polarity, containment of a translate (an LP
feasibility problem over the translation), genericity testing and repair,
circumscribed simplices, and the volume of a body in d <= 3 (`measure`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from . import lp, tolerances
from .errors import GeometryError, InputError, _index

_GENERICIZE_TRIES = 1000  # draws `genericize` makes before it gives up
# Largest |coordinate| handed to qhull where it can crash.  In 3-D and 4-D
# it writes hyperplanes as determinants of coordinate differences, whose
# products overflow and kill the interpreter (from about 1e154 in 3-D and
# 1e104 in 4-D); it already refuses such point sets from about 1e77 (3-D)
# and 1e52 (4-D).  Its planar hulls, and the Gaussian elimination it uses
# for d >= 5, answer at far larger scales, so `from_vertices` checks only
# d = 3, 4; `_qhull` checks every d against the same limit.
_QHULL_MAX = 1e80
_EDGE_RANK = 1e-7  # singular values above it count in the rank test of `edges`


def _qhull(build, points, what):
    # qhull refuses points from about 1e77 in the plane (Delaunay) and 1e52
    # in 3-D, and can crash from 1e104 (d = 3): never hand it those
    if np.abs(points).max() > _QHULL_MAX:
        raise GeometryError(f"{what} failed: coordinates too large")
    try:
        return build(points)
    except QhullError as exc:
        raise GeometryError(f"{what} failed") from exc


def _freeze(a) -> np.ndarray:
    """A read-only C-contiguous float copy; the caller's array is left alone."""
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


def _has_bool(x) -> bool:
    return isinstance(x, bool) or isinstance(x, list) and any(map(_has_bool, x))


def _finite(x, what: str) -> np.ndarray:
    """`x` as a float array, rejecting NaN, infinite, boolean and non-numeric entries."""
    if _has_bool(x):
        raise InputError(f"{what} must be numbers, not booleans")
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be equal-length lists of numbers") from exc
    if not np.isfinite(a).all():
        raise InputError(f"{what} must be finite")
    return a


@dataclass(frozen=True)
class Polytope:
    """Bounded full-dimensional polytope in R^d, d >= 1.

    ``facet_normals`` has unit rows; ``facet_offsets`` are the matching
    right-hand sides; ``vertices`` is the full extreme-point list. Use the
    ``from_facets`` / ``from_vertices`` constructors, not the raw one.
    """

    dim: int
    facet_normals: np.ndarray
    facet_offsets: np.ndarray
    vertices: np.ndarray

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_facets(normals, offsets) -> "Polytope":
        a = np.atleast_2d(_finite(normals, "facet normals"))
        b = np.atleast_1d(_finite(offsets, "facet offsets"))
        if a.ndim != 2 or a.shape[0] != b.size:
            raise InputError("facet arrays have inconsistent shapes")
        d = a.shape[1]
        if (np.linalg.norm(a, axis=1) <= tolerances.GEOM).any():
            raise InputError("zero facet normal")
        a, b = _dedupe_facets(a, b)
        if d == 1:
            # normals are +-1 after normalization
            ups, downs = b[a[:, 0] > 0], b[a[:, 0] < 0]
            if ups.size == 0 or downs.size == 0:
                raise GeometryError("unbounded")
            return _interval(-downs.min(), ups.min())
        c = _chebyshev_centre(a, b)
        slack = b - a @ c
        if (slack <= 0).any():  # c rounded onto a row: offsets too far apart
            raise InputError(f"facet offsets from {b.min():.6g} to {b.max():.6g} "
                             "span too wide a range to place a centre inside")
        # Polar about c: row i becomes the point a_i / (b_i - <a_i, c>).
        # Hull vertices are the irredundant rows; a hull facet
        # <n, y> = off is the vertex c + n / off.
        try:
            hull = ConvexHull(a / slack[:, None])
        except QhullError as exc:
            raise GeometryError("unbounded") from exc
        n, off = _dedupe_facets(hull.equations[:, :-1], -hull.equations[:, -1])
        if (off <= tolerances.GEOM * min(1.0, off.max())).any():
            raise GeometryError("unbounded")
        verts = c + n / off[:, None]
        # A row that cuts a corner smaller than the merge above is tight
        # at fewer than d merged vertices and cuts off nothing.
        keep = np.sort(hull.vertices)
        scale = float(np.abs(verts).max(initial=1.0))
        tight = np.abs(a[keep] @ verts.T - b[keep, None]) <= tolerances.tight(scale)
        keep = keep[tight.sum(axis=1) >= d]
        return _build(d, a[keep], b[keep], verts)

    @staticmethod
    def from_vertices(points) -> "Polytope":
        pts = np.atleast_2d(_finite(points, "vertices"))
        d = pts.shape[1]
        if d == 1:
            return _interval(pts.min(), pts.max())
        if pts.shape[0] < d + 1 or _affine_rank(pts) < d:
            raise GeometryError("not full-dimensional")
        if d in (3, 4) and np.abs(pts).max() > _QHULL_MAX:
            raise GeometryError("hull failed: coordinates too large")
        try:
            hull = ConvexHull(pts)
        except QhullError as exc:
            raise GeometryError("not full-dimensional") from exc
        # qhull rows are [normal | offset] with normal @ x + offset <= 0.
        eq = hull.equations
        a, b = _dedupe_facets(eq[:, :-1], -eq[:, -1])
        verts = pts[hull.vertices]
        return _build(d, a, b, verts)

    # -- basic queries -----------------------------------------------------

    @functools.cached_property
    def _difference_body(self):
        """(u, h_P(u), h_P(-u)), computed once, u holding the facet normals of
        P - P: +-facet_normals for d <= 2, else qhull's on V - V."""
        u = np.vstack([self.facet_normals, -self.facet_normals])
        if self.dim >= 3:
            z = (self.vertices[:, None] - self.vertices).reshape(-1, self.dim)
            eq = _qhull(ConvexHull, z, "difference body hull").equations
            u, _ = _dedupe_facets(eq[:, :-1], -eq[:, -1])  # one row per facet
        h = self.vertices @ u.T
        return _freeze(u), _freeze(h.max(axis=0)), _freeze(-h.min(axis=0))

    @functools.cached_property
    def _edges(self):
        """((i, j), facets tight at v_i and v_j) for each edge, found once: a
        vertex pair is an edge iff those facets' normals have rank d - 1."""
        tight = np.abs(self.facet_normals @ self.vertices.T
                       - self.facet_offsets[:, None]) <= tolerances.tight(self._scale())
        # facets tight at both ends of every pair; only pairs sharing d - 1 of
        # them get the rank test, in the order of the double loop over pairs
        shared = tight.T.astype(int) @ tight
        out = []
        for i, j in zip(*np.nonzero(np.triu(shared >= self.dim - 1, 1))):
            on = tight[:, i] & tight[:, j]
            s = np.linalg.svd(self.facet_normals[on], compute_uv=False)
            if (s > _EDGE_RANK).sum() >= self.dim - 1:
                on.setflags(write=False)
                out.append(((int(i), int(j)), on))
        return tuple(out)

    @property
    def n_facets(self) -> int:
        return self.facet_offsets.size

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def support(self, u):
        """max_{x in P} <u, x>, for a direction or rows of directions;
        rejects the zero direction."""
        u = np.asarray(u, dtype=float)
        if (np.linalg.norm(u, axis=-1) <= tolerances.GEOM).any():
            raise InputError("zero direction")
        vals = (self.vertices @ u.T).max(axis=0)
        return float(vals) if u.ndim == 1 else vals

    def gauge(self, x):
        """Least lam >= 0 with x in lam * P, for a point or rows of points."""
        _require_origin_interior(self)
        x = np.asarray(x, dtype=float)
        vals = (x @ self.facet_normals.T / self.facet_offsets).max(axis=-1)
        if x.ndim == 1:
            return max(0.0, float(vals))
        return np.maximum(vals, 0.0)

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def _scale(self) -> float:
        return float(np.abs(self.vertices).max(initial=1.0))

    # -- affine images -----------------------------------------------------

    def translate(self, v) -> "Polytope":
        v = np.asarray(v, dtype=float)
        return _build(self.dim, self.facet_normals,
                      self.facet_offsets + self.facet_normals @ v,
                      self.vertices + v, validate=False)

    def scale(self, s: float) -> "Polytope":
        if s <= 0:
            raise InputError("scale must be positive")
        return _build(self.dim, self.facet_normals, self.facet_offsets * s,
                      self.vertices * s, validate=False)

    def homothet(self, x, ratio: float) -> "Polytope":
        """x + ratio * P for ratio > 0."""
        return self.scale(ratio).translate(x)

    def is_origin_symmetric(self) -> bool:
        """Does every vertex v have a vertex within `tight` of -v?"""
        v = self.vertices
        n = len(v)
        pairs = _near_pairs(np.vstack([v, -v]), tolerances.tight(self._scale()))
        # a cross pair (i, n + k) has |v_i + v_k| <= tight: v_i and v_k
        # each have a partner
        cross = pairs[(pairs[:, 0] < n) & (pairs[:, 1] >= n)]
        return bool(np.unique(cross % n).size == n)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "facets": [{"a": row.tolist(), "b": float(off)}
                       for row, off in zip(self.facet_normals, self.facet_offsets)],
            "vertices": self.vertices.tolist(),
        }


def polytope_from_dict(obj: dict) -> Polytope:
    """Load from the JSON form; either facet or vertex list may be absent."""
    if not isinstance(obj, dict) or "dim" not in obj:
        raise InputError("polytope JSON must be an object with a 'dim' key")
    d = _index(obj["dim"], "dim")
    if d < 1:
        raise InputError("dim must be at least 1")
    facets = obj.get("facets")
    verts = obj.get("vertices")
    if facets:
        try:
            a = [f["a"] for f in facets]
            b = [f["b"] for f in facets]
        except (KeyError, TypeError) as exc:
            raise InputError("each facet needs a normal 'a' and offset 'b'") from exc
        a = _finite(a, "facet normals")
        if a.ndim != 2 or a.shape[1] != d:
            raise InputError("facet dimension does not match 'dim'")
        p = Polytope.from_facets(a, b)
    elif verts:
        v = _finite(verts, "vertices")
        if v.ndim != 2 or v.shape[1] != d:
            raise InputError("vertex dimension does not match 'dim'")
        p = Polytope.from_vertices(v)
    else:
        raise InputError("polytope JSON needs 'facets' or 'vertices'")
    return p


# ---------------------------------------------------------------------------
# construction internals


def _build(d, a, b, verts, validate=True) -> Polytope:
    p = Polytope(d, _freeze(a), _freeze(b), _freeze(verts))
    if validate:
        _validate(p)
    return p


def _validate(p: Polytope) -> None:
    scale = p._scale()
    feas = tolerances.feas(scale)
    res = p.facet_normals @ p.vertices.T - p.facet_offsets[:, None]
    if res.max(initial=0.0) > feas:
        raise GeometryError("vertex violates a facet; representations disagree")
    tight = np.abs(res) <= tolerances.tight(scale)
    if (tight.sum(axis=1) < p.dim).any():
        raise GeometryError("facet tight at fewer than dim vertices")
    if p.n_vertices < p.dim + 1 or p.n_facets < p.dim + 1:
        raise GeometryError("not full-dimensional")


def _near_pairs(x, radius, p=2.0):
    """Index pairs (i, j), i < j, with |x_i - x_j|_p <= radius, sorted."""
    pairs = cKDTree(x).query_pairs(radius, p=p, output_type="ndarray")
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _dedupe_facets(a, b):
    """Unit-scale the rows; drop each row within FACET_MERGE of a kept one.

    Rows are taken in order, so the first of each cluster stays, and a
    row is compared with the kept rows only: normals componentwise,
    offsets relative to the kept row's.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):  # qhull overflowed
        raise GeometryError("hull equations are not finite")
    norms = np.linalg.norm(a, axis=1)
    a, b = a / norms[:, None], b / norms
    eps = tolerances.FACET_MERGE
    dropped = np.zeros(b.size, dtype=bool)
    # pairs in row order, so row i's fate is settled before its own pairs
    for i, j in _near_pairs(a, eps, np.inf).tolist():
        if not dropped[i] and abs(b[j] - b[i]) <= eps * (1 + abs(b[i])):
            dropped[j] = True
    return a[~dropped], b[~dropped]


def _require_origin_interior(p: Polytope) -> None:
    # relative below unit scale, so a tiny body (say the polar of a huge one)
    # is judged against its own size
    b = p.facet_offsets
    if (b <= tolerances.GEOM * min(1.0, float(b.max()))).any():
        raise InputError("origin must be interior to the body")


def _interval(lo, hi) -> Polytope:
    if hi - lo <= tolerances.GEOM:
        raise GeometryError("not full-dimensional")
    return _build(1, np.array([[1.0], [-1.0]]), np.array([hi, -lo]),
                  np.array([[lo], [hi]]))


def _affine_rank(pts) -> int:
    s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return int((s > tolerances.GEOM * s.max()).sum())


def _singular(det, norms) -> np.ndarray:
    """Zero determinants: |det| <= GEOM * prod(norms, last axis) (Hadamard's bound)."""
    return np.abs(det) <= tolerances.GEOM * np.prod(norms, axis=-1)


def _chebyshev_centre(a, b) -> np.ndarray:
    """Centre of the largest ball in {<a_i, x> <= b_i}; the rows are unit."""
    m, d = a.shape
    cost = np.zeros(d + 1)
    cost[d] = 1.0
    unit = min(1.0, lp.pow2_unit(b))  # small bodies: the LP's thresholds are absolute
    res = lp.solve(cost, np.hstack([a, np.ones((m, 1))]), b / unit)
    if res.status == "unbounded":
        raise GeometryError("unbounded")
    if not res.optimal or res.value <= tolerances.GEOM:
        raise GeometryError("not full-dimensional")
    return res.x[:d] * unit


# ---------------------------------------------------------------------------
# free-function operations


def contains_translate(outer: Polytope, inner: Polytope):
    """Does some translate of `inner` fit inside `outer`?

    Feasibility of <a_i, t> <= b_i - h_inner(a_i) over translations t;
    returns (bool, witness translation or None).
    """
    if outer.dim != inner.dim:
        raise InputError("dimension mismatch")
    h = inner.support(outer.facet_normals)
    res = lp.solve(np.zeros(outer.dim), outer.facet_normals, outer.facet_offsets - h)
    return res.optimal, res.x


def polar(p: Polytope) -> Polytope:
    """Polar dual; needs the origin strictly interior."""
    _require_origin_interior(p)
    verts = p.facet_normals / p.facet_offsets[:, None]
    norms = np.linalg.norm(p.vertices, axis=1)
    if (norms <= tolerances.GEOM * min(1.0, float(norms.max()))).any():
        raise InputError("origin must be interior to the body")
    normals = p.vertices / norms[:, None]
    offsets = 1.0 / norms
    return _build(p.dim, normals, offsets, verts)


def facet_directions(p: Polytope) -> np.ndarray:
    """Facet normals, keeping the first of each +- pair (to 1e-9) in order."""
    a = p.facet_normals
    # the second half negates the normals: a pair across halves is antipodal
    pairs = _near_pairs(np.vstack([a, -a]), 1e-9) % len(a)
    return np.delete(a, pairs.max(axis=1)[pairs[:, 0] != pairs[:, 1]], axis=0)


def is_generic(p: Polytope) -> bool:
    """Every d-subset of facet normals linearly independent?"""
    a = p.facet_normals[list(itertools.combinations(range(p.n_facets), p.dim))]
    return not _singular(np.linalg.det(a), np.linalg.norm(a, axis=-1)).any()


def genericize(p: Polytope, eps: float, seed: int = 0) -> Polytope:
    """Randomly tilt facet normals by angles <= eps until generic.

    Offsets are refit as support-plus-margin so the result contains the
    original. Fails after `_GENERICIZE_TRIES` rejected draws.
    """
    if not 0 < eps < 0.1:
        raise InputError("eps must lie in (0, 0.1)")
    rng = np.random.default_rng(seed)
    radius = float(np.linalg.norm(p.vertices, axis=1).max())
    m = p.n_facets
    for _ in range(_GENERICIZE_TRIES):
        new_a = np.empty_like(np.asarray(p.facet_normals))
        for i, a in enumerate(p.facet_normals):
            new_a[i] = _tilt(a, rng.uniform(0.0, 0.9 * eps), rng)
        new_b = p.support(new_a) + eps * radius
        try:
            q = Polytope.from_facets(new_a, new_b)
        except GeometryError:
            continue
        if q.n_facets != m or not is_generic(q):
            continue
        angles = _pairing_angles(p.facet_normals, q.facet_normals)
        if angles.max() <= eps:
            return q
    raise GeometryError("genericization failed")


def _tilt(a, theta, rng):
    d = a.size
    g = rng.standard_normal(d)
    g -= (g @ a) * a
    n = np.linalg.norm(g)
    if n < 1e-12:
        return a.copy()
    out = a + math.tan(theta) * g / n
    return out / np.linalg.norm(out)


def _pairing_angles(old, new):
    cos = np.clip(new @ old.T, -1.0, 1.0)
    return np.arccos(cos.max(axis=1))


def circumscribed_simplices(p: Polytope) -> list[Polytope]:
    """Each simplex cut out by d + 1 of a generic p's own rows; each contains p."""
    if not is_generic(p):
        raise GeometryError("polytope is not generic")
    a, b = p.facet_normals, p.facet_offsets
    idx, rest, _ = _simplex_rows(a)
    verts = np.linalg.solve(a[rest], b[rest][..., None])[..., 0]
    return [_build(p.dim, a[i], b[i], v) for i, v in zip(idx, verts)]


def _simplex_rows(a):
    """(idx, rest, w) over the (d + 1)-subsets idx of the unit rows `a` that
    bound a simplex: w > 0 sums to 1 with sum_i w_i a_i = 0.  By Cramer's rule
    w_i ~ (-1)^i det(rows rest_i); bounded iff these minors share a sign."""
    m, d = a.shape
    idx = np.array(list(itertools.combinations(range(m), d + 1)))
    # rest[:, i]: the subset without its i-th row; they meet opposite that row
    rest = idx[:, np.arange(d) + np.triu(np.ones((d + 1, d), dtype=int))]
    w = np.linalg.det(a[rest]) * (-1.0) ** np.arange(d + 1)
    keep = (w > 0).all(axis=1) | (w < 0).all(axis=1)
    return idx[keep], rest[keep], w[keep] / w[keep].sum(axis=1, keepdims=True)


def edges(p: Polytope) -> list[tuple[int, int]]:
    """Vertex index pairs forming 1-faces, d >= 2, as a new list each call;
    `Polytope._edges` finds them once per body (in the plane, the two
    endpoints of each facet)."""
    if p.dim < 2:
        raise InputError("edges need d >= 2")
    return [pair for pair, _ in p._edges]


def measure(p: Polytope) -> float:
    """The d-dimensional volume, for d <= 3."""
    if p.dim == 1:
        return float(p.vertices.max() - p.vertices.min())
    if p.dim > 3:
        raise InputError("volume implemented for d <= 3")
    return float(ConvexHull(p.vertices).volume)


def _plane_basis(normal):
    """(d - 1, d): orthonormal rows spanning the hyperplane orthogonal to
    the unit vector `normal`."""
    d = normal.size
    basis = []
    for e in np.eye(d):
        v = e - (e @ normal) * normal
        for b in basis:
            v -= (v @ b) * b
        n = np.linalg.norm(v)
        if n > 1e-8:
            basis.append(v / n)
        if len(basis) == d - 1:
            break
    return np.array(basis)


# ---------------------------------------------------------------------------
# stock shapes


def box(lo, hi) -> Polytope:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.size != hi.size or (hi <= lo).any():
        raise InputError("box needs lo < hi componentwise")
    d = lo.size
    a = np.vstack([np.eye(d), -np.eye(d)])
    b = np.concatenate([hi, -lo])
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    return _build(d, a, b, corners)


def cube(d: int, half: float = 0.5) -> Polytope:
    """Axis cube [-half, half]^d."""
    return box(-half * np.ones(d), half * np.ones(d))


def unit_cube(d: int) -> Polytope:
    """Axis cube [0, 1]^d."""
    return box(np.zeros(d), np.ones(d))


def cross_polytope(d: int, radius: float = 1.0) -> Polytope:
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=d)))
    a = signs / math.sqrt(d)
    b = np.full(signs.shape[0], radius / math.sqrt(d))
    verts = np.vstack([radius * np.eye(d), -radius * np.eye(d)])
    return _build(d, a, b, verts)


def standard_simplex(d: int) -> Polytope:
    """conv{0, e_1, ..., e_d}."""
    verts = np.vstack([np.zeros(d), np.eye(d)])
    return Polytope.from_vertices(verts)


def parallelotope(edges) -> Polytope:
    """Centred parallelotope spanned by the given edge vectors."""
    e = np.asarray(edges, dtype=float)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise InputError("need d edge vectors of dimension d")
    if _singular(np.linalg.det(e), np.linalg.norm(e, axis=1)):
        raise InputError("edge vectors are linearly dependent")
    signs = np.array(list(itertools.product([-0.5, 0.5], repeat=e.shape[0])))
    return Polytope.from_vertices(signs @ e)


def regular_polygon(k: int, radius: float = 1.0, phase: float = 0.0) -> Polytope:
    ang = phase + 2 * np.pi * np.arange(k) / k
    verts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return Polytope.from_vertices(verts)


def random_polytope(d: int, npoints: int, rng, symmetric: bool = False) -> Polytope:
    """Hull of gaussian points; resamples until full-dimensional."""
    for _ in range(100):
        pts = rng.standard_normal((npoints, d))
        if symmetric:
            pts = np.vstack([pts, -pts])
        try:
            return Polytope.from_vertices(pts)
        except GeometryError:
            continue
    raise GeometryError("could not draw a full-dimensional polytope")


def random_simplex(d: int, rng) -> Polytope:
    for _ in range(100):
        pts = rng.standard_normal((d + 1, d))
        if abs(np.linalg.det(pts[1:] - pts[0])) > 0.05:
            return Polytope.from_vertices(pts)
    raise GeometryError("could not draw a well-conditioned simplex")
