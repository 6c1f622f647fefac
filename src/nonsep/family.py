"""Finite families of positive homothets of one base polytope.

A family is the data (P, (x_i, tau_i)_i): members are x_i + tau_i * P,
{y : a_j . y <= c_ij} with c = `member_offsets()`.  The deciders here
classify how separable the family is:

* `is_wns`: no hyperplane parallel to a facet of P strictly splits the
  members (touching does not count as splitting),
* `is_ns`: no hyperplane at all does; for any n, in the plane with no
  LP, else by a depth-first walk over bipartitions that drops a partial
  split as soon as its two sides' hulls meet,
* `is_kwip_sampled`: Monte-Carlo falsification for k-flat impassability:
  flats through exact uniform hull points, their directions Haar inside
  a random facet hyperplane,
* `edges_covered`: do the members cover every edge of the union's hull.

A flat through a point in a member meets it, so `is_kwip_sampled`, on one
Delaunay triangulation of the member vertices, answers at once when
`_covers_hull` finds each cell in a member, else draws points from those
cells block by block up to the block holding the first miss, settles the
points in a member on their slacks, and gives directions to the rest.
Sample i depends only on the seed and i, so more samples only add rows
after the others.  `_spans` clips lines p + s w (points: w = 0) against
all members for those rows (k <= 1) and for `edges_covered`; `_first_gap`
sweeps columns of intervals for an open stretch: member projections, one
column per direction, in `is_wns` and planar `is_ns`, and the edge pieces.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError

from . import lp, tolerances
from .errors import GeometryError, InputError
from .polytope import (
    _QHULL_MAX,
    Polytope,
    _finite,
    _freeze,
    _plane_basis,
    edges,
    facet_directions,
    polytope_from_dict,
)

_BLOCK = 2048  # block rows: `_first_miss` lines, planar `is_ns` directions and pairs


@dataclass(frozen=True)
class Flat:
    """Affine k-flat: point + span of orthonormal direction columns."""

    point: np.ndarray
    basis: np.ndarray  # (d, k); k == 0 means a single point


@dataclass(frozen=True)
class HomotheticFamily:
    base: Polytope
    translations: np.ndarray  # (n, d)
    ratios: np.ndarray        # (n,) > 0

    def __post_init__(self):
        x = _freeze(np.atleast_2d(_finite(self.translations, "translations")))
        t = _freeze(np.atleast_1d(_finite(self.ratios, "ratios")))
        if x.shape[0] != t.size or x.shape[1] != self.base.dim:
            raise InputError("family arrays have inconsistent shapes")
        if x.shape[0] < 2:
            raise InputError("a family needs at least two members")
        if (t <= 0).any():
            raise InputError("homothety ratios must be positive")
        object.__setattr__(self, "translations", x)
        object.__setattr__(self, "ratios", t)

    @property
    def n(self) -> int:
        return self.ratios.size

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def total_ratio(self) -> float:
        return float(self.ratios.sum())

    def member(self, i: int) -> Polytope:
        return self.base.homothet(self.translations[i], float(self.ratios[i]))

    def all_vertices(self) -> np.ndarray:
        v = self.base.vertices
        return (self.translations[:, None, :]
                + self.ratios[:, None, None] * v[None, :, :]).reshape(-1, self.dim)

    def member_offsets(self) -> np.ndarray:
        """(n, m) facet offsets: member i is {y : a_j . y <= c[i, j]}."""
        a, b = self.base.facet_normals, self.base.facet_offsets
        return self.translations @ a.T + np.outer(self.ratios, b)

    def hull(self) -> Polytope:
        return Polytope.from_vertices(self.all_vertices())

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "members": [{"x": x.tolist(), "tau": float(t)}
                        for x, t in zip(self.translations, self.ratios)],
        }


def family_from_dict(obj: dict) -> HomotheticFamily:
    if not isinstance(obj, dict) or "base" not in obj or "members" not in obj:
        raise InputError("family JSON needs 'base' and 'members'")
    base = polytope_from_dict(obj["base"])
    try:
        xs = np.array([m["x"] for m in obj["members"]], dtype=float)
        taus = np.array([m["tau"] for m in obj["members"]], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(
            "each member needs a numeric translation 'x' and ratio 'tau'") from exc
    return HomotheticFamily(base, xs, taus)


# ---------------------------------------------------------------------------


def _projections(family: HomotheticFamily, dirs):
    """Member projections [lo, hi] on the rows of `dirs`, (members, dirs)."""
    x = family.translations @ dirs.T
    h = family.base.vertices @ dirs.T
    return (x + np.outer(family.ratios, h.min(axis=0)),
            x + np.outer(family.ratios, h.max(axis=0)))


def _first_gap(lo, hi):
    """First column of intervals [lo, hi] (on axis 0) leaving a stretch
    wider than GAP open, as (column, the intervals left of it, (their
    reach, the next left end)); None if there is none."""
    order = np.argsort(lo, axis=0, kind="stable")
    lo = np.take_along_axis(lo, order, axis=0)
    reach = np.maximum.accumulate(np.take_along_axis(hi, order, axis=0), axis=0)[:-1]
    opens = lo[1:] > reach + tolerances.GAP
    cols = np.flatnonzero(opens.any(axis=0))
    if cols.size == 0:
        return None
    c = cols[0]
    j = int(np.argmax(opens[:, c]))
    return int(c), order[:j + 1, c], (float(reach[j, c]), float(lo[j + 1, c]))


def is_wns(family: HomotheticFamily):
    """Weak non-separability: facet-parallel separators only.

    Returns (True, None) or (False, (direction, gap)) where `gap` is the
    width of the certifying empty slab.
    """
    dirs = facet_directions(family.base)
    hit = _first_gap(*_projections(family, dirs))
    if hit is None:
        return True, None
    col, _, (reach, nxt) = hit
    return False, (dirs[col].copy(), nxt - reach)


def is_ns(family: HomotheticFamily):
    """Non-separability against arbitrary hyperplanes.

    Normal u splits the members iff their projections on u leave a gap
    wider than GAP (touching does not split).  In the plane, for any n,
    u runs over the middle of each arc between neighbouring angles of
    `_critical_angles`; a split whose widest gap is W shows at least
    W / 2 there, so a split wider than 2 GAP is always found.  Else members
    n - 1, ..., 0 are placed one at a time, side a before side b, and a
    partial split whose sides' hulls meet (one disjoint-hulls LP once side
    b holds a member) is dropped with all its completions, whose hulls hold
    those: the first complete split reached is the first separable
    bipartition in mask order.  A surviving partial split of k members
    separates interior points of them, which can be in general position: at
    most sum_{i<=d} C(k - 1, i) such splits (T. M. Cover, 1965), two LPs
    each, so a call makes at most 2 sum_{i<=d} C(n - 1, i + 1) LPs.
    Returns (True, None) or (False, (a_idx, b_idx)), member n - 1 in a_idx.
    """
    n = family.n
    if family.dim == 2:
        theta = _critical_angles(family)
        mids = 0.5 * (theta + np.append(theta[1:], theta[0] + np.pi))
        dirs = np.stack([np.cos(mids), np.sin(mids)], axis=1)
        for s in range(0, mids.size, _BLOCK):
            hit = _first_gap(*_projections(family, dirs[s:s + _BLOCK]))
            if hit is not None:
                side = np.isin(np.arange(n), hit[1])
                side ^= side[-1]  # member n - 1 on the a side
                return False, (np.flatnonzero(~side).tolist(),
                               np.flatnonzero(side).tolist())
        return True, None
    verts, k = family.all_vertices(), family.base.vertices.shape[0]
    side = np.zeros(n, bool)  # True: side b; a node places members m..n-1
    stack = [(n - 2, True), (n - 2, False)]  # side a pops first
    while stack:
        m, b = stack.pop()
        side[m] = b
        placed, on_b = verts[m * k:], np.repeat(side[m:], k)
        if on_b.any() and not _hulls_disjoint(placed[~on_b], placed[on_b]):
            continue
        if m > 0:
            stack += [(m - 1, True), (m - 1, False)]
        elif side.any():
            return False, (np.flatnonzero(~side).tolist(),
                           np.flatnonzero(side).tolist())
    return True, None


def _critical_angles(family: HomotheticFamily):
    """Sorted distinct angles (mod pi) of the directions at which two
    members' projections start or stop overlapping.  Members i and j lie
    apart along the u with <u, z> > 0 for every difference z of their
    vertices: an arc (empty if they meet; its two angles then only cut
    the sweep finer) whose ends are normal to the two z of extreme angle
    from the mean z.  Between neighbouring angles the pairs lying apart
    stay the same, and on a split's arc its gap is concave (a minimum of
    sinusoids, each positive there), so at the middle of the piece that
    holds its widest gap it is at least half of that."""
    v, x, t = family.base.vertices, family.translations, family.ratios
    k = v.shape[0]
    i, j = np.triu_indices(family.n, 1)
    step = max(1, _BLOCK // k)  # pairs per block: _BLOCK * k differences
    crit = []
    for s in range(0, i.size, step):
        a, b = i[s:s + step], j[s:s + step]
        z = ((x[a] - x[b])[:, None, None]
             + t[a, None, None, None] * v[:, None]
             - t[b, None, None, None] * v[None, :]).reshape(a.size, k * k, 2)
        g = z.mean(axis=1)[:, None]
        rel = np.arctan2(g[..., 0] * z[..., 1] - g[..., 1] * z[..., 0],
                         (g * z).sum(axis=2))
        crit.append(np.arctan2(g[:, 0, 1], g[:, 0, 0])[:, None]
                    + np.stack([rel.min(axis=1), rel.max(axis=1)], axis=1))
    return np.unique(np.mod(np.concatenate(crit) + 0.5 * np.pi, np.pi))


def _hulls_disjoint(va, vb) -> bool:
    """No lambda, mu >= 0, each summing to 1, with va^T lambda = vb^T mu."""
    a_eq = np.vstack([np.hstack([va.T, -vb.T]),
                      np.repeat(np.eye(2), [len(va), len(vb)], axis=1)])
    b_eq = np.r_[np.zeros(va.shape[1]), 1.0, 1.0]
    return not lp.solve(np.zeros(a_eq.shape[1]), a_eq=a_eq, b_eq=b_eq).optimal


def is_kwip_sampled(family: HomotheticFamily, k: int, samples: int = 10000,
                    seed: int = 0):
    """Sampled falsification of weak k-impassability.

    Draws k-flats through exactly uniform points of the hull, their
    direction space Haar-distributed (Gram-Schmidt on a Gaussian frame)
    inside a uniformly chosen facet hyperplane. Returns ("falsified", Flat)
    on a flat missing every member, ("not-falsified", None) after
    `samples` clean draws, or with none drawn when the members cover
    their hull, since every draw would then lie in a member.  Sample i
    depends only on the seed and i (`_sample_blocks`): with more samples
    the same seed draws the same flats first, then more.
    k = d-1 delegates to `is_wns` and is exact; its witness is the
    (direction, gap) pair.
    """
    try:
        k, samples, seed = map(operator.index, (k, samples, seed))
    except TypeError:
        raise InputError("k, samples and seed must be integers") from None
    if not 0 <= k < family.dim:
        raise InputError("k must lie in [0, d-1]")
    if samples < 1:
        raise InputError("samples must be at least 1")
    if seed < 0:
        raise InputError("seed must be non-negative")
    if k == family.dim - 1:
        ok, witness = is_wns(family)
        return ("not-falsified", None) if ok else ("falsified", witness)

    verts = family.all_vertices()
    tri = _delaunay(verts)
    if _covers_hull(family, verts, tri):
        return "not-falsified", None
    dirs = facet_directions(family.base) if k else None
    blocks = _sample_blocks(verts[tri.simplices], dirs, k, samples, seed)
    if k >= 2:
        flat = _kwip_flats(family, blocks)
    else:
        eps = tolerances.feas(1.0) * min(1.0, float(np.ptp(verts, axis=0).max()))
        flat = _first_miss(family, blocks, eps)
    return ("not-falsified", None) if flat is None else ("falsified", flat)


def _delaunay(points):
    # qhull's lift by squared norms refuses points from about 1e77 in the
    # plane and 1e52 in 3-D, and can crash from 1e104 (d = 3): never hand it those
    if np.abs(points).max() > _QHULL_MAX:
        raise GeometryError("Delaunay triangulation failed: coordinates too large")
    try:
        return Delaunay(points)
    except QhullError as exc:
        raise GeometryError("Delaunay triangulation failed") from exc


def _covers_hull(family, verts, tri) -> bool:
    """Do the members cover their hull?  Yes when every cell of `tri`, the
    Delaunay triangulation of the member vertices `verts`, has all its
    corners in one member: its own vertices, or points meeting its facet
    rows with no slack.  The cells (with the exact duplicates qhull leaves
    out) fill the hull, and such a cell lies in that member."""
    if (verts[tri.coplanar[:, 0]] != verts[tri.coplanar[:, 2]]).any():
        return False
    cells, av = tri.simplices, family.base.facet_normals @ verts.T
    owner = np.arange(verts.shape[0]) // family.base.vertices.shape[0]
    for i, c in enumerate(family.member_offsets()):
        inside = (av <= c[:, None]).all(axis=0) | (owner == i)
        cells = cells[~inside[cells].all(axis=1)]
        if cells.size == 0:
            return True
    return False


def _sample_blocks(corners, dirs, k, count, seed):
    """The samples of `is_kwip_sampled`, one block of `_BLOCK` rows at a time,
    each drawn only when the scan asks for it: (points, frames), where
    `frames(rows)` builds the (rows.size, d, k) frames of those rows of the
    block (None for k = 0).

    A block draws, in this order, its simplex picks, exponential weights
    and, for k >= 1, facet choices and Gaussian frames, always for all
    `_BLOCK` rows; the last block keeps the rows up to `count`.  So sample i
    depends only on the seed and i.  Points: cells of any triangulation of
    the hull, `corners` (cells, d + 1, d), picked by volume, then uniform in
    the cell by normalised exponential weights on its corners (Devroye,
    Non-Uniform Random Variate Generation, ch. XI).  Frames lie in the
    hyperplane normal to the chosen row of `dirs`.
    """
    vol = np.abs(np.linalg.det(corners[:, 1:] - corners[:, :1]))
    total = vol.sum()
    if not 0 < total < np.inf:  # no volume can weight the picks
        raise GeometryError("hull volume is zero or overflows")
    cdf = (vol / total).cumsum()
    cdf /= cdf[-1]
    d, rng = corners.shape[2], np.random.default_rng(seed)
    bases = np.stack([_plane_basis(u) for u in dirs]) if k else None
    for start in range(0, count, _BLOCK):
        rows = min(_BLOCK, count - start)
        pick = cdf.searchsorted(rng.random(_BLOCK)[:rows], side="right")
        w = rng.standard_exponential((_BLOCK, d + 1))[:rows]
        w /= w.sum(axis=1, keepdims=True)
        frames = None
        if k:
            facet = rng.integers(0, bases.shape[0], size=_BLOCK)[:rows]
            gauss = rng.standard_normal((_BLOCK, d - 1, k))[:rows]
            frames = functools.partial(_frames, bases, facet, gauss)
        yield np.einsum("ij,ijk->ik", w, corners[pick]), frames


def _frames(bases, facet, gauss, rows):
    """Orthonormal (rows.size, d, k) frames, frame i inside the plane with
    basis bases[facet[i]] (d - 1, d): Gram-Schmidt on the Gaussian (d - 1, k)
    frame gauss[i] (Haar-distributed), mapped through that basis by
    elementwise products summed over its rows: no BLAS call, whose rounding
    can depend on how many rows it is given, so a frame's bits do not."""
    h, k = gauss[rows], gauss.shape[2]
    for j in range(k):
        v = h[:, :, j]
        for i in range(j):
            v -= (h[:, :, i] * v).sum(axis=1, keepdims=True) * h[:, :, i]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return (h[:, :, None, :] * bases[facet[rows]][:, :, :, None]).sum(axis=1)


def _open_rows(offsets, ap):
    """Block rows whose point lies in no member: for every member some facet
    row a p > c, compared with no tolerance (ap = a @ points.T)."""
    return np.flatnonzero((offsets[:, :, None] < ap).any(axis=1).all(axis=0))


def _kwip_flats(family, blocks):
    """k >= 2: member i meets the flat p + W s iff an s has a W s <= c_i - a p.
    A point that lies in a member is on its flat, so only `_open_rows` get
    frames and reach the LPs, in sample order."""
    a, offsets = family.base.facet_normals, family.member_offsets()
    for points, frames in blocks:
        left = _open_rows(offsets, a @ points.T)
        for p, w in zip(points[left], frames(left)):
            aw, slack = a @ w, offsets - a @ p
            if not any(lp.solve(np.zeros(w.shape[1]), aw, row).optimal for row in slack):
                return Flat(p, w)
    return None


def _spans(alpha, beta, eps):
    """Intervals [lo, hi] of s with a_j . (p + s w) <= c_j on every facet row.

    alpha = a_j . w and beta = c_j - a_j . p, rows on the first axis (numpy
    reduces fastest there), other axes broadcast.  A row with alpha ~ 0 that
    p violates by more than `eps` blocks the line: lo = inf, hi = -inf.
    """
    pos = alpha > tolerances.PARALLEL
    neg = alpha < -tolerances.PARALLEL
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = beta / alpha
    lo = np.where(neg, ratio, -np.inf).max(axis=0)
    hi = np.where(pos, ratio, np.inf).min(axis=0)
    blocked = (~(pos | neg) & (beta < -eps)).any(axis=0)
    lo[blocked], hi[blocked] = np.inf, -np.inf
    return lo, hi


def _first_miss(family, blocks, eps):
    """The first of the sampled lines p + s w (points: w = 0) missing every
    member by more than `eps`, as a Flat; None if every line hits one.

    A line through a point that lies in a member hits it at s = 0.  So a
    block's points are first settled on their slacks c_i - a p: only
    `_open_rows` are kept, as the clip would keep the others (the IEEE signs
    of beta / alpha are exact, so lo <= 0 <= hi).  Those get directions, in
    sample order; each member clips those of them that no earlier member hit."""
    a, offsets = family.base.facet_normals, family.member_offsets()
    for points, frames in blocks:
        ap = a @ points.T
        left = _open_rows(offsets, ap)
        if left.size == 0:
            continue
        ap = ap[:, left]
        w = None if frames is None else frames(left)  # (rows, d, 1)
        alpha = np.zeros_like(ap) if w is None else a @ w[:, :, 0].T
        at = np.arange(left.size)  # the rows of `left` still open
        for c in offsets:
            lo, hi = _spans(alpha, c[:, None] - ap, eps)
            missed = lo > hi + eps
            at, alpha, ap = at[missed], alpha[:, missed], ap[:, missed]
            if at.size == 0:
                break
        if at.size:
            i = at[0]
            return Flat(points[left[i]], np.zeros((family.dim, 0)) if w is None else w[i])
    return None


def edges_covered(family: HomotheticFamily):
    """Is every edge of conv(union) covered by the member union?

    Returns (True, None) or (False, witness_point) with a point of an
    uncovered edge stretch.
    """
    hull = family.hull()
    return _edges_covered(family, hull, edges(hull))


def _edges_covered(family, hull, pairs):
    """`edges_covered` on the family's hull and its edges `pairs`, both
    built once by the caller."""
    ends = np.array(pairs)
    x = hull.vertices[ends[:, 0]]
    dirv = hull.vertices[ends[:, 1]] - x
    a = family.base.facet_normals
    lo, hi = _spans((a @ dirv.T)[:, None, :],  # (members, edges)
                    family.member_offsets().T[:, :, None] - (a @ x.T)[:, None, :],
                    tolerances.feas(1.0))
    # misses become [-inf, -inf]; the sentinels [-inf, 0] and [1, inf]
    # leave only [0, 1] to cover, so pieces need no clipping to it
    missed = lo > hi + tolerances.GAP
    lo[missed] = hi[missed] = -np.inf
    k = ends.shape[0]
    hit = _first_gap(np.vstack([np.full(k, -np.inf), lo, np.ones(k)]),
                     np.vstack([np.zeros(k), hi, np.full(k, np.inf)]))
    if hit is None:
        return True, None
    e, _, (reach, nxt) = hit
    return False, x[e] + 0.5 * (reach + nxt) * dirv[e]


def wns_witness_to_dict(witness) -> dict:
    u, gap = witness
    return {"direction": np.asarray(u).tolist(), "gap": float(gap)}
