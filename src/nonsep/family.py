"""Finite families of positive homothets of one base polytope.

A family is the data (P, (x_i, tau_i)_i): members are x_i + tau_i * P.
The deciders here classify how separable the family is:

* `is_wns`: no hyperplane parallel to a facet of P strictly splits the
  members (touching does not count as splitting),
* `is_ns`: no hyperplane at all does, decided exactly by scanning
  bipartitions with an LP disjointness test on the two hulls,
* `is_kwip_sampled`: Monte-Carlo falsification for k-flat impassability,
  with facet-parallel flats drawn Haar-style,
* `edges_covered`: do the members cover every edge of the union's hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp, tolerances
from .errors import InputError
from .polytope import (
    Polytope,
    _finite,
    _freeze,
    _plane_basis,
    edges,
    facet_directions,
    polytope_from_dict,
)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.hi < self.lo:
            raise InputError("interval with hi < lo")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Flat:
    """Affine k-flat: point + span of orthonormal direction columns."""

    point: np.ndarray
    basis: np.ndarray  # (d, k); k == 0 means a single point

    def to_dict(self) -> dict:
        return {"flat": {"point": self.point.tolist(),
                         "basis": self.basis.T.tolist()}}


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

    def member_vertices(self, i: int) -> np.ndarray:
        return self.translations[i] + self.ratios[i] * self.base.vertices

    def all_vertices(self) -> np.ndarray:
        v = self.base.vertices
        return (self.translations[:, None, :]
                + self.ratios[:, None, None] * v[None, :, :]).reshape(-1, self.dim)

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


def project_member(family: HomotheticFamily, i: int, u) -> Interval:
    """Projection of member i onto the line through a unit direction u."""
    u = np.asarray(u, dtype=float)
    n = np.linalg.norm(u)
    if n <= tolerances.GEOM:
        raise InputError("zero direction")
    u = u / n
    mid = float(family.translations[i] @ u)
    tau = float(family.ratios[i])
    return Interval(mid - tau * family.base.support(-u),
                    mid + tau * family.base.support(u))


def _projection_gap(family, u):
    """Largest interior gap in the union of member projections, if any."""
    x = family.translations @ u
    lo = x - family.ratios * family.base.support(-u)
    hi = x + family.ratios * family.base.support(u)
    order = np.argsort(lo)
    reach = hi[order[0]]
    for j in order[1:]:
        if lo[j] > reach + tolerances.GAP:
            return float(lo[j] - reach), float(reach)
        reach = max(reach, hi[j])
    return None


def is_wns(family: HomotheticFamily):
    """Weak non-separability: facet-parallel separators only.

    Returns (True, None) or (False, (direction, gap)) where `gap` is the
    width of the certifying empty slab.
    """
    for u in facet_directions(family.base):
        hit = _projection_gap(family, u)
        if hit is not None:
            gap, _ = hit
            return False, (u.copy(), gap)
    return True, None


def is_ns(family: HomotheticFamily):
    """Non-separability against arbitrary hyperplanes, exact for n <= 20.

    Scans bipartitions; a bipartition certifies separability iff the two
    sub-hulls are disjoint, which is an LP (no common convex combination).
    Touching hulls share a point and therefore do not separate.
    """
    n = family.n
    if n > 20:
        raise InputError(f"is_ns decides at most 20 members; this family has {n}")
    vertex_sets = [family.member_vertices(i) for i in range(n)]
    for mask in range(1, 1 << (n - 1)):
        side = [bool(mask >> i & 1) for i in range(n - 1)] + [False]
        a_idx = [i for i in range(n) if not side[i]]
        b_idx = [i for i in range(n) if side[i]]
        if _hulls_disjoint(np.vstack([vertex_sets[i] for i in a_idx]),
                           np.vstack([vertex_sets[i] for i in b_idx])):
            return False, (a_idx, b_idx)
    return True, None


def _hulls_disjoint(va, vb) -> bool:
    ka, kb = va.shape[0], vb.shape[0]
    d = va.shape[1]
    # lambda, mu >= 0, sum each to 1, equal convex combinations
    ncols = ka + kb
    a_eq = np.zeros((d + 2, ncols))
    a_eq[:d, :ka] = va.T
    a_eq[:d, ka:] = -vb.T
    a_eq[d, :ka] = 1.0
    a_eq[d + 1, ka:] = 1.0
    b_eq = np.zeros(d + 2)
    b_eq[d] = 1.0
    b_eq[d + 1] = 1.0
    a_ub = -np.eye(ncols)
    point = lp.feasible_point(a_ub, np.zeros(ncols), a_eq, b_eq, tol=tolerances.LP)
    return point is None


def is_kwip_sampled(family: HomotheticFamily, k: int, samples: int = 10000,
                    seed: int = 0):
    """Sampled falsification of weak k-impassability.

    Draws k-flats through the hull whose direction space lies in a
    uniformly chosen facet hyperplane (directions Haar-distributed via QR
    of a Gaussian frame). Returns ("falsified", Flat) on a flat missing
    every member, ("not-falsified", None) after `samples` clean draws.
    k = d-1 delegates to `is_wns` and is exact; its witness is the
    (direction, gap) pair.
    """
    d = family.dim
    if not 0 <= k <= d - 1:
        raise InputError("k must lie in [0, d-1]")
    if k == d - 1:
        ok, witness = is_wns(family)
        return ("not-falsified", None) if ok else ("falsified", witness)

    rng = np.random.default_rng(seed)
    hull = family.hull()
    points = _points_in_hull(hull, samples, rng)
    if k == 0:
        for p in points:
            if not _point_in_some_member(family, p):
                return "falsified", Flat(p, np.zeros((d, 0)))
        return "not-falsified", None

    dirs = facet_directions(family.base)
    choices = rng.integers(0, dirs.shape[0], size=samples)
    if k == 1:
        return _kwip_lines(family, points, dirs, choices, rng)
    for p, f in zip(points, choices):
        w = _haar_frame_in_hyperplane(dirs[f], k, rng)
        if not _flat_hits_some_member(family, p, w):
            return "falsified", Flat(p, w)
    return "not-falsified", None


def _points_in_hull(hull, count, rng):
    lo = hull.vertices.min(axis=0)
    hi = hull.vertices.max(axis=0)
    a, b = hull.facet_normals, hull.facet_offsets
    out = np.empty((count, hull.dim))
    have = 0
    while have < count:
        batch = rng.uniform(lo, hi, size=(max(2 * (count - have), 64), hull.dim))
        good = batch[(a @ batch.T <= b[:, None] + 1e-12).all(axis=0)]
        take = min(good.shape[0], count - have)
        out[have:have + take] = good[:take]
        have += take
    return out


def _point_in_some_member(family, p):
    for i in range(family.n):
        q = (p - family.translations[i]) / family.ratios[i]
        if family.base.contains_point(q, slack=tolerances.feas(1.0)):
            return True
    return False


def _haar_frame_in_hyperplane(normal, k, rng):
    hb = _plane_basis(normal)
    g = rng.standard_normal((hb.shape[0], k))
    q, _ = np.linalg.qr(g)
    return (q.T @ hb).T  # (d, k), orthonormal columns inside the hyperplane


def _flat_hits_some_member(family, p, w):
    k = w.shape[1]
    a, b = family.base.facet_normals, family.base.facet_offsets
    for i in range(family.n):
        ai = a
        bi = family.ratios[i] * b + a @ family.translations[i]
        # exists s with ai @ (p + w s) <= bi
        sol = lp.feasible_point(ai @ w, bi - ai @ p, tol=tolerances.LP)
        if sol is not None:
            return True
    return False


def _kwip_lines(family, points, dirs, choices, rng):
    """Vectorized line probe: per member, a 1-D feasibility interval."""
    d = family.dim
    s = points.shape[0]
    line_dirs = np.empty((s, d))
    for f in range(dirs.shape[0]):
        mask = choices == f
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        hb = _plane_basis(dirs[f])
        g = rng.standard_normal((cnt, hb.shape[0]))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        line_dirs[mask] = g @ hb
    hit = np.zeros(s, dtype=bool)
    a, b = family.base.facet_normals, family.base.facet_offsets
    eps = tolerances.feas(1.0)
    for i in range(family.n):
        bi = family.ratios[i] * b + a @ family.translations[i]
        alpha = line_dirs @ a.T            # (s, m)
        beta = bi[None, :] - points @ a.T  # (s, m)
        ok = np.ones(s, dtype=bool)
        pos = alpha > 1e-12
        neg = alpha < -1e-12
        flat_rows = ~(pos | neg)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = beta / alpha
        hi = np.min(np.where(pos, ratio, np.inf), axis=1)
        lo = np.max(np.where(neg, ratio, -np.inf), axis=1)
        ok &= ~((flat_rows & (beta < -eps)).any(axis=1))
        hit |= ok & (lo <= hi + eps)
        if hit.all():
            return "not-falsified", None
    miss = int(np.argmin(hit))
    return "falsified", Flat(points[miss], line_dirs[miss][:, None])


def edges_covered(family: HomotheticFamily):
    """Is every edge of conv(union) covered by the member union?

    Returns (True, None) or (False, witness_point) with a point of an
    uncovered edge stretch.
    """
    hull = family.hull()
    a, b = family.base.facet_normals, family.base.facet_offsets
    for (i, j) in edges(hull):
        x, y = hull.vertices[i], hull.vertices[j]
        dirv = y - x
        pieces = []
        for m in range(family.n):
            bm = family.ratios[m] * b + a @ family.translations[m]
            alpha = a @ dirv
            beta = bm - a @ x
            lo, hi = 0.0, 1.0
            ok = True
            for al, be in zip(alpha, beta):
                if al > 1e-12:
                    hi = min(hi, be / al)
                elif al < -1e-12:
                    lo = max(lo, be / al)
                elif be < -tolerances.feas(1.0):
                    ok = False
                    break
            if ok and lo <= hi + tolerances.GAP:
                pieces.append((lo, hi))
        gap_at = _first_uncovered(pieces)
        if gap_at is not None:
            return False, x + gap_at * dirv
    return True, None


def _first_uncovered(pieces):
    """Midpoint of the first gap of [0,1] left open by the pieces."""
    reach = 0.0
    for lo, hi in sorted(pieces):
        if lo > reach + tolerances.GAP:
            return 0.5 * (reach + lo)
        reach = max(reach, hi)
        if reach >= 1.0 - tolerances.GAP:
            return None
    if reach >= 1.0 - tolerances.GAP:
        return None
    return 0.5 * (reach + 1.0)


def wns_witness_to_dict(witness) -> dict:
    u, gap = witness
    return {"direction": np.asarray(u).tolist(), "gap": float(gap)}
