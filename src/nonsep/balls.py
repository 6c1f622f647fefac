"""Ball families: smallest enclosing homothet and the bent-chain experiment.

`ball_circumradius` minimizes max_i (|c - p_i| + tau_i) over centers c by
enumerating candidate active subsets: closed forms for one and two balls,
damped Newton inside the affine hull for larger subsets, and a first-order
certificate (the zero vector must be a convex combination of the active
unit gradients) on the winner.  `stability_construction` bends a chain of
touching balls by a prescribed deflection, and the slope fits measure how
fast a nearly longest chain is forced back onto a line.  A unit-cube chain
with the same deficit and visibly bent centers closes the module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import lp, tolerances
from .errors import GeometryError, InputError
from .polytope import _finite, _freeze

_EXTENT_MAX = 1e150  # coordinates and radii whose squares stay finite


@dataclass(frozen=True)
class BallFamily:
    centers: np.ndarray  # (n, d)
    radii: np.ndarray    # (n,) > 0

    def __post_init__(self):
        c = _freeze(np.atleast_2d(_finite(self.centers, "centers")))
        r = _freeze(np.atleast_1d(_finite(self.radii, "radii")))
        if c.shape[0] != r.size or r.size < 1:
            raise InputError("centers and radii have inconsistent shapes")
        if (r <= 0).any():
            raise InputError("ball radii must be positive")
        if not np.abs(c).max(initial=0.0) + r.max() <= _EXTENT_MAX:
            raise InputError(
                f"ball data beyond {_EXTENT_MAX:.0e} overflows when squared")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)

    @property
    def n(self) -> int:
        return self.radii.size

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def to_dict(self) -> dict:
        return {"centers": self.centers.tolist(), "radii": self.radii.tolist()}


def _reach(c, centers, radii):
    return np.linalg.norm(centers - c, axis=1) + radii


def _pair_candidate(p, r, i, j):
    gap = p[j] - p[i]
    dist = float(np.linalg.norm(gap))
    if dist <= 1e-14:
        return None
    t = 0.5 * (dist + r[j] - r[i])
    if t < 0.0 or t > dist:
        return None  # one ball swallows the other; a singleton covers this
    return p[i] + (t / dist) * gap, t + r[i]


def _subset_candidate(p, r, idx):
    # equalize |c - p_i| + r_i over the subset inside its affine hull
    sub = p[list(idx)]
    rs = r[list(idx)]
    base = sub[0]
    span = (sub[1:] - base).T                      # (d, k-1)
    q, rr = np.linalg.qr(span)
    if np.abs(np.diag(rr)).min() < 1e-10:
        return None                                # affinely degenerate
    z = q.T @ (sub.mean(axis=0) - base)
    for _ in range(120):
        c = base + q @ z
        diff = c - sub
        dist = np.linalg.norm(diff, axis=1)
        if dist.min() < 1e-12:
            return None
        g = dist + rs
        res = g[1:] - g[0]
        if np.abs(res).max() < 1e-12:
            return c, float(g.mean())
        grads = (diff / dist[:, None]) @ q         # dg_i / dz
        jac = grads[1:] - grads[0]
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None
        # backtrack on the residual norm
        scale = 1.0
        base_norm = float(np.abs(res).max())
        while scale > 1e-6:
            cand = z + scale * step
            gc = np.linalg.norm(base + q @ cand - sub, axis=1) + rs
            if float(np.abs(gc[1:] - gc[0]).max()) < base_norm:
                z = cand
                break
            scale *= 0.5
        else:
            return None
    return None


def _lower_bound(p, r):
    best = float(r.max())
    for i, j in itertools.combinations(range(r.size), 2):
        best = max(best, 0.5 * (float(np.linalg.norm(p[i] - p[j])) + r[i] + r[j]))
    return best


def ball_circumradius(f: BallFamily) -> tuple[np.ndarray, float]:
    """Center and radius of the smallest ball homothet enclosing the family.

    Intended for small families: every candidate active subset of at most
    d+1 balls is tried, and the cheapest subset whose candidate encloses
    everything wins.  The winner is certified first-order optimal; failure
    to find or certify raises with the best known bound pair.
    """
    p, r = f.centers, f.radii
    n = f.n
    if n == 1:
        return p[0].copy(), float(r[0])
    best = None
    for k in range(1, min(n, f.dim + 1) + 1):
        for idx in itertools.combinations(range(n), k):
            if k == 1:
                cand = (p[idx[0]], float(r[idx[0]]))
            elif k == 2:
                cand = _pair_candidate(p, r, idx[0], idx[1])
            else:
                cand = _subset_candidate(p, r, idx)
            if cand is None:
                continue
            c, rad = cand
            if _reach(c, p, r).max() > rad + tolerances.ENCLOSE:
                continue
            if best is None or rad < best[1]:
                best = (np.asarray(c, dtype=float), float(rad))
    if best is None or not _certified(best[0], best[1], p, r):
        upper = float(_reach(p.mean(axis=0), p, r).max())
        if best is not None:
            upper = min(upper, best[1])
        raise GeometryError(
            f"circumradius solver lost the optimum; best bounds "
            f"[{_lower_bound(p, r):.12g}, {upper:.12g}]")
    return best


def _certified(c, rad, p, r, scale: float = 1e-9) -> bool:
    # optimality: 0 in the convex hull of the active unit gradients
    g = _reach(c, p, r)
    active = np.flatnonzero(g >= rad - max(scale, 1e-7 * rad))
    diff = c - p[active]
    dist = np.linalg.norm(diff, axis=1)
    if dist.min() < 1e-12:
        return True  # center coincides with a ball center: full subgradient
    u = diff / dist[:, None]
    a_eq = np.vstack([u.T, np.ones((1, active.size))])
    b_eq = np.concatenate([np.zeros(c.size), [1.0]])
    return lp.feasible_nonneg(a_eq, b_eq, tol=tolerances.SUBGRADIENT) is not None


def centers_line_deviation(points) -> float:
    """Largest distance from the points to their total-least-squares line."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    q = p - p.mean(axis=0)
    if p.shape[0] < 2:
        return 0.0
    _, _, vt = np.linalg.svd(q, full_matrices=False)
    perp = q - np.outer(q @ vt[0], vt[0])
    return float(np.linalg.norm(perp, axis=1).max())


def stability_construction(taus, delta: float) -> BallFamily:
    """Bent chain of touching balls with a prescribed deflection.

    Balls 2..n sit on a line at touching distances; ball 1 touches ball 2
    at a bend angle chosen so that the second center sits exactly `delta`
    off the line through the first and last centers.  The family is
    non-separable because consecutive members share a boundary point.
    """
    t = np.asarray(taus, dtype=float)
    if t.ndim != 1 or t.size < 3:
        raise InputError("the chain needs at least three radii")
    if (t <= 0).any():
        raise InputError("radii must be positive")
    if not 2.0 * t.sum() <= _EXTENT_MAX:
        raise InputError(
            f"a chain longer than {_EXTENT_MAX:.0e} overflows when squared")
    if delta < 0 or (delta > 0 and delta >= t[1]):
        raise InputError("deflection must satisfy 0 <= delta < second radius")
    xs = np.concatenate([[0.0], np.cumsum(t[1:-1] + t[2:])])  # balls 2..n
    span = xs[-1]
    arm = t[0] + t[1]

    def deflection(theta):
        p1 = np.array([-arm * np.cos(theta), arm * np.sin(theta)])
        v = np.array([span, 0.0]) - p1
        return abs(p1[0] * v[1] - p1[1] * v[0]) / np.linalg.norm(v)

    if delta == 0:
        theta = 0.0
    else:
        top = deflection(np.pi / 2)
        if delta >= top:
            raise InputError(
                f"deflection not reachable; the bend tops out at {top:.6g}")
        theta = brentq(lambda th: deflection(th) - delta, 0.0, np.pi / 2,
                       xtol=1e-14)
    p1 = np.array([-arm * np.cos(theta), arm * np.sin(theta)])
    centers = np.vstack([p1, np.stack([xs, np.zeros_like(xs)], axis=1)])
    return BallFamily(centers, t)


def stability_trace(taus, deltas) -> list[tuple[float, float, float]]:
    """Rows (delta, circumradius deficit, line deviation), one per bend."""
    total = float(np.sum(taus))
    rows = []
    for delta in deltas:
        fam = stability_construction(taus, float(delta))
        _, rad = ball_circumradius(fam)
        rows.append((float(delta), total - rad,
                     centers_line_deviation(fam.centers)))
    return rows


def stability_exponent(taus, deltas) -> float:
    """Log-log slope of line deviation against circumradius deficit.

    Bends whose deficit falls below 1e-12 carry no signal and are dropped;
    at least three must survive.  The expected slope is one half.
    """
    pos = [float(d) for d in deltas if d > 0]
    if len(list(deltas)) < 5 or not pos or max(pos) / min(pos) < 99.99:
        raise InputError("need at least five bends spanning two decades")
    rows = [(eps, dev) for _, eps, dev in stability_trace(taus, deltas)
            if eps > 1e-12]
    if len(rows) < 3:
        raise InputError("too few non-degenerate bends to fit a slope")
    le = np.log([eps for eps, _ in rows])
    ld = np.log([dev for _, dev in rows])
    return float(np.polyfit(le, ld, 1)[0])


def cube_stability_counterexample(n: int = 3) -> dict:
    """Unit-cube chain: zero enclosing deficit, centers visibly off-line.

    Cubes at (k, y_k) with y = (0, 1, 0, ..., 0) touch consecutively, so
    the family is non-separable; the smallest enclosing cube homothet has
    edge length exactly n, yet the centers never align.  The ball-chain
    collapse therefore genuinely needs a smooth body.
    """
    if n < 3:
        raise InputError("need at least three cubes")
    ys = np.zeros(n, dtype=np.int64)
    ys[1] = 1
    offs = np.stack([np.arange(n, dtype=np.int64), ys], axis=1)
    edge = int((offs.max(axis=0) - offs.min(axis=0) + 1).max())
    return {
        "offsets": offs,
        "edge": edge,
        "epsilon": float(n - edge),
        "deviation": centers_line_deviation(offs + 0.5),
    }
