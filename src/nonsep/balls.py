"""Ball families: smallest enclosing homothet and the bent-chain experiment.

`ball_circumradius` minimizes max_i (|c - p_i| + tau_i) over centers c by
an active set of a few balls, each set solved exactly over its subsets,
and certifies the winner first-order optimal (the zero vector must be a
convex combination of the active unit gradients).  `stability_construction`
bends a chain of touching balls by a prescribed deflection, and the slope
fits measure how fast a nearly longest chain is forced back onto a line.
A unit-cube chain with the same deficit and visibly bent centers closes the
module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import lp, tolerances
from .errors import GeometryError, InputError, _index
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


def _reach(c, centers, radii):
    return np.linalg.norm(centers - c, axis=1) + radii


def _pair_candidate(p, r, i, j):
    gap = p[j] - p[i]
    dist = float(np.linalg.norm(gap))
    if dist <= tolerances.PAIR_COINCIDE:
        return None
    t = 0.5 * (dist + r[j] - r[i])
    if t < 0.0 or t > dist:
        return None  # one ball swallows the other; a singleton covers this
    return p[i] + (t / dist) * gap, t + r[i]


def _subset_candidate(p, r, idx):
    # |c - p_i| = R - r_i on the subset, c = p_0 + q z inside its affine hull
    sub, rs = p[idx], r[idx]
    q, rr = np.linalg.qr((sub[1:] - sub[0]).T)
    if np.abs(np.diag(rr)).min() < tolerances.AFFINE_RANK:
        return None                                # affinely degenerate
    # each equation minus the base one is linear: rr.T z = h0 + R h1
    h0 = 0.5 * ((rr * rr).sum(axis=0) - rs[1:] ** 2 + rs[0] ** 2)
    z0, z1 = np.linalg.solve(rr.T, np.stack([h0, rs[1:] - rs[0]], axis=1)).T
    # |z0 + R z1|^2 = (R - r_0)^2, i.e. a R^2 + 2 b R + e = 0
    a = float(z1 @ z1) - 1.0
    b = float(z0 @ z1) + rs[0]
    e = float(z0 @ z0) - rs[0] ** 2
    disc = b * b - a * e
    if disc < 0.0 or b == disc == 0.0:
        return None                                # no root, or no equation
    s = -(b + np.copysign(np.sqrt(disc), b))       # the roots are e / s, s / a
    roots = [R for R in [e / s] + ([s / a] if a else []) if R >= rs.max()]
    if not roots:
        return None
    rad = min(roots)
    return sub[0] + q @ (z0 + rad * z1), rad


def _enclosing_candidate(p, r):
    # exact for a few balls: the smallest candidate over all subsets of at
    # most d+1 balls that encloses every ball given
    best = None
    for k in range(1, min(r.size, p.shape[1] + 1) + 1):
        for idx in itertools.combinations(range(r.size), k):
            if k == 1:
                cand = (p[idx[0]], float(r[idx[0]]))
            elif k == 2:
                cand = _pair_candidate(p, r, *idx)
            else:
                cand = _subset_candidate(p, r, list(idx))
            if cand is None:
                continue
            c, rad = cand
            if _reach(c, p, r).max() > rad + tolerances.enclose(rad):
                continue
            if best is None or rad < best[1]:
                best = (c, float(rad))
    return best


def _lower_bound(p, r):
    # the widest pair of balls (a ball paired with itself gives its radius)
    return float((np.linalg.norm(p[:, None] - p, axis=-1) + r[:, None] + r).max() / 2)


def ball_circumradius(f: BallFamily) -> tuple[np.ndarray, float]:
    """Center and radius of the smallest ball homothet enclosing the family.

    The working set starts from the largest ball and the ball reaching
    farthest from its center.  Each round solves it over its subsets (closed
    forms for one and two balls, the Apollonius quadratic for more), keeps
    the balls active at its optimum and adds the ball reaching farthest past
    it, so the radius rises until every ball is enclosed.  The answer is
    certified optimal; failure to find or certify raises with a bound pair.
    """
    p, r = f.centers, f.radii
    big = int(np.argmax(r))
    work = np.union1d([big], [int(np.argmax(_reach(p[big], p, r)))])
    c = p.mean(axis=0)
    for _ in range(2 * f.n + 16):  # the radius rises each round; this stops a cycle
        best = _enclosing_candidate(p[work], r[work])
        if best is None:
            break
        c, rad = best
        g = _reach(c, p, r)
        far = int(np.argmax(g))
        if g[far] <= rad + tolerances.enclose(rad):
            if _certified(c, rad, p, r):
                return best
            break
        work = np.union1d(work[g[work] >= rad - tolerances.active(rad)], [far])
    upper = min(float(_reach(x, p, r).max()) for x in (c, p.mean(axis=0)))
    raise GeometryError(
        f"circumradius solver lost the optimum; best bounds "
        f"[{_lower_bound(p, r)!r}, {upper!r}]")


def _certified(c, rad, p, r) -> bool:
    # optimality: 0 in the convex hull of the active unit gradients
    g = _reach(c, p, r)
    active = np.flatnonzero(g >= rad - tolerances.active(rad))
    diff = c - p[active]
    dist = np.linalg.norm(diff, axis=1)
    if dist.min() < tolerances.CENTRE_COINCIDE:
        return True  # center coincides with a ball center: full subgradient
    u = diff / dist[:, None]
    a_eq = np.vstack([u.T, np.ones((1, active.size))])
    b_eq = np.concatenate([np.zeros(c.size), [1.0]])
    # least-squares weights that are non-negative and exact to rounding
    # certify without the LP
    w = np.linalg.lstsq(a_eq, b_eq, rcond=None)[0]
    if lp.witnessed(np.vstack([a_eq, -a_eq, -np.eye(w.size)]),
                    np.concatenate([b_eq, -b_eq, np.zeros(w.size)]), w):
        return True
    # Gordan: max t over u_i @ x + t <= 0 is bounded iff such weights exist
    return lp.solve(b_eq, a_eq.T, np.zeros(active.size),
                    tol=tolerances.SUBGRADIENT).optimal


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
    t, delta = _finite(taus, "radii"), float(_finite(delta, "deflection"))
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


def stability_exponent(rows) -> float:
    """Log-log slope of line deviation against circumradius deficit, fitted
    to the rows of `stability_trace`.

    The rows need at least five bends spanning two decades.  Bends whose
    deficit is at most `tolerances.NO_SIGNAL` carry no signal and are
    dropped; at least three must survive.  The expected slope is one half.
    """
    pos = [delta for delta, _, _ in rows if delta > 0]
    if len(rows) < 5 or not pos or max(pos) / min(pos) < 99.99:
        raise InputError("need at least five bends spanning two decades")
    rows = [(eps, dev) for _, eps, dev in rows if eps > tolerances.NO_SIGNAL]
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
    n = _index(n, "n")
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
