"""Output checks for the benchmark, written apart from `nonsep`.

Nothing here imports `nonsep`: every check recomputes its answer from raw
arrays with numpy, `scipy.optimize.linprog` (HiGHS) and
`scipy.spatial.ConvexHull`, or tests a property the paper's method must
have.  A check returns nothing when the output is right and raises
`CheckError` with a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull


class CheckError(AssertionError):
    """An output of the program disagrees with its independent check."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# polytopes as raw arrays


def hull_facets(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vertices, unit normals A, offsets b) of conv(points), A x <= b.

    Coplanar triangles of the qhull output are merged, so each facet
    appears once.
    """
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    a = hull.equations[:, :-1]
    b = -hull.equations[:, -1]
    norms = np.linalg.norm(a, axis=1)
    a, b = a / norms[:, None], b / norms
    keep: list[int] = []
    for i in range(a.shape[0]):
        if not any(np.abs(a[i] - a[j]).max() < 1e-9 and abs(b[i] - b[j]) < 1e-9
                   for j in keep):
            keep.append(i)
    return pts[hull.vertices], a[keep], b[keep]


def facet_axes(a) -> np.ndarray:
    """One facet normal per opposite pair."""
    kept: list[np.ndarray] = []
    for u in a:
        if not any(np.abs(u - k).max() < 1e-9 or np.abs(u + k).max() < 1e-9
                   for k in kept):
            kept.append(u)
    return np.array(kept)


def member_intervals(verts, xs, taus, u) -> tuple[np.ndarray, np.ndarray]:
    """Projections [lo_i, hi_i] of the members x_i + tau_i * conv(verts) on u."""
    proj = verts @ u
    centre = xs @ u
    return centre + taus * proj.min(), centre + taus * proj.max()


def has_gap(lo, hi, tol: float = 1e-9) -> bool:
    """Does the union of the intervals leave an open gap wider than tol?"""
    order = np.argsort(lo)
    reach = hi[order[0]]
    for j in order[1:]:
        if lo[j] > reach + tol:
            return True
        reach = max(reach, hi[j])
    return False


def wns_verdict(verts, a, xs, taus) -> bool:
    """Weak non-separability: no facet-parallel slab splits the members."""
    return not any(has_gap(*member_intervals(verts, xs, taus, u))
                   for u in facet_axes(a))


# ---------------------------------------------------------------------------
# separability


def planar_separable(member_verts) -> bool:
    """Exact NS oracle in the plane.

    The directions u opening a strict gap in the union of the member
    projections form an open set, and the gap pattern only changes where
    two vertices project to the same value, <u, p - q> = 0.  One u inside
    each arc between those critical angles therefore decides the family.
    """
    pts = np.vstack(member_verts)
    owner = np.concatenate([np.full(len(v), i) for i, v in enumerate(member_verts)])
    i, j = np.triu_indices(pts.shape[0], 1)
    diff = pts[j] - pts[i]
    diff = diff[np.linalg.norm(diff, axis=1) > 1e-12]
    # u is orthogonal to diff at these angles; directions mod pi suffice
    crit = np.sort(np.mod(np.arctan2(diff[:, 1], diff[:, 0]) + 0.5 * np.pi, np.pi))
    crit = np.concatenate([crit, [crit[0] + np.pi]])
    mids = 0.5 * (crit[:-1] + crit[1:])[np.diff(crit) > 1e-12]
    u = np.stack([np.cos(mids), np.sin(mids)], axis=1)
    proj = pts @ u.T                                  # (points, directions)
    n = len(member_verts)
    lo = np.stack([proj[owner == k].min(axis=0) for k in range(n)])
    hi = np.stack([proj[owner == k].max(axis=0) for k in range(n)])
    order = np.argsort(lo, axis=0)
    lo_s = np.take_along_axis(lo, order, axis=0)
    hi_s = np.maximum.accumulate(np.take_along_axis(hi, order, axis=0), axis=0)
    return bool((lo_s[1:] > hi_s[:-1] + 1e-9).any())


def separating_hyperplane(pa, pb):
    """(w, c) with <w, p> < c < <w, q> for p in pa, q in pb, or None.

    Solved with HiGHS as the feasibility system <w,p> - c <= -1,
    c - <w,q> <= -1 over free (w, c), then confirmed on the points.
    """
    pa, pb = np.asarray(pa, float), np.asarray(pb, float)
    d = pa.shape[1]
    a_ub = np.vstack([np.hstack([pa, -np.ones((len(pa), 1))]),
                      np.hstack([-pb, np.ones((len(pb), 1))])])
    res = linprog(np.zeros(d + 1), A_ub=a_ub, b_ub=-np.ones(len(a_ub)),
                  bounds=[(None, None)] * (d + 1), method="highs")
    if res.status != 0:
        return None
    w, c = res.x[:d], res.x[d]
    if (pa @ w).max() < c < (pb @ w).min():
        return w, c
    return None


def bipartition_separable(member_verts) -> bool:
    """NS oracle by brute force: is any bipartition strictly separable?"""
    n = len(member_verts)
    for mask in range(1, 1 << (n - 1)):
        side_b = [i for i in range(n) if mask >> i & 1]
        side_a = [i for i in range(n) if not mask >> i & 1]
        if separating_hyperplane(np.vstack([member_verts[i] for i in side_a]),
                                 np.vstack([member_verts[i] for i in side_b])):
            return True
    return False


def check_ns(verdict, split, member_verts, truth: bool) -> None:
    """is_ns output against the oracle verdict `truth` (True: NS)."""
    require(verdict == truth, f"is_ns says {verdict}, oracle says {truth}")
    if verdict:
        require(split is None, "an NS verdict came with a split")
        return
    side_a, side_b = split
    require(sorted(side_a + side_b) == list(range(len(member_verts)))
            and side_a and side_b, f"split {split} is not a bipartition")
    require(separating_hyperplane(np.vstack([member_verts[i] for i in side_a]),
                                  np.vstack([member_verts[i] for i in side_b]))
            is not None, f"split {split} has no strictly separating hyperplane")


def check_wns(verdict, witness, verts, a, xs, taus, ns: bool) -> None:
    """is_wns output against the projection test; NS families must be WNS."""
    truth = wns_verdict(verts, a, xs, taus)
    require(verdict == truth, f"is_wns says {verdict}, projections say {truth}")
    require(verdict or not ns, "an NS family was reported weakly separable")
    if not verdict:
        u, gap = witness
        require(gap > 0 and has_gap(*member_intervals(verts, xs, taus, np.asarray(u))),
                "the weak-separation witness opens no gap")


# ---------------------------------------------------------------------------
# covers, asymmetry, containment


def covering_lambda(a, b, xs, taus) -> float:
    """Least lambda with x_i + tau_i P inside t + lambda T P for some t.

    P = {a x <= b}.  Both bodies are homothets of P, so containment is the
    support inequality on P's own normals:
    <a_j, x_i> + tau_i b_j <= <a_j, t> + lambda T b_j.  Solved with HiGHS.
    """
    d = a.shape[1]
    total = float(np.sum(taus))
    need = (xs @ a.T + np.outer(taus, b)).max(axis=0)
    a_ub = np.hstack([-a, -total * b[:, None]])
    c = np.zeros(d + 1)
    c[d] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=-need,
                  bounds=[(None, None)] * d + [(0, None)], method="highs")
    require(res.status == 0, f"HiGHS covering LP ended with status {res.status}")
    return float(res.x[d])


def check_cover(t, lam, verts, a, b, xs, taus, tol: float = 1e-7) -> None:
    """Every member vertex lies in t + lam * T * P."""
    total = float(np.sum(taus))
    pts = (xs[:, None, :] + taus[:, None, None] * verts[None]).reshape(-1, a.shape[1])
    slack = a @ (pts - np.asarray(t, float)).T - lam * total * b[:, None]
    scale = max(1.0, float(np.abs(pts).max()))
    require(slack.max() <= tol * scale,
            f"a member vertex lies {slack.max():.3g} outside the cover at lambda {lam}")


def asymmetry(a, b, verts) -> float:
    """Minkowski asymmetry min mu: K - q inside -mu (K - q), by HiGHS.

    For each facet (a_j, b_j) the reflected body must reach past the
    lowest vertex along a_j: <a_j, r> - mu b_j <= min_v <a_j, v>, with
    r = (1 + mu) q free and mu >= 1.
    """
    d = a.shape[1]
    lowest = (verts @ a.T).min(axis=0)
    c = np.zeros(d + 1)
    c[d] = 1.0
    res = linprog(c, A_ub=np.hstack([a, -b[:, None]]), b_ub=lowest,
                  bounds=[(None, None)] * d + [(1.0, None)], method="highs")
    require(res.status == 0, f"HiGHS asymmetry LP ended with status {res.status}")
    return float(res.x[d])


def is_generic(a, tol: float = 1e-9) -> bool:
    """Every d-subset of the facet normals is linearly independent."""
    d = a.shape[1]
    idx = np.array(list(itertools.combinations(range(a.shape[0]), d)))
    return bool((np.abs(np.linalg.det(a[idx])) > tol).all())


def fit_scale(a_out, b_out, inner_verts) -> float:
    """Largest s with some translate of s * inner inside {a_out x <= b_out}."""
    d = a_out.shape[1]
    h = (inner_verts @ a_out.T).max(axis=0)
    c = np.zeros(d + 1)
    c[d] = -1.0
    res = linprog(c, A_ub=np.hstack([a_out, h[:, None]]), b_ub=b_out,
                  bounds=[(None, None)] * d + [(0, None)], method="highs")
    require(res.status == 0, f"HiGHS fit LP ended with status {res.status}")
    return float(res.x[d])


def check_translate(verdict, t, a_out, b_out, inner_verts, fits: bool,
                    tol: float = 1e-7) -> None:
    """contains_translate output: right verdict and a witness that fits."""
    require(verdict == fits, f"contains_translate says {verdict}, HiGHS says {fits}")
    if verdict:
        slack = a_out @ (inner_verts + np.asarray(t, float)).T - b_out[:, None]
        require(slack.max() <= tol,
                f"witness translate sticks out by {slack.max():.3g}")


# ---------------------------------------------------------------------------
# integer cube families


def contiguous(values) -> bool:
    occupied = set(values)
    return max(occupied) - min(occupied) + 1 == len(occupied)


def cells_wns(cells) -> bool:
    """Axis non-separability of unit cells: every axis occupied contiguously."""
    cells = [tuple(c) for c in np.asarray(cells).tolist()]
    return all(contiguous(col) for col in zip(*cells))


def cell_hull(cells) -> tuple[float, float]:
    """(area, perimeter) of the hull of the unit squares' corners."""
    pts = [(x + dx, y + dy) for x, y in np.asarray(cells).tolist()
           for dx in (0, 1) for dy in (0, 1)]
    hull = ConvexHull(np.array(pts, dtype=float))
    return float(hull.volume), float(hull.area)


def area_max(n: int) -> float:
    return float(n * n - 2 * n + 4)


def perimeter_record(n: int) -> float:
    """Perimeter of the staircase W_n, the proven maximum (not the glued form)."""
    return 4 + 2 * math.sqrt((n - 3) ** 2 + 1) + 2 * math.sqrt((n - 1) ** 2 + 1)


def check_cube_max(n: int, objective: str, cells, value) -> None:
    """exhaustive_max output: the closed-form maximum, attained by `cells`."""
    want = area_max(n) if objective == "area" else perimeter_record(n)
    require(abs(value - want) <= 1e-9,
            f"{objective} maximum {value!r} for n={n}, expected {want!r}")
    cells = np.asarray(cells)
    require(len({tuple(c) for c in cells.tolist()}) == n == len(cells),
            "maximizer does not hold n distinct cells")
    require(cells_wns(cells), "maximizer splits along an axis")
    got = cell_hull(cells)[0 if objective == "area" else 1]
    require(abs(got - value) <= 1e-9,
            f"ConvexHull gives {got!r} for the maximizer, search says {value!r}")


def check_normalized(before, after, objective: str) -> None:
    """shadow_normalize output: fills the n-box and keeps the objective."""
    before, after = np.asarray(before), np.asarray(after)
    n = len(before)
    require(len(after) == n and len({tuple(c) for c in after.tolist()}) == n,
            "normalized family lost or merged cells")
    require(cells_wns(after), "normalized family splits along an axis")
    require((after.min(axis=0) == 0).all() and (after.max(axis=0) == n - 1).all(),
            f"normalized family does not fill the {n}-box")
    k = 0 if objective == "area" else 1
    require(cell_hull(after)[k] >= cell_hull(before)[k] - 1e-9,
            f"{objective} dropped from {cell_hull(before)[k]} to {cell_hull(after)[k]}")


# ---------------------------------------------------------------------------
# impassability, lattices, balls


def point_misses(p, members) -> bool:
    """Point outside every member; members are (A, b) halfspace pairs."""
    return all((a @ p - b).max() > 0 for a, b in members)


def line_misses(p, w, members) -> bool:
    """The line p + s w meets no member (each interval of s is empty)."""
    for a, b in members:
        alpha, beta = a @ w, b - a @ p
        flat = np.abs(alpha) <= 1e-12
        if (beta[flat] < 0).any():
            continue
        hi = min((beta[k] / alpha[k] for k in np.flatnonzero(alpha > 1e-12)),
                 default=math.inf)
        lo = max((beta[k] / alpha[k] for k in np.flatnonzero(alpha < -1e-12)),
                 default=-math.inf)
        if lo <= hi:
            return False
    return True


def edges_of_hull(points):
    """Edges of conv(points) as vertex pairs, from the merged facets."""
    verts, a, b = hull_facets(points)
    d = verts.shape[1]
    tight = np.abs(a @ verts.T - b[:, None]) <= 1e-9 * max(1.0, np.abs(verts).max())
    out = []
    for i, j in itertools.combinations(range(len(verts)), 2):
        common = tight[:, i] & tight[:, j]
        if common.sum() >= d - 1 and np.linalg.matrix_rank(a[common], 1e-7) >= d - 1:
            out.append((verts[i], verts[j]))
    return out


def edges_covered(points, members, steps: int = 64) -> bool:
    """Sampled check that the members cover every hull edge."""
    s = np.linspace(0.0, 1.0, steps + 1)
    for p, q in edges_of_hull(points):
        for x in p[None] + s[:, None] * (q - p)[None]:
            if all((a @ x - b).max() > 1e-9 for a, b in members):
                return False
    return True


def shortest_dual_gauge(basis, body_verts) -> float:
    """min over nonzero dual vectors z of h_K(z) = max_v <v, z>, K symmetric.

    h_K(z) >= r |z| with r the inradius of K about the origin, so the
    minimiser lies within |z| <= h_K(z0) / r for any dual z0; the integer
    coefficients of such z are bounded through the lattice basis.
    """
    basis = np.asarray(basis, float)
    dual = np.linalg.inv(basis).T               # columns span the dual lattice
    _, a, b = hull_facets(body_verts)
    r = float(b.min())
    d = basis.shape[0]
    z0 = min((dual[:, k] for k in range(d)),
             key=lambda z: (body_verts @ z).max())
    radius = float((body_verts @ z0).max()) / r + 1e-9
    bound = np.ceil(np.linalg.norm(basis.T, axis=1) * radius).astype(int)
    grid = np.stack(np.meshgrid(*[np.arange(-k, k + 1) for k in bound],
                                indexing="ij"), axis=-1).reshape(-1, d)
    grid = grid[(grid != 0).any(axis=1)]
    zs = grid @ dual.T
    return float((zs @ np.asarray(body_verts, float).T).max(axis=1).min())


def check_bracket(lo, hi, want, tol: float = 1e-9) -> None:
    require(lo - tol <= want <= hi + tol,
            f"bracket [{lo}, {hi}] misses the known value {want}")


def check_enclosing(c, rad, centers, radii, tol: float = 1e-7) -> None:
    """The ball radius encloses every ball and beats no lower bound."""
    reach = np.linalg.norm(centers - c, axis=1) + radii
    require(reach.max() <= rad + tol, f"a ball reaches {reach.max()} past radius {rad}")
    lower = max(float(radii.max()), max(
        0.5 * (np.linalg.norm(centers[i] - centers[j]) + radii[i] + radii[j])
        for i, j in itertools.combinations(range(len(radii)), 2)))
    require(rad >= lower - tol, f"radius {rad} below the pairwise lower bound {lower}")
