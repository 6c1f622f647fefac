"""Shared test utilities: set comparisons, generators, small oracles."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull


def contains_point(p, x, slack=None) -> bool:
    """x lies in polytope p up to `slack` past any facet (default:
    `tolerances.feas` at the largest vertex coordinate of p)."""
    from nonsep import tolerances

    if slack is None:
        slack = tolerances.feas(float(np.abs(p.vertices).max(initial=1.0)))
    return bool((p.facet_normals @ np.asarray(x, dtype=float)
                 - p.facet_offsets <= slack).all())


def arrangement_with_lambda1(rng, band, nverts=8):
    """Random symmetric 2-D arrangement rescaled to a target dual length.

    Scaling the body scales the shortest dual vector's polar-gauge length
    by the same factor, so any target inside `band` is hit exactly.
    Targets are kept away from the 1/2 decision line by the caller's
    choice of band.
    """
    from nonsep.lattice import Lattice, LatticeArrangement, is_ns_lattice
    from nonsep.polytope import random_polytope

    while True:
        basis = rng.uniform(-1.5, 1.5, size=(2, 2))
        if abs(np.linalg.det(basis)) > 0.3:
            break
    lat = Lattice.from_basis(basis)
    body = random_polytope(2, nverts, rng, symmetric=True)
    _, lam1 = is_ns_lattice(LatticeArrangement(body, lat))
    target = float(rng.uniform(*band))
    scaled = body.scale(target / lam1)
    return LatticeArrangement(scaled, lat), target


# -- sampled lattice probes, oracles for the exact criteria of nonsep.lattice.
# They share no geometry with nonsep: patches, plane frames, hulls and gauge
# distances come from numpy and scipy alone.

PATCH_GAP = 1e-7  # ns_patch_probe: a wider gap in a shadow separates
PROBE = 1e-6  # weak_impassability_probe: gauge distances to 1 + PROBE hit


def lattice_patch(basis, window):
    """Lattice points B m for every integer m in [-window, window]^d."""
    ax = np.arange(-window, window + 1)
    m = np.stack(np.meshgrid(*([ax] * len(basis)), indexing="ij"), axis=-1)
    return m.reshape(-1, len(basis)) @ np.asarray(basis).T


def gauge_rows(points):
    """Rows s_i with gauge(x) = max(0, max_i <s_i, x>) for the hull of
    `points`, which must hold the origin inside: scipy's facet equations,
    each normal over its offset.  The rows are the polar body's vertices,
    so gauge_rows(gauge_rows(points)) gives the polar gauge."""
    eq = ConvexHull(points).equations
    return eq[:, :-1] / -eq[:, -1:]


def gauge_dist(rows, ys, zs):
    """min over rows z of zs of the gauge of y - z, one value per row of ys."""
    step = max(1, 1_000_000 // (len(zs) * len(rows)))
    out = np.empty(len(ys))
    for s in range(0, len(ys), step):
        per = (ys[s:s + step, None, :] - zs[None, :, :]) @ rows.T
        out[s:s + step] = np.maximum(per.max(axis=2), 0.0).min(axis=1)
    return out


def ns_patch_probe(arr, window=6, ndirs=2000):
    """Finite-patch separability sweep, independent of the dual route.

    Projects a (2w+1)^d patch of members onto a dense set of directions
    and hunts for a gap in the central half of the patch's shadow.  A
    central gap persists as the patch grows; gaps near the ends are
    truncation artifacts and are ignored.  Returns True when no
    separating direction shows up.
    """
    d = arr.body.dim
    z = lattice_patch(arr.lattice.basis, window)
    if d == 2:
        ang = np.linspace(0.0, np.pi, ndirs, endpoint=False)
        us = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        rng = np.random.default_rng(7)
        us = rng.standard_normal((ndirs, d))
        us /= np.linalg.norm(us, axis=1, keepdims=True)
    us = np.concatenate([us, arr.body.facet_normals])
    sup = us @ arr.body.vertices.T
    hplus, hminus = sup.max(axis=1), -sup.min(axis=1)
    centres = us @ z.T
    lo = centres - hminus[:, None]
    hi = centres + hplus[:, None]
    order = np.argsort(lo, axis=1)
    lo = np.take_along_axis(lo, order, axis=1)
    hi = np.take_along_axis(hi, order, axis=1)
    reach = np.maximum.accumulate(hi, axis=1)
    gaps = lo[:, 1:] - reach[:, :-1]
    mids = 0.5 * (lo[:, 1:] + reach[:, :-1])
    centre = 0.5 * (lo[:, :1] + reach[:, -1:])
    extent = reach[:, -1:] - lo[:, :1]
    central = np.abs(mids - centre) <= 0.25 * extent
    return not bool(((gaps > PATCH_GAP) & central).any())


def _plane_frame(u):
    """(2, 3): orthonormal rows spanning the plane orthogonal to the unit
    vector u, by Gram-Schmidt on the axes.  The central sample window of
    the k = 1 probe is axis-aligned in this frame."""
    rows = []
    for e in np.eye(3):
        v = e - (e @ u) * u
        for r in rows:
            v -= (v @ r) * r
        if np.linalg.norm(v) > 1e-8:
            rows.append(v / np.linalg.norm(v))
    return np.array(rows[:2])


def _sphere_net(n):
    # golden-spiral net; good enough angular resolution for probe duty
    i = np.arange(n)
    phi = (1.0 + 5.0 ** 0.5) / 2.0
    zc = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - zc ** 2))
    th = 2.0 * np.pi * i / phi
    return np.stack([r * np.cos(th), r * np.sin(th), zc], axis=1)


def weak_impassability_probe(arr, k, samples=400, window=4, seed=0):
    """Sampled check that every k-flat meets the arrangement.

    k = 0 draws points in the fundamental cell and asks for gauge
    distance at most one to a translate with coefficients in
    [-window, window]^d.  k = 1 (d = 3 only) scans a direction net; a
    line misses the arrangement exactly when its shadow point escapes
    every member shadow, so each direction becomes a 2-D hole hunt over
    the central region of a projected patch.  Passing is sampled
    evidence; failing exhibits a genuine witness for the window.
    """
    from nonsep.errors import InputError

    d = arr.body.dim
    basis = arr.lattice.basis
    z = lattice_patch(basis, window)
    if k == 0:
        rng = np.random.default_rng(seed)
        ys = rng.uniform(-0.5, 0.5, size=(samples, d)) @ basis.T
        dist = gauge_dist(gauge_rows(arr.body.vertices), ys, z)
        return bool((dist <= 1.0 + PROBE).all())
    if k == 1 and d == 3:
        for u in np.concatenate([_sphere_net(samples), np.eye(3)]):
            q = _plane_frame(u)
            pz = z @ q.T
            lo, hi = pz.min(axis=0), pz.max(axis=0)
            mid, half = 0.5 * (lo + hi), 0.25 * (hi - lo)
            g = np.linspace(-1.0, 1.0, 12)
            pts = np.stack(np.meshgrid(g, g, indexing="ij"),
                           axis=-1).reshape(-1, 2) * half + mid
            rows = gauge_rows(arr.body.vertices @ q.T)
            if (gauge_dist(rows, pts, pz) > 1.0 + PROBE).any():
                return False
        return True
    raise InputError("probe supports k = 0, or k = 1 in dimension 3")


def sampled_hit_curve(p, lat, t_grid, window=None, samples=400, seed=0):
    """Sampled hit curve for facet-parallel hyperplanes against L + tP.

    The oracle of `lattice.weak_covering_minimum_1`: the same rows from
    `samples` uniform planes per facet direction over the same window.
    Each row is (t, fraction of sampled hyperplanes hit, largest miss
    margin).  Sampling the same hyperplanes for every t keeps the curve
    monotone.
    """
    from nonsep.errors import InputError
    from nonsep.lattice import _OFFSET_MAX, _check_box
    from nonsep.polytope import _finite, facet_directions

    d = p.dim
    if d != lat.dim:
        raise InputError("body and lattice dimensions differ")
    t_grid = np.atleast_1d(_finite(t_grid, "scales t"))
    if (t_grid < 0).any():
        raise InputError("scales t must be non-negative")
    if samples < 1:
        raise InputError("samples must be at least 1")
    if seed < 0:
        raise InputError("seed must be non-negative")
    if window is None:
        window = min(200, int((_OFFSET_MAX ** (1.0 / d) - 1.0) / 2.0))
    _check_box(d, window, 1, "window")
    rng = np.random.default_rng(seed)
    z = lattice_patch(lat.basis, window)
    t = t_grid[:, None]
    hit = np.zeros(t_grid.size, dtype=np.int64)
    worst = np.zeros(t_grid.size)
    dirs = facet_directions(p)
    for u in dirs:
        proj = np.sort(z @ u)
        span = proj[-1] - proj[0]
        # central half of the window only, away from truncation artifacts
        c = rng.uniform(proj[0] + 0.25 * span, proj[-1] - 0.25 * span,
                        size=samples)
        hplus, hminus = p.support(u), p.support(-u)
        # the plane <u,x> = c meets z + tP iff c - proj(z) lies in
        # [-t*hminus, t*hplus]; the nearest z on either side decides
        idx = np.searchsorted(proj, c)
        last = len(proj) - 1
        miss = np.inf
        for pz in (proj[np.clip(idx - 1, 0, last)], proj[np.clip(idx, 0, last)]):
            below = pz - t * hminus - c
            above = c - pz - t * hplus
            miss = np.minimum(miss, np.maximum(np.maximum(below, above), 0.0))
        ok = miss <= 1e-12
        hit += ok.sum(axis=1)
        worst = np.maximum(worst, np.where(ok, 0.0, miss).max(axis=1))
    total = len(dirs) * samples
    return [(float(s), int(h) / total, float(w)) for s, h, w in zip(t_grid, hit, worst)]


def overlap_chain(base, n, rng, direction=None):
    """Members strung along a line with consecutive overlap, hence WNS.

    Step lengths use the radial reach of the recentred base along the
    travel direction, not the support width: the reach bounds how far a
    member can move before it stops meeting its predecessor.
    """
    from nonsep.family import HomotheticFamily

    d = base.dim
    if direction is None:
        direction = rng.standard_normal(d)
    direction = np.asarray(direction, float)
    direction /= np.linalg.norm(direction)
    c = base.vertices.mean(axis=0)
    pc = base.translate(-c)
    r_fwd = 1.0 / pc.gauge(direction)
    r_back = 1.0 / pc.gauge(-direction)
    taus = rng.uniform(0.5, 2.0, size=n)
    ys = np.zeros((n, d))
    for i in range(1, n):
        step = 0.45 * (taus[i - 1] * r_fwd + taus[i] * r_back)
        ys[i] = ys[i - 1] + step * direction
    xs = ys - np.outer(taus, c)
    return HomotheticFamily(base, xs, taus)


def tower_family(rng):
    """Equal cubes overlapping along one axis: the union is a box."""
    from nonsep.family import HomotheticFamily
    from nonsep.polytope import cube

    n = int(rng.integers(2, 7))
    tau = float(rng.uniform(0.5, 2.0))
    axis = int(rng.integers(0, 3))
    steps = rng.uniform(0.2, 0.95, size=n - 1) * tau
    ys = np.zeros((n, 3))
    ys[1:, axis] = np.cumsum(steps)
    return HomotheticFamily(cube(3), ys, np.full(n, tau))


def nested_family(rng, base):
    """One dominant member at the shared center, the rest strictly inside."""
    from nonsep.family import HomotheticFamily

    n = int(rng.integers(2, 6))
    taus = np.empty(n)
    taus[0] = float(rng.uniform(1.5, 3.0))
    taus[1:] = rng.uniform(0.2, 0.5, size=n - 1)
    c = base.vertices.mean(axis=0)
    rad = np.linalg.norm(base.vertices - c, axis=1).max()
    ys = np.zeros((n, 3))
    ys[1:] = rng.uniform(-0.2, 0.2, size=(n - 1, 3)) * rad
    xs = ys - np.outer(taus, c) + c
    xs[0] = c - taus[0] * c
    return HomotheticFamily(base, xs, taus)


def criterion_11_families():
    """The 50 seeded towers and nested families of acceptance criterion 11,
    whose members cover their hulls."""
    from nonsep.polytope import cross_polytope, cube, random_polytope

    rng = np.random.default_rng(111)
    for i in range(50):
        if i % 2 == 0:
            yield tower_family(rng)
        else:
            base = [cube(3), cross_polytope(3),
                    random_polytope(3, 7, rng, symmetric=True)][i % 3]
            yield nested_family(rng, base)


def same_point_set(a, b, eps=1e-7) -> bool:
    """Bijective matching of rows within eps."""
    a = np.atleast_2d(np.asarray(a, float))
    b = np.atleast_2d(np.asarray(b, float))
    if a.shape != b.shape:
        return False
    used = np.zeros(b.shape[0], dtype=bool)
    for row in a:
        dist = np.linalg.norm(b - row, axis=1)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] > eps:
            return False
        used[j] = True
    return bool(used.all())


def dedupe_facets_all_pairs(a, b):
    """Unit-scale the rows, then drop each row within FACET_MERGE of an
    earlier kept one (normals componentwise, offsets relative to the kept
    row's), from the full pair matrix walked in row order."""
    from nonsep import tolerances

    norms = np.linalg.norm(a, axis=1)
    a, b = a / norms[:, None], b / norms
    eps = tolerances.FACET_MERGE
    close = (np.abs(a[:, None] - a[None]) <= eps).all(axis=2)
    dropped = np.zeros(b.size, dtype=bool)
    for i, j in zip(*np.nonzero(np.triu(close, 1))):
        if not dropped[i] and abs(b[j] - b[i]) <= eps * (1 + abs(b[i])):
            dropped[j] = True
    return a[~dropped], b[~dropped]


def facet_directions_all_pairs(a):
    """Rows of `a` with no earlier row within 1e-9 of it or of its negative."""
    same = np.linalg.norm(a[:, None] - a[None], axis=2) < 1e-9
    opposite = np.linalg.norm(a[:, None] + a[None], axis=2) < 1e-9
    return a[~np.tril(same | opposite, -1).any(axis=1)]


def origin_symmetric_all_pairs(p) -> bool:
    """Does every vertex v have a vertex within `tight` of -v?"""
    from nonsep import tolerances

    v = p.vertices
    eps = tolerances.tight(p._scale())
    return all(np.linalg.norm(v + w, axis=1).min() <= eps for w in v)


def brute_vertices(a, b):
    """Vertices of the bounded system {x : <a_i, x> <= b_i}, by brute force.

    Tries all C(m, d) subsets of d rows: each nonsingular subsystem gives
    a point, points meeting every row within 1e-7 (relative) are kept,
    and points within 1e-6 of a kept one are dropped. Shares no code
    with `nonsep`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    norms = np.linalg.norm(a, axis=1)
    a, b = a / norms[:, None], b / norms
    m, d = a.shape
    scale = 1.0 + float(np.abs(b).max())
    kept = []
    for idx in itertools.combinations(range(m), d):
        rows = list(idx)
        if abs(np.linalg.det(a[rows])) < 1e-10:
            continue
        x = np.linalg.solve(a[rows], b[rows])
        if not (a @ x <= b + 1e-7 * scale).all():
            continue
        if all(np.linalg.norm(x - k) > 1e-6 * scale for k in kept):
            kept.append(x)
    return np.array(kept).reshape(-1, d)


def edges_double_loop(p):
    """Vertex pairs of a polytope that span an edge, by the per-pair loop:
    pairs sharing d - 1 tight facets whose normals have rank d - 1."""
    from nonsep import tolerances

    tight = np.abs(p.facet_normals @ p.vertices.T
                   - p.facet_offsets[:, None]) <= tolerances.tight(p._scale())
    out = []
    for i in range(p.n_vertices):
        for j in range(i + 1, p.n_vertices):
            common = tight[:, i] & tight[:, j]
            if common.sum() < p.dim - 1:
                continue
            s = np.linalg.svd(p.facet_normals[common], compute_uv=False)
            if (s > 1e-7).sum() >= p.dim - 1:
                out.append((i, j))
    return out


def hulls_meet(pa, pb) -> bool:
    """Do conv(pa) and conv(pb) share a point?  HiGHS on the convex
    combinations: lambda, mu >= 0, each summing to one, pa^T lambda = pb^T mu."""
    pa, pb = np.asarray(pa, float), np.asarray(pb, float)
    ka, kb, d = len(pa), len(pb), pa.shape[1]
    a_eq = np.zeros((d + 2, ka + kb))
    a_eq[:d, :ka], a_eq[:d, ka:] = pa.T, -pb.T
    a_eq[d, :ka] = a_eq[d + 1, ka:] = 1.0
    b_eq = np.r_[np.zeros(d), 1.0, 1.0]
    res = linprog(np.zeros(ka + kb), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    return res.status == 0


def bridging_family():
    """A d = 3 NS family of three scales: a hub cube of ratio 1.2e9 (member
    0) holding two rows of 10 unit cubes, one row 1 apart, the other 1e3
    apart, the rows 1e9 from each other."""
    from nonsep.family import HomotheticFamily
    from nonsep.polytope import unit_cube

    k = np.arange(10.0)
    xs = np.r_[[[-1e8, -1e8, -6e8]], np.c_[k, 0 * k, 0 * k],
               np.c_[1e3 * k, 0 * k + 1e9, 0 * k]]
    return HomotheticFamily(unit_cube(3), xs, np.r_[1.2e9, np.ones(20)])


def ns_oracle(member_verts):
    """Non-separability by brute force over bipartitions: a family is NS
    when every split's two hulls meet.  Returns (True, None) or
    (False, (side_a, side_b)).  Imports nothing from `nonsep`."""
    n = len(member_verts)
    for mask in range(1, 1 << (n - 1)):
        side_b = [i for i in range(n) if mask >> i & 1]
        side_a = [i for i in range(n) if not mask >> i & 1]
        if not hulls_meet(np.vstack([member_verts[i] for i in side_a]),
                          np.vstack([member_verts[i] for i in side_b])):
            return False, (side_a, side_b)
    return True, None


def member_sweep_ns(family):
    """Planar `is_ns` as it stood before the overlap graph was contracted:
    the sweep over the middles of the arcs between the critical angles of
    every member pair, returning is_ns's (True, None) or (False, (a_idx,
    b_idx)) with member n - 1 in a_idx."""
    from nonsep.family import _BLOCK, _first_gap, _projections

    v, x, t = family.base.vertices, family.translations, family.ratios
    k = v.shape[0]
    i, j = np.triu_indices(family.n, 1)
    step = max(1, _BLOCK // k)
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
    theta = np.unique(np.mod(np.concatenate(crit) + 0.5 * np.pi, np.pi))
    mids = 0.5 * (theta + np.append(theta[1:], theta[0] + np.pi))
    dirs = np.stack([np.cos(mids), np.sin(mids)], axis=1)
    for s in range(0, mids.size, _BLOCK):
        hit = _first_gap(*_projections(family, dirs[s:s + _BLOCK]))
        if hit is not None:
            side = np.isin(np.arange(family.n), hit[1])
            side ^= side[-1]
            return False, (np.flatnonzero(~side).tolist(), np.flatnonzero(side).tolist())
    return True, None


def walk_chain(d, n, seed=0):
    """A random walk of n members of a random base (8 points in the plane,
    14 in d >= 3), steps of length 0.3 and ratios 0.8 .. 1.2: each member
    meets the next, so the family is connected."""
    from nonsep.family import HomotheticFamily
    from nonsep.polytope import Polytope

    rng = np.random.default_rng(seed)
    base = Polytope.from_vertices(rng.standard_normal((8 if d == 2 else 14, d)))
    steps = rng.standard_normal((n, d))
    steps *= 0.3 / np.linalg.norm(steps, axis=1, keepdims=True)
    return HomotheticFamily(base, np.cumsum(steps, axis=0), rng.uniform(0.8, 1.2, n))


def strict_separator(pa, pb):
    """(w, c) with <w, p> < c < <w, q> for every p in pa and q in pb, or
    None: HiGHS on <w, p> - c <= -1 and c - <w, q> <= -1 over free (w, c),
    confirmed on the points."""
    pa, pb = np.asarray(pa, float), np.asarray(pb, float)
    d = pa.shape[1]
    a_ub = np.vstack([np.hstack([pa, -np.ones((len(pa), 1))]),
                      np.hstack([-pb, np.ones((len(pb), 1))])])
    res = linprog(np.zeros(d + 1), A_ub=a_ub, b_ub=-np.ones(len(a_ub)),
                  bounds=[(None, None)] * (d + 1), method="highs")
    if res.status != 0:
        return None
    w, c = res.x[:d], res.x[d]
    return (w, c) if (pa @ w).max() < c < (pb @ w).min() else None


def grid_contains_translate(outer, inner, res=80, slack=1e-7):
    """Brute force: scan candidate translations on a grid.

    Returns True as soon as one grid translation puts every vertex of
    `inner` inside `outer`. A False is only meaningful for instances with
    a robust margin; callers are expected to test away from the critical
    scale.
    """
    lo = outer.vertices.min(axis=0) - inner.vertices.min(axis=0)
    hi = outer.vertices.max(axis=0) - inner.vertices.max(axis=0)
    axes = [np.linspace(l, h, res) if h > l else np.array([(l + h) / 2])
            for l, h in zip(lo, hi)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, outer.dim)
    a, b = outer.facet_normals, outer.facet_offsets
    v = inner.vertices
    for t in mesh:
        pts = v + t
        if (a @ pts.T <= b[:, None] + slack).all():
            return True
    return False


def circumscribed_simplices_oracle(p, inners=()):
    """Lutwak's criterion by the general route: `Polytope.from_facets` (a
    Chebyshev LP and a qhull hull) on every (d + 1)-subset of p's facet
    rows, skipping the unbounded ones.

    Returns the bounded subsets (index tuples, in order), their simplices
    and, for each body in `inners`, whether a translate of it fits in all
    of them, by one `contains_translate` LP per simplex.
    """
    from nonsep.errors import GeometryError
    from nonsep.polytope import Polytope, contains_translate

    a, b = p.facet_normals, p.facet_offsets
    subsets, simplices = [], []
    for idx in itertools.combinations(range(p.n_facets), p.dim + 1):
        try:
            simplex = Polytope.from_facets(a[list(idx)], b[list(idx)])
        except GeometryError as exc:
            if exc.args != ("unbounded",):
                raise
            continue
        subsets.append(idx)
        simplices.append(simplex)
    via = [all(contains_translate(s, k)[0] for s in simplices) for k in inners]
    return subsets, simplices, via


def critical_fit(outer, inner) -> float:
    """Largest s with a translate of s * inner inside outer, by HiGHS:
    maximise s subject to <a_i, t> + s h_inner(a_i) <= b_i."""
    a, b = outer.facet_normals, outer.facet_offsets
    h = (inner.vertices @ a.T).max(axis=0)
    d = outer.dim
    res = linprog(np.r_[np.zeros(d), -1.0], A_ub=np.c_[a, h], b_ub=b,
                  bounds=[(None, None)] * d + [(0, None)], method="highs")
    assert res.status == 0, res.message
    return float(res.x[d])


def perimeter_witness(n):
    """Offsets of the split-run staircase W_n, for n >= 4.

    W_n = {(0,0), (1,n-1), (n-1,1)} plus (k,k) for 2 <= k <= n-2.  Both
    axes are occupied contiguously, and the two long hull edges climb
    diagonal runs of lengths n-3 and n-1.
    """
    return [(0, 0), (1, n - 1), (n - 1, 1)] + [(k, k) for k in range(2, n - 1)]


def perimeter_record(n):
    """Hull perimeter of W_n: 4 + 2*sqrt((n-3)^2+1) + 2*sqrt((n-1)^2+1)."""
    return 4 + 2 * math.sqrt((n - 3) ** 2 + 1) + 2 * math.sqrt((n - 1) ** 2 + 1)


def brute_max_hull(n, objective):
    """Best hull area or perimeter of n axis-contiguous unit squares in the n x n grid.

    Returns (value, offsets) for the first maximizer in row-major cell
    order (`itertools.combinations` of `itertools.product` cells), a
    placement replacing the best so far only when it beats it by more
    than 1e-9.  Shares no code with nonsep: a set-based contiguity test
    per axis and scipy's ConvexHull, whose `volume` is the area and whose
    `area` is the perimeter in the plane.  The grid loses nothing, since
    n contiguous slabs span at most n.  Pure Python: n = 5 takes about
    half a second, n = 6 about 14 s.
    """
    def contiguous(vals):
        occupied = set(vals)
        return max(occupied) - min(occupied) + 1 == len(occupied)

    measure = {"area": "volume", "perimeter": "area"}[objective]
    best, best_offsets = -1.0, None
    cells = list(itertools.product(range(n), repeat=2))
    for combo in itertools.combinations(cells, n):
        xs, ys = zip(*combo)
        if not (contiguous(xs) and contiguous(ys)):
            continue
        pts = [(x + dx, y + dy) for x, y in combo for dx in (0, 1) for dy in (0, 1)]
        value = getattr(ConvexHull(pts), measure)
        if value > best + 1e-9:
            best, best_offsets = value, [list(c) for c in combo]
    return best, best_offsets


def _monotone_chain(seq, start=()):
    # one chain of Andrew's algorithm after `start`; drops collinear points
    out = list(start)
    for p in seq:
        while len(out) >= 2:
            ax, ay = out[-2]
            bx, by = out[-1]
            if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                break
            out.pop()
        out.append(p)
    return out


def hull_2d_oracle(points):
    """Convex hull of integer points by Andrew's monotone chain over all of
    them, sorted: counter-clockwise from the lexicographically smallest,
    collinear points dropped."""
    pts = sorted(set(map(tuple, points)))
    lower = _monotone_chain(pts)
    upper = _monotone_chain(reversed(pts))
    return lower[:-1] + upper[:-1]


def cell_corners(cells):
    """The four corners of every unit cell (x, y)."""
    return [(x + dx, y + dy) for x, y in cells for dx in (0, 1) for dy in (0, 1)]


def _oracle_area(h):
    twice = 0
    for (x1, y1), (x2, y2) in zip(h, h[1:] + h[:1]):
        twice += x1 * y2 - x2 * y1
    return twice / 2.0


def _oracle_perimeter(h):
    per = 0.0
    for (x1, y1), (x2, y2) in zip(h, h[1:] + h[:1]):
        per += math.hypot(x2 - x1, y2 - y1)
    return per


ORACLE_OBJECTIVES = {"area": _oracle_area, "perimeter": _oracle_perimeter}


def permutation_max_oracle(n, objective):
    """Best permutation placement {(i, p(i))} by hull area or perimeter.

    The first permutation in lexicographic order beating the best so far
    by more than 1e-9 wins; each hull comes from `hull_2d_oracle` on all
    4n corners.  Returns (value, offsets).
    """
    value = ORACLE_OBJECTIVES[objective]
    best, best_perm = -1.0, None
    for perm in itertools.permutations(range(n)):
        v = value(hull_2d_oracle(cell_corners(enumerate(perm))))
        if v > best + 1e-9:
            best, best_perm = v, perm
    return best, [[i, y] for i, y in enumerate(best_perm)]


def permutation_walk_max(n, objective):
    """The answer of `permutation_max_oracle`, from the walk
    `nonsep.cubes.exhaustive_max` makes but without its symmetry pruning:
    about 0.35 s at n = 8, where the corner-hull oracle takes about 2.5 s.

    The walk visits all n! permutations in lexicographic order, depth
    first: placing p(x) closes corner column x, whose lowest corner is
    min(p(x-1), p(x)) and highest max(p(x-1), p(x)) + 1, and pushes those
    onto copies of the lower and upper chain stacks (the upper one as
    (x, -top), so both chains turn the same way).  A leaf closes column n
    and scores the lower chain followed by the reversed upper one.
    """
    value = ORACLE_OBJECTIVES[objective]
    best = [-1.0, None]

    def grow(perm, free, low, top):
        x = len(perm)
        for j, y in enumerate(free or perm[-1:]):
            p = perm[-1] if perm else y
            lo = _monotone_chain(((x, min(p, y)),), low)
            up = _monotone_chain(((x, -1 - max(p, y)),), top)
            if free:
                grow(perm + (y,), free[:j] + free[j + 1:], lo, up)
                continue
            v = value(lo + [(c, -t) for c, t in reversed(up)])
            if v > best[0] + 1e-9:
                best[:] = v, perm

    grow((), tuple(range(n)), [], [])
    return best[0], [[i, y] for i, y in enumerate(best[1])]


def dihedral_first_entries(perm):
    """First entries of the 8 images of the placement {(i, perm[i])} under
    the symmetries of its n-box, from the cells themselves."""
    n = len(perm)
    firsts = []
    for flip_x, flip_y, swap in itertools.product((False, True), repeat=3):
        image = {}
        for x, y in enumerate(perm):
            x, y = (n - 1 - x if flip_x else x), (n - 1 - y if flip_y else y)
            x, y = (y, x) if swap else (x, y)
            image[x] = y
        firsts.append(image[0])
    return firsts


def shadow_normalize_oracle(f, objective="area"):
    """Shadow normalization that builds, checks and scores a whole family
    per move.  In the plane it scores the family with `hull_2d_oracle` on
    its corners; the d = 3 `volume` scores the validated
    `Polytope.from_vertices` hull of its corners with `measure`.

    Same rule as `nonsep.cubes.shadow_normalize`: each round moves the
    first row sharing its slab on the first deficient axis to the low end
    of that axis, or to the high end when that scores more than 1e-12
    above the low end; the better end never scores more than 1e-9 below
    the current family.  Returns the normalized offsets as a list.
    """
    from nonsep.cubes import IntegerCubeFamily, cube_is_wns
    from nonsep.polytope import Polytope, measure

    def score(fam):
        if objective == "volume":
            hull = Polytope.from_vertices(fam.corners().astype(float))
            return measure(hull)
        return ORACLE_OBJECTIVES[objective](hull_2d_oracle(map(tuple, fam.corners().tolist())))

    assert f.dim == (3 if objective == "volume" else 2) and cube_is_wns(f)
    val = score(f)
    cur = np.array(f.offsets)
    n = cur.shape[0]
    while True:
        lo = cur.min(axis=0)
        hi = cur.max(axis=0)
        deficient = [j for j in range(cur.shape[1]) if hi[j] - lo[j] + 1 < n]
        if not deficient:
            break
        j = deficient[0]
        col = cur[:, j].tolist()
        i = next(i for i in range(n) if col.count(col[i]) >= 2)
        ends = []
        for target in (lo[j] - 1, hi[j] + 1):
            cand = cur.copy()
            cand[i, j] = target
            fam = IntegerCubeFamily(cand)
            assert cube_is_wns(fam)
            ends.append((score(fam), cand))
        best = ends[1] if ends[1][0] > ends[0][0] + 1e-12 else ends[0]
        assert best[0] >= val - 1e-9
        val, cur = best
    return (cur - cur.min(axis=0)).tolist()


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        from nonsep.errors import InputError

        if self.hi < self.lo:
            raise InputError("interval with hi < lo")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def project_member(family, i, u):
    """Projection of member i onto the line through a unit direction u."""
    from nonsep import tolerances
    from nonsep.errors import InputError

    u = np.asarray(u, dtype=float)
    n = np.linalg.norm(u)
    if n <= tolerances.GEOM:
        raise InputError("zero direction")
    u = u / n
    mid = float(family.translations[i] @ u)
    tau = float(family.ratios[i])
    return Interval(mid - tau * family.base.support(-u),
                    mid + tau * family.base.support(u))


def _pair_ball(p, r, i, j):
    gap = p[j] - p[i]
    dist = float(np.linalg.norm(gap))
    if dist <= 1e-14:
        return None
    t = 0.5 * (dist + r[j] - r[i])
    if t < 0.0 or t > dist:
        return None
    return p[i] + (t / dist) * gap, t + r[i]


def _newton_ball(p, r, idx):
    # equalize |c - p_i| + r_i over the subset inside its affine hull by
    # damped Newton steps
    sub, rs = p[list(idx)], r[list(idx)]
    base = sub[0]
    q, rr = np.linalg.qr((sub[1:] - base).T)
    if np.abs(np.diag(rr)).min() < 1e-10:
        return None
    z = q.T @ (sub.mean(axis=0) - base)
    for _ in range(120):
        diff = base + q @ z - sub
        dist = np.linalg.norm(diff, axis=1)
        if dist.min() < 1e-12:
            return None
        g = dist + rs
        res = g[1:] - g[0]
        if np.abs(res).max() < 1e-12:
            return base + q @ z, float(g.mean())
        grads = (diff / dist[:, None]) @ q
        try:
            step = np.linalg.solve(grads[1:] - grads[0], -res)
        except np.linalg.LinAlgError:
            return None
        scale = 1.0
        while scale > 1e-6:
            cand = z + scale * step
            gc = np.linalg.norm(base + q @ cand - sub, axis=1) + rs
            if float(np.abs(gc[1:] - gc[0]).max()) < float(np.abs(res).max()):
                z = cand
                break
            scale *= 0.5
        else:
            return None
    return None


def enclosing_ball_oracle(centers, radii):
    """Smallest ball enclosing balls, by trying every subset of at most d+1.

    Each subset's equal-reach center comes from a closed form (one or two
    balls) or damped Newton inside its affine hull (more); the smallest
    candidate enclosing every ball within 1e-9 wins.  O(n^{d+2}), so
    only for small families.
    """
    p = np.atleast_2d(np.asarray(centers, dtype=float))
    r = np.asarray(radii, dtype=float)
    best = None
    for k in range(1, min(r.size, p.shape[1] + 1) + 1):
        for idx in itertools.combinations(range(r.size), k):
            if k == 1:
                cand = (p[idx[0]], float(r[idx[0]]))
            elif k == 2:
                cand = _pair_ball(p, r, *idx)
            else:
                cand = _newton_ball(p, r, idx)
            if cand is None:
                continue
            c, rad = cand
            if (np.linalg.norm(p - c, axis=1) + r).max() > rad + 1e-9:
                continue
            if best is None or rad < best[1]:
                best = (np.asarray(c, dtype=float), float(rad))
    return best


def summand_lp_oracle(q, k):
    """`covering.is_summand` deciding every edge by its feasibility LP, with
    no witness tried first: (bool, failing edge direction or None)."""
    from nonsep import lp, tolerances
    from nonsep.polytope import edges

    ak, bk = k.facet_normals, k.facet_offsets
    tight = tolerances.tight(float(np.abs(q.facet_offsets).max()))
    for (i, j) in edges(q):
        vi, vj = q.vertices[i], q.vertices[j]
        evec = vj - vi
        slack_i = q.facet_offsets - q.facet_normals @ vi
        slack_j = q.facet_offsets - q.facet_normals @ vj
        incident = (slack_i <= tight) & (slack_j <= tight)
        u = q.facet_normals[incident].mean(axis=0)
        u /= np.linalg.norm(u)
        h = k.support(u)
        ftol = tolerances.tight(abs(h))
        a_ub = np.vstack([ak, ak, -u[None, :], -u[None, :]])
        b_ub = np.concatenate([bk, bk - ak @ evec,
                               [-h + ftol], [-h + ftol + u @ evec]])
        if not lp.solve(np.zeros(q.dim), a_ub, b_ub).optimal:
            return False, evec / np.linalg.norm(evec)
    return True, None


def ball_certified_lp_oracle(c, rad, p, r) -> bool:
    """`balls._certified` deciding by an LP alone, with no least-squares
    witness tried first: the standard-form system y >= 0, sum(y) == 1,
    u.T y == 0 on the tableau kernel, whose free dual `_certified` poses."""
    from nonsep import lp, tolerances

    g = np.linalg.norm(p - c, axis=1) + r
    active = np.flatnonzero(g >= rad - tolerances.active(rad))
    diff = c - p[active]
    dist = np.linalg.norm(diff, axis=1)
    if dist.min() < tolerances.CENTRE_COINCIDE:
        return True
    u = diff / dist[:, None]
    a_eq = np.vstack([u.T, np.ones((1, active.size))])
    b_eq = np.concatenate([np.zeros(c.size), [1.0]])
    return lp._standard(np.zeros(active.size), a_eq, b_eq,
                        tolerances.SUBGRADIENT)[0] == "optimal"


def min_gauge_dist_oracle(body, ys, zs):
    """`lattice._min_gauge_dist` reducing a (ys, zs, facets) block over its
    last axis, chunked over ys at the same cap."""
    scaled = (body.facet_normals / body.facet_offsets[:, None]).T
    zdot = zs @ scaled
    chunk = max(1, int(4_000_000 / max(1, zdot.size)))
    out = np.empty(len(ys))
    for s in range(0, len(ys), chunk):
        ydot = ys[s:s + chunk] @ scaled
        per = ydot[:, None, :] - zdot[None, :, :]
        out[s:s + chunk] = np.maximum(per.max(axis=2), 0.0).min(axis=1)
    return out


def kwip_flats_lp_oracle(family, points, frames):
    """`family._kwip_flats` solving one flat LP per member for every sample,
    with no point settled on its slacks first: the index of the first flat
    points[i] + frames[i] s that misses every member, or None."""
    from nonsep import lp

    a, offsets = family.base.facet_normals, family.member_offsets()
    for i, (p, w) in enumerate(zip(points, frames)):
        aw, slack = a @ w, offsets - a @ p
        if not any(lp.solve(np.zeros(w.shape[1]), aw, row).optimal for row in slack):
            return i
    return None


# -- the dense simplex kernel of `nonsep.lp` as it stood before its pivots ran
# in place, verbatim: a row-by-row cost vector, an `np.outer` update, a
# masked ratio test, and a phase 2 on a copied tableau.  Patched in for
# `lp._solve_dual`, it is the oracle the in-place kernel must match bit for
# bit, pivot for pivot.  The helpers it shares with `lp` did not change.

from nonsep import tolerances  # noqa: E402
from nonsep.errors import GeometryError  # noqa: E402
from nonsep.lp import (_BLAND_AFTER, _MAX_ITER, _PIVOT_EPS,  # noqa: E402
                       _farkas, _ray, _unit_rows)


def _solve_dual(c, a, b, tol):
    """min c@x subject to a@x <= b, x free, through the standard-form dual.

    Returns (status, x, farkas): x when "optimal"; when "infeasible", the
    checked Farkas vector (`_farkas`) or None."""
    n = a.shape[1]
    status, y, basis, keep = _standard(b, a.T, -c, tol)
    if status == "infeasible":
        # the primal is unbounded once feasible: x = 0 is when b >= 0, else
        # the dual of the zero objective decides, as for a feasibility LP
        if (b >= 0).all():
            return "unbounded", None, None
        status, y = _standard(b, a.T, np.zeros(n), tol)[:2]
        if status != "unbounded":
            return "unbounded", None, None
    if status == "unbounded":
        # y is the dual's ray: y >= 0, y@a == 0, y@b < 0
        return "infeasible", None, _farkas(a, b, y)
    if not b.any():
        return "optimal", np.zeros(n), None  # feasible, and b@y == 0
    unit, rhs = _unit_rows(a, b)
    rows = np.sort(basis)
    x = np.zeros(n)
    try:
        x[keep] = np.linalg.solve(unit[np.ix_(rows, keep)], rhs[rows])
    except np.linalg.LinAlgError as exc:
        raise GeometryError("dual LP basis is singular") from exc
    scale = max(float(np.abs(b).max()), float((np.abs(a) @ np.abs(x)).max()))
    gap = abs(float(c @ x + b @ y))
    if (a @ x - b).max() > tolerances.feas(scale) or gap > tolerances.feas(
            max(scale, float(np.abs(b) @ y))):
        raise GeometryError("dual LP solution failed its certificate")
    return "optimal", x, None


def _standard(c, a, b, tol):
    """min c@y, a@y == b, y >= 0; also the optimal basis and the rows it
    kept.  "unbounded" comes with its ray in place of y."""
    rows, rhs = _unit_rows(a, b)
    rows[rhs < 0] *= -1.0
    return _two_phase(rows, np.abs(rhs), c, tol)


def _two_phase(A, b, c, tol):
    m, n = A.shape
    T = np.empty((m, n + m + 1))
    T[:, :n] = A
    T[:, n:n + m] = np.eye(m)
    T[:, -1] = b
    basis = list(range(n, n + m))

    # Phase 1: reduced costs for min(sum of artificials).
    z = np.zeros(n + m + 1)
    z[n:n + m] = 1.0
    for r in range(m):
        z -= T[r]
    _iterate(T, z, basis, n + m, tol)
    if -z[-1] > tol * max(1.0, float(np.abs(b).max(initial=0.0))):
        return "infeasible", None, None, None

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for r in range(m):
        if basis[r] >= n:
            j = int(np.argmax(np.abs(T[r, :n])))
            if abs(T[r, j]) <= _PIVOT_EPS:
                continue
            _pivot(T, z, basis, r, j)
        keep.append(r)
    T = np.hstack([T[keep, :n], T[keep, -1:]])
    basis = [basis[r] for r in keep]

    # Phase 2 with the true costs.
    z2 = np.concatenate([c, [0.0]])
    for r, j in enumerate(basis):
        if z2[j] != 0.0:
            z2 -= z2[j] * T[r]
    j = _iterate(T, z2, basis, n, tol)
    if j is not None:
        return "unbounded", _ray(A, keep, basis, j, T[:, j]), None, None
    x = np.zeros(n)
    x[basis] = T[:, -1]
    return "optimal", x, basis, keep


def _iterate(T, z, basis, ncols, tol):
    """Pivot to optimality (None) or to a column with no pivot (returned)."""
    for it in range(_MAX_ITER):
        if it < _BLAND_AFTER:
            j = int(np.argmin(z[:ncols]))
            if z[j] >= -tol:
                return None
        else:
            # Bland's rule: slower, cycle-free.
            negs = np.nonzero(z[:ncols] < -tol)[0]
            if negs.size == 0:
                return None
            j = int(negs[0])
        col = T[:, j]
        pivotable = col > _PIVOT_EPS
        if not pivotable.any():
            return j
        ratios = np.full(col.size, np.inf)
        ratios[pivotable] = T[pivotable, -1] / col[pivotable]
        r = int(np.argmin(ratios))
        best = ratios[r]
        ties = np.nonzero(ratios <= best + 1e-12)[0]
        if ties.size > 1:
            r = int(min(ties, key=lambda i: basis[i]))
        _pivot(T, z, basis, r, j)
    raise GeometryError("simplex iteration limit reached")


def _pivot(T, z, basis, r, j):
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    z -= z[j] * T[r]
    basis[r] = j


# -- the `nonsep.balls` circumradius solver as it stood before its candidates
# ran in Python floats, verbatim but for a failure message with no bound
# pair: numpy `_reach` per candidate, every subset of at most d + 1 balls
# solved, `np.union1d` working sets and a certificate stacked by `vstack`.
# The current solver must match it bit for bit.

from nonsep import lp  # noqa: E402


def _ref_reach(c, centers, radii):
    return np.linalg.norm(centers - c, axis=1) + radii


def _ref_pair_candidate(p, r, i, j):
    gap = p[j] - p[i]
    dist = float(np.linalg.norm(gap))
    if dist <= tolerances.PAIR_COINCIDE:
        return None
    t = 0.5 * (dist + r[j] - r[i])
    if t < 0.0 or t > dist:
        return None  # one ball swallows the other; a singleton covers this
    return p[i] + (t / dist) * gap, t + r[i]


def _ref_subset_candidate(p, r, idx):
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


def _ref_enclosing_candidate(p, r):
    best = None
    for k in range(1, min(r.size, p.shape[1] + 1) + 1):
        for idx in itertools.combinations(range(r.size), k):
            if k == 1:
                cand = (p[idx[0]], float(r[idx[0]]))
            elif k == 2:
                cand = _ref_pair_candidate(p, r, *idx)
            else:
                cand = _ref_subset_candidate(p, r, list(idx))
            if cand is None:
                continue
            c, rad = cand
            if _ref_reach(c, p, r).max() > rad + tolerances.enclose(rad):
                continue
            if best is None or rad < best[1]:
                best = (c, float(rad))
    return best


def _ref_certified(c, rad, p, r) -> bool:
    g = _ref_reach(c, p, r)
    active = np.flatnonzero(g >= rad - tolerances.active(rad))
    diff = c - p[active]
    dist = np.linalg.norm(diff, axis=1)
    if dist.min() < tolerances.CENTRE_COINCIDE:
        return True
    u = diff / dist[:, None]
    a_eq = np.vstack([u.T, np.ones((1, active.size))])
    b_eq = np.concatenate([np.zeros(c.size), [1.0]])
    w = np.linalg.lstsq(a_eq, b_eq, rcond=None)[0]
    if lp.witnessed(np.vstack([a_eq, -a_eq, -np.eye(w.size)]),
                    np.concatenate([b_eq, -b_eq, np.zeros(w.size)]), w):
        return True
    return lp.solve(b_eq, a_eq.T, np.zeros(active.size),
                    tol=tolerances.SUBGRADIENT).optimal


def ball_circumradius_reference(f):
    """`balls.ball_circumradius` before its float candidates: the same
    (center, radius), or GeometryError("... lost the optimum ...")."""
    p, r = f.centers, f.radii
    big = int(np.argmax(r))
    work = np.union1d([big], [int(np.argmax(_ref_reach(p[big], p, r)))])
    for _ in range(2 * f.n + 16):
        best = _ref_enclosing_candidate(p[work], r[work])
        if best is None:
            break
        c, rad = best
        g = _ref_reach(c, p, r)
        far = int(np.argmax(g))
        if g[far] <= rad + tolerances.enclose(rad):
            if _ref_certified(c, rad, p, r):
                return best
            break
        work = np.union1d(work[g[work] >= rad - tolerances.active(rad)], [far])
    raise GeometryError("circumradius solver lost the optimum")
