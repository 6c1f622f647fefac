"""The benchmark's four workloads: seeded inputs, operations and checks.

`build(name, seed, root, out_dir)` makes a workload's inputs from the
seed and returns its operation list.  An operation calls one public function of `nonsep`
and nothing else, so timing it times the program; its check compares the
output against `oracles`, which shares no code with `nonsep`.

The shape of every workload (dimensions, bases, member counts, the NS /
separable mix, sample counts) is fixed; the seed only moves the geometry.
Separable families are built so that `is_ns` finds their split after a
fixed number of LPs, which keeps the cost of a pass the same from seed to
seed.  Every verdict has a margin: NS families overlap, separable ones
leave a gap, and weak-separability verdicts are redrawn until every facet
axis is clearly open or clearly closed.

Calls go through module attributes (`family.is_ns`, not an imported
name), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles as orc
from oracles import require
from nonsep import asymmetry, balls, cli, covering, cubes, family, lattice, polytope


@dataclass
class Op:
    kind: str                       # the nonsep function this operation calls
    call: Callable[[], Any]
    check: Callable[[Any], None]    # raises oracles.CheckError on a wrong output


@dataclass
class Body:
    """A base polytope: our own arrays for the checks, nonsep's for the calls."""

    kind: str
    verts: np.ndarray
    a: np.ndarray
    b: np.ndarray
    poly: Any

    @property
    def dim(self) -> int:
        return self.verts.shape[1]

    @functools.cached_property
    def sigma(self) -> float:
        """Minkowski asymmetry by HiGHS, for the checks."""
        return orc.asymmetry(self.a, self.b, self.verts)


def body(kind: str, points) -> Body:
    verts, a, b = orc.hull_facets(points)
    return Body(kind, verts, a, b, polytope.Polytope.from_vertices(verts))


def rotation(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def unit(rng, d: int) -> np.ndarray:
    u = rng.standard_normal(d)
    return u / np.linalg.norm(u)


def reach(bd: Body, centre, u) -> float:
    """Distance from `centre` to the boundary of the base along unit u."""
    rate = bd.a @ u / (bd.b - bd.a @ centre)
    return 1.0 / rate.max()


def chain(rng, bd: Body, n: int):
    """n members, each overlapping the last: a connected union, hence NS."""
    d = bd.dim
    c = bd.verts.mean(axis=0)
    taus = rng.uniform(0.5, 2.0, size=n)
    ys = np.zeros((n, d))
    for i in range(1, n):
        u = unit(rng, d)
        step = 0.45 * (taus[i - 1] * reach(bd, c, u) + taus[i] * reach(bd, c, -u))
        ys[i] = ys[i - 1] + step * u
    return ys - np.outer(taus, c), taus


def axis_margin(bd: Body, xs, taus) -> float:
    """Widest open gap over the facet axes; negative when all overlap."""
    worst = -math.inf
    for u in orc.facet_axes(bd.a):
        lo, hi = orc.member_intervals(bd.verts, xs, taus, u)
        order = np.argsort(lo)
        reach_hi = np.maximum.accumulate(hi[order])
        worst = max(worst, float((lo[order][1:] - reach_hi[:-1]).max()))
    return worst


def separated(rng, bd: Body, n: int, m: int):
    """Two NS clusters with a clear gap; members 0..m-1 form the second.

    `is_ns` scans bipartitions in mask order and the only separating
    split is the cluster split, so it stops after exactly 2^m - 1 LPs.
    Redraws until the facet-axis verdict has a margin either way.
    """
    while True:
        xb, tb = chain(rng, bd, m)
        xa, ta = chain(rng, bd, n - m)
        v = unit(rng, bd.dim)
        pa = ((xa[:, None] + ta[:, None, None] * bd.verts) @ v).max()
        pb = ((xb[:, None] + tb[:, None, None] * bd.verts) @ v).min()
        width = float(np.ptp(bd.verts @ v))
        xb = xb + (pa - pb + 0.3 * width * float(np.mean(ta))) * v
        xs, taus = np.vstack([xb, xa]), np.concatenate([tb, ta])
        if abs(axis_margin(bd, xs, taus)) > 0.05 * width:
            return xs, taus


def member_verts(bd: Body, xs, taus) -> list[np.ndarray]:
    return [x + t * bd.verts for x, t in zip(xs, taus)]


def members_hrep(bd: Body, xs, taus) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(bd.a, t * bd.b + bd.a @ x) for x, t in zip(xs, taus)]


# ---------------------------------------------------------------------------
# bases


SQUARE = np.array(list(itertools.product((-0.5, 0.5), repeat=2)))
CUBE = np.array(list(itertools.product((-0.5, 0.5), repeat=3)))


def simplex_pts(rng, d):
    while True:
        pts = rng.standard_normal((d + 1, d))
        if abs(np.linalg.det(pts[1:] - pts[0])) > 0.3:
            return pts


def box_pts(rng, d):
    h = rng.uniform(0.4, 1.6, size=d)
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d))) * h


def cross_pts(rng, d):
    r = rng.uniform(0.5, 1.5)
    return np.vstack([r * np.eye(d), -r * np.eye(d)]) @ rotation(rng, d)


def regular_polygon(k):
    ang = 2 * math.pi * np.arange(k) / k
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


PHI = (1 + 5 ** 0.5) / 2
# one vertex of each antipodal pair of the icosahedron
ICOSA_HALF = np.array([p for s in (1, -1) for p in
                       ((0, 1, s * PHI), (1, s * PHI, 0), (s * PHI, 0, 1))]) / math.hypot(1, PHI)
BIPYRAMID = np.vstack([np.hstack([regular_polygon(3), np.zeros((3, 1))]),
                       [[0, 0, 1], [0, 0, -1]]])


def jitter(rng, pts, amount: float):
    """Radially jittered, randomly turned copy: small enough to keep the
    combinatorial type, so the cost of the body does not depend on the seed."""
    pts = pts * rng.uniform(1 - amount, 1 + amount, size=(len(pts), 1))
    return pts @ rotation(rng, pts.shape[1])


def symmetric_jitter(rng, half, amount: float):
    pts = jitter(rng, half, amount)
    return np.vstack([pts, -pts])


def sphere_pts(rng, d, k):
    """A fixed k-point configuration on the sphere, randomly turned: points on
    a Fibonacci spiral for d = 3, a fixed random draw otherwise."""
    if d == 3:
        i = np.arange(k) + 0.5
        z = 1.0 - 2.0 * i / k
        phi = 2 * math.pi * PHI * i
        r = np.sqrt(1.0 - z * z)
        pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    else:
        pts = np.random.default_rng(k).standard_normal((k, d))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts @ rotation(rng, d)


def polygon_pts(rng, k):
    """A regular k-gon with jittered radii, randomly turned: always k vertices."""
    return jitter(rng, regular_polygon(k), 0.1)


# ---------------------------------------------------------------------------
# cover-certify


def _covers(rng) -> list[Op]:
    # (kind, point maker, members)
    plan = [("simplex", lambda d=d: simplex_pts(rng, d), n)
            for d, n in ((2, 4), (2, 7), (3, 4), (3, 6), (4, 3), (4, 5))]
    plan += [("symmetric", lambda d=d: box_pts(rng, d), n)
             for d, n in ((2, 5), (3, 4), (4, 3))]
    plan += [("symmetric", lambda d=d: cross_pts(rng, d), n)
             for d, n in ((2, 6), (3, 5), (4, 3))]
    plan += [("symmetric", lambda: symmetric_jitter(rng, regular_polygon(8)[:4], 0.05), 6),
             ("symmetric", lambda: symmetric_jitter(rng, ICOSA_HALF, 0.05), 4),
             ("general", lambda: polygon_pts(rng, 7), 5),
             ("general", lambda: jitter(rng, np.vstack([ICOSA_HALF, -ICOSA_HALF]), 0.05), 4),
             ("sphere", lambda: sphere_pts(rng, 3, 60), 4),
             ("sphere", lambda: sphere_pts(rng, 3, 130), 3),
             ("sphere", lambda: sphere_pts(rng, 4, 30), 3)]
    ops: list[Op] = []
    for kind, make, n in plan:
        bd = body(kind, make())
        ops += _base_ops(rng, bd)
        xs, taus = chain(rng, bd, n)
        ops += _cover_ops(bd, xs, taus)
    for i, d in enumerate((2, 2, 2, 2, 3, 3, 3, 3)):
        ops += _translate_ops(rng, d, fits=i % 2 == 0)
    return ops


def _base_ops(rng, bd: Body) -> list[Op]:
    d = bd.dim
    known = {"simplex": float(d), "symmetric": 1.0}.get(bd.kind)

    def check_sigma(res):
        want = bd.sigma
        require(abs(res.sigma - want) <= 1e-6 * want,
                f"{res.method} sigma {res.sigma!r}, HiGHS {want!r}")
        if known is not None:
            require(abs(res.sigma - known) <= 1e-6, f"sigma {res.sigma!r}, theory {known}")
        # the centre must witness the value: K - q inside -sigma (K - q)
        q = np.asarray(res.center, float)
        slack = (bd.a @ ((1 + res.sigma) * q) - res.sigma * bd.b
                 - (bd.verts @ bd.a.T).min(axis=0))
        require(slack.max() <= 1e-6, f"centre misses the reflection by {slack.max():.3g}")

    ops = [Op("sigma_lp", lambda: asymmetry.sigma_lp(bd.poly), check_sigma)]
    # Not on simplices: there the bisection ends up to 2.3e-6 below d,
    # by an amount that depends on the seed (see CHANGES.md).
    if len(bd.b) <= 60 and bd.kind != "simplex":
        ops.append(Op("sigma_bisection", lambda: asymmetry.sigma_bisection(bd.poly),
                      check_sigma))
    if d <= 3 and bd.kind != "sphere":
        seed = int(rng.integers(1 << 30))
        ops.append(Op("genericize",
                      lambda: polytope.genericize(bd.poly, 1e-3, seed=seed),
                      lambda q: _check_generic(bd, q, 1e-3)))
    return ops


def _check_generic(bd: Body, q, eps: float) -> None:
    a, b = np.asarray(q.facet_normals), np.asarray(q.facet_offsets)
    require(len(b) == len(bd.b), f"{len(b)} facets after tilting, {len(bd.b)} before")
    require(orc.is_generic(a), "the tilted body is not generic")
    require((a @ bd.verts.T - b[:, None]).max() <= 1e-9,
            "the tilted body does not contain the original")
    angles = np.arccos(np.clip(a @ bd.a.T, -1.0, 1.0).max(axis=1))
    require(angles.max() <= eps + 1e-12, f"a normal turned by {angles.max():.3g} > {eps}")


def _cover_ops(bd: Body, xs, taus) -> list[Op]:
    d = bd.dim
    fam = family.HomotheticFamily(bd.poly, xs, taus)
    lam_lp = functools.cache(lambda: orc.covering_lambda(bd.a, bd.b, xs, taus))
    bound = {"simplex": (d + 1) / 2, "symmetric": 1.0}

    def check_cover(res, lam=None):
        require(res.certified, f"cover at lambda {res.lam!r} not certified")
        if lam is not None:
            require(abs(res.lam - lam) <= 1e-6 * max(1.0, lam),
                    f"lambda {res.lam!r}, expected {lam!r}")
        orc.check_cover(res.t, res.lam, bd.verts, bd.a, bd.b, xs, taus)

    def check_min(res):
        check_cover(res, lam_lp())
        limit = bound.get(bd.kind, (bd.sigma + 1) / 2)
        require(res.lam <= limit + 1e-7, f"lambda {res.lam!r} above the bound {limit}")

    ops = [
        Op("is_wns", lambda: family.is_wns(fam),
           lambda r: orc.check_wns(r[0], r[1], bd.verts, bd.a, xs, taus, ns=True)),
        Op("lambda_min", lambda: covering.lambda_min(fam), check_min),
        Op("sigma_cover", lambda: covering.sigma_cover(fam),
           lambda r: check_cover(r, (bd.sigma + 1) / 2)),
    ]
    if bd.kind == "symmetric":
        ops.append(Op("weighted_cover", lambda: covering.weighted_cover(fam),
                      lambda r: check_cover(r, 1.0)))
    return ops


def _translate_ops(rng, d: int, fits: bool) -> list[Op]:
    """A generic outer body and an inner one scaled 20 % off the critical fit.

    The outer body is a jittered pentagon or triangular bipyramid, so its
    circumscribed simplices, which `lutwak_check` walks, stay as many.
    """
    shape = regular_polygon(5) if d == 2 else BIPYRAMID
    outer = body("general", (shape + rng.uniform(-0.1, 0.1, shape.shape)) @ rotation(rng, d))
    pts = simplex_pts(rng, d)
    s = orc.fit_scale(outer.a, outer.b, orc.hull_facets(pts)[0])
    inner = body("general", pts * s * (0.8 if fits else 1.25))

    def check_lutwak(r):
        consistent, detail = r
        require(consistent and detail["direct"] == detail["via_simplices"] == fits,
                f"lutwak_check {detail}, HiGHS fit {fits}")

    return [
        Op("contains_translate",
           lambda: polytope.contains_translate(outer.poly, inner.poly),
           lambda r: orc.check_translate(r[0], r[1], outer.a, outer.b, inner.verts, fits)),
        Op("lutwak_check", lambda: covering.lutwak_check(outer.poly, inner.poly),
           check_lutwak),
    ]


# ---------------------------------------------------------------------------
# ns-decide


def _ns_decide(rng) -> list[Op]:
    square = lambda: body("square", SQUARE)
    triangle = lambda: body("triangle", simplex_pts(rng, 2))
    hexagon = lambda: body("hexagon", polygon_pts(rng, 6))
    cube3 = lambda: body("cube", CUBE)
    tetra = lambda: body("tetra", simplex_pts(rng, 3))
    planar = itertools.cycle([square, triangle, hexagon])
    plan = [(next(planar), n, None)
            for n in (4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 8, 8, 9, 10)]
    plan += [(next(planar), n, m) for n in range(4, 13) for m in range(1, 6) if m < n]
    plan += [(cube3, 5, None), (tetra, 5, None), (cube3, 6, None), (tetra, 6, 1),
             (cube3, 6, 2), (cube3, 7, 2), (tetra, 7, 3), (cube3, 8, 3)]
    ops: list[Op] = []
    separable = 0
    for make, n, m in plan:
        # is_wns on every NS family and on every third separable one, so
        # that the median operation is an is_ns decision
        separable += m is not None
        ops += _ns_ops(rng, make(), n, m, wns=m is None or separable % 3 == 0)
    return ops


def _ns_ops(rng, bd: Body, n: int, m: int | None, wns: bool) -> list[Op]:
    """is_ns (and is_wns) on one family: NS (m is None) or split off 0..m-1."""
    xs, taus = chain(rng, bd, n) if m is None else separated(rng, bd, n, m)
    fam = family.HomotheticFamily(bd.poly, xs, taus)
    mv = member_verts(bd, xs, taus)
    oracle = orc.planar_separable if bd.dim == 2 else orc.bipartition_separable

    @functools.cache
    def ns_truth():
        truth = not oracle(mv)
        require(truth == (m is None), "oracle disagrees with the construction")
        return truth

    ops = [Op("is_ns", lambda: family.is_ns(fam),
              lambda r: orc.check_ns(r[0], r[1], mv, ns_truth()))]
    if wns:
        ops.append(Op("is_wns", lambda: family.is_wns(fam),
                      lambda r: orc.check_wns(r[0], r[1], bd.verts, bd.a, xs, taus,
                                              ns_truth())))
    return ops


# ---------------------------------------------------------------------------
# cube-extremals


def random_cells(rng, n: int, extents) -> np.ndarray:
    """n distinct cells whose every axis fills 0..extent-1 contiguously."""
    while True:
        cols = []
        for k in extents:
            vals = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
            cols.append(rng.permutation(vals))
        cells = np.stack(cols, axis=1)
        if len({tuple(c) for c in cells.tolist()}) == n:
            return cells


def _cube_extremals(rng) -> list[Op]:
    ops: list[Op] = []
    for n, objective in itertools.product((4, 5, 6), ("area", "perimeter")):
        ops.append(Op("exhaustive_max",
                      lambda n=n, o=objective: cubes.exhaustive_max(n, o),
                      lambda r, n=n, o=objective: orc.check_cube_max(
                          n, o, r[0].offsets, r[1])))
    # (members, extent x, extent y): 72 axis-non-separable planar families,
    # three of each shape, so that the slowest tenth of the operations,
    # which op_p90_ms reads, holds enough of them to vary little by seed
    shapes = [(n, kx, ky) for n in (5, 6, 7, 8, 9, 10)
              for kx, ky in ((2, n - 1), (n - 1, 2), (3, 4), (n - 2, 3))] * 3
    for i, (n, kx, ky) in enumerate(shapes):
        cells = random_cells(rng, n, (kx, ky))
        objective = ("area", "perimeter")[i % 2]
        ops += _cell_ops(cells)
        fam = cubes.IntegerCubeFamily(cells)
        ops.append(Op("shadow_normalize",
                      lambda f=fam, o=objective: cubes.shadow_normalize(f, o),
                      lambda r, c=cells, o=objective: orc.check_normalized(
                          c, r.offsets, o)))
    # 12 planar families split along an axis, 12 spatial ones of both kinds
    for n in (5, 6, 7, 8, 9, 10) * 2:
        cells = random_cells(rng, n, (3, n - 1))
        cells[cells[:, 0] == 2, 0] += int(rng.integers(1, 3))
        ops += _cell_ops(cells)
    for i, n in enumerate((4, 5, 6, 7, 8, 9) * 2):
        cells = random_cells(rng, n, (2, 3, 2))
        if i % 2:
            cells[cells[:, 1] == 0, 1] -= 2
        ops += _cell_ops(cells)
    return ops


def _cell_ops(cells) -> list[Op]:
    fam = cubes.IntegerCubeFamily(cells)
    truth = orc.cells_wns(cells)
    ops = [Op("cube_is_wns", lambda: cubes.cube_is_wns(fam),
              lambda r: require(r == truth, f"cube_is_wns says {r}, slabs say {truth}"))]
    if cells.shape[1] == 2:
        want = orc.cell_hull(cells)
        ops.append(Op("hull_metrics", lambda: cubes.hull_metrics(fam),
                      lambda r: require(np.allclose(r, want, rtol=0, atol=1e-9),
                                        f"hull_metrics {r}, ConvexHull {want}")))
    return ops


# ---------------------------------------------------------------------------
# impassable-lattice


def tower(rng, n: int):
    """Equal cubes overlapping along one axis: the union is a box."""
    tau = float(rng.uniform(0.5, 2.0))
    ys = np.zeros((n, 3))
    ys[1:, int(rng.integers(0, 3))] = np.cumsum(rng.uniform(0.2, 0.95, size=n - 1) * tau)
    return ys, np.full(n, tau)


def nested(rng, n: int, bd: Body):
    """One dominant member with the others strictly inside it."""
    c = bd.verts.mean(axis=0)
    big = float(rng.uniform(1.5, 3.0))
    xs, taus = [c - big * c], [big]
    while len(taus) < n:
        tau = float(rng.uniform(0.2, 0.5))
        x = c - tau * c + rng.uniform(-0.2, 0.2, size=3)
        if ((x + tau * bd.verts) @ bd.a.T - (big * bd.b + bd.a @ xs[0])).max() < -0.01:
            xs.append(x)
            taus.append(tau)
    return np.array(xs), np.array(taus)


def scattered(rng, n: int):
    """Equal cubes spaced out along the main diagonal: falsifiable.

    Only the size and the spacing are drawn, so the hull keeps its facet
    count and the sampling in `is_kwip_sampled` its cost and memory.
    """
    tau = float(rng.uniform(0.6, 1.2))
    ys = np.outer(np.arange(n), np.ones(3)) * tau * float(rng.uniform(2.0, 2.5))
    return ys, np.full(n, tau)


def _impassable(rng, root: Path, out_dir: Path) -> list[Op]:
    cube3 = body("cube", CUBE)
    ops: list[Op] = []
    for n in (2, 3, 4, 5, 6, 4):
        ops += _kwip_ops(rng, cube3, *tower(rng, n), impassable=True)
    for bd, n in ((cube3, 3), (body("cross", cross_pts(rng, 3)), 4),
                  (body("symmetric", symmetric_jitter(rng, ICOSA_HALF, 0.05)), 3),
                  (cube3, 5)):
        ops += _kwip_ops(rng, bd, *nested(rng, n, bd), impassable=True)
    for n in (2, 3, 2, 3):
        ops += _kwip_ops(rng, cube3, *scattered(rng, n), impassable=False)
    ops += _lattice_ops(rng)
    ops += _ball_ops(rng)
    for path in sorted((root / "demos" / "scenarios").glob("*.json")):
        ops.append(_scenario_op(path, out_dir / path.stem))
    return ops


def _kwip_ops(rng, bd: Body, xs, taus, impassable: bool) -> list[Op]:
    fam = family.HomotheticFamily(bd.poly, xs, taus)
    hrep = members_hrep(bd, xs, taus)
    pts = np.vstack(member_verts(bd, xs, taus))
    want = "not-falsified" if impassable else "falsified"

    def check_kwip(r, k):
        verdict, flat = r
        require(verdict == want, f"k={k}: {verdict}, expected {want}")
        if flat is not None:
            p, w = np.asarray(flat.point), np.asarray(flat.basis)
            misses = orc.point_misses(p, hrep) if k == 0 else orc.line_misses(p, w[:, 0], hrep)
            require(misses, f"the falsifying {k}-flat meets a member")

    def check_edges(r):
        covered, witness = r
        require(covered == impassable, f"edges_covered says {covered}")
        require(covered == orc.edges_covered(pts, hrep),
                "edge sampling disagrees with edges_covered")
        if witness is not None:
            require(orc.point_misses(np.asarray(witness), hrep),
                    "the uncovered-edge witness lies in a member")

    ops = []
    for k, samples in ((0, 2000), (1, 100_000)):
        seed = int(rng.integers(1 << 30))
        ops.append(Op("is_kwip_sampled",
                      lambda k=k, s=samples, seed=seed: family.is_kwip_sampled(
                          fam, k, samples=s, seed=seed),
                      lambda r, k=k: check_kwip(r, k)))
    ops.append(Op("edges_covered", lambda: family.edges_covered(fam), check_edges))
    if impassable:
        lam = functools.cache(lambda: orc.covering_lambda(bd.a, bd.b, xs, taus))

        def check_wip(r):
            ok, rep = r
            require(ok and rep["summand"] and rep["lambda_certified"], f"pipeline {rep}")
            require(rep["lambda"] <= 1 + 1e-7
                    and abs(rep["lambda"] - lam()) <= 1e-6 * max(1.0, lam()),
                    f"lambda {rep['lambda']!r}, HiGHS {lam()!r}")

        ops.append(Op("wip_summand_check", lambda: covering.wip_summand_check(fam),
                      check_wip))
    return ops


def _lattice_ops(rng) -> list[Op]:
    ops: list[Op] = []
    # tightness is invariant under a common rotation of body and lattice
    for verts, basis, res, width, want in (
            (SQUARE, [[1.0, 1.0], [1.0, -1.0]], 32, 0.02, 1.0),
            (np.vstack([0.5 * np.eye(2), -0.5 * np.eye(2)]), np.eye(2), 32, 0.05, 1.0),
            (np.vstack([0.5 * np.eye(3), -0.5 * np.eye(3)]), np.eye(3), 12, 0.05, 2.0)):
        for _ in range(2):
            rot = rotation(rng, len(basis))
            arr = lattice.LatticeArrangement(
                polytope.Polytope.from_vertices(verts @ rot.T),
                lattice.Lattice.from_basis(rot @ np.asarray(basis, float)))

            def check(r, width=width, want=want):
                orc.check_bracket(r[0], r[1], want)
                require(r[1] - r[0] <= width + 1e-9, f"bracket {r} wider than {width}")

            ops.append(Op("tightness", lambda a=arr, res=res, w=width: lattice.tightness(
                a, resolution=res, width=w), check))
    for i in range(30):
        d = 2 if i % 3 else 3
        while True:
            basis = rng.uniform(-1.5, 1.5, size=(d, d))
            if abs(np.linalg.det(basis)) > 0.3:
                break
        half = regular_polygon(8)[:4] if d == 2 else ICOSA_HALF
        verts = orc.hull_facets(symmetric_jitter(rng, half, 0.05))[0]
        target = float(rng.uniform(*((0.2, 0.45) if i % 2 else (0.55, 0.9))))
        verts = verts * target / orc.shortest_dual_gauge(basis, verts)
        arr = lattice.LatticeArrangement(polytope.Polytope.from_vertices(verts),
                                         lattice.Lattice.from_basis(basis))

        def check(r, target=target):
            verdict, lam1 = r
            require(verdict == (target >= 0.5), f"is_ns_lattice says {verdict} at {target}")
            require(abs(lam1 - target) <= 1e-7, f"shortest dual gauge {lam1!r}, built {target!r}")

        ops.append(Op("is_ns_lattice", lambda a=arr: lattice.is_ns_lattice(a), check))
    return ops


def _ball_ops(rng) -> list[Op]:
    # The cost of one circumradius varies twofold with the family, and the
    # median operation of the workload is one of them: 108 families keep
    # that median from moving with the seed.
    ops: list[Op] = []
    for i in range(108):
        taus = rng.uniform(0.7, 1.3, size=4 + i % 2)
        delta = float(taus[1] * 10 ** rng.uniform(-3, -1.3))
        fam = balls.stability_construction(taus, delta)
        ops.append(Op("ball_circumradius", lambda f=fam: balls.ball_circumradius(f),
                      lambda r, f=fam: orc.check_enclosing(
                          r[0], r[1], np.asarray(f.centers), np.asarray(f.radii))))
    for _ in range(3):
        taus = rng.uniform(0.7, 1.3, size=4)
        deltas = list(taus[1] * np.logspace(-1.3, -3, 9))
        fams = [balls.stability_construction(taus, d) for d in deltas]
        ops.append(Op("stability_trace",
                      lambda t=taus, ds=deltas: balls.stability_trace(t, ds),
                      lambda r, fs=fams, t=taus: _check_trace(r, fs, float(np.sum(t)))))
    return ops


def _check_trace(rows, fams, total: float) -> None:
    require(len(rows) == len(fams), "stability_trace dropped rows")
    for (delta, deficit, deviation), f in zip(rows, fams):
        c, r = np.asarray(f.centers), np.asarray(f.radii)
        rad = total - deficit
        upper = float((np.linalg.norm(c - c.mean(axis=0), axis=1) + r).max())
        lower = max(0.5 * (np.linalg.norm(c[i] - c[j]) + r[i] + r[j])
                    for i, j in itertools.combinations(range(len(r)), 2))
        require(lower - 1e-7 <= rad <= upper + 1e-7,
                f"radius {rad!r} outside [{lower!r}, {upper!r}] at delta {delta}")
        q = c - c.mean(axis=0)
        axis = np.linalg.svd(q)[2][0]
        dev = float(np.linalg.norm(q - np.outer(q @ axis, axis), axis=1).max())
        require(abs(dev - deviation) <= 1e-9, f"line deviation {deviation!r}, SVD {dev!r}")


def _scenario_op(path: Path, stem: Path) -> Op:
    text = io.StringIO()

    def call():
        text.seek(0)
        text.truncate()
        with contextlib.redirect_stdout(text):
            return cli.main(["run", str(path), "--out", str(stem)])

    def check(code):
        lines = text.getvalue().splitlines()
        require(code == 0 and lines and all(s.startswith("PASS") for s in lines),
                f"{path.name}: exit {code}, {lines}")
        report = json.loads(Path(f"{stem}.report.json").read_text())
        require(report["ok"], f"{path.name}: report not ok")

    return Op("cli.main", call, check)


WORKLOADS = ("cover-certify", "ns-decide", "cube-extremals", "impassable-lattice")


def build(name: str, seed: int, root: Path, out_dir: Path) -> list[Op]:
    """The operation list of workload `name`, its inputs made from `seed`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "cover-certify":
        return _covers(rng)
    if name == "ns-decide":
        return _ns_decide(rng)
    if name == "cube-extremals":
        return _cube_extremals(rng)
    return _impassable(rng, root, out_dir)
