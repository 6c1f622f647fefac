"""Lattice arrangements of a single convex body.

Everything here reduces to two primitives: the gauge distance from a point
to the nearest lattice translate, and plain integer enumeration in boxes.
Covering radius and tightness come back as certified brackets (a sampled
lower bound plus a Lipschitz cap), never as point estimates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import InputError
from .polytope import (
    Polytope,
    _finite,
    _freeze,
    _plane_basis,
    facet_directions,
    measure,
    polar,
    polytope_from_dict,
)

_OFFSET_MAX = 2e5  # lattice vectors `_offset_candidates` may enumerate
_DUAL_MAX = 10_000_000  # dual vectors `is_ns_lattice` may enumerate


def _int_box(d: int, r: int) -> np.ndarray:
    ax = np.arange(-r, r + 1)
    grid = np.meshgrid(*([ax] * d), indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, d)


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice; generators are the columns of `basis`."""

    basis: np.ndarray
    det: float

    @staticmethod
    def from_basis(basis) -> "Lattice":
        b = _finite(basis, "lattice basis")
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise InputError("basis must be a square matrix")
        det = abs(float(np.linalg.det(b)))
        if det <= tolerances.GEOM:
            raise InputError("basis is singular")
        return Lattice(_freeze(b), det)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def points(self, coeff_box: int) -> np.ndarray:
        """Every B m with integer coefficients m in [-coeff_box, coeff_box]^d."""
        return _int_box(self.dim, int(coeff_box)) @ self.basis.T

    def to_dict(self) -> dict:
        return {"basis": self.basis.tolist()}


def lattice_from_dict(obj: dict) -> Lattice:
    if "basis" not in obj:
        raise InputError('lattice JSON needs a "basis" key')
    return Lattice.from_basis(obj["basis"])


@dataclass(frozen=True)
class LatticeArrangement:
    """The union of lattice translates z + body."""

    body: Polytope
    lattice: Lattice

    def __post_init__(self):
        if self.body.dim != self.lattice.dim:
            raise InputError("body and lattice dimensions differ")


def arrangement_from_dict(obj: dict) -> LatticeArrangement:
    if not isinstance(obj, dict) or "body" not in obj or "basis" not in obj:
        raise InputError('arrangement JSON needs "body" and "basis"')
    return LatticeArrangement(polytope_from_dict(obj["body"]),
                              Lattice.from_basis(obj["basis"]))


def dual_lattice(lat: Lattice) -> Lattice:
    """Vectors whose inner product with the whole lattice is integral."""
    return Lattice.from_basis(np.linalg.inv(lat.basis).T)


def density(arr: LatticeArrangement) -> float:
    """Body volume per fundamental cell."""
    if arr.body.dim > 3:
        raise InputError("density needs d <= 3")
    return measure(arr.body, "volume") / arr.lattice.det


def _gauge_lipschitz(k: Polytope) -> float:
    # facet normals are unit rows, so 1/min(b) is exact and dominates any
    # estimate maxed over sampled directions
    return 1.0 / float(k.facet_offsets.min())


def _euclid_radius(k: Polytope) -> float:
    return float(np.linalg.norm(k.vertices, axis=1).max())


def _offset_candidates(arr: LatticeArrangement, cap: float) -> np.ndarray:
    """Lattice vectors that can matter while gauge distances stay <= cap.

    A gauge of y - z at most cap forces |y - z| <= cap * R_K; centred-cell
    points satisfy |y| <= Rcell, so |z| <= cap * R_K + Rcell; coefficient
    bounds then follow from the rows of the inverse basis.
    """
    b = arr.lattice.basis
    d = arr.body.dim
    rcell = max(np.linalg.norm(b @ np.array(s))
                for s in itertools.product((-0.5, 0.5), repeat=d))
    r = cap * _euclid_radius(arr.body) + rcell + 1e-9
    binv = np.linalg.inv(b)
    bound = np.ceil(np.linalg.norm(binv, axis=1) * r).astype(int)
    if float(np.prod((2.0 * bound + 1.0))) > _OFFSET_MAX:
        raise InputError("lattice too skewed for gauge-distance enumeration")
    axes = [np.arange(-k, k + 1) for k in bound]
    m = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    z = m @ b.T
    return z[np.linalg.norm(z, axis=1) <= r]


def _min_gauge_dist(body: Polytope, ys: np.ndarray,
                    zs: np.ndarray) -> np.ndarray:
    """min over rows z of body.gauge(y - z), one value per row of ys."""
    scaled = (body.facet_normals / body.facet_offsets[:, None]).T
    zdot = zs @ scaled
    chunk = max(1, int(4_000_000 / max(1, zdot.size)))
    out = np.empty(len(ys))
    for s in range(0, len(ys), chunk):
        ydot = ys[s:s + chunk] @ scaled
        per = ydot[:, None, :] - zdot[None, :, :]
        out[s:s + chunk] = np.maximum(per.max(axis=2), 0.0).min(axis=1)
    return out


def covering_radius(arr: LatticeArrangement, resolution: int = 48,
                    width: float | None = None,
                    max_evals: int = 2_000_000) -> tuple[float, float]:
    """Bracket the least scale at which the lattice copies cover space.

    The lower bound is a max of sampled gauge distances over the
    fundamental cell; the upper bound adds Lip * (cell radius of the
    sample net).  With `width` set, cells whose cap stays loose are split
    until the bracket closes or the evaluation budget runs out.
    """
    d = arr.body.dim
    if d > 3:
        raise InputError("covering_radius needs d <= 3")
    if resolution < 2:
        raise InputError("resolution must be at least 2")
    b = arr.lattice.basis
    lip = _gauge_lipschitz(arr.body)
    # half-diagonal reach of one sub-cell; samples sit at sub-cell centres
    corner = max(np.linalg.norm(b @ np.array(s))
                 for s in itertools.product((-1.0, 1.0), repeat=d))
    diam0 = 0.5 * corner / resolution
    fr = (np.arange(resolution) + 0.5) / resolution - 0.5
    mesh = np.stack(np.meshgrid(*([fr] * d), indexing="ij"),
                    axis=-1).reshape(-1, d)
    ys = mesh @ b.T
    # nearest-coefficient neighbours alone give a valid everywhere-cap
    f0 = _min_gauge_dist(arr.body, ys, _int_box(d, 1) @ b.T)
    cap = float(f0.max()) + lip * diam0
    zs = _offset_candidates(arr, cap)
    fvals = _min_gauge_dist(arr.body, ys, zs)
    lower = float(fvals.max())
    if width is None:
        return lower, lower + lip * diam0

    halves = np.full(len(ys), 0.5 / resolution)
    centres = mesh
    evals = len(ys)
    dropped = 0.0
    while True:
        caps = fvals + lip * halves * corner
        upper = max(lower, dropped,
                    float(caps.max()) if caps.size else 0.0)
        hot = caps > lower + width
        if not hot.any():
            return lower, upper
        cold = caps[~hot]
        if cold.size:
            dropped = max(dropped, float(cold.max()))
        n_children = int(hot.sum()) * 2 ** d
        if evals + n_children > max_evals:
            raise InputError(
                f"resolution too coarse to bracket within {width:g}; "
                f"achieved [{lower:.6g}, {upper:.6g}]")
        offs = np.array(list(itertools.product((-0.5, 0.5), repeat=d)))
        ph = halves[hot]
        centres = (centres[hot][:, None, :]
                   + offs[None, :, :] * ph[:, None, None]).reshape(-1, d)
        halves = np.repeat(ph * 0.5, 2 ** d)
        fvals = _min_gauge_dist(arr.body, centres @ b.T, zs)
        evals += n_children
        lower = max(lower, float(fvals.max()))


def tightness(arr: LatticeArrangement, resolution: int = 48,
              width: float | None = None) -> tuple[float, float]:
    """Largest homothety ratio that still fits in a hole of the union.

    For a symmetric body, (x + lam*K) meets (z + K) exactly when
    K.gauge(x - z) <= 1 + lam, so the largest empty homothet sits at a
    deepest hole and the value is the covering radius minus one.
    """
    if arr.body.dim > 3:
        raise InputError("tightness needs d <= 3")
    if not arr.body.is_origin_symmetric():
        raise InputError("tightness needs an origin-symmetric body")
    lo, hi = covering_radius(arr, resolution, width=width)
    return lo - 1.0, hi - 1.0


def is_ns_lattice(arr: LatticeArrangement) -> tuple[bool, float]:
    """Dual-lattice criterion for non-separability of the arrangement.

    Computes the shortest nonzero dual vector measured in the polar
    gauge; the arrangement is non-separable exactly when that length
    reaches one half.  Enumeration is confined to a Euclidean ball that
    provably contains the minimiser.
    """
    kp = polar(arr.body)
    dual = dual_lattice(arr.lattice)
    d = arr.body.dim
    seed = dual.points(1)
    seed = seed[(np.abs(seed) > 1e-12).any(axis=1)]
    lam_ub = float(kp.gauge(seed).min())
    # any z beating lam_ub satisfies |z| <= lam_ub * R(polar)
    r = lam_ub * _euclid_radius(kp) + 1e-9
    bound = np.ceil(np.linalg.norm(np.linalg.inv(dual.basis), axis=1)
                    * r).astype(int)
    bound = np.maximum(bound, 1)
    if float(np.prod(2.0 * bound + 1.0)) > _DUAL_MAX:
        raise InputError("enumeration bound overflow: more than "
                         f"{_DUAL_MAX} dual vectors required")
    axes = [np.arange(-k, k + 1) for k in bound]
    m = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    m = m[(m != 0).any(axis=1)]
    lam1 = float(kp.gauge(m @ dual.basis.T).min())
    return lam1 >= 0.5 - tolerances.NS_LATTICE, lam1


def kronecker_gap(u, box_radius: int) -> float:
    """Largest circular gap of the fractional parts of <u, z>.

    z runs over the integer box [-R, R]^d.  Rational unit directions
    stall at a positive gap (a lone value reports the full circle, 1);
    rationally independent coordinates drive the gap to zero as the box
    grows.
    """
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise InputError("direction must be a unit vector")
    z = _int_box(u.size, int(box_radius))
    vals = np.sort((z @ u) % 1.0)
    gaps = np.diff(vals)
    wrap = float(vals[0] + 1.0 - vals[-1])
    return max(float(gaps.max()) if gaps.size else 0.0, wrap)


def weak_covering_minimum_1(p: Polytope, lat: Lattice, t_grid,
                            window: int = 200, samples: int = 400,
                            seed: int = 0) -> list[tuple[float, float, float]]:
    """Sampled hit curve for facet-parallel hyperplanes against L + tP.

    Each row is (t, fraction of sampled hyperplanes hit, largest miss
    margin).  Sampling the same hyperplanes for every t keeps the curve
    monotone.  One-sided evidence only: a finite window can only
    understate the coverage of the infinite arrangement.
    """
    if p.dim != lat.dim:
        raise InputError("body and lattice dimensions differ")
    rng = np.random.default_rng(seed)
    z = lat.points(window)
    per_dir = []
    for u in facet_directions(p):
        proj = np.sort(z @ u)
        span = proj[-1] - proj[0]
        # central half of the window only, away from truncation artifacts
        c = rng.uniform(proj[0] + 0.25 * span, proj[-1] - 0.25 * span,
                        size=samples)
        per_dir.append((proj, c, p.support(u), p.support(-u)))
    rows = []
    for t in np.atleast_1d(np.asarray(t_grid, dtype=float)):
        hit = total = 0
        worst = 0.0
        for proj, c, hplus, hminus in per_dir:
            # the plane <u,x> = c meets z + tP iff
            # c - proj(z) lies in [-t*hminus, t*hplus]
            idx = np.searchsorted(proj, c)
            near_lo = proj[np.clip(idx - 1, 0, len(proj) - 1)]
            near_hi = proj[np.clip(idx, 0, len(proj) - 1)]

            def _dist(pz):
                below = pz - float(t) * hminus - c
                above = c - pz - float(t) * hplus
                return np.maximum(np.maximum(below, above), 0.0)

            miss = np.minimum(_dist(near_lo), _dist(near_hi))
            ok = miss <= 1e-12
            hit += int(ok.sum())
            total += len(c)
            if (~ok).any():
                worst = max(worst, float(miss.max()))
        rows.append((float(t), hit / total, worst))
    return rows


# -- sampled probes, used to cross-examine the exact criteria ----------------


def ns_patch_probe(arr: LatticeArrangement, window: int = 6,
                   ndirs: int = 2000) -> bool:
    """Finite-patch separability sweep, independent of the dual route.

    Projects a (2w+1)^d patch of members onto a dense set of directions
    and hunts for a gap in the central half of the patch's shadow.  A
    central gap persists as the patch grows; gaps near the ends are
    truncation artifacts and are ignored.  Returns True when no
    separating direction shows up.
    """
    d = arr.body.dim
    z = arr.lattice.points(window)
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
    return not bool(((gaps > tolerances.PATCH_GAP) & central).any())


def _sphere_net(n: int) -> np.ndarray:
    # golden-spiral net; good enough angular resolution for probe duty
    i = np.arange(n)
    phi = (1.0 + 5.0 ** 0.5) / 2.0
    zc = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - zc ** 2))
    th = 2.0 * np.pi * i / phi
    return np.stack([r * np.cos(th), r * np.sin(th), zc], axis=1)


def weak_impassability_probe(arr: LatticeArrangement, k: int,
                             samples: int = 400, window: int = 4,
                             seed: int = 0) -> bool:
    """Sampled check that every k-flat meets the arrangement.

    k = 0 draws points in the fundamental cell and asks for gauge
    distance at most one.  k = 1 (d = 3 only) scans a direction net; a
    line misses the arrangement exactly when its shadow point escapes
    every member shadow, so each direction becomes a 2-D hole hunt over
    the central region of a projected patch.  Passing is sampled
    evidence; failing exhibits a genuine witness for the window.
    """
    d = arr.body.dim
    if k == 0:
        rng = np.random.default_rng(seed)
        fr = rng.uniform(-0.5, 0.5, size=(samples, d))
        ys = fr @ arr.lattice.basis.T
        f0 = _min_gauge_dist(arr.body, ys, _int_box(d, 1)
                             @ arr.lattice.basis.T)
        zs = _offset_candidates(arr, float(f0.max()))
        dist = _min_gauge_dist(arr.body, ys, zs)
        return bool((dist <= 1.0 + tolerances.PROBE).all())
    if k == 1 and d == 3:
        us = np.concatenate([_sphere_net(samples), np.eye(3)])
        z = arr.lattice.points(window)
        for u in us:
            q = _plane_basis(u)
            shadow = Polytope.from_vertices(arr.body.vertices @ q.T)
            pz = z @ q.T
            lo, hi = pz.min(axis=0), pz.max(axis=0)
            mid, half = 0.5 * (lo + hi), 0.25 * (hi - lo)
            g = np.linspace(-1.0, 1.0, 12)
            pts = np.stack(np.meshgrid(g, g, indexing="ij"),
                           axis=-1).reshape(-1, 2) * half + mid
            if (_min_gauge_dist(shadow, pts, pz) > 1.0 + tolerances.PROBE).any():
                return False
        return True
    raise InputError("probe supports k = 0, or k = 1 in dimension 3")
