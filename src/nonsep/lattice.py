"""Lattice arrangements of a single convex body.

Everything here reduces to two primitives: the gauge distance from a point
to the nearest lattice translate, and integer enumeration in boxes, where
one enumerator serves both gauge searches (`covering_radius`, `is_ns_lattice`).
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
    _require_origin_interior,
    _singular,
    facet_directions,
    measure,
    polar,
    polytope_from_dict,
)

_OFFSET_MAX = 2e5  # lattice vectors one gauge search, hit curve or gap box may list
_DUAL_MAX = 10_000_000  # dual vectors `is_ns_lattice` may enumerate
_PAD = 1.0 + 1e-9  # relative radius pad of `_coefficient_box`
_MAX_EVALS = 2_000_000  # gauge-distance samples `covering_radius` may refine to


def _grid(axes) -> np.ndarray:
    """Every point of the product of 1-D `axes`, one row each, last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"),
                    axis=-1).reshape(-1, len(axes))


def _int_box(d: int, r: int) -> np.ndarray:
    return _grid([np.arange(-r, r + 1)] * d)


def _check_box(d: int, r: int, least: int, what: str) -> None:
    """Refuse a box [-r, r]^d with r below `least` or over `_OFFSET_MAX` points."""
    if r < least or (2 * r + 1) ** d > _OFFSET_MAX:
        raise InputError(f"{what} {r} must be at least {least} and list at most "
                         f"{_OFFSET_MAX:g} lattice points")


def _signs(d: int) -> list[tuple[float, ...]]:
    return list(itertools.product((-1.0, 1.0), repeat=d))


def _coefficient_box(b: np.ndarray, r: float, limit: float, message: str) -> np.ndarray:
    """Integer m with |m_i| < r * _PAD * |row i of b^-1|: the coefficients of
    every lattice vector b m with |b m| <= r, as m_i = <row i of b^-1, b m>.
    Raises InputError(message) past `limit`."""
    bound = np.ceil(np.linalg.norm(np.linalg.inv(b), axis=1)
                    * (r * _PAD)).astype(int) - 1
    if float(np.prod(2.0 * bound + 1.0)) > limit:
        raise InputError(message)
    return _grid([np.arange(-k, k + 1) for k in bound])


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
        det = float(np.linalg.det(b))
        if _singular(det, np.linalg.norm(b, axis=0)):  # the rows of b^T
            raise InputError("basis is singular")
        return Lattice(_freeze(b), abs(det))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def points(self, coeff_box: int) -> np.ndarray:
        """Every B m with integer coefficients m in [-coeff_box, coeff_box]^d."""
        return _int_box(self.dim, int(coeff_box)) @ self.basis.T


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
    # no second check: an absolute one would refuse every det >= 1 / GEOM
    return Lattice(_freeze(np.linalg.inv(lat.basis).T), 1.0 / lat.det)


def density(arr: LatticeArrangement) -> float:
    """Body volume per fundamental cell."""
    if arr.body.dim > 3:
        raise InputError("density needs d <= 3")
    return measure(arr.body, "volume") / arr.lattice.det


def _euclid_radius(k: Polytope) -> float:
    return float(np.linalg.norm(k.vertices, axis=1).max())


def _offset_candidates(arr: LatticeArrangement, cap: float,
                       corner: float) -> np.ndarray:
    """Lattice vectors that can matter while gauge distances stay <= cap.

    A gauge of y - z at most cap forces |y - z| <= cap * R_K; centred-cell
    points satisfy |y| <= Rcell = corner / 2 (corner: the largest |b s|
    over sign vectors s), so |z| <= cap * R_K + Rcell; coefficient bounds
    then follow from the rows of the inverse basis.
    """
    b = arr.lattice.basis
    r = cap * _euclid_radius(arr.body) + 0.5 * corner
    z = _coefficient_box(b, r, _OFFSET_MAX,
                         "lattice too skewed for gauge-distance enumeration") @ b.T
    return z[np.linalg.norm(z, axis=1) <= r * _PAD]


def _min_gauge_dist(body: Polytope, ys: np.ndarray,
                    zs: np.ndarray) -> np.ndarray:
    """min over rows z of body.gauge(y - z), one value per row of ys."""
    scaled = (body.facet_normals / body.facet_offsets[:, None]).T
    zdot = (zs @ scaled).T[:, :, None]
    chunk = max(1, int(4_000_000 / max(1, zdot.size)))
    out = np.empty(len(ys))
    for s in range(0, len(ys), chunk):
        # a running max over the facets, one (zs, ys) slab each: a body has
        # few facets, and a reduction over so short an axis runs slowly
        ydot = (ys[s:s + chunk] @ scaled).T[:, None, :]
        acc = ydot[0] - zdot[0]
        step = np.empty_like(acc)
        for yf, zf in zip(ydot[1:], zdot[1:]):
            np.maximum(acc, np.subtract(yf, zf, out=step), out=acc)
        out[s:s + chunk] = np.maximum(acc, 0.0).min(axis=0)
    return out


def covering_radius(arr: LatticeArrangement, resolution: int = 48,
                    width: float | None = None) -> tuple[float, float]:
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
    if width is not None and not 0.0 < width < np.inf:
        raise InputError("width must be finite and positive")
    _require_origin_interior(arr.body)
    b = arr.lattice.basis
    # the gauge's Lipschitz constant: facet normals are unit rows, so
    # 1/min(b) is exact and dominates any estimate over sampled directions
    lip = 1.0 / float(arr.body.facet_offsets.min())
    # half-diagonal reach of one sub-cell; samples sit at sub-cell centres
    corner = max(np.linalg.norm(b @ np.array(s)) for s in _signs(d))
    diam0 = 0.5 * corner / resolution
    fr = (np.arange(resolution) + 0.5) / resolution - 0.5
    mesh = _grid([fr] * d)
    ys = mesh @ b.T
    # nearest-coefficient neighbours alone give a valid everywhere-cap
    f0 = _min_gauge_dist(arr.body, ys, _int_box(d, 1) @ b.T)
    cap = float(f0.max()) + lip * diam0
    zs = _offset_candidates(arr, cap, corner)
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
        if evals + n_children > _MAX_EVALS:
            raise InputError(
                f"resolution too coarse to bracket within {width:g}; "
                f"achieved [{lower:.6g}, {upper:.6g}]")
        offs = 0.5 * np.array(_signs(d))
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
    b = dual_lattice(arr.lattice).basis
    seed = _int_box(arr.body.dim, 1)
    lam_ub = float(kp.gauge(seed[seed.any(axis=1)] @ b.T).min())
    # any z beating lam_ub satisfies |z| <= lam_ub * R(polar)
    m = _coefficient_box(b, lam_ub * _euclid_radius(kp), _DUAL_MAX,
                         "enumeration bound overflow: more than "
                         f"{_DUAL_MAX} dual vectors required")
    lam1 = float(kp.gauge(m[m.any(axis=1)] @ b.T).min())
    return lam1 >= 0.5 - tolerances.NS_LATTICE, lam1


def kronecker_gap(u, box_radius: int) -> float:
    """Largest circular gap of the fractional parts of <u, z>.

    z runs over the integer box [-R, R]^d, which may list at most
    `_OFFSET_MAX` points.  Rational unit directions stall at a positive gap
    (a lone value reports the full circle, 1); rationally independent
    coordinates drive the gap to zero as the box grows.
    """
    u = _finite(u, "direction")
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise InputError("direction must be a unit vector")
    _check_box(u.size, int(box_radius), 0, "box_radius")
    z = _int_box(u.size, int(box_radius))
    vals = np.sort((z @ u) % 1.0)
    gaps = np.diff(vals)
    wrap = float(vals[0] + 1.0 - vals[-1])
    return max(float(gaps.max()) if gaps.size else 0.0, wrap)


def weak_covering_minimum_1(p: Polytope, lat: Lattice, t_grid,
                            window: int | None = None, samples: int = 400,
                            seed: int = 0) -> list[tuple[float, float, float]]:
    """Sampled hit curve for facet-parallel hyperplanes against L + tP.

    Each row is (t, fraction of sampled hyperplanes hit, largest miss
    margin).  Sampling the same hyperplanes for every t keeps the curve
    monotone.  One-sided evidence only: a finite window can only
    understate the coverage of the infinite arrangement.  The coefficient
    window (default: the widest up to 200) lists at most `_OFFSET_MAX` points.
    """
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
    z = lat.points(window)
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
