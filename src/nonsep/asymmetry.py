"""Central-asymmetry constant of a polytope.

The constant is the least factor mu such that, for a well-chosen
center q, the reflected body -(K - q) covers (K - q) after dilation
by mu.  It is 1 exactly for centrally symmetric bodies and peaks at
dim(K) on simplices.  Two independent routes are provided: a single
joint LP over (center, mu), and a bracket on mu with a feasibility LP
per trial.  An infeasible trial's Farkas vector (`lp.LpResult.farkas`)
rules out every mu below its root, so the trials sit just above those
roots and the bracket usually closes in a few LPs; each end is still
decided by an LP centre or a checked vector, never by the placement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp, tolerances
from .errors import GeometryError
from .polytope import Polytope, polar

_BRACKET = 1e-9  # `sigma_bisection` stops once its bracket is this narrow


@dataclass(frozen=True)
class AsymmetryResult:
    sigma: float
    center: np.ndarray
    method: str


def _reflection_rows(p: Polytope):
    """Per-facet data for the containment K - q <= -mu (K - q).

    Containment holds iff for every facet normal a_i and every vertex v:
    <a_i, (1+mu) q> - mu b_i <= <a_i, v>.  Only the minimizing vertex
    binds, and min_v <a_i, v> = -h_K(-a_i).
    """
    a = p.facet_normals
    b = p.facet_offsets
    rhs_min = -p.support(-a)
    return a, b, rhs_min


def sigma_lp(p: Polytope) -> AsymmetryResult:
    """Asymmetry constant by one LP in the variables (r, mu), r = (1+mu) q."""
    a, b, rhs_min = _reflection_rows(p)
    # r in power-of-two units of max |b|: facet rows at the scale of mu >= 1
    unit = lp.pow2_unit(b)
    d = p.dim
    m = a.shape[0]
    a_ub = np.zeros((m + 1, d + 1))
    a_ub[:m, :d] = a
    a_ub[:m, d] = -b / unit
    a_ub[m, d] = -1.0  # mu >= 1
    b_ub = np.concatenate([rhs_min / unit, [-1.0]])
    c = np.zeros(d + 1)
    c[d] = -1.0  # minimize mu
    res = lp.solve(c, a_ub, b_ub)
    if not res.optimal:
        raise GeometryError(f"asymmetry LP ended {res.status}")
    mu = float(res.x[d])
    center = res.x[:d] * unit / (1.0 + mu)
    return AsymmetryResult(mu, center, "lp")


def _reflection_step(a, b, rhs_min, mu):
    """The reflection LP at mu: (centre, None), or (None, floor).

    The centre must meet every row within REFLECT_FIT * max(1, |rhs|),
    so LP round-off cannot pass a mu below sigma.  Without one, `floor`
    is where sigma probably lies just above: the root
    -(y @ rhs_min) / (y @ b) of the LP's checked Farkas vector y (y >= 0,
    y @ a == 0, y @ (mu b + rhs_min) < 0), which rules out every mu below
    it; mu itself when the LP found a centre that misses the rows by more
    than REFLECT_FIT (a near fit: the LP's pricing tolerance leaves a band
    of them just above sigma); None when there is neither.
    """
    rows, rhs = (1.0 + mu) * a, mu * b + rhs_min
    res = lp.solve(np.zeros(a.shape[1]), rows, rhs)
    if res.x is not None:
        limit = tolerances.REFLECT_FIT * np.maximum(1.0, np.abs(rhs))
        return (None, mu) if (rows @ res.x - rhs > limit).any() else (res.x, None)
    y = res.farkas
    if y is None or not y @ b > 0:
        return None, None
    return None, max(mu, -float(y @ rhs_min) / float(y @ b))


def sigma_bisection(p: Polytope) -> AsymmetryResult:
    """Asymmetry constant by bracketing; independent of `sigma_lp`.

    Each trial mu is one reflection LP (`_reflection_step`).  A centre
    that meets the rows lowers the upper end to mu; otherwise the lower
    end rises to mu, or to the trial's floor (a Farkas root, or mu after
    a near fit).  The trial after a floor sits `step` above it: half the
    final bracket width after a root, which usually closes the bracket,
    and twice the last step after a near fit, to cross their band.
    After three such trials in a row the next is the midpoint, so that
    floors creeping up in small steps cannot stall the bracket.  Returns
    the certified upper end of the final bracket, with a center
    witnessing feasibility there.
    """
    a, b, rhs_min = _reflection_rows(p)
    lo, hi = 1.0, float(p.dim)
    q, floor = _reflection_step(a, b, rhs_min, lo)
    if q is not None:
        return AsymmetryResult(lo, q, "bisection")
    lo, near = (lo, False) if floor is None else (floor, True)
    q = _reflection_step(a, b, rhs_min, hi)[0]
    if q is None:
        raise GeometryError("containment infeasible at mu = dim")
    tries, step = 0, 0.5 * _BRACKET  # trials at lo + step since the last midpoint
    while hi - lo > _BRACKET:
        if near and tries < 3:
            mu, tries = min(lo + step, 0.5 * (lo + hi)), tries + 1
        else:
            mu, tries = 0.5 * (lo + hi), 0
        cand, floor = _reflection_step(a, b, rhs_min, mu)
        if cand is not None:
            hi, q = mu, cand
        elif floor is None:
            lo, near = mu, False
        else:
            step = 0.5 * _BRACKET if floor > mu else 2.0 * step
            lo, near = floor, True
    return AsymmetryResult(hi, q, "bisection")


def polar_asymmetry_value(p: Polytope, center) -> float:
    """Asymmetry of the polar about the origin, after recentering at `center`."""
    q = polar(p.translate(-np.asarray(center, dtype=float)))
    return float(q.gauge(-q.vertices).max())


def polar_sigma_check(p: Polytope) -> bool:
    """Verify sigma through polars: P* <= -sigma P* about the optimal center.

    Asymmetry about a fixed center is invariant under polarity, so the
    polar of P recentred at the center from `sigma_lp` must reflect into
    sigma times itself; checked by vertex membership.
    """
    res = sigma_lp(p)
    value = polar_asymmetry_value(p, res.center)
    return value <= res.sigma + tolerances.POLAR_SIGMA * max(1.0, res.sigma)


def bm_bound_report(p: Polytope):
    """Distance-to-simplex bound from near-maximal asymmetry.

    Returns (eps, bound) with eps = dim - sigma clamped at 0.  When eps
    is below 1 / (8 (dim + 1)) the body is within Banach-Mazur factor
    1 + 8 (dim + 1) eps of a simplex; otherwise the bound does not apply
    and None is reported in its place.
    """
    res = sigma_lp(p)
    d = p.dim
    eps = max(0.0, d - res.sigma)
    if eps < 1.0 / (8.0 * (d + 1)):
        return eps, 1.0 + 8.0 * (d + 1) * eps
    return eps, None
