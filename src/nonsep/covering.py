"""Covering translates for families of homothets.

All covers are reported in one convention: the covering body is
t + lambda * T * P, where P is the family's base and T the sum of the
homothety ratios.  So lambda = 1 means "a translate of the total-ratio
homothet suffices".

Routes provided:

* `cover_intervals`: the 1-D engine, exact for Fraction inputs,
* `weighted_cover`: lambda = 1 for centrally symmetric bases,
* `sigma_cover`: lambda = (sigma + 1) / 2 for arbitrary bases, sigma
  the base's central asymmetry,
* `lambda_min`: the exact optimum by LP,
* `is_summand` / `wip_summand_check`: the structural side conditions
  tying coverability to impassability; `lutwak_check`, one containment
  LP checked against Lutwak's criterion, which Farkas weights decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational

import numpy as np

from . import lp, tolerances
from .asymmetry import sigma_lp
from .errors import GeometryError, InputError
from .family import HomotheticFamily, _edges_covered, is_wns
from .polytope import (
    Polytope,
    _simplex_rows,
    contains_translate,
    edges,
    is_generic,
)


@dataclass(frozen=True)
class CoverResult:
    t: np.ndarray
    lam: float
    certified: bool

    def to_dict(self) -> dict:
        return {"t": np.asarray(self.t, dtype=float).tolist(),
                "lambda": float(self.lam), "certified": bool(self.certified)}


def cover_intervals(intervals):
    """Covering interval for a connected union of 1-D intervals.

    Input is a list of (center, half-width) pairs, members being
    [c_i - r_i, c_i + r_i].  Returns (center, halfwidth) with halfwidth
    the sum of the inputs' and center their radius-weighted mean; the
    result always contains the whole union (verified before returning).
    Arithmetic stays in the input type, so Fractions come back exact.
    Raises InputError when the union is disconnected.
    """
    pairs = [(c, r) for c, r in intervals]
    if not pairs:
        raise InputError("need at least one interval")
    if any(r <= 0 for _, r in pairs):
        raise InputError("half-widths must be positive")
    pieces = sorted((c - r, c + r) for c, r in pairs)
    reach = pieces[0][1]
    for lo, hi in pieces[1:]:
        if lo > reach:
            raise InputError("not non-separable")
        if hi > reach:
            reach = hi
    total = sum(r for _, r in pairs)
    center = sum(r * c for c, r in pairs) / total
    lo_all = min(c - r for c, r in pairs)
    hi_all = max(c + r for c, r in pairs)
    # containment is automatic in exact arithmetic; floats get an ulp allowance
    exact = all(isinstance(v, Rational) for pair in pairs for v in pair)
    slack = 0 if exact else 1e-12 * max(1.0, abs(float(center)) + float(total))
    if not (center - total <= lo_all + slack
            and hi_all <= center + total + slack):
        raise GeometryError("cover postcondition failed")
    return center, total


def _support_dominates(family, t, lam):
    """Does t + lam * T * P contain every member, by facet support?"""
    p = family.base
    total = family.total_ratio
    a, b = p.facet_normals, p.facet_offsets
    member_sup = family.member_offsets().max(axis=0)
    cover_sup = a @ t + lam * total * b
    feas = tolerances.feas(float(np.abs(member_sup).max()))
    return bool((member_sup <= cover_sup + feas).all())


def weighted_cover(family: HomotheticFamily) -> CoverResult:
    """Ratio-weighted center cover at lambda = 1.

    Requires an origin-symmetric base and a weakly non-separable family;
    under those, the translate of the total-ratio homothet placed at the
    weighted center always covers, and the certificate is re-verified by
    support comparison anyway.
    """
    if not family.base.is_origin_symmetric():
        raise InputError("requires symmetric base")
    if not is_wns(family)[0]:
        raise InputError("family is weakly separable")
    total = family.total_ratio
    t = (family.ratios @ family.translations) / total
    certified = _support_dominates(family, t, 1.0)
    return CoverResult(t, 1.0, certified)


def sigma_cover(family: HomotheticFamily) -> CoverResult:
    """Cover at lambda = (sigma + 1) / 2 about the base's asymmetry center.

    `sigma` is the base's central asymmetry, computed here.  The base
    need not be pre-centered: the family is recentred at the asymmetry
    center internally and the translate mapped back.  For symmetric
    bases this degenerates to `weighted_cover`.
    """
    if not is_wns(family)[0]:
        raise InputError("family is weakly separable")
    res = sigma_lp(family.base)
    q = res.center
    lam = 0.5 * (res.sigma + 1.0)
    total = family.total_ratio
    shifted = family.translations + np.outer(family.ratios, q)
    t = (family.ratios @ shifted) / total - lam * total * q
    certified = _support_dominates(family, t, lam)
    return CoverResult(t, lam, certified)


def lambda_min(family: HomotheticFamily) -> CoverResult:
    """Smallest lambda admitting any covering translate, by LP.

    The base is recentered at its vertex centroid so every facet offset
    is positive, which makes lambda enter each constraint with a
    positive coefficient.
    """
    p = family.base
    c0 = p.vertices.mean(axis=0)
    pc = p.translate(-c0)
    a, b = pc.facet_normals, pc.facet_offsets
    if (b <= 0).any():
        raise GeometryError("recentred base must contain its centroid")
    total = family.total_ratio
    shifted = family.translations + np.outer(family.ratios, c0)
    rhs_max = (shifted @ a.T + np.outer(family.ratios, b)).max(axis=0)

    # t in power-of-two units of max |rhs|, as the LP's absolute tolerances assume
    unit = lp.pow2_unit(rhs_max)
    d = p.dim
    m = a.shape[0]
    a_ub = np.zeros((m, d + 1))
    a_ub[:, :d] = -a
    a_ub[:, d] = -total * b / unit
    c = np.zeros(d + 1)
    c[d] = -1.0  # minimize lambda
    res = lp.solve(c, a_ub, -rhs_max / unit)
    if not res.optimal:
        raise GeometryError(f"covering LP ended {res.status}")
    lam = float(res.x[d])
    t = res.x[:d] * unit - lam * total * c0
    certified = _support_dominates(family, t, lam)
    return CoverResult(t, lam, certified)


def is_summand(q: Polytope, k: Polytope):
    """Is `q` a Minkowski summand of `k` (does q slide freely in k)?

    Edge criterion: for every edge E of q, the face of k exposed by a
    direction interior to E's normal cone must contain a translate of
    E.  Each containment asks for a point x with both x and x + E inside
    the near-tight face of k.  A vertex v of that face, or v - E, usually
    is one (`lp.witnessed`); only when none is does a feasibility LP
    decide.  Returns (bool, failing edge direction or None).
    """
    if q.dim != k.dim:
        raise InputError("dimension mismatch")
    if q.dim < 2:
        raise InputError("need dim >= 2")
    return _is_summand(q, k, edges(q))


def _is_summand(q, k, pairs):
    """`is_summand` over q's edges `pairs`, enumerated once by the caller."""
    ak, bk = k.facet_normals, k.facet_offsets
    tight = tolerances.tight(float(np.abs(q.facet_offsets).max()))
    for (i, j) in pairs:
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
        face = k.vertices[k.vertices @ u >= h - ftol]
        if lp.witnessed(a_ub, b_ub, np.vstack([face, face - evec])):
            continue
        if not lp.solve(np.zeros(q.dim), a_ub, b_ub).optimal:
            return False, evec / np.linalg.norm(evec)
    return True, None


def wip_summand_check(family: HomotheticFamily):
    """Structural half of the impassability-to-summand pipeline.

    Assumes the caller has already screened the family with
    `is_kwip_sampled(family, dim - 2)` and `edges_covered`.  Computes
    the hull of the union, asks whether it slides freely in the
    total-ratio homothet of the base, and attaches the optimal lambda.
    Returns (ok, report): ok means summand holds and lambda_min stays
    at most 1.
    """
    d = family.dim
    if d < 2:
        raise InputError("pipeline needs dim >= 2")
    hull = family.hull()
    pairs = edges(hull)
    edges_ok, _ = _edges_covered(family, hull, pairs)
    scaled = family.base.homothet(np.zeros(d), family.total_ratio)
    summand_ok, direction = _is_summand(hull, scaled, pairs)
    lam = lambda_min(family)
    ok = summand_ok and lam.certified and lam.lam <= 1.0 + tolerances.LAMBDA_ONE
    report = {
        "edges_covered": edges_ok,
        "summand": summand_ok,
        "failing_direction": None if direction is None else direction.tolist(),
        "lambda": lam.lam,
        "lambda_certified": lam.certified,
    }
    return ok, report


def lutwak_check(outer: Polytope, inner: Polytope):
    """Translate containment, by one LP and by Lutwak's criterion.

    `inner` fits in a generic `outer` by translation iff it fits in every
    simplex cut out by d + 1 facets of `outer`; by Farkas, it fits in the
    one with weights w (`polytope._simplex_rows`) iff
    sum_i w_i (b_i - h_inner(a_i)) >= -feas.  Returns (routes agree, detail).
    """
    if not is_generic(outer):
        raise InputError("outer body must be generic")
    direct, _ = contains_translate(outer, inner)
    b, h = outer.facet_offsets, inner.support(outer.facet_normals)
    idx, _, w = _simplex_rows(outer.facet_normals)
    feas = tolerances.feas(float(np.abs(np.concatenate([b, h])).max()))
    via = bool(((w * (b - h)[idx]).sum(axis=1) >= -feas).all())
    return direct == via, {"direct": direct, "via_simplices": via}
