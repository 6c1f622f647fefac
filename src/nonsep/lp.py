"""Dense two-phase simplex for the small linear programs used everywhere.

Every decision procedure in this package (containment of a translate,
exact covering ratios, asymmetry, disjointness of hulls) bottoms out in a
linear program with at most a few hundred rows and a few dozen variables.
At that scale a self-contained dense tableau is reproducible, has exactly
the three statuses we need, and its feasible points double as witnesses.

`solve` is the only entry point.  Rows are ``row @ x <= rhs`` or
``row @ x == rhs``; it maximizes unless told otherwise, and a feasibility
question passes a zero objective and reads ``.optimal`` or ``.x``.
Statuses are ``"optimal"``, ``"infeasible"``, ``"unbounded"``.  Variables
are free, or with ``nonneg=True`` non-negative with one tableau column
each, so standard form (``A y == b``, ``y >= 0``) needs no ``-I`` rows.
`tol` is the phase-1 and pricing threshold, `tolerances.LP` by default.

Tall free LPs (``min c@x``, ``A x <= b``, no equality rows, more than
twice as many rows m as variables n) are solved through their dual in
standard form, ``min b@y``, ``A.T y == -c``, ``y >= 0``: n rows over m
columns, so a pivot costs O(nm) where the split primal tableau costs
O(m^2).  x is the solution of the primal rows the optimal dual basis
makes tight, taken in ascending row order, and is certified before it is
returned (``A x <= b`` and ``c@x == -b@y`` up to `tolerances.feas`;
otherwise `GeometryError`).  Statuses follow duality: an unbounded dual
means an infeasible primal; an infeasible dual means an unbounded primal
unless the Farkas LP ``min b@y``, ``A.T y == 0``, ``sum(y) == 1``,
``y >= 0`` (on unit-scaled rows) has a negative optimum, which means an
infeasible one.  Shorter LPs keep the split primal tableau, whose round-off
the pinned outputs of small bodies were computed with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import GeometryError, InputError

# Pivot elements below this are treated as zero regardless of the caller's
# feasibility tolerance; ratio tests on smaller entries are unstable.
_PIVOT_EPS = 1e-11
_MAX_ITER = 20000
_BLAND_AFTER = 2000


@dataclass(frozen=True)
class LpResult:
    status: str
    value: float | None
    x: np.ndarray | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *, maximize=True,
          nonneg=False, tol: float = tolerances.LP) -> LpResult:
    """Matrix-form entry point. Arrays may be None when a block is absent."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, float))
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, float))
    if a_ub.shape != (b_ub.size, n) or a_eq.shape != (b_eq.size, n):
        raise InputError("constraint block shapes are inconsistent")

    c_min = -c if maximize else c
    if nonneg or b_eq.size or b_ub.size <= 2 * n:
        status, x = _solve_min(c_min, a_ub, b_ub, a_eq, b_eq, tol, not nonneg)[:2]
    else:
        status, x = _solve_dual(c_min, a_ub, b_ub, tol)
    if status != "optimal":
        return LpResult(status, None, None)
    return LpResult("optimal", float(c @ x), x)


def _unit_rows(a, b):
    """Rows and right-hand sides over each row's largest entry (a zero row
    stays): row equilibration keeps the ratio tests honest across scales."""
    scale = np.abs(a).max(axis=1)
    scale[scale < 1e-30] = 1.0
    return a / scale[:, None], b / scale


def _solve_dual(c, a, b, tol):
    """min c@x subject to a@x <= b, x free, through the standard-form dual."""
    m, n = a.shape
    no_rows = np.zeros((0, m)), np.zeros(0)
    status, y, basis, keep = _solve_min(b, *no_rows, a.T, -c, tol, free=False)
    if status == "unbounded":
        return "infeasible", None
    if status == "infeasible":
        # Farkas: y >= 0 with y@a == 0 and y@b < 0 exists iff a@x <= b has
        # no solution; the rows are unit-scaled so sum(y) == 1 is fair.
        unit, rhs = _unit_rows(a, b)
        a_eq = np.vstack([unit.T, np.ones((1, m))])
        b_eq = np.zeros(n + 1)
        b_eq[n] = 1.0
        _, w = _solve_min(rhs, *no_rows, a_eq, b_eq, tol, free=False)[:2]
        if w is not None and rhs @ w < -tol * max(1.0, float(np.abs(rhs).max())):
            return "infeasible", None
        return "unbounded", None
    rows = np.sort(basis)
    x = np.zeros(n)
    try:
        x[keep] = np.linalg.solve(a[np.ix_(rows, keep)], b[rows])
    except np.linalg.LinAlgError as exc:
        raise GeometryError("dual LP basis is singular") from exc
    scale = max(float(np.abs(b).max()), float((np.abs(a) @ np.abs(x)).max()))
    gap = abs(float(c @ x + b @ y))
    if (a @ x - b).max() > tolerances.feas(scale) or gap > tolerances.feas(
            max(scale, float(np.abs(b) @ y))):
        raise GeometryError("dual LP solution failed its certificate")
    return "optimal", x


def _solve_min(c, a_ub, b_ub, a_eq, b_eq, tol, free=True):
    """min c@x, x free or >= 0. Splits free variables, adds slacks, runs
    two phases.  Also returns the optimal basis and the rows it kept."""
    n = c.size
    n_neg = n if free else 0
    m_ub, m_eq = b_ub.size, b_eq.size
    m = m_ub + m_eq

    if m == 0:
        # Unconstrained: optimal only for a zero objective (x >= 0: none < 0).
        if np.abs(c if free else np.minimum(c, 0.0)).max(initial=0.0) <= tol:
            return "optimal", np.zeros(n), [], []
        return "unbounded", None, None, None

    rows, rhs = _unit_rows(np.vstack([a_ub, a_eq]), np.concatenate([b_ub, b_eq]))

    # x = xp - xm (free x only), slack per inequality row.
    ncols = n + n_neg + m_ub
    big = np.zeros((m, ncols))
    big[:, :n] = rows
    big[:, n:n + n_neg] = -rows[:, :n_neg]
    big[:m_ub, n + n_neg:] = np.eye(m_ub)
    neg = rhs < 0
    big[neg] *= -1.0
    rhs = np.abs(rhs)

    cost = np.zeros(ncols)
    cost[:n] = c
    cost[n:n + n_neg] = -c[:n_neg]

    status, y, basis, keep = _two_phase(big, rhs, cost, tol)
    if status != "optimal":
        return status, None, None, None
    return "optimal", y[:n] - y[n:2 * n] if free else y[:n], basis, keep


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
            if abs(T[r, j]) > _PIVOT_EPS:
                _pivot(T, z, basis, r, j)
            else:
                continue
        keep.append(r)
    if len(keep) < m:
        T = T[keep]
        basis = [basis[r] for r in keep]
        m = len(keep)

    T = np.hstack([T[:, :n], T[:, -1:]])

    # Phase 2 with the true costs.
    z2 = np.concatenate([c, [0.0]])
    for r in range(m):
        coeff = z2[basis[r]]
        if coeff != 0.0:
            z2 -= coeff * T[r]
    status = _iterate(T, z2, basis, n, tol)
    if status == "unbounded":
        return "unbounded", None, None, None

    x = np.zeros(n)
    for r, j in enumerate(basis):
        x[j] = T[r, -1]
    return "optimal", x, basis, keep


def _iterate(T, z, basis, ncols, tol):
    for it in range(_MAX_ITER):
        if it < _BLAND_AFTER:
            j = int(np.argmin(z[:ncols]))
            if z[j] >= -tol:
                return "optimal"
        else:
            # Bland's rule: slower, cycle-free.
            negs = np.nonzero(z[:ncols] < -tol)[0]
            if negs.size == 0:
                return "optimal"
            j = int(negs[0])
        col = T[:, j]
        pivotable = col > _PIVOT_EPS
        if not pivotable.any():
            return "unbounded"
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
