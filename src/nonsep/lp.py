"""Dense two-phase simplex for the small linear programs used everywhere.

Every decision procedure in this package (containment of a translate,
exact covering ratios, asymmetry, disjointness of hulls) bottoms out in a
linear program with at most a few hundred rows and a few dozen variables.
At that scale a self-contained dense tableau is reproducible, has exactly
the three statuses we need, and its feasible points double as witnesses.

`solve` is the only entry point, and it takes one of the two shapes the
package poses: rows ``a_ub @ x <= b_ub`` over free x, or rows
``a_eq @ x == b_eq`` over x >= 0; both blocks, neither or no rows at all
are an `InputError`.  It maximizes ``c @ x`` (a minimization passes
``-c``), and a feasibility question passes a zero objective and reads
``.optimal`` or ``.x``.  Statuses are ``"optimal"``, ``"infeasible"``,
``"unbounded"``.  `tol` is the phase-1 and pricing threshold,
`tolerances.LP` by default.

One tableau form runs, on the negated objective: standard form,
``min c@y``, ``A y == b``, ``y >= 0``, rows over their largest entry.
An ``a_eq`` block is solved in it as it stands.  An ``a_ub`` block,
``min c@x``, ``A x <= b``, x free, is solved through its dual
``min b@y``, ``A.T y == -c``, ``y >= 0``: n rows over m columns.
x solves the rows the optimal dual basis makes tight, over their largest
entry as the tableau scales them: the row (0.7071..., 0.7071...) is
solved as (1, 1), which keeps the demo triangle's asymmetry at exactly
2.0.  The dual is priced on b as given, so its stopping test is
absolute, like phase 1's; `sigma_lp`, `lambda_min` and
`_chebyshev_centre` (below 1) take power-of-two units (`pow2_unit`).
Priced on ``b / max|b|``, rows whose right-hand sides cancel to +-1e-16
(P holds a translate of P) would read as a contradiction.  x is
certified (``A x <= b``, ``c@x == -b@y`` up to `tolerances.feas`; else
`GeometryError`).  An unbounded dual means an infeasible primal (a zero
objective makes y = 0 dual-feasible, so a feasibility question costs one
LP); an infeasible dual means an unbounded primal unless the Farkas LP
``min b@y``, ``A.T y == 0``, ``sum(y) == 1``, ``y >= 0`` on unit rows
has a negative optimum.

"infeasible" from the ``a_ub`` route carries that proof as ``.farkas``,
one weight per ``a_ub`` row: the dual's ray (y_j = 1 at the column with
no pivot, the basis solved for the rest, clipped at 0), or the Farkas
LP's y over the row scales.  It is given only when it passes the check a
caller could make in a few flops: y >= 0, ``|A.T y| <= ROUNDING *
(|A|.T y)`` column by column, and ``b@y < 0`` (`_farkas`), so it is
certified to rounding as x is.  Every other result has ``farkas=None``,
as does "infeasible" from the ``a_eq`` route.

`witnessed` solves nothing: it checks points a caller writes down against
the rows it would otherwise pass to `solve`, so a feasibility question
with an evident answer costs a few flops instead of an LP.
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
    farkas: np.ndarray | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *,
          tol: float = tolerances.LP) -> LpResult:
    """Maximize ``c @ x`` over exactly one block of rows, ``a_ub @ x <=
    b_ub`` over free x or ``a_eq @ x == b_eq`` over x >= 0."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    free = a_ub is not None or b_ub is not None
    a, b = (a_ub, b_ub) if free else (a_eq, b_eq)
    if free == (a_eq is not None or b_eq is not None) or a is None or b is None:
        raise InputError("an LP takes one block of rows: a_ub, b_ub or a_eq, b_eq")
    # a C-ordered copy: products round the same whatever the caller's layout
    a = np.array(a, dtype=float, ndmin=2, order="C")
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if not b.size or a.shape != (b.size, c.size):
        raise InputError("constraint block shapes are inconsistent or empty")

    farkas = None
    if free:
        status, x, farkas = _solve_dual(-c, a, b, tol)
    else:
        status, x = _standard(-c, a, b, tol)[:2]
    if status != "optimal":
        return LpResult(status, None, None, farkas)
    return LpResult("optimal", float(c @ x), x)


def witnessed(a_ub, b_ub, points) -> bool:
    """Does some row x of `points` meet ``a_ub @ x <= b_ub`` up to
    `tolerances.ROUNDING` of each row's scale?"""
    x = np.atleast_2d(points).T
    excess = a_ub @ x - b_ub[:, None]
    slack = tolerances.ROUNDING * (np.abs(a_ub) @ np.abs(x)
                                   + np.abs(b_ub)[:, None])
    return bool((excess <= slack).all(axis=0).any())


def pow2_unit(values) -> float:
    """max |values| rounded up to a power of two: dividing by it is exact."""
    return np.ldexp(1.0, np.frexp(np.abs(values).max())[1])


def _unit_rows(a, b):
    """Rows and right-hand sides over each row's largest entry (a zero row
    stays), and those entries: row equilibration keeps the ratio tests
    honest across scales."""
    scale = np.abs(a).max(axis=1)
    scale[scale < 1e-30] = 1.0
    return a / scale[:, None], b / scale, scale


def _standard(c, a, b, tol):
    """min c@y, a@y == b, y >= 0; also the optimal basis and the rows it
    kept.  "unbounded" comes with its ray in place of y."""
    rows, rhs, _ = _unit_rows(a, b)
    rows[rhs < 0] *= -1.0
    return _two_phase(rows, np.abs(rhs), c, tol)


def _farkas(a, b, y):
    """y when it proves a@x <= b infeasible up to rounding, else None:
    y >= 0, |y@a| <= ROUNDING * (y@|a|) column by column, and y@b < 0."""
    if (y < 0).any() or not y @ b < 0:
        return None
    if (np.abs(y @ a) > tolerances.ROUNDING * (y @ np.abs(a))).any():
        return None
    return y


def _solve_dual(c, a, b, tol):
    """min c@x subject to a@x <= b, x free, through the standard-form dual.

    Returns (status, x, farkas): x when "optimal"; when "infeasible", the
    checked Farkas vector (`_farkas`) or None."""
    m, n = a.shape
    unit, rhs, scale = _unit_rows(a, b)
    status, y, basis, keep = _standard(b, a.T, -c, tol)
    if status == "unbounded":
        # y is the dual's ray: y >= 0, y@a == 0, y@b < 0
        return "infeasible", None, _farkas(a, b, y)
    if status == "infeasible":
        # Farkas: y >= 0 with y@a == 0 and y@b < 0 exists iff a@x <= b has
        # no solution; the rows are unit-scaled so sum(y) == 1 is fair.
        a_eq = np.vstack([unit.T, np.ones((1, m))])
        w = _standard(rhs, a_eq, np.r_[np.zeros(n), 1.0], tol)[1]
        if w is not None and rhs @ w < -tol * max(1.0, float(np.abs(rhs).max())):
            return "infeasible", None, _farkas(a, b, np.maximum(w, 0.0) / scale)
        return "unbounded", None, None
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


def _ray(A, rows, basis, j, column):
    """The ray of an unbounded standard-form LP along column j: y_j = 1, and
    the basis gives way by B^-1 A_j, clipped at 0.  B^-1 A_j is solved from
    A's kept `rows`; the pivoted tableau's `column` serves only when B is
    singular.  Read off the tableau, 16 of the 308 rays of `sigma_bisection`'s
    test battery failed `_farkas`, and three of its bodies took 32-36 LPs."""
    y = np.zeros(A.shape[1])
    y[j] = 1.0
    try:
        y[basis] = -np.linalg.solve(A[np.ix_(rows, basis)], A[rows, j])
    except np.linalg.LinAlgError:
        y[basis] = -column
    return np.maximum(y, 0.0)


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
