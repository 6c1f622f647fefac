"""Dense two-phase simplex for the small linear programs used everywhere.

Every decision procedure in this package (containment of a translate,
exact covering ratios, asymmetry, disjointness of hulls) bottoms out in a
linear program with at most a few hundred rows and a few dozen variables.
At that scale a self-contained dense tableau is reproducible, has exactly
the three statuses we need, and its feasible points double as witnesses.

`solve` is the only entry point, and it takes one shape: rows ``a_ub @
x <= b_ub`` over free x (no rows, or data not finite, is an `InputError`).
It maximizes ``c @ x`` (a minimization passes ``-c``, x >= 0 is the rows
``-x <= 0``), and a feasibility question passes a zero objective and reads
``.optimal`` or ``.x``.  Statuses are ``"optimal"``, ``"infeasible"``,
``"unbounded"``.  `tol` is the phase-1 and pricing threshold,
`tolerances.LP` by default.

One tableau form runs: standard form, ``min c@y``, ``A y == b``, ``y >=
0``, rows over their largest entry, the cost row last.  Pivots run in
place, and phase 2 reuses the phase-1 tableau and prices its first n
columns only, so no tableau is copied; the pivots, and every result to the
bit, are those of the copying kernel kept in `tests/helpers.py`.  The rows,
``min c@x``, ``A x <= b``, x free, are solved through their dual ``min
b@y``, ``A.T y == -c``, ``y >= 0``: n rows over m columns.  A caller with a
standard-form question poses the free LP whose dual it is.
x solves the rows the optimal dual basis makes tight, over their largest
entry as the tableau scales them: the row (0.7071..., 0.7071...) is
solved as (1, 1), which keeps the demo triangle's asymmetry at exactly
2.0.  With b == 0, x = 0 is feasible and meets ``b@y == 0``, so it is
returned with no solve.  The dual is priced on b as given, so its
stopping test is absolute, like phase 1's; `sigma_lp`, `lambda_min` and
`_chebyshev_centre` (below 1) take power-of-two units (`pow2_unit`).
Priced on ``b / max|b|``, rows whose right-hand sides cancel to +-1e-16
(P holds a translate of P) would read as a contradiction.  x is
certified (``A x <= b``, ``c@x == -b@y`` up to `tolerances.feas`; else
`GeometryError`).  An unbounded dual means an infeasible primal (a zero
objective makes y = 0 dual-feasible, so a feasibility question costs one
LP).  An infeasible dual means an unbounded primal once the primal is
feasible: when b >= 0, x = 0 is; else the dual of the zero objective
decides, as for a feasibility question.

"infeasible" carries that proof as ``.farkas``, one weight per row: the
ray of the unbounded dual (y_j = 1 at the column with no pivot, the
basis solved for the rest, clipped at 0).  It is given only when it
passes the check a caller could make in a few flops: y >= 0, ``|A.T y|
<= ROUNDING * (|A|.T y)`` column by column, and ``b@y < 0``
(`_farkas`), so it is certified to rounding as x is.  Every other result
has ``farkas=None``.

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
# Ratios this close to the least tie; the lowest basis index leaves (Bland).
_TIE_BAND = 1e-12
# A row whose largest entry is below this is a zero row and is not scaled.
_ZERO_ROW = 1e-30
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


def solve(c, a_ub, b_ub, *, tol: float = tolerances.LP) -> LpResult:
    """Maximize ``c @ x`` subject to ``a_ub @ x <= b_ub``, x free."""
    c = np.array(c, dtype=float, ndmin=1)
    # a C-ordered copy: products round the same whatever the caller's layout
    a = np.array(a_ub, dtype=float, ndmin=2, order="C")
    b = np.array(b_ub, dtype=float, ndmin=1)
    if not b.size or a.shape != (b.size, c.size):
        raise InputError("constraint block shapes are inconsistent or empty")
    if not all(np.isfinite(v).all() for v in (c, a, b)):
        raise InputError("LP data must be finite")
    status, x, farkas = _solve_dual(-c, a, b, tol)
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
    stays): row equilibration keeps the ratio tests honest across scales."""
    scale = np.abs(a).max(axis=1)
    scale[scale < _ZERO_ROW] = 1.0
    return a / scale[:, None], b / scale


def _standard(c, a, b, tol):
    """min c@y, a@y == b, y >= 0; also the optimal basis and the rows it
    kept.  "unbounded" comes with its ray in place of y."""
    rows, rhs = _unit_rows(a, b)
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
    rows = np.sort(basis)
    unit, rhs = _unit_rows(a[rows], b[rows])
    x = np.zeros(n)
    try:
        x[keep] = np.linalg.solve(unit[:, keep], rhs)
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
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))

    # Phase 1: reduced costs for min(sum of artificials), in the last row.
    z = T[m]
    z[n:n + m] = 1.0
    for r in range(m):
        z -= T[r]
    _iterate(T, basis, n + m, tol)
    if -z[-1] > tol * max(1.0, float(np.abs(b).max(initial=0.0))):
        return "infeasible", None, None, None

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for r in range(m):
        if basis[r] >= n:
            j = int(np.argmax(np.abs(T[r, :n])))
            if abs(T[r, j]) <= _PIVOT_EPS:
                continue
            _pivot(T, basis, r, j)
        keep.append(r)
    if len(keep) < m:
        T = T[keep + [m]]
        basis = [basis[r] for r in keep]

    # Phase 2 with the true costs, priced on the first n columns only.
    z = T[-1]
    z[:n], z[-1] = c, 0.0
    for r, j in enumerate(basis):
        if z[j] != 0.0:
            z -= z[j] * T[r]
    j = _iterate(T, basis, n, tol)
    if j is not None:
        return "unbounded", _ray(A, keep, basis, j, T[:-1, j]), None, None
    x = np.zeros(n)
    x[basis] = T[:-1, -1]
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


def _iterate(T, basis, ncols, tol):
    """Pivot to optimality (None) or to a column with no pivot (returned),
    pricing the first `ncols` reduced costs, T's last row."""
    z, rhs, infs = T[-1, :ncols], T[:-1, -1], np.full(len(T) - 1, np.inf)
    for it in range(_MAX_ITER):
        if it < _BLAND_AFTER:
            j = int(z.argmin())
            if z[j] >= -tol:
                return None
        else:
            # Bland's rule: slower, cycle-free.
            negs = (z < -tol).nonzero()[0]
            if negs.size == 0:
                return None
            j = int(negs[0])
        col = T[:-1, j]
        pivotable = col > _PIVOT_EPS
        ratios = np.divide(rhs, col, out=infs.copy(), where=pivotable)
        r = int(ratios.argmin())
        if ratios[r] == np.inf and not pivotable.any():
            return j
        ties = ratios <= ratios[r] + _TIE_BAND
        if np.count_nonzero(ties) > 1:
            r = int(min(ties.nonzero()[0], key=basis.__getitem__))
        _pivot(T, basis, r, j)
    raise GeometryError("simplex iteration limit reached")


def _pivot(T, basis, r, j):
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= col[:, None] * T[r]
    basis[r] = j
