"""Families of integer-translated unit cubes and their hull extremals.

Members are offset + [0,1]^d with pairwise distinct integer offsets, so a
family is automatically a packing.  Against axis-parallel hyperplanes,
non-separability reduces to per-axis contiguity of the occupied slabs and
is decided in exact integer arithmetic.  In the plane the module offers an
exact search for hull-area and hull-perimeter maximizers over the n!
permutation placements (some maximizer is one, by the shadow
normalization argument), a shadow normalizer that moves one crowded
cube per round to the better end of its axis until the box is n * C_d,
and the corner-glued configuration attaining the closed-form area record.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from math import hypot

import numpy as np

from . import tolerances
from .errors import GeometryError, InputError

@dataclass(frozen=True)
class IntegerCubeFamily:
    offsets: np.ndarray  # (n, d) int64, rows pairwise distinct

    def __post_init__(self):
        try:  # ragged rows, None and text are refused here
            raw = np.asarray(self.offsets)
            flo = None if raw.dtype.kind == "i" else np.asarray(raw, dtype=float)
        except (TypeError, ValueError):
            raw = flo = np.zeros(0)
        if raw.ndim != 2 or raw.size == 0 or raw.dtype.kind not in "iufO":
            raise InputError("offsets must form a nonempty (n, d) array of numbers")
        with np.errstate(invalid="ignore"):  # NaN, inf, |x| >= 2**63 fail below
            arr = np.ascontiguousarray(raw if flo is None else np.rint(flo), np.int64)
        if flo is not None and not np.array_equal(arr, flo):
            raise InputError("offsets must be integer vectors")
        if len({tuple(r) for r in arr.tolist()}) != arr.shape[0]:
            raise InputError("offsets must be pairwise distinct")
        arr.setflags(write=False)
        object.__setattr__(self, "offsets", arr)

    @property
    def n(self) -> int:
        return self.offsets.shape[0]

    @property
    def dim(self) -> int:
        return self.offsets.shape[1]

    def corners(self) -> np.ndarray:
        """All member vertices, one block of 2^d corners per cube."""
        shifts = np.array(list(itertools.product((0, 1), repeat=self.dim)),
                          dtype=np.int64)
        return (self.offsets[:, None, :] + shifts[None, :, :]).reshape(-1, self.dim)

    def to_dict(self) -> dict:
        return {"d": self.dim, "offsets": self.offsets.tolist()}


def cube_family_from_dict(obj: dict) -> IntegerCubeFamily:
    if not isinstance(obj, dict) or "offsets" not in obj:
        raise InputError('cube family JSON needs an "offsets" key')
    fam = IntegerCubeFamily(obj["offsets"])
    if "d" in obj and obj["d"] != fam.dim:
        raise InputError("declared dimension disagrees with the offsets")
    return fam


def cube_is_wns(f: IntegerCubeFamily) -> bool:
    """No axis-parallel hyperplane strictly splits the family.

    Exact integer test: per axis, the occupied unit slabs must form one
    contiguous run.  Slabs that merely touch do not split.
    """
    for j in range(f.dim):
        vals = np.unique(f.offsets[:, j])
        if vals[-1] - vals[0] + 1 != vals.size:
            return False
    return True


def bounding_box(f: IntegerCubeFamily) -> tuple[np.ndarray, np.ndarray]:
    """Smallest axis-parallel integer box containing the union."""
    lo = f.offsets.min(axis=0)
    return lo, f.offsets.max(axis=0) + 1


def _chain(pts, start=()) -> list[tuple[int, int]]:
    # one monotone chain on exact integers after `start`; drops collinear points
    out: list[tuple[int, int]] = list(start)
    for p in pts:
        while len(out) >= 2:
            ax, ay = out[-2]
            bx, by = out[-1]
            if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                break
            out.pop()
        out.append(p)
    return out


def _cells_hull(cells) -> list[tuple[int, int]]:
    """Hull of the corners of unit cells (x, y), counter-clockwise from the
    lexicographically smallest, collinear corners dropped: monotone chains
    over the lowest and highest corner of each corner column, which holds
    the cells at x - 1 and x, with no sort of the 4n corners."""
    low: dict[int, int] = {}
    top: dict[int, int] = {}
    for x, y in cells:
        for c in (x, x + 1):
            if low.get(c, y) >= y:
                low[c] = y
            if top.get(c, y) <= y:
                top[c] = y + 1
    cols = sorted(low)
    return (_chain([(c, low[c]) for c in cols])
            + _chain([(c, top[c]) for c in reversed(cols)]))


def _hull_area(h) -> float:
    twice = 0
    for (x1, y1), (x2, y2) in zip(h, h[1:] + h[:1]):
        twice += x1 * y2 - x2 * y1
    return twice / 2.0


def _hull_perimeter(h) -> float:
    per = 0.0
    for (x1, y1), (x2, y2) in zip(h, h[1:] + h[:1]):
        per += hypot(x2 - x1, y2 - y1)
    return per


def hull_metrics(f: IntegerCubeFamily) -> tuple[float, float]:
    """(area, perimeter) of the convex hull of all cube corners.

    The doubled shoelace sum is computed in exact integers, so the area
    comes back exact; the perimeter is a float sum of edge lengths.
    """
    if f.dim != 2:
        raise InputError("hull metrics need d == 2")
    twice, per, h = 0, 0.0, _cells_hull(f.offsets.tolist())
    for (x1, y1), (x2, y2) in zip(h, h[1:] + h[:1]):  # both sums in one pass
        twice += x1 * y2 - x2 * y1
        per += hypot(x2 - x1, y2 - y1)
    return twice / 2.0, per


_PLANAR_OBJECTIVES = {"area": _hull_area, "perimeter": _hull_perimeter}


def _count(n) -> int:
    try:  # ints and numpy integers pass; floats, even 5.0, do not
        return operator.index(n)
    except TypeError:
        raise InputError("n must be an integer") from None


def construct_extremal(n: int) -> IntegerCubeFamily:
    """Corner-glued configuration: four boundary cubes plus a diagonal.

    One cube is glued to each side of the n-box next to a corner, at
    (1,0), (n-1,1), (n-2,n-1) and (0,n-2); the other n-4 run down the
    inner diagonal.  Hull area is n^2 - 2n + 4, the area maximum.  Hull
    perimeter is 4 + 4*sqrt(n^2 - 4n + 5), not the maximum: the staircase
    {(0,0), (1,n-1), (n-1,1)} + {(k,k) : 2 <= k <= n-2} splits the two
    diagonal runs unevenly and reaches 4 + 2*sqrt((n-3)^2 + 1)
    + 2*sqrt((n-1)^2 + 1), the maximum `exhaustive_max` finds for n <= 8.
    """
    n = _count(n)
    if n < 4:
        raise InputError("the construction needs n >= 4")
    offs = [(1, 0), (n - 1, 1), (n - 2, n - 1), (0, n - 2)]
    offs += [(k, k) for k in range(2, n - 2)]
    return IntegerCubeFamily(np.array(offs, dtype=np.int64))


def _objective_value(cells, dim: int, objective: str) -> float:
    if dim == 2 and objective in _PLANAR_OBJECTIVES:
        return _PLANAR_OBJECTIVES[objective](_cells_hull(cells))
    if dim == 3 and objective == "volume":
        from scipy.spatial import ConvexHull  # the only scipy use here

        return float(ConvexHull(IntegerCubeFamily(np.array(cells)).corners()).volume)
    raise InputError(f"unsupported objective {objective!r} in dimension {dim}")


def shadow_normalize(f: IntegerCubeFamily,
                     objective: str = "area") -> IntegerCubeFamily:
    """Grow the bounding box to the n-box by re-homing crowded slabs.

    Integer input makes the residue-merging phase a no-op, so the routine
    goes straight to endpoint moves.  Each round takes the first axis with
    extent below n and the first cell, in row order, that shares its slab
    on that axis (one does, by pigeonhole), and moves it to `lo - 1`, or to
    `hi + 1` when that scores more than `tolerances.CUBE_CANDIDATE` higher.
    Hull measures are convex along the cube's track, so the better end
    never scores below the current family.  A move scoring more than
    `tolerances.CUBE_SCORE` below it, a move that would split the axis and
    a failed `cube_is_wns` re-check raise `GeometryError`.  Each move widens
    one extent by one, so the objective is scored 1 + 2 * sum_j (n - extent_j)
    times, and the result, translated to offset 0, fills the n-box.
    """
    if not cube_is_wns(f):
        raise InputError("family is separable along an axis")
    cur = [tuple(c) for c in f.offsets.tolist()]
    val = _objective_value(cur, f.dim, objective)  # rejects unsupported ones
    while True:
        slabs = [Counter(col) for col in zip(*cur)]
        j = next((j for j, s in enumerate(slabs) if max(s) - min(s) + 1 < f.n), None)
        if j is None:
            break
        s = slabs[j]
        lo, hi = min(s), max(s)
        i = next(i for i, cell in enumerate(cur) if s[cell[j]] >= 2)
        # the old slab keeps a cube and both ends lie outside every cell, so
        # the moved family stays valid if axis j is one run of slabs
        if hi - lo + 1 != len(s):
            raise GeometryError(f"invalid move of {cur[i]} along axis {j}")
        ends = [cur[:i] + [cur[i][:j] + (t,) + cur[i][j + 1:]] + cur[i + 1:]
                for t in (lo - 1, hi + 1)]
        scores = [_objective_value(c, f.dim, objective) for c in ends]
        k = int(scores[1] > scores[0] + tolerances.CUBE_CANDIDATE)
        if scores[k] < val - tolerances.CUBE_SCORE:
            raise GeometryError(f"both ends of the track score below {val}")
        val, cur = scores[k], ends[k]
        if not cube_is_wns(IntegerCubeFamily(np.array(cur))):
            raise GeometryError("normalized family is separable along an axis")
    offsets = np.array(cur, dtype=np.int64)
    return IntegerCubeFamily(offsets - offsets.min(axis=0))


def exhaustive_max(n: int, objective: str) -> tuple[IntegerCubeFamily, float]:
    """Best axis-non-separable placement of n unit cubes, for 4 <= n <= 8.

    Only permutation placements {(i, p(i))} need scoring.  The argument
    of `shadow_normalize`: while an axis extent is below n, some slab
    holds two cubes, and moving one of them to an end of that axis keeps
    the family axis-contiguous and, the hull measure being convex along
    the cube's track, never lowers it.  Each move widens an extent by
    one, so some maximizer has n cubes on n slabs along both axes, one per
    slab: a permutation matrix.  The n! permutations are scored in
    lexicographic order, which is row-major cell order, and the first
    one beating the best so far by more than `tolerances.CUBE_SCORE` wins.
    The walk is depth first, on chain stacks (the upper one as (x, -top)).
    n = 8 takes about 0.4 s on one core of a 2-core Xeon host; n = 9 would
    take about nine times as long and is refused.
    """
    n = _count(n)
    if not 4 <= n <= 8:
        raise InputError("search supports 4 <= n <= 8")
    if objective not in _PLANAR_OBJECTIVES:
        raise InputError(f"unsupported objective {objective!r}")
    value = _PLANAR_OBJECTIVES[objective]
    best = [-1.0, None]

    def grow(perm, free, low, top):
        x = len(perm)
        for j, y in enumerate(free or perm[-1:]):  # a leaf closes column n
            p = perm[-1] if perm else y
            lo, up = _chain(((x, min(p, y)),), low), _chain(((x, -1 - max(p, y)),), top)
            if free:
                grow(perm + (y,), free[:j] + free[j + 1:], lo, up)
                continue
            v = value(lo + [(c, -t) for c, t in reversed(up)])
            if v > best[0] + tolerances.CUBE_SCORE:
                best[:] = v, perm

    grow((), tuple(range(n)), [], [])
    offsets = np.array(list(enumerate(best[1])), dtype=np.int64)
    return IntegerCubeFamily(offsets), best[0]
