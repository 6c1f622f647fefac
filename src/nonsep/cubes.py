"""Families of integer-translated unit cubes and their hull extremals.

Members are offset + [0,1]^d with pairwise distinct integer offsets, so a
family is automatically a packing.  Against axis-parallel hyperplanes,
non-separability reduces to per-axis contiguity of the occupied slabs and
is decided in exact integer arithmetic.  In the plane the module offers an
exact search for hull-area and hull-perimeter maximizers over the n!
permutation placements (some maximizer is one, by the shadow
normalization argument), a greedy shadow normalizer that grows the
bounding box to n * C_d, and the corner-glued configuration attaining
the closed-form area record.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import hypot

import numpy as np

from .errors import InputError
from .family import HomotheticFamily
from .polytope import Polytope, cube, measure

@dataclass(frozen=True)
class IntegerCubeFamily:
    offsets: np.ndarray  # (n, d) int64, rows pairwise distinct

    def __post_init__(self):
        raw = np.asarray(self.offsets)
        if raw.ndim != 2 or raw.size == 0:
            raise InputError("offsets must form a nonempty (n, d) array")
        if np.issubdtype(raw.dtype, np.integer):
            arr = np.ascontiguousarray(raw, dtype=np.int64)
        else:
            flo = np.asarray(raw, dtype=float)
            arr = np.rint(flo).astype(np.int64)
            if not np.array_equal(arr, flo):
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

    def as_homothets(self) -> HomotheticFamily:
        """The same family as unit homothets of the centred cube (n >= 2)."""
        return HomotheticFamily(cube(self.dim), self.offsets + 0.5,
                                np.ones(self.n))

    def to_dict(self) -> dict:
        return {"d": self.dim, "offsets": self.offsets.tolist()}


def cube_family_from_dict(obj: dict) -> IntegerCubeFamily:
    if not isinstance(obj, dict) or "offsets" not in obj:
        raise InputError('cube family JSON needs an "offsets" key')
    fam = IntegerCubeFamily(np.array(obj["offsets"]))
    if "d" in obj and int(obj["d"]) != fam.dim:
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


def _hull_2d(points) -> list[tuple[int, int]]:
    # monotone chain on exact integers; collinear points are dropped
    pts = sorted(set(map(tuple, points)))

    def chain(seq):
        out: list[tuple[int, int]] = []
        for p in seq:
            while len(out) >= 2:
                ax, ay = out[-2]
                bx, by = out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return lower[:-1] + upper[:-1]


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
    h = _hull_2d(map(tuple, f.corners().tolist()))
    return _hull_area(h), _hull_perimeter(h)


_PLANAR_OBJECTIVES = {"area": _hull_area, "perimeter": _hull_perimeter}


def construct_extremal(n: int, d: int = 2) -> IntegerCubeFamily:
    """Corner-glued configuration: four boundary cubes plus a diagonal.

    One cube is glued to each side of the n-box next to a corner, at
    (1,0), (n-1,1), (n-2,n-1) and (0,n-2); the remaining n-4 cubes run
    down the diagonal of the inner box.  Hull area is n^2 - 2n + 4, the
    area maximum.  Hull perimeter is 4 + 4*sqrt(n^2 - 4n + 5), which is
    this configuration's perimeter and not the perimeter maximum: both
    long hull edges climb diagonal runs of length n-2.  The staircase
    W_n = {(0,0), (1,n-1), (n-1,1)} + {(k,k) : 2 <= k <= n-2} splits the
    runs as n-3 and n-1 and, since sqrt(k^2 + 1) is convex in k, reaches
    the larger 4 + 2*sqrt((n-3)^2 + 1) + 2*sqrt((n-1)^2 + 1), which
    `exhaustive_max` confirms as the maximum for 4 <= n <= 8.
    """
    if d != 2:
        raise InputError("the construction is planar")
    if n < 4:
        raise InputError("the construction needs n >= 4")
    offs = [(1, 0), (n - 1, 1), (n - 2, n - 1), (0, n - 2)]
    offs += [(k, k) for k in range(2, n - 2)]
    return IntegerCubeFamily(np.array(offs, dtype=np.int64))


def _objective_value(f: IntegerCubeFamily, objective: str) -> float:
    if f.dim == 2 and objective in _PLANAR_OBJECTIVES:
        h = _hull_2d(map(tuple, f.corners().tolist()))
        return _PLANAR_OBJECTIVES[objective](h)
    if f.dim == 3 and objective == "volume":
        return measure(Polytope.from_vertices(f.corners().astype(float)),
                       "volume")
    raise InputError(f"unsupported objective {objective!r} in dimension {f.dim}")


def shadow_normalize(f: IntegerCubeFamily,
                     objective: str = "area") -> IntegerCubeFamily:
    """Grow the bounding box towards n * C_d by re-homing crowded slabs.

    Integer input makes the residue-merging phase a no-op, so the routine
    goes straight to endpoint moves: while some axis extent is below n, a
    deficient axis has a multiply-occupied slab by pigeonhole, and one of
    its cubes is moved to whichever end of the axis scores best.  Hull
    measures are convex along such single-cube tracks, so the best end
    never scores below the current position; every move keeps the family
    valid here (checked step by step) and widens one extent by one, which
    bounds the loop.  Should scoring ever regress, the current family is
    returned as a local maximum.  The result is translated to offset 0.
    """
    if not cube_is_wns(f):
        raise InputError("family is separable along an axis")
    val = _objective_value(f, objective)  # rejects unsupported objectives
    cur = np.array(f.offsets)
    n = cur.shape[0]
    while True:
        lo = cur.min(axis=0)
        hi = cur.max(axis=0)
        deficient = [j for j in range(cur.shape[1]) if hi[j] - lo[j] + 1 < n]
        if not deficient:
            break
        best = None
        for j in deficient:
            col = cur[:, j].tolist()
            for i in range(n):
                if col.count(col[i]) < 2:
                    continue
                for target in (lo[j] - 1, hi[j] + 1):
                    cand = cur.copy()
                    cand[i, j] = target
                    fam = IntegerCubeFamily(cand)
                    assert cube_is_wns(fam)
                    v = _objective_value(fam, objective)
                    if best is None or v > best[0] + 1e-12:
                        best = (v, cand)
        if best is None or best[0] < val - 1e-9:
            break
        val, cur = best[0], best[1]
    return IntegerCubeFamily(cur - cur.min(axis=0))


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
    one beating the best so far by more than 1e-9 wins.  n = 9 would take
    about ten times as long as n = 8 and is refused.
    """
    if not 4 <= n <= 8:
        raise InputError("search supports 4 <= n <= 8")
    if objective not in _PLANAR_OBJECTIVES:
        raise InputError(f"unsupported objective {objective!r}")
    value = _PLANAR_OBJECTIVES[objective]
    shifts = ((0, 0), (1, 0), (0, 1), (1, 1))
    best_val = -1.0
    best_perm = None
    for perm in itertools.permutations(range(n)):
        corners = {(x + dx, y + dy)
                   for x, y in enumerate(perm) for dx, dy in shifts}
        v = value(_hull_2d(corners))
        if v > best_val + 1e-9:
            best_val = v
            best_perm = perm
    offsets = np.array(list(enumerate(best_perm)), dtype=np.int64)
    return IntegerCubeFamily(offsets), best_val
