import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    ORACLE_OBJECTIVES,
    brute_max_hull,
    cell_corners,
    hull_2d_oracle,
    perimeter_record,
    perimeter_witness,
    permutation_max_oracle,
    shadow_normalize_oracle,
)
from nonsep import cubes
from nonsep.cubes import (
    IntegerCubeFamily,
    _cells_hull,
    bounding_box,
    construct_extremal,
    cube_family_from_dict,
    cube_is_wns,
    exhaustive_max,
    hull_metrics,
    shadow_normalize,
)
from nonsep.errors import GeometryError, InputError
from nonsep.family import HomotheticFamily, is_wns
from nonsep.polytope import Polytope, cube, measure

F5 = [(1, 0), (4, 1), (3, 4), (0, 3), (2, 2)]


def fam(offs):
    return IntegerCubeFamily(np.array(offs))


def offsets_sorted(f):
    return sorted(map(tuple, f.offsets.tolist()))


def test_validation():
    with pytest.raises(InputError):
        fam([(0, 0), (0, 0)])
    with pytest.raises(InputError):
        fam([(0.5, 0), (1, 1)])
    with pytest.raises(InputError):
        IntegerCubeFamily(np.zeros((0, 2)))
    with pytest.raises(InputError):
        IntegerCubeFamily(np.array([1, 2, 3]))
    single = fam([(7, -3)])
    assert single.n == 1 and single.dim == 2


def test_integer_floats_accepted():
    f = fam([(0.0, 1.0), (2.0, 0.0)])
    assert f.offsets.dtype == np.int64
    assert offsets_sorted(f) == [(0, 1), (2, 0)]


@pytest.mark.parametrize("build, raw", [
    (cube_family_from_dict, {"d": "x", "offsets": [[0, 0], [1, 1]]}),
    (cube_family_from_dict, {"d": None, "offsets": [[0, 0], [1, 1]]}),
    (cube_family_from_dict, {"d": 2, "offsets": [[0, 0], [1]]}),
    (cube_family_from_dict, {"d": 2, "offsets": [[1e30, 0], [0, 1]]}),
    (IntegerCubeFamily, [["a", 0]]),
    (IntegerCubeFamily, [["1", 0]]),
    (IntegerCubeFamily, [[None, 0]]),
    (IntegerCubeFamily, [[1e30, 0]]),
    (IntegerCubeFamily, [[-1e30, 0], [0, 1]]),
    (IntegerCubeFamily, [[2.0 ** 63, 0]]),
    (IntegerCubeFamily, [[2 ** 70, 0]]),
    (IntegerCubeFamily, [[float("nan"), 0]]),
    (IntegerCubeFamily, [[float("inf"), 0]]),
    (IntegerCubeFamily, np.array([[2 ** 64 - 1, 0], [0, 1]], dtype=np.uint64)),
    (cube_family_from_dict, {"offsets": [[2 ** 64 - 1, 0], [0, 1]]}),
], ids=["d-text", "d-none", "ragged", "dict-1e30", "text", "numeric-text", "none",
        "1e30", "-1e30", "2**63", "bigint", "nan", "inf", "uint64", "dict-2**64-1"])
def test_malformed_input_is_an_input_error_without_warnings(build, raw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            build(raw)


def test_largest_integer_offsets_accepted():
    f = fam([(-2.0 ** 63, 0), (2.0 ** 62, 1)])
    assert f.offsets.tolist() == [[-2 ** 63, 0], [2 ** 62, 1]]
    small = IntegerCubeFamily(np.array([[3, 0], [0, 1]], dtype=np.uint8))
    assert small.offsets.dtype == np.int64 and small.offsets.tolist() == [[3, 0], [0, 1]]


def test_axis_separability_examples():
    assert cube_is_wns(fam(F5))
    assert not cube_is_wns(fam([(0, 0), (2, 2)]))
    assert cube_is_wns(fam([(0, 0), (1, 1)]))
    assert cube_is_wns(fam([(0, 0), (1, 0)]))
    # contiguous in x, gap in y
    assert not cube_is_wns(fam([(0, 0), (1, 2)]))


def test_bounding_box_examples():
    lo, hi = bounding_box(fam(F5))
    assert lo.tolist() == [0, 0] and hi.tolist() == [5, 5]
    lo, hi = bounding_box(fam([(2, 5)]))
    assert lo.tolist() == [2, 5] and hi.tolist() == [3, 6]
    lo, hi = bounding_box(fam([(0, 0), (1, 0)]))
    assert lo.tolist() == [0, 0] and hi.tolist() == [2, 1]


def test_hull_metrics_small_cases():
    assert hull_metrics(fam([(0, 0)])) == (1.0, 4.0)
    for k in (2, 3, 5):
        row = fam([(i, 0) for i in range(k)])
        assert hull_metrics(row) == (float(k), float(2 * k + 2))
    with pytest.raises(InputError):
        hull_metrics(fam([(0, 0, 0), (1, 0, 0)]))


def test_hull_metrics_two_diagonal_cubes():
    # hexagon: four unit edges and two diagonals
    area, per = hull_metrics(fam([(0, 0), (1, 1)]))
    assert area == 3.0
    assert per == pytest.approx(4 + 2 * np.sqrt(2), abs=1e-12)


def test_cells_hull_matches_corner_hull_oracle():
    # single cells, rows, columns, gaps between occupied columns and
    # negative coordinates; hull_metrics must agree to the bit as well
    rng = np.random.default_rng(2024)
    shapes = {"single": 0, "gapped": 0}
    for trial in range(3000):
        n = 1 if trial % 10 == 0 else int(rng.integers(1, 13))
        span = int(rng.integers(1, 9))
        draws = rng.integers(-span, span + 1, size=(n, 2)).tolist()
        cells = list(dict.fromkeys(map(tuple, draws)))  # distinct, in draw order
        want = hull_2d_oracle(cell_corners(cells))
        assert _cells_hull(cells) == want, cells
        area, per = hull_metrics(fam(cells))
        assert area == ORACLE_OBJECTIVES["area"](want)
        assert per == ORACLE_OBJECTIVES["perimeter"](want)
        xs = {x for x, _ in cells}
        shapes["single"] += len(cells) == 1
        shapes["gapped"] += max(xs) - min(xs) + 1 > len(xs)
    assert shapes["single"] >= 300 and shapes["gapped"] >= 300


def test_construction_pinned_offsets():
    assert offsets_sorted(construct_extremal(4)) == sorted(
        [(1, 0), (3, 1), (2, 3), (0, 2)])
    assert offsets_sorted(construct_extremal(5)) == sorted(F5)
    with pytest.raises(InputError):
        construct_extremal(3)


@pytest.mark.parametrize("n", range(4, 13))
def test_construction_attains_closed_forms(n):
    f = construct_extremal(n)
    assert f.n == n
    assert cube_is_wns(f)
    lo, hi = bounding_box(f)
    assert lo.tolist() == [0, 0] and hi.tolist() == [n, n]
    area, per = hull_metrics(f)
    assert area == float(n * n - 2 * n + 4)
    assert per == pytest.approx(4 + 4 * np.sqrt(n * n - 4 * n + 5), abs=1e-9)


def test_normalize_two_cube_column():
    out = shadow_normalize(fam([(0, 0), (0, 1)]))
    assert offsets_sorted(out) in ([(0, 0), (1, 1)], [(0, 1), (1, 0)])
    lo, hi = bounding_box(out)
    assert (hi - lo).tolist() == [2, 2]


@pytest.mark.parametrize("objective", ["area", "perimeter"])
def test_normalize_spreads_column(objective):
    col = fam([(0, k) for k in range(5)])
    before = dict(zip(("area", "perimeter"), hull_metrics(col)))[objective]
    out = shadow_normalize(col, objective)
    assert cube_is_wns(out)
    lo, hi = bounding_box(out)
    assert (hi - lo).tolist() == [5, 5]
    after = dict(zip(("area", "perimeter"), hull_metrics(out)))[objective]
    assert after > before


def test_normalize_fixed_point():
    f = construct_extremal(6)
    out = shadow_normalize(f, "perimeter")
    assert offsets_sorted(out) == offsets_sorted(f)


def test_normalize_never_decreases_objective():
    rng = np.random.default_rng(11)
    done = 0
    while done < 20:
        n = int(rng.integers(2, 6))
        cells = rng.choice(16, size=n, replace=False)
        f = IntegerCubeFamily(np.stack([cells // 4, cells % 4], axis=1))
        if not cube_is_wns(f):
            continue
        done += 1
        for objective in ("area", "perimeter"):
            before = dict(zip(("area", "perimeter"), hull_metrics(f)))[objective]
            out = shadow_normalize(f, objective)
            after = dict(zip(("area", "perimeter"), hull_metrics(out)))[objective]
            assert after >= before - 1e-9
            assert cube_is_wns(out)
            # the lemma behind exhaustive_max: normalizing ends on a
            # permutation matrix, so no family beats the permutation search
            assert (sorted(out.offsets[:, 0]) == list(range(n))
                    and sorted(out.offsets[:, 1]) == list(range(n))
                    and (n < 4 or after <= exhaustive_max(n, objective)[1] + 1e-9))


def contiguous_cells(rng, n, d=2):
    """n distinct cells whose occupied slabs form one run per axis."""
    while True:
        extents = rng.integers(1, n + 1, size=d)
        cols = [rng.permutation(np.concatenate(
            [np.arange(k), rng.integers(0, k, size=n - k)])) for k in extents]
        cells = np.stack(cols, axis=1) + rng.integers(-3, 4, size=d)
        if len({tuple(c) for c in cells.tolist()}) == n:
            return cells


@pytest.mark.parametrize("objective", ["area", "perimeter", "volume"])
def test_normalize_matches_per_candidate_family_oracle(objective):
    rng = np.random.default_rng({"area": 7, "perimeter": 8, "volume": 9}[objective])
    trials = 40 if objective == "volume" else 300
    moved = 0
    for trial in range(trials):
        if objective == "volume":
            f = IntegerCubeFamily(contiguous_cells(rng, 3 + trial % 4, d=3))
        else:
            f = IntegerCubeFamily(contiguous_cells(rng, 2 + trial % 9))
        out = shadow_normalize(f, objective)
        assert out.offsets.tolist() == shadow_normalize_oracle(f, objective)
        moved += out.offsets.tolist() != (f.offsets - f.offsets.min(axis=0)).tolist()
    assert moved >= trials // 2


def test_normalize_fills_the_box_in_three_dimensions():
    # the lemma in d = 3: every result holds one cube per slab on each axis
    # and keeps at least the starting volume
    rng = np.random.default_rng(30)

    def volume(offsets):
        return measure(Polytope.from_vertices(
            IntegerCubeFamily(offsets).corners().astype(float)), "volume")

    for trial in range(40):
        n = 3 + trial % 4
        f = IntegerCubeFamily(contiguous_cells(rng, n, d=3))
        out = shadow_normalize(f, "volume")
        lo, hi = bounding_box(out)
        assert lo.tolist() == [0, 0, 0] and hi.tolist() == [n, n, n]
        for col in out.offsets.T.tolist():
            assert sorted(col) == list(range(n))
        assert volume(out.offsets) >= volume(f.offsets) - 1e-9


def test_normalize_three_dim_heuristic():
    col = IntegerCubeFamily(np.array([(0, 0, k) for k in range(3)]))
    out = shadow_normalize(col, "volume")
    assert cube_is_wns(out)
    lo, hi = bounding_box(out)
    assert (hi - lo).tolist() == [3, 3, 3]
    with pytest.raises(InputError):
        shadow_normalize(col, "area")


def test_normalize_rejections():
    with pytest.raises(InputError):
        shadow_normalize(fam([(0, 0), (2, 2)]))
    with pytest.raises(InputError):
        shadow_normalize(fam([(0, 0), (1, 1)]), "girth")


@pytest.mark.parametrize("n", [4, 5, 6, 8])
def test_search_area_matches_closed_form(n):
    f, val = exhaustive_max(n, "area")
    assert val == float(n * n - 2 * n + 4)
    if n <= 5:
        value, offsets = brute_max_hull(n, "area")
        assert val == pytest.approx(value, abs=1e-9)
        assert f.offsets.tolist() == offsets
    assert cube_is_wns(f)
    lo, hi = bounding_box(f)
    assert lo.tolist() == [0, 0] and hi.tolist() == [n, n]


def test_search_area_argmax_is_lex_first():
    f, _ = exhaustive_max(5, "area")
    assert f.offsets.tolist() == [[0, 1], [1, 4], [2, 2], [3, 0], [4, 3]]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_search_perimeter_beats_corner_construction(n):
    # the staircase W_n splits the two diagonal runs as (n-3, n-1), and
    # sqrt(k^2+1) is convex in k, so it outruns the corner-glued
    # configuration's (n-2, n-2) split.  W_n attains the record without
    # the search; the nonsep-free brute force confirms it is the maximum
    # and the search's maximizer (n = 6 is left out: the oracle would
    # take about 14 s there)
    witness = fam(perimeter_witness(n))
    record = perimeter_record(n)
    assert cube_is_wns(witness)
    assert hull_metrics(witness)[1] == pytest.approx(record, abs=1e-9)
    f, val = exhaustive_max(n, "perimeter")
    if n <= 5:
        value, offsets = brute_max_hull(n, "perimeter")
        assert value == pytest.approx(record, abs=1e-9)
        assert f.offsets.tolist() == offsets
    glued = hull_metrics(construct_extremal(n))[1]
    assert val == pytest.approx(record, abs=1e-9)
    assert val > glued + 0.02
    assert cube_is_wns(f)
    lo, hi = bounding_box(f)
    assert lo.tolist() == [0, 0] and hi.tolist() == [n, n]


def test_search_perimeter_record_at_8():
    # the staircase's edge over the corner-glued configuration shrinks with
    # n: about 0.009 at n = 8
    f, val = exhaustive_max(8, "perimeter")
    assert val == pytest.approx(perimeter_record(8), abs=1e-9)
    assert val > hull_metrics(construct_extremal(8))[1] + 0.005
    assert cube_is_wns(f)
    lo, hi = bounding_box(f)
    assert lo.tolist() == [0, 0] and hi.tolist() == [8, 8]


@pytest.mark.parametrize("objective", ["area", "perimeter"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_search_matches_corner_hull_oracle(n, objective):
    f, val = exhaustive_max(n, objective)
    value, offsets = permutation_max_oracle(n, objective)
    assert val == value
    assert f.offsets.tolist() == offsets


def test_search_perimeter_argmax_pinned():
    f, _ = exhaustive_max(4, "perimeter")
    assert f.offsets.tolist() == [[0, 0], [1, 3], [2, 2], [3, 1]]


def test_search_deterministic():
    a, va = exhaustive_max(5, "perimeter")
    b, vb = exhaustive_max(5, "perimeter")
    assert va == vb and a.offsets.tolist() == b.offsets.tolist()


def test_search_rejections():
    for bad in (3, 9):
        with pytest.raises(InputError):
            exhaustive_max(bad, "area")
    with pytest.raises(InputError):
        exhaustive_max(4, "width")


def test_non_integer_n_is_an_input_error():
    for bad in (5.0, 4.5, "5", None):
        with pytest.raises(InputError):
            exhaustive_max(bad, "area")
        with pytest.raises(InputError):
            construct_extremal(bad)
    assert offsets_sorted(construct_extremal(np.int64(5))) == sorted(F5)
    f, val = exhaustive_max(np.int64(4), "area")
    assert (f.offsets.tolist(), val) == (exhaustive_max(4, "area")[0].offsets.tolist(), 12.0)


def test_axis_check_agrees_with_general_route():
    rng = np.random.default_rng(5)
    seen = {True: 0, False: 0}
    for _ in range(40):
        n = int(rng.integers(2, 6))
        cells = rng.choice(16, size=n, replace=False)
        f = IntegerCubeFamily(np.stack([cells // 4, cells % 4], axis=1))
        verdict, _ = is_wns(HomotheticFamily(cube(2), f.offsets + 0.5, np.ones(f.n)))
        assert verdict == cube_is_wns(f)
        seen[verdict] += 1
    assert seen[True] >= 5 and seen[False] >= 5


def test_json_round_trip():
    f = fam(F5)
    d = f.to_dict()
    assert d["d"] == 2
    back = cube_family_from_dict(d)
    assert offsets_sorted(back) == offsets_sorted(f)
    with pytest.raises(InputError):
        cube_family_from_dict({"d": 2})
    with pytest.raises(InputError):
        cube_family_from_dict({"d": 3, "offsets": [[0, 0], [1, 1]]})


def test_cells_hull_matches_oracle_on_shifted_contiguous_families():
    rng = np.random.default_rng(28)
    negative = 0
    for trial in range(280):
        n = 2 + trial % 14
        cells = (contiguous_cells(rng, n) - int(rng.integers(0, 4))).tolist()
        assert _cells_hull(cells) == hull_2d_oracle(cell_corners(cells)), cells
        negative += min(min(c) for c in cells) < 0
    assert negative >= 100


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_search_leaf_hulls_match_cells_hull(n, monkeypatch):
    """The depth-first search scores the permutations in lexicographic
    order, each on exactly the hull `_cells_hull` gives its cells."""
    hulls = []
    monkeypatch.setitem(cubes._PLANAR_OBJECTIVES, "area",
                        lambda h: hulls.append(h) or float(len(hulls)))
    exhaustive_max(n, "area")
    perms = list(itertools.permutations(range(n)))
    assert len(hulls) == len(perms)
    for perm, hull in zip(perms, hulls):
        assert hull == _cells_hull(enumerate(perm)), perm


def test_planar_hull_cost_contract(monkeypatch):
    """A planar `shadow_normalize` call builds one whole hull for its
    starting value and two per move, one for each end of the track; every
    permutation of `exhaustive_max` is scored without one."""
    calls = []
    inner = cubes._cells_hull
    monkeypatch.setattr(cubes, "_cells_hull", lambda cells: calls.append(1) or inner(cells))
    rng = np.random.default_rng(3)
    for trial in range(20):
        f = IntegerCubeFamily(contiguous_cells(rng, 3 + trial % 8))
        moves = sum(f.n - len(set(col)) for col in f.offsets.T.tolist())
        for objective in ("area", "perimeter"):
            calls.clear()
            shadow_normalize(f, objective)
            assert len(calls) == 1 + 2 * moves
    calls.clear()
    for n in (4, 5, 6):
        for objective in ("area", "perimeter"):
            exhaustive_max(n, objective)
    assert calls == []


def test_normalize_raises_when_neither_end_keeps_the_score(monkeypatch):
    # convexity along the track rules this out; a family that does not
    # fill the n-box must not come back in its place
    scores = iter([1.0, 0.5, 0.25])
    monkeypatch.setattr(cubes, "_objective_value", lambda cells, dim, objective: next(scores))
    with pytest.raises(GeometryError, match="score below"):
        shadow_normalize(fam([(0, 0), (0, 1)]))


def test_normalize_raises_when_the_round_recheck_fails(monkeypatch):
    # the input check passes; the per-round re-check fails
    calls = []
    monkeypatch.setattr(cubes, "cube_is_wns", lambda f: calls.append(1) or len(calls) == 1)
    with pytest.raises(GeometryError, match="separable"):
        shadow_normalize(fam([(0, k) for k in range(4)]))


def test_normalize_raises_on_an_invalid_move(monkeypatch):
    # x slabs 0 and 2 leave a gap: moving a cell to x = 3 would leave axis 0
    # in two runs, which the move check refuses
    monkeypatch.setattr(cubes, "cube_is_wns", lambda f: True)
    with pytest.raises(GeometryError, match="invalid move"):
        shadow_normalize(fam([(0, 0), (0, 1), (2, 0), (2, 1)]))


OPTIMIZED_CHILD = """
from nonsep import cubes
from nonsep.errors import GeometryError
if __debug__:
    raise SystemExit("asserts are on: the child must run under python -O")
calls = []
cubes.cube_is_wns = lambda f: calls.append(1) or len(calls) == 1
try:
    cubes.shadow_normalize(cubes.IntegerCubeFamily([[0, k] for k in range(4)]))
except GeometryError as exc:
    print("GeometryError:", exc)
"""


def test_normalize_checks_survive_python_optimize():
    src = str(Path(cubes.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHILD],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout.startswith("GeometryError: normalized family"), proc.stdout
