import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    Interval,
    bridging_family,
    contains_point,
    criterion_11_families,
    kwip_flats_lp_oracle,
    ns_oracle,
    project_member,
    strict_separator,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import Delaunay

from nonsep import family as family_module
from nonsep.covering import lambda_min
from nonsep import lp, tolerances
from nonsep.errors import GeometryError, InputError
from nonsep.family import (
    Flat,
    HomotheticFamily,
    _frames,
    _sample_blocks,
    edges_covered,
    facet_directions,
    family_from_dict,
    is_kwip_sampled,
    is_ns,
    is_wns,
)
from nonsep.polytope import (
    Polytope,
    _plane_basis,
    box,
    cross_polytope,
    cube,
    edges,
    regular_polygon,
    unit_cube,
)


def squares(offsets, taus=None):
    offsets = np.asarray(offsets, dtype=float)
    if taus is None:
        taus = np.ones(offsets.shape[0])
    return HomotheticFamily(unit_cube(2), offsets, np.asarray(taus, float))


def test_family_validation():
    with pytest.raises(InputError):
        HomotheticFamily(unit_cube(2), np.zeros((1, 2)), np.ones(1))
    with pytest.raises(InputError):
        HomotheticFamily(unit_cube(2), np.zeros((2, 2)), np.array([1.0, -1.0]))
    with pytest.raises(InputError):
        HomotheticFamily(unit_cube(2), np.zeros((2, 3)), np.ones(2))
    with pytest.raises(InputError, match="finite"):
        HomotheticFamily(unit_cube(2), np.array([[0.0, 0.0], [np.nan, 0.0]]),
                         np.ones(2))
    with pytest.raises(InputError, match="finite"):
        HomotheticFamily(unit_cube(2), np.zeros((2, 2)), np.array([1.0, np.inf]))


def test_family_leaves_caller_arrays_writeable():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    t = np.ones(2)
    fam = HomotheticFamily(unit_cube(2), x, t)
    assert x.flags.writeable and t.flags.writeable
    assert not fam.translations.flags.writeable
    x[1, 0] = 5.0
    assert fam.translations[1, 0] == 1.0


def test_member_geometry():
    fam = squares([(0, 0), (3, 1)], [1.0, 2.0])
    m = fam.member(1)
    assert np.isclose(m.support(np.array([1.0, 0.0])), 5.0)
    assert np.isclose(m.support(np.array([-1.0, 0.0])), -3.0)
    # projection interval matches support values
    iv = project_member(fam, 1, (1, 0))
    assert np.isclose(iv.lo, 3.0) and np.isclose(iv.hi, 5.0)


def test_interval_rejects_inverted():
    with pytest.raises(InputError):
        Interval(1.0, 0.0)


def test_facet_directions_dedupe_opposites():
    assert facet_directions(cube(2)).shape == (2, 2)
    assert facet_directions(cross_polytope(3)).shape == (4, 3)


def test_wns_staircase_five_cells():
    # unit grid cells in a 5x5 board: column set {0..4} and row set {0..4},
    # both contiguous, so axis sweeps find no empty slab
    fam = squares([(1, 0), (4, 1), (3, 4), (0, 3), (2, 2)])
    ok, witness = is_wns(fam)
    assert ok and witness is None


def test_wns_gap_detected():
    fam = squares([(0, 0), (5, 0)])
    ok, (u, gap) = is_wns(fam)
    assert not ok
    assert np.isclose(abs(u[0]), 1.0) and np.isclose(u[1], 0.0)
    assert np.isclose(gap, 4.0)


def test_wns_touching_is_not_separable():
    ok, _ = is_wns(squares([(0, 0), (1, 0)]))
    assert ok


def test_ns_collinear_with_hole():
    # middle cell removed: the slanted split is found by some bipartition
    fam = squares([(0, 0), (2, 0), (4, 0)])
    ok, parts = is_ns(fam)
    assert not ok
    assert sorted(map(sorted, parts)) in ([[0], [1, 2]], [[0, 1], [2]],
                                          [[1], [0, 2]])


def test_ns_corner_touching_pair():
    # hulls share the corner (1,1): no strict separation
    ok, parts = is_ns(squares([(0, 0), (1, 1)]))
    assert ok and parts is None


def test_ns_decides_large_n():
    # no member cap in any dimension: 21 cubes in a row, each touching the
    # next, are NS; pulled 0.5 clear, the last one splits off
    xs = np.c_[np.arange(21.0), np.zeros((21, 2))]
    assert is_ns(HomotheticFamily(unit_cube(3), xs, np.ones(21))) == (True, None)
    xs[-1, 0] += 0.5
    assert is_ns(HomotheticFamily(unit_cube(3), xs, np.ones(21))) == (
        False, ([20], list(range(20))))
    assert is_ns(squares([(i, 0) for i in range(21)])) == (True, None)


def lp_calls(monkeypatch):
    """A list that gains an entry per `lp.solve` call from here on."""
    calls = []
    solve = lp.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "solve", counted)
    return calls


def test_ns_cube_chain_drops_each_touching_split_at_once(monkeypatch):
    # 14 unit cubes in a row: with member k alone on side b its hull
    # touches member k + 1's, so that split goes after one LP, 13 in all;
    # all 8,191 bipartitions would take one LP each
    calls = lp_calls(monkeypatch)
    fam = HomotheticFamily(unit_cube(3), np.c_[np.arange(14.0), np.zeros((14, 2))],
                           np.ones(14))
    assert is_ns(fam) == (True, None)
    assert len(calls) == 13


def test_ns_decides_near_degenerate_families(monkeypatch):
    # members whose interior points lie within rounding of planes through d
    # others: unit cubes in a row 1e4 apart (30 of them, split off at the
    # first LP, and 4 in two orders), tiny cubes on the corners of a unit
    # square, and plates 2e-9 thick tiling a 3 x 3 square with or without
    # its centre (the whole tiling in 8 LPs)
    calls = lp_calls(monkeypatch)
    row = np.c_[np.arange(30.0) * 1e4, np.zeros((30, 2))]
    fam = HomotheticFamily(unit_cube(3), row, np.ones(30))
    assert is_ns(fam) == (False, (list(range(1, 30)), [0]))
    assert len(calls) == 1
    assert_ns_matches_oracle(HomotheticFamily(unit_cube(3), row[[1, 0, 2, 3]], np.ones(4)))
    corners = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
    assert_ns_matches_oracle(HomotheticFamily(unit_cube(3), corners, np.full(4, 1e-12)))
    plate = Polytope.from_vertices(np.c_[unit_cube(2).vertices.repeat(2, axis=0),
                                         np.tile([0.0, 2e-9], 4)])
    cells = np.array([[i, j, 0.0] for i in range(3) for j in range(3)])
    calls.clear()
    assert is_ns(HomotheticFamily(plate, cells, np.ones(9))) == (True, None)
    assert len(calls) == 8
    for keep in (np.arange(9), np.r_[0:4, 5:9]):
        fam = HomotheticFamily(plate, cells[keep], np.ones(len(keep)))
        assert assert_ns_matches_oracle(fam)


def test_ns_walk_within_its_lp_bound_on_a_worst_case(monkeypatch):
    # 19 small cubes near a sphere of radius 2 split in most ways a plane can
    # split them, and only the big cube around them, member 0 and placed
    # last, meets every split: the walk makes about 6,000 LPs, near its
    # bound 2 sum_{i<=3} C(19, i + 1)
    p = np.random.default_rng(0).standard_normal((19, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    fam = HomotheticFamily(unit_cube(3), np.r_[[[-2.0] * 3], 2 * p - 0.05],
                           np.r_[4.0, np.full(19, 0.1)])
    calls = lp_calls(monkeypatch)
    assert is_ns(fam) == (True, None)
    assert len(calls) <= 2 * (19 + 171 + 969 + 3876)


def test_ns_bridging_multi_scale_family_within_the_bound(monkeypatch):
    # rows of unit cubes 1 and 1e3 apart, 1e9 from each other, inside a hub
    # 1.2e9 wide: three scales, and still at most 2 sum_{i<=3} C(20, i + 1)
    calls = lp_calls(monkeypatch)
    assert is_ns(bridging_family()) == (True, None)
    assert len(calls) <= 2 * (20 + 190 + 1140 + 4845)


def test_ns_planar_chain_of_100_sweeps_two_directions_per_pair(monkeypatch):
    # unit squares stepping by 0.9 overlap their neighbours only; the sweep
    # takes at most one direction per angle where two members start or stop
    # overlapping, n (n - 1) in all
    swept = []
    projections = family_module._projections

    def counted(fam, dirs):
        swept.append(len(dirs))
        return projections(fam, dirs)

    monkeypatch.setattr(family_module, "_projections", counted)
    rng = np.random.default_rng(3)
    steps = np.c_[np.full(100, 0.9), rng.uniform(-0.5, 0.5, size=100)]
    assert is_ns(squares(np.cumsum(steps, axis=0))) == (True, None)
    assert 0 < sum(swept) <= 100 * 99
    apart = squares(np.cumsum(steps, axis=0) + np.r_[np.zeros((60, 2)),
                                                     np.full((40, 2), 3.0)])
    ok, (a_idx, b_idx) = is_ns(apart)
    assert not ok and a_idx == list(range(60, 100)) and b_idx == list(range(60))


def assert_ns_matches_oracle(fam):
    """is_ns against `ns_oracle`; a split must hold member n - 1 on its a
    side and be strictly separable.  Returns the verdict."""
    verts = [fam.member(i).vertices for i in range(fam.n)]
    ok, split = is_ns(fam)
    oracle = ns_oracle(verts)
    assert ok == oracle[0]
    if fam.dim >= 3:
        assert split == oracle[1]  # the first separable split in mask order
    if not ok:
        a_idx, b_idx = split
        assert fam.n - 1 in a_idx
        assert sorted(a_idx + b_idx) == list(range(fam.n)) and b_idx
        assert strict_separator(np.vstack([verts[i] for i in a_idx]),
                                np.vstack([verts[i] for i in b_idx]))
    return ok


def ns_battery(rng, base, max_n, count):
    """Families on `base`: chains of overlapping members (NS), such chains
    cut in two with one part pushed 0.3 clear along a random direction
    (separable) and loose scatters (either)."""
    d, v = base.dim, base.vertices
    for k in range(count):
        n = int(rng.integers(2, max_n + 1))
        taus = rng.uniform(0.6, 1.4, size=n)
        if k % 3 == 2:
            xs = rng.uniform(0, 0.9 * n ** (1 / d), size=(n, d))
        else:
            axis = rng.standard_normal(d)
            steps = 0.5 * taus[:, None] * (axis / np.linalg.norm(axis)
                                           + 0.3 * rng.standard_normal((n, d)))
            xs = np.cumsum(steps, axis=0)
        if k % 3 == 1:
            m = int(rng.integers(1, n))
            u = rng.standard_normal(d)
            proj = ((xs[:, None] + taus[:, None, None] * v) @ u).T
            xs[m:] += (proj[:, :m].max() - proj[:, m:].min() + 0.3) * u / (u @ u)
        yield HomotheticFamily(base, xs, taus)


@pytest.mark.parametrize("d, max_n, per_base, least", [
    pytest.param(d, max_n, per_base, least, id=f"{d}-{max_n}-{per_base}")
    for d, max_n, per_base, least in [(2, 10, 12, 5), (3, 6, 9, 5), (4, 6, 9, 5),
                                      (3, 9, 6, 4), (4, 9, 6, 4)]])
def test_ns_matches_bipartition_oracle(d, max_n, per_base, least):
    # `least`: families of each verdict the battery must hold
    rng = np.random.default_rng(808 + d)
    if d == 2:
        bases = (unit_cube(2), Polytope.from_vertices(rng.standard_normal((3, 2))),
                 regular_polygon(6, radius=float(rng.uniform(0.5, 1.5))))
    else:
        bases = (unit_cube(d), Polytope.from_vertices(rng.standard_normal((d + 1, d))))
    seen = {True: 0, False: 0}
    for base in bases:
        for fam in ns_battery(rng, base, max_n, per_base):
            seen[assert_ns_matches_oracle(fam)] += 1
    assert min(seen.values()) >= least, seen


def test_ns_lattice_squares_match_oracle():
    # squares of ratios 1/3 .. 2 on lattices of steps 1.1, 4/3 and 2/3 with
    # offsets of 0.1 and 1/3: many member pairs start or stop overlapping
    # at the same angle, computed up to rounding
    rng = np.random.default_rng(41)
    seen = {True: 0, False: 0}
    for _ in range(30):
        n = int(rng.integers(3, 8))
        cells = rng.choice(16, size=n, replace=False)
        xs = rng.choice([1.1, 4 / 3, 2 / 3]) * np.c_[cells % 4, cells // 4]
        xs += rng.choice([0.0, 0.0, 0.1, 1 / 3, -1 / 3], size=xs.shape)
        fam = HomotheticFamily(cube(2), xs, rng.choice([1.0, 1 / 3, 2 / 3, 2.0], size=n))
        seen[assert_ns_matches_oracle(fam)] += 1
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("xs, taus", [
    (1.1 * np.array([[1, 2], [2, 1], [0, 2]]) + [[0.1, 0], [0.1, 0.1], [0, 0]],
     [1, 2, 1 / 3]),
    ([[0, 2], [1 / 3, 0], [1, 2 / 3], [2, 1], [1, 0], [5 / 3, 2], [-1 / 3, 1.1]],
     [1, 2 / 3, 1 / 3, 2, 1, 1 / 3, 1 / 3]),
])
def test_ns_split_opening_beside_another_critical_angle(xs, taus):
    # each family splits with a gap near 0.2, along an arc that starts a
    # rounding error before another pair stops overlapping: the sweep must
    # look past that angle, not only just past the start
    fam = HomotheticFamily(cube(2), np.asarray(xs, float), np.asarray(taus, float))
    assert not assert_ns_matches_oracle(fam)


def test_ns_implies_wns_random():
    rng = np.random.default_rng(7)
    checked_ns = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        fam = squares(rng.uniform(0, 1.6, size=(n, 2)),
                      rng.uniform(0.5, 1.5, size=n))
        ns_ok, _ = is_ns(fam)
        wns_ok, _ = is_wns(fam)
        if ns_ok:
            checked_ns += 1
            assert wns_ok
    assert checked_ns >= 5


def test_kwip_top_k_delegates_to_wns():
    fam_ok = squares([(1, 0), (4, 1), (3, 4), (0, 3), (2, 2)])
    fam_bad = squares([(0, 0), (5, 0)])
    assert is_kwip_sampled(fam_ok, 1, samples=10)[0] == "not-falsified"
    verdict, (u, gap) = is_kwip_sampled(fam_bad, 1, samples=10)
    assert verdict == "falsified" and gap > 3.9


def test_kwip_points_find_hole():
    # diagonal squares: hull contains uncovered triangles near (1.5, 0.5)
    fam = squares([(0, 0), (1, 1)])
    verdict, flat = is_kwip_sampled(fam, 0, samples=400, seed=3)
    assert verdict == "falsified"
    assert flat.basis.shape == (2, 0)
    p = flat.point
    inside_any = any(
        contains_point(fam.member(i), p) for i in range(fam.n))
    assert not inside_any


def test_kwip_points_clean_on_box_block():
    fam = squares([(0, 0), (1, 0), (0, 1), (1, 1)])
    verdict, _ = is_kwip_sampled(fam, 0, samples=400, seed=0)
    assert verdict == "not-falsified"


def test_kwip_lines_3d():
    base = unit_cube(3)
    block = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    fam = HomotheticFamily(base, np.array(block, float), np.ones(8))
    verdict, _ = is_kwip_sampled(fam, 1, samples=300, seed=1)
    assert verdict == "not-falsified"
    # pull two opposite cells: lines through the gap miss everything
    fam2 = HomotheticFamily(base, np.array([(0, 0, 0), (3, 3, 0)], float),
                            np.ones(2))
    verdict2, flat = is_kwip_sampled(fam2, 1, samples=500, seed=1)
    assert verdict2 == "falsified"
    assert flat.basis.shape == (3, 1)
    assert all(flat_misses(fam2.member(i), flat) for i in range(fam2.n))


def recording_blocks(monkeypatch):
    """Record the blocks that `_sample_blocks` builds (their sizes) and the
    sample rows whose frames are built."""
    seen = {"blocks": [], "rows": []}
    sample_blocks = family_module._sample_blocks

    def recording(*args):
        for b, (points, frames) in enumerate(sample_blocks(*args)):
            start = family_module._BLOCK * b
            seen["blocks"].append(len(points))

            def rows(idx, frames=frames, start=start):
                seen["rows"].extend((start + idx).tolist())
                return frames(idx)
            yield points, None if frames is None else rows

    monkeypatch.setattr(family_module, "_sample_blocks", recording)
    return seen


def clipped_columns(monkeypatch):
    """Count the line columns that reach `_spans`, and record the sample
    rows whose frames are built."""
    seen = recording_blocks(monkeypatch)
    seen["columns"] = 0
    spans = family_module._spans

    def counting_spans(alpha, beta, eps):
        seen["columns"] += beta.shape[1]
        return spans(alpha, beta, eps)

    monkeypatch.setattr(family_module, "_spans", counting_spans)
    return seen


def test_kwip_lines_through_points_in_a_member_skip_the_clip(monkeypatch):
    """A line through a point inside a member hits it, so on a box tower,
    whose members fill its hull, the sampling route (the cover test that
    answers first is turned off) clips no sample and gives none a
    direction.  Two cubes 3 apart leave most of the hull empty: the
    falsifying sample is one of those clipped."""
    seen = clipped_columns(monkeypatch)
    monkeypatch.setattr(family_module, "_covers_hull", lambda family, verts, tri: False)
    tower = np.zeros((4, 3))
    tower[:, 2] = [0.0, 0.7, 1.4, 2.1]
    fam = HomotheticFamily(unit_cube(3), tower, np.ones(4))
    assert is_kwip_sampled(fam, 1, samples=10**5, seed=4) == ("not-falsified", None)
    assert seen["columns"] == 0 and seen["rows"] == []
    apart = HomotheticFamily(unit_cube(3), np.array([(0, 0, 0), (3, 3, 3)], float),
                             np.ones(2))
    verdict, flat = is_kwip_sampled(apart, 1, samples=10**5, seed=4)
    assert verdict == "falsified"
    points, _ = eager_stream(apart.all_vertices(), facet_directions(apart.base), 1, 10**5, 4)
    miss = row_of(points, flat.point)
    assert miss in seen["rows"] and 0 < seen["columns"] <= 2 * len(seen["rows"])
    # the points of the miss's block lying in a cube were settled unclipped
    block = family_module._BLOCK
    assert miss < block
    a, c = apart.base.facet_normals, apart.member_offsets()
    inside = (a @ points[:block].T <= c[:, :, None]).all(axis=1).any(axis=0)
    assert inside.any() and not set(np.flatnonzero(inside)) & set(seen["rows"])


def flat_misses(member, flat):
    """No s with a (p + W s) <= b, by HiGHS: the flat misses the member."""
    a, b = member.facet_normals, member.facet_offsets
    k = flat.basis.shape[1]
    res = linprog(np.zeros(k), A_ub=a @ flat.basis, b_ub=b - a @ flat.point,
                  bounds=[(None, None)] * k, method="highs")
    return res.status == 2


def test_kwip_planes_4d(monkeypatch):
    """k = 2 in d = 4 goes through the flat LP, member by member.  The
    tower covers its hull, so the cover test answers for it with no LP;
    turned off, every sample lies in a member and is settled on its slacks
    with no LP, and the LP-only route gives the same answer."""
    base = unit_cube(4)
    tower = np.zeros((3, 4))
    tower[:, 2] = [0.0, 0.6, 1.2]
    fam = HomotheticFamily(base, tower, np.ones(3))
    solves = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    assert is_kwip_sampled(fam, 2, samples=60, seed=2) == ("not-falsified", None)
    assert not solves
    monkeypatch.setattr(family_module, "_covers_hull", lambda family, verts, tri: False)
    assert is_kwip_sampled(fam, 2, samples=60, seed=2) == ("not-falsified", None)
    assert not solves
    points, frames = eager_stream(fam.all_vertices(), facet_directions(base), 2, 60, 2)
    assert kwip_flats_lp_oracle(fam, points, frames) is None
    assert len(solves) >= 60
    apart = HomotheticFamily(base, np.array([[0.0] * 4, [3.0, 3.0, 0.0, 0.0]]),
                             np.ones(2))
    verdict, flat = is_kwip_sampled(apart, 2, samples=200, seed=2)
    assert verdict == "falsified"
    assert flat.basis.shape == (4, 2)
    assert np.allclose(flat.basis.T @ flat.basis, np.eye(2))
    assert all(flat_misses(apart.member(i), flat) for i in range(apart.n))


def cells(verts):
    """The corners (cells, d + 1, d) of the Delaunay cells of `verts`."""
    return verts[Delaunay(verts).simplices]


def covers_hull(fam):
    """`_covers_hull` on the triangulation of the family's member vertices."""
    verts = fam.all_vertices()
    return family_module._covers_hull(fam, verts, Delaunay(verts))


def stream_points(verts, count, seed):
    """The points of `_sample_blocks` (k = 0) on the cells of `verts`, every
    block in turn."""
    return np.concatenate([p for p, _ in _sample_blocks(cells(verts), None, 0, count, seed)])


def test_points_in_hull_uniform_and_exact():
    """Exact hull draws: on the facets with no slack, mean at the centroid
    of a thin centrally symmetric hull, slabs as full as their share of
    the volume (a box, and a pentagon whose triangles differ in area), and
    repeatable from the seed."""
    count = 20000
    diag = HomotheticFamily(unit_cube(3), np.outer(np.arange(4), np.full(3, 1.8)),
                            np.full(4, 0.8))
    block = HomotheticFamily(unit_cube(3), np.array(
        [(i, j, k) for i in range(2) for j in range(2) for k in (0, 1)], float),
        np.ones(8))
    for fam in (diag, block):
        hull = fam.hull()
        pts = stream_points(fam.all_vertices(), count, 5)
        assert pts.shape == (count, 3)
        assert (hull.facet_normals @ pts.T <= hull.facet_offsets[:, None]).all()
        again = stream_points(fam.all_vertices(), count, 5)
        assert np.array_equal(pts, again)
    pts = stream_points(diag.all_vertices(), count, 6)
    centroid = 0.5 * (0.4 + (3 * 1.8 + 0.4))  # reflection centre of the hull
    se = pts.std(axis=0) / np.sqrt(count)
    assert (np.abs(pts.mean(axis=0) - centroid) <= 4 * se).all()
    pts = stream_points(block.all_vertices(), count, 7)
    for axis in range(3):
        share = np.bincount(np.minimum((pts[:, axis] * 4).astype(int), 7),
                            minlength=8) / count
        assert (np.abs(share - 1 / 8) <= 4 * np.sqrt(1 / 8 * 7 / 8 / count)).all()
    # hull of [0, 1]^2 and [3, 5] x [0, 2]: height 1 + x / 3 up to x = 3, then 2
    pts = stream_points(squares([(0, 0), (3, 0)], [1, 2]).all_vertices(), count, 8)
    want = np.array([7 / 6, 9 / 6, 11 / 6, 2, 2]) / 8.5
    share = np.bincount(np.minimum(pts[:, 0].astype(int), 4), minlength=5) / count
    assert (np.abs(share - want) <= 4 * np.sqrt(want * (1 - want) / count)).all()


@pytest.mark.parametrize("k", [2, 3])
def test_frames_orthonormal_inside_facet_plane(k):
    rng = np.random.default_rng(11)
    dirs = facet_directions(cross_polytope(4))
    bases = np.stack([_plane_basis(u) for u in dirs])
    choices = rng.integers(0, dirs.shape[0], size=500)
    frames = _frames(bases, choices, rng.standard_normal((500, 3, k)), np.arange(500))
    assert frames.shape == (500, 4, k)
    gram = np.einsum("sdi,sdj->sij", frames, frames)
    assert np.abs(gram - np.eye(k)).max() <= 1e-12
    assert np.abs(np.einsum("sd,sdi->si", dirs[choices], frames)).max() <= 1e-12


def eager_stream(verts, dirs, k, count, seed):
    """Every sample at once, on the Delaunay cells of the points `verts`,
    from the draws of whole blocks of `_BLOCK` rows in their order (cell
    picks by `rng.choice`, exponential weights, and for k >= 1 facet
    choices and Gaussian frames): all points mapped together, all frames
    orthonormalised together and then mapped facet by facet.  Returns
    (points, frames or None)."""
    block, d = family_module._BLOCK, verts.shape[1]
    corners = cells(verts)
    vol = np.abs(np.linalg.det(corners[:, 1:] - corners[:, :1]))
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(0, count, block):
        draws.append([rng.choice(vol.size, size=block, p=vol / vol.sum()),
                      rng.standard_exponential((block, d + 1))])
        if k:
            draws[-1] += [rng.integers(0, dirs.shape[0], size=block),
                          rng.standard_normal((block, d - 1, k))]
    pick, w, *frame_draws = (np.concatenate(col)[:count] for col in zip(*draws))
    w /= w.sum(axis=1, keepdims=True)
    points = np.einsum("ij,ijk->ik", w, corners[pick])
    if not k:
        return points, None
    choices, g = frame_draws
    for j in range(k):
        v = g[:, :, j]
        for i in range(j):
            v -= (g[:, :, i] * v).sum(axis=1, keepdims=True) * g[:, :, i]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    frames = np.empty((count, d, k))
    for f in range(dirs.shape[0]):
        mask = choices == f
        hb = _plane_basis(dirs[f])
        frames[mask] = (g[mask][:, :, None, :] * hb[None, :, :, None]).sum(axis=1)
    return points, frames


@pytest.mark.parametrize("base, k", [(unit_cube(3), 1), (cross_polytope(3), 1),
                                     (cross_polytope(4), 1), (cross_polytope(4), 2)],
                         ids=["cube3-k1", "cross3-k1", "cross4-k1", "cross4-k2"])
def test_frames_by_index_match_eager_per_facet_draws(base, k):
    """Bit for bit, block by block: for the whole block, for random subsets
    in any order and for single rows, also where a facet was drawn once or
    never among the rows kept, and when the first rows asked for are single
    ones out of order."""
    dirs = facet_directions(base)
    pick = np.random.default_rng(3)
    for seed, samples in enumerate((1, 2, dirs.shape[0] + 1, 700, 5000)):
        _, want = eager_stream(base.vertices, dirs, k, samples, seed)
        start = 0
        for points, frames in _sample_blocks(cells(base.vertices), dirs, k, samples, seed):
            n, want_block = len(points), want[start:start + len(points)]
            for i in pick.choice(n, size=min(n, 5), replace=False):
                assert np.array_equal(frames(np.array([i]))[0], want_block[i])
            assert np.array_equal(frames(np.arange(n)), want_block)
            for size in (1, 2, 3, n // 3, n):
                rows = pick.choice(n, size=min(max(size, 1), n), replace=False)
                assert np.array_equal(frames(rows), want_block[rows]), (seed, size)
            start += n
        assert start == samples


@pytest.mark.parametrize("verts", [
    squares([(0, 0), (3, 0)], [1, 2]).all_vertices(),
    HomotheticFamily(unit_cube(3), np.outer(np.arange(4), np.full(3, 1.8)),
                     np.full(4, 0.8)).all_vertices(),
    np.random.default_rng(0).normal(size=(12, 4)),
], ids=["squares2", "diag3", "gauss4"])
def test_points_by_index_match_eager_draws(verts):
    """Bit for bit with the eager draws, block by block; and sample i
    depends only on the seed and i, so fewer samples are the first rows of
    more, inside a block and across block boundaries."""
    block = family_module._BLOCK
    for seed, count in enumerate((1, 2, 10**5)):
        want, _ = eager_stream(verts, None, 0, count, seed)
        sizes = [len(p) for p, _ in _sample_blocks(cells(verts), None, 0, count, seed)]
        assert sizes == [block] * (count // block) + [count % block] * (count % block > 0)
        assert np.array_equal(stream_points(verts, count, seed), want)
        for fewer in (1, 2, block - 1, block, block + 1, count // 3):
            if 0 < fewer <= count:
                assert np.array_equal(stream_points(verts, fewer, seed), want[:fewer])


def test_points_in_hull_refuses_a_volume_that_underflows():
    """Two cubes of side 1e-110: qhull triangulates them, but the cell
    volumes (about 1e-330) round to 0, so no volume can weight the picks."""
    fam = HomotheticFamily(unit_cube(3), np.array([[0.0] * 3, [3e-110] * 3]),
                           np.full(2, 1e-110))
    with pytest.raises(GeometryError, match="volume"):
        next(_sample_blocks(cells(fam.all_vertices()), None, 0, 10, 0))
    with pytest.raises(GeometryError, match="volume"):
        is_kwip_sampled(fam, 1, samples=10)


def cubes_apart(gap):
    """Two unit cubes in d = 3, the second `gap` along the first axis past
    the first, which it would touch at gap 0."""
    return HomotheticFamily(unit_cube(3), np.array([[0.0] * 3, [1.0 + gap, 0, 0]]),
                            np.ones(2))


def row_of(points, p):
    """The first row of `points` equal to p."""
    return int(np.flatnonzero((points == p).all(axis=1))[0])


def test_kwip_builds_points_up_to_the_first_miss(monkeypatch):
    """Two cubes 3 apart leave most of the hull empty, so the first block
    holds a miss: no block past it is built."""
    seen = recording_blocks(monkeypatch)
    apart = HomotheticFamily(unit_cube(3), np.array([(0, 0, 0), (3, 3, 3)], float),
                             np.ones(2))
    verdict, _ = is_kwip_sampled(apart, 1, samples=10**5, seed=4)
    assert verdict == "falsified"
    assert seen["blocks"] == [family_module._BLOCK]
    assert 0 < len(seen["rows"]) and max(seen["rows"]) < family_module._BLOCK


def test_kwip_draws_one_block_when_it_holds_the_miss(monkeypatch):
    """10^5 samples of two cubes 3 apart: the random stream is drawn for the
    first block only, in its order, since that block holds a miss."""
    draws = []
    default_rng = np.random.default_rng

    class RecordingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            draw = getattr(self.rng, name)

            def recorded(*args, **kwargs):
                out = draw(*args, **kwargs)
                draws.append((name, np.shape(out)))
                return out
            return recorded

    monkeypatch.setattr(np.random, "default_rng", RecordingRng)
    apart = HomotheticFamily(unit_cube(3), np.array([(0, 0, 0), (3, 3, 3)], float),
                             np.ones(2))
    b = family_module._BLOCK
    for k in (0, 1):
        draws.clear()
        assert is_kwip_sampled(apart, k, samples=10**5, seed=4)[0] == "falsified"
        assert draws == [("random", (b,)), ("standard_exponential", (b, 4))] + (
            [("integers", (b,)), ("standard_normal", (b, 2, 1))] if k else []), k


def test_kwip_miss_past_a_block_boundary(monkeypatch):
    """Cubes 0.02 apart: few samples fall in the slab between them, so with
    blocks of 37 rows the first miss lies past the first block.  The witness
    is the reference's, and no block past its own is built."""
    monkeypatch.setattr(family_module, "_BLOCK", 37)
    seen = recording_blocks(monkeypatch)
    fam = cubes_apart(0.02)
    dirs = facet_directions(fam.base)
    for k in (0, 1):
        seen["blocks"].clear()
        want, point, line = ref_kwip(fam, k, 3000, 1)
        got, flat = is_kwip_sampled(fam, k, samples=3000, seed=1)
        assert got == want == "falsified", k
        miss = row_of(eager_stream(fam.all_vertices(), dirs, k, 3000, 1)[0], point)
        assert miss >= 37, (k, miss)
        assert np.array_equal(flat.point, point)
        if k == 1:
            assert np.array_equal(flat.basis[:, 0], line)
        assert seen["blocks"] == [37] * (miss // 37 + 1), k


@pytest.mark.parametrize("block", [None, 37])
def test_kwip_more_samples_only_add_rows_after_the_others(block, monkeypatch):
    """Sample i depends only on the seed and i: with N samples the witness
    is the one of M > N samples whenever its index is below N, and there is
    none otherwise."""
    if block is not None:
        monkeypatch.setattr(family_module, "_BLOCK", block)
    checked = 0
    for fam in (cubes_apart(0.02), cubes_apart(0.3), squares([(0, 0), (1, 1)])):
        dirs = facet_directions(fam.base)
        for k in range(fam.dim - 1):
            for seed in range(3):
                got, flat = is_kwip_sampled(fam, k, samples=3000, seed=seed)
                assert got == "falsified"
                miss = row_of(eager_stream(fam.all_vertices(), dirs, k, 3000, seed)[0], flat.point)
                for n in {1, 2, 36, 37, 38, miss, miss + 1, 2 * miss + 1, 2048, 2049}:
                    if not 0 < n < 3000:
                        continue
                    fewer = is_kwip_sampled(fam, k, samples=n, seed=seed)
                    if miss < n:
                        checked += 1
                        assert fewer[0] == "falsified", (k, seed, n)
                        assert fewer[1].point.tobytes() == flat.point.tobytes()
                        assert fewer[1].basis.tobytes() == flat.basis.tobytes()
                    else:
                        assert fewer == ("not-falsified", None), (k, seed, n)
    assert checked >= 30


def uncovered_4d_families():
    """d = 4 families whose members leave part of their hull uncovered:
    cubes apart, an L, a slanted tower, and cross polytopes along a line."""
    base = unit_cube(4)
    yield HomotheticFamily(base, np.array([[0.0] * 4, [3.0, 3.0, 0.0, 0.0]]), np.ones(2))
    yield HomotheticFamily(base, np.array([[0.0] * 4, [1.0, 0, 0, 0], [0, 1.0, 0, 0]]),
                           np.ones(3))
    tower = np.outer(np.arange(3), [0.2, 0.1, 0.0, 0.8])
    yield HomotheticFamily(base, tower, np.ones(3))
    yield HomotheticFamily(cross_polytope(4), np.outer(np.arange(3), [1.5, 0.5, 0, 0]),
                           np.ones(3))


def test_kwip_flats_settle_points_in_a_member_before_the_lps(monkeypatch):
    """k = 2 in d = 4: a point that lies in a member needs no LP, so the
    verdict and the witness are the LP-only oracle's bit for bit, from fewer
    LPs."""
    solves = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    lps = {"oracle": 0, "kwip": 0}
    verdicts = {"falsified": 0, "not-falsified": 0}
    for idx, fam in enumerate(uncovered_4d_families()):
        assert not covers_hull(fam), idx
        for seed in range(3):
            points, frames = eager_stream(fam.all_vertices(), facet_directions(fam.base), 2, 60, seed)
            solves.clear()
            miss = kwip_flats_lp_oracle(fam, points, frames)
            lps["oracle"] += len(solves)
            solves.clear()
            got, flat = is_kwip_sampled(fam, 2, samples=60, seed=seed)
            lps["kwip"] += len(solves)
            verdicts[got] += 1
            assert got == ("not-falsified" if miss is None else "falsified"), (idx, seed)
            if miss is not None:
                assert flat.point.tobytes() == points[miss].tobytes()
                assert flat.basis.tobytes() == frames[miss].tobytes()
    assert lps["kwip"] < lps["oracle"], lps
    assert min(verdicts.values()) >= 3, verdicts


def test_kwip_rejects_bad_k():
    fam = squares([(0, 0), (1, 0)])
    with pytest.raises(InputError):
        is_kwip_sampled(fam, 2)
    with pytest.raises(InputError):
        is_kwip_sampled(fam, -1)
    for bad in (0, -1):
        with pytest.raises(InputError, match="samples"):
            is_kwip_sampled(fam, 0, samples=bad)


@pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": 1.5}, {"samples": 2.5}])
def test_kwip_rejects_bad_seed_and_samples(kwargs):
    # refused before numpy sees them: it raised ValueError or TypeError
    fam = squares([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(InputError):
        is_kwip_sampled(fam, 0, **{"samples": 10, **kwargs})


REFUSAL_CHILD = """
import sys
import numpy as np
from nonsep.errors import GeometryError
from nonsep.family import HomotheticFamily, is_kwip_sampled
from nonsep.polytope import cube
scale, k = float(sys.argv[1]), int(sys.argv[2])
fam = HomotheticFamily(cube(3).homothet(np.zeros(3), scale),
                       np.array([[0.0, 0.0, 0.0], [scale, 0.0, 0.0]]), np.ones(2))
try:
    print(is_kwip_sampled(fam, k, samples=10))
except GeometryError as exc:
    print("GeometryError:", exc)
"""


@pytest.mark.parametrize("scale", [1e60, 1e70, 1e80, 1e100, 1e130, 1e200])
@pytest.mark.parametrize("k", [0, 1])
def test_kwip_refuses_a_hull_delaunay_cannot_triangulate(scale, k):
    """Two cubes of side 2 scale: qhull's lifted points lose the rank (1e60,
    1e70), and past `polytope._QHULL_MAX` qhull never sees the points, where it
    can crash the interpreter.  Each case ends in a GeometryError, not
    scipy's QhullError; from 1e130 in a child process, so that a crash
    fails this test instead of ending the run."""
    if scale < 1e130:
        fam = HomotheticFamily(cube(3).homothet(np.zeros(3), scale),
                               np.array([[0.0, 0.0, 0.0], [scale, 0.0, 0.0]]), np.ones(2))
        with pytest.raises(GeometryError, match="Delaunay"):
            is_kwip_sampled(fam, k, samples=10)
        return
    src = str(Path(family_module.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, "-c", REFUSAL_CHILD, repr(scale), str(k)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout.startswith("GeometryError: Delaunay"), proc.stdout


def test_kwip_triangulates_once_and_builds_no_polytope(monkeypatch):
    """One Delaunay of the member vertices serves the cover test and the
    sampler: a call makes exactly one, and builds no hull and no Polytope,
    whether the cover test settles the family (a tower) or it samples (two
    cubes apart, which it falsifies)."""
    calls = {"delaunay": 0, "hull": 0, "from_vertices": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(family_module, "Delaunay",
                        counted("delaunay", family_module.Delaunay))
    monkeypatch.setattr(HomotheticFamily, "hull", counted("hull", HomotheticFamily.hull))
    monkeypatch.setattr(Polytope, "from_vertices",
                        staticmethod(counted("from_vertices", Polytope.from_vertices)))
    tower = np.zeros((3, 3))
    tower[:, 2] = [0.0, 0.7, 1.4]
    covered = HomotheticFamily(unit_cube(3), tower, np.ones(3))
    apart = HomotheticFamily(unit_cube(3), np.array([(0, 0, 0), (3, 3, 3)], float),
                             np.ones(2))
    for fam, want in ((covered, "not-falsified"), (apart, "falsified")):
        for k in (0, 1):
            for name in calls:
                calls[name] = 0
            assert is_kwip_sampled(fam, k, samples=500, seed=3)[0] == want
            assert calls == {"delaunay": 1, "hull": 0, "from_vertices": 0}, (want, k)


def test_edges_covered_touching_pair():
    ok, _ = edges_covered(squares([(0, 0), (1, 0)]))
    assert ok


def test_edges_covered_gap_witnessed():
    fam = squares([(0, 0), (2, 0)])
    ok, point = edges_covered(fam)
    assert not ok
    # the uncovered stretch lies on the bottom or top edge, x in (1, 2)
    assert 1.0 < point[0] < 2.0
    assert np.isclose(point[1], 0.0) or np.isclose(point[1], 1.0)


def test_edges_covered_diagonal_pair():
    # hull edge from (1,0) to (2,1) is entirely outside both squares
    # except its endpoints
    ok, point = edges_covered(squares([(0, 0), (1, 1)]))
    assert not ok
    assert point is not None


def test_family_json_roundtrip():
    fam = squares([(0, 0), (2, 1)], [1.0, 0.5])
    clone = family_from_dict(fam.to_dict())
    assert np.allclose(clone.translations, fam.translations)
    assert np.allclose(clone.ratios, fam.ratios)
    assert np.allclose(np.sort(clone.base.vertices, axis=0),
                       np.sort(fam.base.vertices, axis=0))
    with pytest.raises(InputError):
        family_from_dict({"members": []})
    members = fam.to_dict()["members"]
    with pytest.raises(InputError, match="'tau'"):
        family_from_dict({"base": fam.base.to_dict(),
                          "members": [members[0], {"x": [2.0, 1.0]}]})


@settings(max_examples=40, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 3.0),
       st.integers(0, 2**31 - 1))
def test_wns_invariant_under_similarity(tx, ty, scale, seed):
    """Translating and scaling the whole picture never changes the verdict."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    offs = rng.uniform(0, 3, size=(n, 2))
    taus = rng.uniform(0.4, 1.2, size=n)
    fam = squares(offs, taus)
    shifted = squares(offs * scale + np.array([tx, ty]), taus * scale)
    assert is_wns(fam)[0] == is_wns(shifted)[0]


def test_wns_agrees_with_dense_direction_sweep():
    """Facet sweep vs. a brute sweep over many directions.

    For axis-parallel squares every separating direction can be tilted
    to an axis one, so the two routes agree on robust instances.
    """
    rng = np.random.default_rng(11)
    angles = np.linspace(0, np.pi, 721)[:-1]
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    agree = 0
    for _ in range(30):
        n = int(rng.integers(2, 6))
        fam = squares(rng.uniform(0, 4, size=(n, 2)),
                      rng.uniform(0.5, 1.5, size=n))
        ok, _ = is_wns(fam)
        brute_sep = False
        for u in dirs:
            los, his = [], []
            for i in range(n):
                iv = project_member(fam, i, u)
                los.append(iv.lo)
                his.append(iv.hi)
            order = np.argsort(los)
            reach = his[order[0]]
            for j in order[1:]:
                if los[j] > reach + 1e-7:
                    brute_sep = True
                reach = max(reach, his[j])
        if ok == (not brute_sep):
            agree += 1
    assert agree == 30


# Reference routes: the per-point loop, the per-member line clip and the
# scalar edge clip with its own sweep that `_spans` and `_first_gap`
# replaced.  The battery pins the kernels to their verdicts and witnesses.

def ref_kwip(fam, k, samples, seed):
    verts = fam.all_vertices()
    points, frames = eager_stream(verts, facet_directions(fam.base), k, samples, seed)
    eps = tolerances.feas(1.0) * min(1.0, np.ptp(verts, axis=0).max())
    if k == 0:
        for p in points:
            if not any(contains_point(fam.base, (p - fam.translations[i]) / fam.ratios[i],
                                      slack=eps) for i in range(fam.n)):
                return "falsified", p, None
        return "not-falsified", None, None
    line_dirs = frames[:, :, 0]
    hit = np.zeros(samples, dtype=bool)
    a, b = fam.base.facet_normals, fam.base.facet_offsets
    for i in range(fam.n):
        bi = fam.ratios[i] * b + a @ fam.translations[i]
        alpha = line_dirs @ a.T
        beta = bi[None, :] - points @ a.T
        pos, neg = alpha > 1e-12, alpha < -1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = beta / alpha
        hi = np.min(np.where(pos, ratio, np.inf), axis=1)
        lo = np.max(np.where(neg, ratio, -np.inf), axis=1)
        ok = ~((~(pos | neg) & (beta < -eps)).any(axis=1))
        hit |= ok & (lo <= hi + eps)
        if hit.all():
            return "not-falsified", None, None
    miss = int(np.argmin(hit))
    return "falsified", points[miss], line_dirs[miss]


def ref_first_uncovered(pieces):
    reach = 0.0
    for lo, hi in sorted(pieces):
        if lo > reach + tolerances.GAP:
            return 0.5 * (reach + lo)
        reach = max(reach, hi)
        if reach >= 1.0 - tolerances.GAP:
            return None
    if reach >= 1.0 - tolerances.GAP:
        return None
    return 0.5 * (reach + 1.0)


def ref_edges_covered(fam):
    hull = fam.hull()
    a, b = fam.base.facet_normals, fam.base.facet_offsets
    for i, j in edges(hull):
        x, y = hull.vertices[i], hull.vertices[j]
        dirv = y - x
        pieces = []
        for m in range(fam.n):
            alpha = a @ dirv
            beta = fam.ratios[m] * b + a @ fam.translations[m] - a @ x
            lo, hi, ok = 0.0, 1.0, True
            for al, be in zip(alpha, beta):
                if al > 1e-12:
                    hi = min(hi, be / al)
                elif al < -1e-12:
                    lo = max(lo, be / al)
                elif be < -tolerances.feas(1.0):
                    ok = False
                    break
            if ok and lo <= hi + tolerances.GAP:
                pieces.append((lo, hi))
        gap_at = ref_first_uncovered(pieces)
        if gap_at is not None:
            return False, x + gap_at * dirv
    return True, None


def reference_battery():
    """Towers, nested and scattered families on three bases in d = 2, 3."""
    rng = np.random.default_rng(20261018)
    for d in (2, 3):
        hull_pts = rng.standard_normal((4 * d + 2, d))
        bases = (unit_cube(d), cross_polytope(d),
                 Polytope.from_vertices(hull_pts - hull_pts.mean(axis=0)))
        for base in bases:
            for n in (2, 3, 4):
                tau = rng.uniform(0.5, 1.5)
                axis = rng.standard_normal(d)
                axis /= np.linalg.norm(axis)
                width = base.support(axis) + base.support(-axis)
                steps = np.cumsum(rng.uniform(0.3, 0.9, size=n - 1)) * tau * width
                yield HomotheticFamily(base, np.vstack(
                    [np.zeros(d), np.outer(steps, axis)]), np.full(n, tau))
                c = base.vertices.mean(axis=0)
                taus = np.r_[2.5, rng.uniform(0.2, 0.4, size=n - 1)]
                xs = c - taus[:, None] * c + np.vstack(
                    [np.zeros(d), rng.uniform(-0.1, 0.1, size=(n - 1, d))])
                yield HomotheticFamily(base, xs, taus)
                yield HomotheticFamily(base, rng.uniform(0, 2.5, size=(n, d)),
                                       rng.uniform(0.5, 1.2, size=n))


@pytest.mark.parametrize("block", [None, 37])
def test_kernels_match_reference_routes(block, monkeypatch):
    if block is not None:  # misses and carried lines in later blocks
        monkeypatch.setattr(family_module, "_BLOCK", block)
    verdicts = {"falsified": 0, "not-falsified": 0, True: 0, False: 0}
    for idx, fam in enumerate(reference_battery()):
        for k in range(fam.dim - 1):
            seed = 7 * idx + k
            want, point, line = ref_kwip(fam, k, 1500, seed)
            got, flat = is_kwip_sampled(fam, k, samples=1500, seed=seed)
            assert got == want, (idx, k)
            verdicts[got] += 1
            if flat is not None:
                assert np.array_equal(flat.point, point)
                if k == 1:
                    assert np.array_equal(flat.basis[:, 0], line)
        want_ok, want_pt = ref_edges_covered(fam)
        got_ok, got_pt = edges_covered(fam)
        assert got_ok == want_ok, idx
        verdicts[got_ok] += 1
        if not want_ok:
            # the same gap's midpoint; one matrix product against a
            # matrix-vector product per edge rounds a few ulps apart
            assert np.allclose(got_pt, want_pt, rtol=0, atol=1e-12), idx
    assert min(verdicts.values()) >= 5, verdicts


def tolerance_edge_battery():
    """Families whose sample points sit on shared facets or within
    `feas(1.0)` outside a member: touching members, thin layers `eps / 2`
    apart or overlapping by as much (thin, so that the gaps hold a share of
    the hull's points), and a base whose roof and floor are pairs of
    facets 2e-5 rad from parallel."""
    eps = tolerances.feas(1.0)
    for d in (2, 3):
        thin = box(np.zeros(d), np.r_[np.ones(d - 1), 5e-6])
        for gap in (0.0, eps / 2, -eps / 2):
            xs = np.zeros((3, d))
            xs[:, -1] = np.arange(3) * (5e-6 + gap)
            yield HomotheticFamily(thin, xs, np.ones(3))
            xs[1:, 0] += 0.5  # the upper layers half a width aside
            yield HomotheticFamily(thin, xs, np.ones(3))
    block = np.array([(i, j, 0) for i in range(2) for j in range(2)], float)
    yield HomotheticFamily(unit_cube(3), block, np.ones(4))
    yield HomotheticFamily(unit_cube(3), block[:3], np.ones(3))  # an L
    yield HomotheticFamily(cross_polytope(3), np.array([np.zeros(3), np.full(3, 2 / 3)]),
                           np.ones(2))  # touching along a facet
    corners = np.array([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)], float)
    roof = Polytope.from_vertices(np.vstack(
        [corners, [(0.5, 0, 1 + 5e-6), (0.5, 1, 1 + 5e-6), (0.5, 0, -5e-6), (0.5, 1, -5e-6)]]))
    for step in ((0, 0, 1), (1, 0, 0), (1, 1, 0)):
        yield HomotheticFamily(roof, np.outer(np.arange(3), step), np.ones(3))


def test_kwip_matches_reference_at_tolerance_edges():
    """Points settled inside a member skip the clip, so where slacks sit
    near 0 the verdict and witness must still be the reference's."""
    eps = tolerances.feas(1.0)
    near, verdicts = 0, {"falsified": 0, "not-falsified": 0}
    for idx, fam in enumerate(tolerance_edge_battery()):
        a, c = fam.base.facet_normals, fam.member_offsets()
        for k in range(fam.dim - 1):
            seed = 11 * idx + k
            points, _ = eager_stream(fam.all_vertices(), facet_directions(fam.base), k, 1500, seed)
            worst = (a @ points.T - c[:, :, None]).max(axis=1).min(axis=0)
            near += int(((worst > 0) & (worst <= eps)).sum())
            want, point, line = ref_kwip(fam, k, 1500, seed)
            got, flat = is_kwip_sampled(fam, k, samples=1500, seed=seed)
            assert got == want, (idx, k)
            verdicts[got] += 1
            if flat is not None:
                assert np.array_equal(flat.point, point), (idx, k)
                if k == 1:
                    assert np.array_equal(flat.basis[:, 0], line), (idx, k)
    assert near >= 20 and min(verdicts.values()) >= 3, (near, verdicts)


def test_kwip_slack_relative_below_unit_scale():
    """Two cubes of side s set 3 s apart leave half their hull empty, so
    points (k = 0) are falsified as lines (k = 1) are, at every scale.  An
    absolute slack of `feas(1.0)` reached across the whole gap at s = 1e-7
    and passed every point there."""
    unit = HomotheticFamily(unit_cube(3), np.array([[0, 0, 0], [0, 0, 3]]), np.ones(2))
    for side in (1.0, 1e-3, 1e-6, 1e-7, 1e-9):
        fam = HomotheticFamily(unit.base, side * unit.translations, side * unit.ratios)
        for k in (0, 1):
            verdict, flat = is_kwip_sampled(fam, k, samples=2000, seed=0)
            assert verdict == "falsified", (side, k)
            # judged in the family's unit-scale copy, lines by HiGHS
            flat = Flat(flat.point / side, flat.basis)
            if k == 0:
                assert 1 < flat.point[2] < 3, side
            else:
                assert all(flat_misses(unit.member(i), flat) for i in range(unit.n)), side


def cover_battery():
    """(family, whether its members cover its hull) in d = 2, 3, 4: towers,
    nested families, touching blocks, thin layers touching, overlapping or
    apart, tiny cubes overlapping or apart (by less than `feas(1.0)`), an L,
    a pair just short of touching and scattered cubes.  Each covered hull is
    covered with room or with members that touch, so the certificate
    settles it."""
    rng = np.random.default_rng(20261019)
    eps = tolerances.feas(1.0)
    for fam in criterion_11_families():
        yield fam, True
    for d in (2, 3, 4):
        for n in (2, 4):
            tau = rng.uniform(0.5, 2.0)
            xs = np.zeros((n, d))
            xs[1:, rng.integers(0, d)] = np.cumsum(rng.uniform(0.2, 0.95, size=n - 1)) * tau
            yield HomotheticFamily(unit_cube(d), xs, np.full(n, tau)), True
            xs[1:] += rng.uniform(0.02, 0.2, size=(n - 1, d)) * tau  # slanted: gaps
            xs[1:, 0] += tau
            yield HomotheticFamily(unit_cube(d), xs, np.full(n, tau)), False
        for base in (cube(d), cross_polytope(d)):
            taus = np.r_[rng.uniform(1.5, 3.0), rng.uniform(0.2, 0.4, size=2)]
            xs = np.vstack([np.zeros(d), rng.uniform(-0.1, 0.1, size=(2, d))])
            yield HomotheticFamily(base, xs, taus), True
        corners = np.array(list(np.ndindex(*(2,) * d)), float)[:2 ** min(d, 3)]
        yield HomotheticFamily(unit_cube(d), corners, np.ones(len(corners))), True
        yield HomotheticFamily(unit_cube(d), corners[:3], np.ones(3)), False  # an L
        # a pair 1e-15 from touching: qhull leaves out vertices that are not
        # exact duplicates, and the sliver between the cubes is open
        yield HomotheticFamily(unit_cube(d), np.vstack([np.zeros(d), np.full(d, 1e-15)
                                                        + np.eye(d)[0]]), np.ones(2)), False
        thin = box(np.zeros(d), np.r_[np.ones(d - 1), 5e-6])
        for gap, covered in ((0.0, True), (-eps / 2, True), (eps / 2, False)):
            xs = np.zeros((3, d))
            xs[:, -1] = np.arange(3) * (5e-6 + gap)
            yield HomotheticFamily(thin, xs, np.ones(3)), covered
        for step, covered in ((0.6e-7, True), (1.5e-7, False)):
            xs = np.zeros((2, d))
            xs[1, -1] = step
            yield HomotheticFamily(unit_cube(d), xs, np.full(2, 1e-7)), covered
        xs = np.outer(np.arange(3), np.ones(d)) * 2.2
        yield HomotheticFamily(unit_cube(d), xs, np.ones(3)), False
    yield HomotheticFamily(cross_polytope(3), np.array([np.zeros(3), np.full(3, 2 / 3)]),
                           np.ones(2)), False  # touching along a facet: not convex


def test_cover_certificate_agrees_with_the_sampling_route(monkeypatch):
    """Where the cover test settles a family, the sampling route (the test
    turned off) finds every draw inside a member, for three seeds; where it
    does not, the public call is the sampling route bit for bit."""
    def sampled(fam, k, samples, seed):
        with monkeypatch.context() as m:
            m.setattr(family_module, "_covers_hull", lambda family, verts, tri: False)
            return is_kwip_sampled(fam, k, samples=samples, seed=seed)

    counts = {True: 0, False: 0, "falsified": 0}
    for idx, (fam, covered) in enumerate(cover_battery()):
        assert covers_hull(fam) == covered, idx
        counts[covered] += 1
        for k in range(fam.dim - 1):
            samples = 60 if k >= 2 else 1000
            for seed in range(3):
                got = is_kwip_sampled(fam, k, samples=samples, seed=seed)
                want = sampled(fam, k, samples, seed)
                assert got[0] == want[0], (idx, k, seed)
                if covered:
                    assert got == want == ("not-falsified", None), (idx, k, seed)
                elif want[1] is not None:
                    counts["falsified"] += 1
                    assert got[1].point.tobytes() == want[1].point.tobytes()
                    assert got[1].basis.tobytes() == want[1].basis.tobytes()
    assert min(counts.values()) >= 15, counts


def test_families_of_intervals_in_d1():
    """Copies of [-1, 1] at 0, 2 and 3.5 overlap or touch, so no point
    splits them, and the shortest homothet covering them is [-1, 4.5];
    at 0, 2 and 5 the point 4 leaves a gap of 1 before the third."""
    base = Polytope.from_vertices([[-1.0], [1.0]])
    fam = HomotheticFamily(base, [[0.0], [2.0], [3.5]], np.ones(3))
    assert is_wns(fam) == (True, None) and is_ns(fam) == (True, None)
    cover = lambda_min(fam)
    assert cover.lam == pytest.approx(11 / 12, abs=1e-12)
    assert cover.certified
    fam = HomotheticFamily(base, [[0.0], [2.0], [5.0]], np.ones(3))
    ok, (direction, gap) = is_wns(fam)
    assert not ok and abs(direction[0]) == 1.0 and gap == pytest.approx(1.0, abs=1e-12)
    assert is_ns(fam) == (False, ([2], [0, 1]))
