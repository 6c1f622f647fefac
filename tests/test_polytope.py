"""Kernel checks: representation completion, duality, containment, measures."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    brute_vertices,
    dedupe_facets_all_pairs,
    edges_double_loop,
    facet_directions_all_pairs,
    grid_contains_translate,
    origin_symmetric_all_pairs,
    same_point_set,
)

from nonsep import polytope, tolerances
from nonsep.errors import GeometryError, InputError
from nonsep.polytope import (
    Polytope,
    box,
    circumscribed_simplices,
    contains_translate,
    cross_polytope,
    cube,
    edges,
    facet_directions,
    genericize,
    is_generic,
    measure,
    parallelotope,
    polar,
    polytope_from_dict,
    random_polytope,
    random_simplex,
    regular_polygon,
    standard_simplex,
    unit_cube,
)


def test_support_square_and_triangle():
    sq = cube(2)
    assert sq.support([0.0, 1.0]) == pytest.approx(0.5)
    tri = Polytope.from_vertices([[0, 0], [1, 0], [0, 1]])
    assert tri.support([1.0, 0.0]) == pytest.approx(1.0)
    assert tri.support([1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(InputError):
        tri.support([0.0, 0.0])


def test_vertices_from_facets_cube():
    d = 3
    a = np.vstack([np.eye(d), -np.eye(d)])
    b = np.full(2 * d, 0.5)
    p = Polytope.from_facets(a, b)
    expected = 0.5 * np.array(list(itertools.product([-1, 1], repeat=d)))
    assert same_point_set(p.vertices, expected)


def test_vertices_from_facets_half_cross():
    # |x| + |y| + |z| <= 1/2 given by its 8 facet planes
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=3)))
    p = Polytope.from_facets(signs, np.full(8, 0.5))
    expected = np.vstack([0.5 * np.eye(3), -0.5 * np.eye(3)])
    assert same_point_set(p.vertices, expected)


def test_facets_from_vertices_simplex():
    p = standard_simplex(3)
    assert p.n_facets == 4
    assert p.n_vertices == 4
    # each facet tight at exactly 3 vertices
    res = np.abs(p.facet_normals @ p.vertices.T - p.facet_offsets[:, None])
    assert ((res < 1e-9).sum(axis=1) == 3).all()


def test_unbounded_and_degenerate_errors():
    with pytest.raises(GeometryError, match="unbounded"):
        Polytope.from_facets(np.eye(2), np.ones(2))
    with pytest.raises(GeometryError, match="not full-dimensional"):
        Polytope.from_vertices([[0, 0], [1, 1], [2, 2]])


def _rotation(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _facet_system(rng, d):
    """Rows {a x <= b} of a polytope with redundant rows mixed in.

    The polytope is a random hull, a rotated box or a rotated
    cross-polytope (whose vertices lie on 2(d-1) facets in d = 3, so
    they are degenerate), moved off the origin; the extra rows are
    scaled copies, loose rows, rows touching at a vertex and rows
    shaving at most 1e-9 off a vertex, each at a random place in the
    order. Returns (a, b, vertices, facet count).
    """
    kind = int(rng.integers(3))
    if kind == 0:
        p = random_polytope(d, int(rng.integers(d + 2, d + 8)), rng)
    else:
        p = box(-rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d)) \
            if kind == 1 else cross_polytope(d, float(rng.uniform(0.5, 2.0)))
        rot = _rotation(d, rng)
        p = Polytope(d, p.facet_normals @ rot.T, p.facet_offsets,
                     p.vertices @ rot.T)
    shift = rng.uniform(-3.0, 3.0, d)
    a = np.asarray(p.facet_normals)
    b = p.facet_offsets + a @ shift
    verts = p.vertices + shift
    rows, offs = list(a), list(b)
    for _ in range(int(rng.integers(1, 6))):
        u = rng.standard_normal(d)
        what = int(rng.integers(4))
        if what == 0:
            i = int(rng.integers(len(a)))
            s = float(rng.uniform(0.5, 3.0))
            row, off = s * a[i], s * b[i]
        elif what == 1:
            row, off = u, float((verts @ u).max() + rng.uniform(0.1, 1.0))
        elif what == 2:
            row, off = u, float((verts @ u).max())
        else:
            # cuts a corner too small to count as a facet
            row, off = u, float((verts @ u).max() - 10 ** rng.uniform(-13, -9))
        at = int(rng.integers(len(rows) + 1))
        rows.insert(at, row)
        offs.insert(at, off)
    return np.array(rows), np.array(offs), verts, p.n_facets


def test_from_facets_matches_brute_force_enumeration():
    rng = np.random.default_rng(2024)
    for trial in range(120):
        d = 2 + trial % 2
        a, b, verts, m = _facet_system(rng, d)
        p = Polytope.from_facets(a, b)
        assert p.n_facets == m, trial
        assert same_point_set(p.vertices, brute_vertices(a, b), eps=1e-7), trial
        assert same_point_set(p.vertices, verts, eps=1e-7), trial
        # the facets are the caller's own rows, unit-scaled, bit for bit and
        # in input order
        unit = a / np.linalg.norm(a, axis=1)[:, None]
        off = b / np.linalg.norm(a, axis=1)
        picked = []
        for row, h in zip(p.facet_normals, p.facet_offsets):
            hits = np.flatnonzero((unit == row).all(axis=1) & (off == h))
            assert hits.size, (trial, row, h)
            picked.append(hits[0])
        assert picked == sorted(picked), trial


def test_from_facets_rejects_unbounded_and_flat_systems():
    rng = np.random.default_rng(77)
    for trial in range(60):
        d = 2 + trial % 2
        a, b, verts, _ = _facet_system(rng, d)
        w = rng.standard_normal(d)
        # every row with <a_i, w> <= 0 keeps w as a recession direction
        cone = (a @ w) <= 0.0
        with pytest.raises(GeometryError, match="^unbounded$"):
            Polytope.from_facets(a[cone], b[cone])
        # a slab of width zero through the interior, and an empty one, also
        # at 1e-9, where the Chebyshev-radius test is relative
        mid = float(verts.mean(axis=0) @ w)
        for gap in (0.0, 1.0):
            flat_a = np.vstack([a, w, -w])
            flat_b = np.concatenate([b, [mid, -mid - gap]])
            for scale in (1.0, 1e-9):
                with pytest.raises(GeometryError, match="^not full-dimensional$"):
                    Polytope.from_facets(flat_a, scale * flat_b)


def test_intervals_in_d1():
    """d = 1 bodies are intervals: the extreme points of a vertex list, the
    tightest offsets over the normals of each sign, with their length as
    volume; one-sided or empty rows are refused."""
    p = Polytope.from_vertices([[0.0], [1.0], [0.3]])
    assert p.vertices.tolist() == [[0.0], [1.0]]
    assert p.facet_normals.tolist() == [[1.0], [-1.0]]
    assert measure(p) == 1.0
    q = Polytope.from_facets([[1.0], [-2.0], [3.0]], [1.0, 1.0, 6.0])
    assert q.vertices.tolist() == [[-0.5], [1.0]]
    assert q.facet_offsets.tolist() == [1.0, 0.5]
    assert measure(q) == 1.5
    with pytest.raises(GeometryError, match="^unbounded$"):
        Polytope.from_facets([[1.0], [2.0]], [1.0, 1.0])
    with pytest.raises(GeometryError, match="^not full-dimensional$"):
        Polytope.from_facets([[1.0], [-1.0]], [1.0, -2.0])


def test_non_finite_input_rejected():
    square = np.vstack([np.eye(2), -np.eye(2)])
    with pytest.raises(InputError, match="finite"):
        Polytope.from_vertices([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(InputError, match="finite"):
        Polytope.from_facets(square, [1.0, np.inf, 1.0, 1.0])
    with pytest.raises(InputError, match="finite"):
        Polytope.from_facets(np.where(square == 1.0, np.nan, square), np.ones(4))


def test_dedupe_facets_matches_reference_loop():
    def reference(a, b):
        norms = np.linalg.norm(a, axis=1)
        a, b = a / norms[:, None], b / norms
        eps = tolerances.FACET_MERGE
        keep = []
        for i in range(b.size):
            if not any(np.abs(a[i] - a[j]).max() <= eps
                       and abs(b[i] - b[j]) <= eps * (1 + abs(b[j]))
                       for j in keep):
                keep.append(i)
        return a[keep], b[keep]

    rng = np.random.default_rng(17)
    merged = 0
    for _ in range(60):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 40))
        a = rng.standard_normal((m, d))
        b = rng.uniform(-2.0, 2.0, m)
        # plant copies of earlier rows: rescaled, or moved by less than,
        # about or more than the merge distance, then shuffle
        src = rng.integers(0, m, size=m)
        shift = (rng.choice([0.0, 0.3, 1.0, 3.0], size=(m, 1))
                 * tolerances.FACET_MERGE * rng.uniform(-1, 1, (m, d + 1)))
        scale = rng.uniform(0.5, 2.0, (m, 1))
        norms = np.linalg.norm(a[src], axis=1)[:, None]
        extra = np.hstack([a[src] / norms, (b[src] / norms[:, 0])[:, None]])
        extra = (extra + shift) * scale
        rows = np.vstack([np.hstack([a, b[:, None]]), extra])
        rows = rows[rng.permutation(rows.shape[0])]
        got = polytope._dedupe_facets(rows[:, :-1], rows[:, -1])
        want = reference(rows[:, :-1], rows[:, -1])
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        merged += rows.shape[0] - want[1].size
    assert merged > 0


def _sphere_body(rng, pairs, d=3):
    pts = rng.standard_normal((pairs, d))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return Polytope.from_vertices(np.vstack([pts, -pts]))


def _planted_rows(rng, a, b):
    """Rows of a plus copies of some of them moved, after unit scaling, by
    0.5, 0.99, 1.01 or 2 FACET_MERGE along one axis, and offsets moved by
    a similar share of the merge band; shuffled."""
    eps = tolerances.FACET_MERGE
    norms = np.linalg.norm(a, axis=1)
    src = rng.integers(0, b.size, size=max(1, b.size // 2))
    copy = a[src] / norms[src, None]
    axis = rng.integers(0, a.shape[1], size=src.size)
    copy[np.arange(src.size), axis] += (rng.choice([0.5, 0.99, 1.01, 2.0], src.size)
                                        * rng.choice([-1.0, 1.0], src.size) * eps)
    off = b[src] / norms[src]
    off = off + rng.choice([0.0, 0.5, 2.0], src.size) * eps * (1 + np.abs(off))
    rows = np.vstack([np.column_stack([a, b]), np.column_stack([copy, off])])
    return rows[rng.permutation(rows.shape[0])]


def test_near_duplicate_queries_match_all_pairs_oracles():
    """`_dedupe_facets`, `facet_directions` and `is_origin_symmetric`
    against the all-pairs scans they replaced, on random and symmetric
    bodies in d = 2..4, boxes with a normal 0.5e-9 and 2e-9 off its
    antipode, symmetric bodies with a vertex moved 0.5 or 2 `tight`
    distances, and a 1,020-facet sphere body."""
    rng = np.random.default_rng(29)
    bodies = [random_polytope(2 + i % 3, 5 + i % 7, rng, symmetric=i % 4 < 2)
              for i in range(60)]
    for d in (2, 3, 4):
        for tilt, kept in ((0.5e-9, d), (2e-9, d + 1)):
            a = np.vstack([np.eye(d), -np.eye(d)])
            a[d, 1] = tilt
            p = Polytope.from_facets(a, np.ones(2 * d))
            assert facet_directions(p).shape == (kept, d)
            bodies.append(p)
        for move, symmetric in ((0.5, True), (2.0, False)):
            p = _sphere_body(rng, 12, d)
            v = p.vertices.copy()
            v[0] *= 1.0 + move * tolerances.tight(p._scale()) / np.linalg.norm(v[0])
            q = Polytope.from_vertices(v)
            assert q.is_origin_symmetric() == symmetric
            bodies += [p, q]
    big = _sphere_body(rng, 256)
    assert big.n_facets == 1020
    bodies.append(big)
    merged = kept_plants = 0
    for p in bodies:
        a = p.facet_normals
        assert np.array_equal(facet_directions(p), facet_directions_all_pairs(a))
        assert p.is_origin_symmetric() == origin_symmetric_all_pairs(p)
        rows = _planted_rows(rng, a * rng.uniform(0.5, 2.0, (a.shape[0], 1)),
                             p.facet_offsets)
        got = polytope._dedupe_facets(rows[:, :-1], rows[:, -1])
        want = dedupe_facets_all_pairs(rows[:, :-1], rows[:, -1])
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        merged += rows.shape[0] - want[1].size
        kept_plants += want[1].size - a.shape[0]
    symmetric = sum(p.is_origin_symmetric() for p in bodies)
    assert merged > 100 and kept_plants > 100
    assert min(symmetric, len(bodies) - symmetric) >= 30


def test_redundant_facet_dropped():
    a = np.vstack([np.eye(2), -np.eye(2), [[1.0, 0.0]]])
    b = np.array([1.0, 1.0, 1.0, 1.0, 5.0])
    p = Polytope.from_facets(a, b)
    assert p.n_facets == 4


def test_roundtrip_on_random_polytopes():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        p = random_polytope(d, int(rng.integers(d + 1, d + 6)), rng)
        q = Polytope.from_facets(p.facet_normals, p.facet_offsets)
        assert same_point_set(p.vertices, q.vertices, eps=1e-6)
        r = Polytope.from_vertices(p.vertices)
        assert same_point_set(p.vertices, r.vertices, eps=1e-6)


def scaled_gaussian_hulls(scale):
    """(unit-scale hull, hull of the same points times `scale`), 40 seeded
    d = 2, 3 clouds of 8-11 Gaussian points."""
    for i in range(40):
        pts = np.random.default_rng(i).normal(size=(8 + i % 4, 2 + i % 2))
        yield Polytope.from_vertices(pts), Polytope.from_vertices(scale * pts)


def test_from_vertices_keeps_small_bodies():
    """The affine-rank cut is relative: at 1e-9 two of these hulls have a
    singular value under an absolute 1e-9 and were refused as flat."""
    for unit, small in scaled_gaussian_hulls(1e-9):
        assert same_point_set(small.vertices * 1e9, unit.vertices, eps=1e-9)


HUGE_HULL_CHILD = """
import sys
import numpy as np
from nonsep.errors import GeometryError
from nonsep.polytope import Polytope, cube, cross_polytope
d, scale = int(sys.argv[1]), float(sys.argv[2])
pts = np.vstack([cube(d).vertices, cross_polytope(d).vertices + 1.5])
try:
    Polytope.from_vertices(scale * pts)
    print("answered")
except GeometryError as exc:
    print("GeometryError:", exc)
"""


@pytest.mark.parametrize("d, scale", [(3, 1e160), (4, 1e110), (4, 1e130)])
def test_from_vertices_refuses_coordinates_qhull_cannot_take(d, scale):
    """In 3-D and 4-D qhull's determinant products overflow on such points
    and kill the interpreter; `from_vertices` refuses them before qhull
    runs.  In a child process, so that a crash fails this test instead of
    ending the run."""
    src = str(Path(polytope.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, "-c", HUGE_HULL_CHILD, str(d), repr(scale)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout.startswith("GeometryError: hull failed"), proc.stdout


@pytest.mark.parametrize("d, scale", [(2, 1e150), (3, 1e76), (4, 1e48), (5, 1e300)])
def test_from_vertices_answers_below_its_refusal(d, scale):
    """Where qhull answers, `from_vertices` still does: planar and d >= 5
    hulls at any scale it can take, 3-D and 4-D ones below the limit."""
    for base in (cube(d), cross_polytope(d)):
        p = Polytope.from_vertices(scale * base.vertices)
        assert p.n_facets == base.n_facets
        assert same_point_set(p.vertices / scale, base.vertices, eps=1e-9)


def test_from_facets_keeps_large_bodies():
    """The polar hull's offsets shrink like 1 / scale: at 1e10 an absolute
    GEOM read every one of these bodies as unbounded."""
    for unit, large in scaled_gaussian_hulls(1e10):
        again = Polytope.from_facets(large.facet_normals, large.facet_offsets)
        assert same_point_set(again.vertices / 1e10, unit.vertices, eps=1e-9)


def test_from_facets_keeps_small_bodies():
    """The Chebyshev radius is judged relative to the largest offset below
    unit scale: at 1e-9 an absolute GEOM read 24 of these bodies as flat."""
    for unit, small in scaled_gaussian_hulls(1e-9):
        again = Polytope.from_facets(small.facet_normals, small.facet_offsets)
        assert same_point_set(again.vertices * 1e9, unit.vertices, eps=1e-9)


def test_support_is_subadditive_and_homogeneous():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_polytope(3, 8, rng)
        u, w = rng.standard_normal(3), rng.standard_normal(3)
        assert p.support(u + w) <= p.support(u) + p.support(w) + 1e-9
        lam = float(rng.uniform(0.1, 3.0))
        assert p.support(lam * u) == pytest.approx(lam * p.support(u), rel=1e-9)


def test_support_of_direction_rows_matches_the_loop():
    rng = np.random.default_rng(12)
    p = random_polytope(3, 40, rng, symmetric=True)
    u = rng.standard_normal((p.n_facets, 3))
    rows = p.support(u)
    loop = np.array([p.support(w) for w in u])
    assert rows.shape == (p.n_facets,)
    # the matrix product may round each entry one ulp away from the loop's
    assert np.abs(rows - loop).max() <= 4 * np.finfo(float).eps * np.abs(loop).max()
    assert p.support(u[:1]).shape == (1,)
    with pytest.raises(InputError, match="zero direction"):
        p.support(np.vstack([u[:2], np.zeros(3)]))


def test_from_facets_of_508_facet_symmetric_body_matches_from_vertices():
    # 128 antipodal pairs on the sphere: every point is a vertex and the
    # hull has 4 * 128 - 4 triangles; the Chebyshev LP is 508 x 4
    rng = np.random.default_rng(508)
    pts = rng.standard_normal((128, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    p = Polytope.from_vertices(np.vstack([pts, -pts]))
    assert (p.n_facets, p.n_vertices) == (508, 256)
    q = Polytope.from_facets(p.facet_normals, p.facet_offsets)
    assert q.n_facets == 508
    assert same_point_set(q.vertices, p.vertices, eps=1e-7)
    assert same_point_set(np.column_stack([q.facet_normals, q.facet_offsets]),
                          np.column_stack([p.facet_normals, p.facet_offsets]), eps=1e-9)


def test_polar_square_is_scaled_cross():
    p = polar(cube(2))
    assert same_point_set(p.vertices, [[2, 0], [-2, 0], [0, 2], [0, -2]])


def test_polar_involution():
    rng = np.random.default_rng(5)
    for _ in range(15):
        d = int(rng.integers(2, 4))
        p = random_polytope(d, d + 4, rng)
        p = p.translate(-p.centroid())  # origin strictly inside
        q = polar(polar(p))
        assert same_point_set(p.vertices, q.vertices, eps=1e-6)


def test_polar_needs_interior_origin():
    shifted = cube(2).translate([10.0, 0.0])
    with pytest.raises(InputError, match="origin must be interior"):
        polar(shifted)


def test_contains_translate_basic():
    big, small = cube(2, half=1.0), cube(2, half=0.4)
    ok, t = contains_translate(big, small)
    assert ok
    assert (big.facet_normals @ (small.vertices + t).T
            <= big.facet_offsets[:, None] + 1e-7).all()
    ok, _ = contains_translate(small, big)
    assert not ok


def test_contains_translate_simplex_in_reflected():
    # The smallest reflected homothet holding a d-simplex has ratio d.
    tri = standard_simplex(2)
    neg = Polytope.from_vertices(-tri.vertices)
    ok, _ = contains_translate(neg.scale(2.0), tri)
    assert ok
    ok, _ = contains_translate(neg.scale(1.9), tri)
    assert not ok


def test_contains_translate_against_grid_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        outer = random_polytope(2, int(rng.integers(4, 9)), rng)
        inner = random_polytope(2, int(rng.integers(3, 8)), rng)
        # bracket the critical scale, then test robustly on both sides
        lo, hi = 1e-3, 50.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            ok, _ = contains_translate(outer, inner.scale(mid))
            lo, hi = (mid, hi) if ok else (lo, mid)
        crit = 0.5 * (lo + hi)
        inside = inner.scale(0.8 * crit)
        outside = inner.scale(1.2 * crit)
        ok_in, t = contains_translate(outer, inside)
        assert ok_in
        assert grid_contains_translate(outer, inside)
        ok_out, _ = contains_translate(outer, outside)
        assert not ok_out
        assert not grid_contains_translate(outer, outside, res=40, slack=-1e-6)


@pytest.mark.parametrize("s", [1e-4, 1e-8])
def test_parallelotope_small_box(s):
    """Edges as short as s give the box [-s/2, s/2]^3, as from_vertices
    does; the determinant test is relative to the edge lengths."""
    p = parallelotope(s * np.eye(3))
    assert np.allclose(p.facet_offsets, s / 2, rtol=1e-12, atol=0)
    assert measure(p) == pytest.approx(s ** 3, rel=1e-9)
    with pytest.raises(InputError, match="linearly dependent"):
        parallelotope(s * np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]]))


def test_is_generic_flags_parallel_facets():
    assert not is_generic(cube(2))
    assert not is_generic(regular_polygon(6))
    assert is_generic(standard_simplex(2))


def test_genericize_contract():
    rng_seeds = [0, 1, 2]
    p = cube(2)
    for seed in rng_seeds:
        eps = 0.02
        q = genericize(p, eps, seed=seed)
        assert is_generic(q)
        assert q.n_facets == p.n_facets
        # contains the original
        h = np.array([p.support(a) for a in q.facet_normals])
        assert (h <= q.facet_offsets + 1e-9).all()
        # and is contained in a (1 + c*eps) blow-up for a modest c
        c = (float(p.gauge(q.vertices).max()) - 1.0) / eps
        assert 0.0 <= c < 50.0
        # normals moved by at most eps
        cos = np.clip(q.facet_normals @ p.facet_normals.T, -1, 1)
        assert np.arccos(cos.max(axis=1)).max() <= eps + 1e-12


def test_genericize_3d():
    q = genericize(cube(3), 0.03, seed=4)
    assert is_generic(q)
    assert q.n_facets == 6


def test_circumscribed_simplices_of_simplex_is_itself():
    t = standard_simplex(2)
    sims = circumscribed_simplices(t)
    assert len(sims) == 1
    assert same_point_set(sims[0].vertices, t.vertices, eps=1e-7)


def test_circumscribed_simplices_generic_quadrilateral():
    q = genericize(cube(2), 0.03, seed=8)
    sims = circumscribed_simplices(q)
    assert sims, "a generic quadrilateral admits at least one bounded triple"
    for s in sims:
        assert s.n_facets == 3
        assert (s.facet_normals @ q.vertices.T
                <= s.facet_offsets[:, None] + 1e-7).all()


def test_circumscribed_simplices_rejects_non_generic():
    with pytest.raises(GeometryError):
        circumscribed_simplices(cube(2))


def test_measures():
    assert measure(unit_cube(2)) == pytest.approx(1.0)
    assert measure(unit_cube(3)) == pytest.approx(1.0)
    assert measure(standard_simplex(3)) == pytest.approx(1 / 6)
    assert measure(cross_polytope(3)) == pytest.approx(4 / 3)
    with pytest.raises(InputError):
        measure(unit_cube(4))


def test_edges_counts():
    assert len(edges(cube(2))) == 4
    assert len(edges(cube(3))) == 12
    assert len(edges(cross_polytope(3))) == 12
    assert len(edges(standard_simplex(3))) == 6


def test_edges_match_double_loop():
    rng = np.random.default_rng(44)
    bodies = []
    for d in (2, 3, 4):
        bodies += [cube(d), standard_simplex(d), random_simplex(d, rng),
                   cross_polytope(d)]
        bodies += [random_polytope(d, 4 * d + 3, rng) for _ in range(4)]
    for p in bodies:
        assert edges(p) == edges_double_loop(p)


def test_edges_are_searched_once_per_body(monkeypatch):
    """`edges` hands out a new list each call, and a body runs its edge
    search (one SVD per candidate pair) only on the first."""
    svd = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for p in (regular_polygon(7), cube(3), standard_simplex(4), cross_polytope(4)):
        calls.clear()
        got = edges(p)
        want = list(got)
        assert calls and want == edges_double_loop(p)
        got.clear()
        calls.clear()
        assert edges(p) == want and edges(p) is not edges(p)
        assert calls == []


def test_difference_body_keeps_one_row_per_facet():
    # qhull triangulates the facets of P - P in d >= 3; the merged rows are
    # the facets: a cube, a cuboctahedron (P a tetrahedron) and a 4-cube
    for p, rows in ((cube(3), 6), (standard_simplex(3), 14), (cube(4), 8)):
        u, up, down = p._difference_body
        assert u.shape == (rows, p.dim) and up.shape == down.shape == (rows,)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0)
        assert polytope._near_pairs(u, tolerances.FACET_MERGE, np.inf).size == 0


def test_homothet_and_gauge():
    p = cube(2)
    q = p.homothet([3.0, 1.0], 2.0)
    assert same_point_set(q.vertices, [[2, 0], [4, 0], [2, 2], [4, 2]])
    assert p.gauge([0.25, 0.1]) == pytest.approx(0.5)
    assert p.gauge([0.0, 0.0]) == 0.0


def test_json_roundtrip_and_completion():
    p = cross_polytope(2, radius=1.5)
    d = p.to_dict()
    q = polytope_from_dict(d)
    assert same_point_set(p.vertices, q.vertices)
    # facet-only and vertex-only forms complete the missing side
    facets_only = {"dim": 2, "facets": d["facets"]}
    verts_only = {"dim": 2, "vertices": d["vertices"]}
    assert same_point_set(polytope_from_dict(facets_only).vertices, p.vertices)
    assert polytope_from_dict(verts_only).n_facets == p.n_facets
    with pytest.raises(InputError):
        polytope_from_dict({"dim": 2})
    with pytest.raises(InputError, match="'a'"):
        polytope_from_dict({"dim": 2, "facets": [{"b": 1.0}] + d["facets"][1:]})
    with pytest.raises(InputError, match="equal-length"):
        polytope_from_dict({"dim": 2, "vertices": [[0, 0], [1, 0], [0]]})


@pytest.mark.parametrize("dim, message", [
    (True, "integer"), (2.0, "integer"), ("2", "integer"), (None, "integer"),
    (0, "at least 1"), (-1, "at least 1")])
@pytest.mark.parametrize("form", ["vertices", "facets"])
def test_dict_loader_refuses_a_bad_dim(dim, message, form):
    # a boolean dim used to load [[0], [1]] as a segment, and 2.0 a square
    segment, square = cube(1).to_dict(), cube(2).to_dict()
    for doc in (segment, square):
        with pytest.raises(InputError, match=message):
            polytope_from_dict({"dim": dim, form: doc[form]})
    assert polytope_from_dict({"dim": np.int64(2), form: square[form]}).dim == 2


def test_dict_loader_refuses_zero_dim_rows():
    # these used to fail inside numpy with a ValueError
    for doc in ({"dim": 0, "vertices": [[]]}, {"dim": 0, "vertices": [[], []]}):
        with pytest.raises(InputError, match="at least 1"):
            polytope_from_dict(doc)


def test_random_simplex_is_simplex():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        s = random_simplex(d, rng)
        assert s.n_vertices == d + 1
        assert s.n_facets == d + 1
