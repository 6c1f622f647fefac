import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    arrangement_with_lambda1,
    contains_point,
    gauge_dist,
    gauge_rows,
    lattice_patch,
    min_gauge_dist_oracle,
    ns_patch_probe,
    sampled_hit_curve,
    weak_impassability_probe,
)
from nonsep import lattice
from nonsep.errors import InputError
from nonsep.lattice import (
    Lattice,
    LatticeArrangement,
    arrangement_from_dict,
    covering_radius,
    density,
    dual_lattice,
    is_ns_lattice,
    kronecker_gap,
    tightness,
    weak_covering_minimum_1,
)
from nonsep.polytope import (
    Polytope,
    cross_polytope,
    cube,
    facet_directions,
    measure,
    parallelotope,
    polar,
    random_polytope,
    standard_simplex,
    unit_cube,
)


def chessboard():
    # columns (1,1) and (1,-1): squares on the black cells
    return LatticeArrangement(cube(2),
                              Lattice.from_basis([[1.0, 1.0], [1.0, -1.0]]))


def half_cross(d):
    return LatticeArrangement(cross_polytope(d, radius=0.5),
                              Lattice.from_basis(np.eye(d)))


# -- types and duality -------------------------------------------------------


def test_lattice_validation():
    with pytest.raises(InputError, match="singular"):
        Lattice.from_basis([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(InputError, match="square"):
        Lattice.from_basis([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(InputError, match="finite"):
        Lattice.from_basis([[1.0, 0.0], [0.0, np.nan]])
    assert chessboard().lattice.det == pytest.approx(2.0)
    with pytest.raises(InputError, match="dimensions"):
        LatticeArrangement(cube(3), Lattice.from_basis(np.eye(2)))


def test_dual_examples():
    eye = Lattice.from_basis(np.eye(3))
    assert np.allclose(dual_lattice(eye).basis, np.eye(3))
    dual = dual_lattice(chessboard().lattice)
    assert dual.det == pytest.approx(0.5)
    assert dual.det * chessboard().lattice.det == pytest.approx(1.0)
    diag = dual_lattice(Lattice.from_basis(np.diag([2.0, 3.0])))
    assert np.allclose(diag.basis, np.diag([0.5, 1.0 / 3.0]))


def test_dual_is_involution():
    rng = np.random.default_rng(11)
    for _ in range(12):
        d = int(rng.integers(2, 4))
        b = rng.uniform(-2, 2, size=(d, d))
        if abs(np.linalg.det(b)) < 0.1:
            continue
        lat = Lattice.from_basis(b)
        assert np.abs(dual_lattice(dual_lattice(lat)).basis
                      - lat.basis).max() < 1e-9


def test_lattice_json_roundtrip():
    lat = Lattice.from_basis([[1.0, 1.0], [1.0, -1.0]])
    body = cube(2).to_dict()
    again = arrangement_from_dict({"body": body, "basis": lat.basis.tolist()}).lattice
    assert np.allclose(again.basis, lat.basis)
    with pytest.raises(InputError, match="basis"):
        arrangement_from_dict({"body": body, "dim": 2})


# -- density -----------------------------------------------------------------


def test_density_examples():
    assert density(chessboard()) == pytest.approx(0.5, abs=1e-12)
    ftm = Polytope.from_vertices([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])
    arr = LatticeArrangement(ftm, Lattice.from_basis(np.eye(2)))
    assert density(arr) == pytest.approx(0.375, abs=1e-9)
    assert density(half_cross(2)) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(InputError, match="d <= 3"):
        density(LatticeArrangement(cube(4), Lattice.from_basis(np.eye(4))))


# -- gauge -------------------------------------------------------------------


def test_gauge_examples():
    assert cube(2, half=1.0).gauge([3.0, -2.0]) == pytest.approx(3.0)
    assert cross_polytope(2, radius=0.5).gauge([0.5, 0.5]) \
        == pytest.approx(2.0)
    assert cube(3).gauge(np.zeros(3)) == 0.0
    with pytest.raises(InputError, match="interior"):
        unit_cube(2).gauge([0.5, 0.5])


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 5.0),
       st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
       st.tuples(st.floats(-3, 3), st.floats(-3, 3)))
def test_gauge_is_a_norm_on_symmetric_bodies(s, x, y):
    body = random_polytope(2, 9, np.random.default_rng(0), symmetric=True)
    x, y = np.asarray(x), np.asarray(y)
    assert body.gauge(s * x) == pytest.approx(s * body.gauge(x), abs=1e-9)
    assert body.gauge(-x) == pytest.approx(body.gauge(x), abs=1e-12)
    assert body.gauge(x + y) <= body.gauge(x) + body.gauge(y) + 1e-9
    # rows of points give one value per row, equal to the one-point values
    rows = body.gauge(np.stack([x, y, x + y]))
    assert rows.shape == (3,)
    assert rows == pytest.approx(
        [body.gauge(x), body.gauge(y), body.gauge(x + y)], rel=1e-12, abs=1e-12)


# -- covering radius and tightness -------------------------------------------


def test_covering_radius_cube_tiling():
    arr = LatticeArrangement(cube(2), Lattice.from_basis(np.eye(2)))
    lo, hi = covering_radius(arr, resolution=16, width=0.02)
    assert lo <= 1.0 <= hi and hi - lo <= 0.02


def test_covering_radius_half_cross():
    lo, hi = covering_radius(half_cross(2), resolution=32, width=0.02)
    assert lo <= 2.0 <= hi and hi - lo <= 0.02


def test_covering_radius_chessboard():
    lo, hi = covering_radius(chessboard(), resolution=32, width=0.02)
    assert lo <= 2.0 <= hi and hi - lo <= 0.02


def test_covering_radius_plain_bracket():
    # no refinement: bracket is grid max plus the Lipschitz cap
    lo, hi = covering_radius(half_cross(2), resolution=96)
    assert lo <= 2.0 <= hi and hi - lo < 0.05


def test_covering_radius_3d_tiling():
    arr = LatticeArrangement(cube(3), Lattice.from_basis(np.eye(3)))
    lo, hi = covering_radius(arr, resolution=8, width=0.05)
    assert lo <= 1.0 <= hi and hi - lo <= 0.05


def test_covering_radius_budget_error_reports_bracket(monkeypatch):
    monkeypatch.setattr(lattice, "_MAX_EVALS", 200)
    with pytest.raises(InputError, match="achieved"):
        covering_radius(half_cross(2), resolution=4, width=1e-4)


@pytest.mark.parametrize("width", [np.nan, np.inf, -1.0, 0.0])
def test_covering_radius_and_tightness_refuse_bad_width(width):
    # refused before any sampling: nan and inf were ignored, and -1 and 0
    # (a Lipschitz bracket never closes to nothing) refined until the
    # evaluation budget ran out
    arr = LatticeArrangement(cube(2), Lattice.from_basis(np.eye(2)))
    for bracket in (covering_radius, tightness):
        with pytest.raises(InputError, match="width must be finite"):
            bracket(arr, resolution=8, width=width)


def test_tightness_examples():
    lo, hi = tightness(chessboard(), resolution=32, width=0.02)
    assert lo <= 1.0 <= hi and hi - lo <= 0.02
    lo, hi = tightness(half_cross(2), resolution=32, width=0.02)
    assert lo <= 1.0 <= hi
    lo, hi = tightness(LatticeArrangement(cube(2),
                                          Lattice.from_basis(np.eye(2))),
                       resolution=16, width=0.02)
    assert abs(lo) <= 0.02 and abs(hi) <= 0.02
    with pytest.raises(InputError, match="symmetric"):
        tightness(LatticeArrangement(standard_simplex(2),
                                     Lattice.from_basis(np.eye(2))))


def _hull_samples(body, rng, n):
    w = rng.dirichlet(np.ones(body.n_vertices), size=n)
    return w @ body.vertices


def test_overlap_identity_rejection_oracle():
    """Validates: (x+lam*K) meets (z+K) iff K.gauge(x-z) <= 1+lam.

    Positive side checks an explicitly constructed common point by plain
    facet evaluation; negative side rejection-samples the small homothet
    and demands every sample stay outside of z + K.
    """
    rng = np.random.default_rng(44)
    pos = neg = 0
    while pos < 10 or neg < 10:
        k = random_polytope(2, 7, rng, symmetric=True)
        x = rng.uniform(-2, 2, 2)
        z = rng.uniform(-2, 2, 2)
        lam = float(rng.uniform(0.2, 1.5))
        c = k.gauge(x - z)
        if abs(c - (1.0 + lam)) < 0.05:
            continue
        if c <= 1.0 + lam:
            p = x if c <= 1.0 else z + (x - z) / c
            assert contains_point(k.homothet(z, 1.0), p, slack=1e-7)
            assert contains_point(k.homothet(x, lam), p, slack=1e-7)
            pos += 1
        else:
            pts = x + lam * _hull_samples(k, rng, 200)
            a, b = k.facet_normals, k.facet_offsets
            outside = (a @ (pts - z).T > b[:, None] - 1e-9).any(axis=0)
            assert outside.all()
            neg += 1


def test_tightness_matches_direct_grid_oracle():
    rng = np.random.default_rng(45)
    for _ in range(20):
        while True:
            basis = rng.uniform(-1.2, 1.2, size=(2, 2))
            if abs(np.linalg.det(basis)) > 0.4:
                break
        raw = random_polytope(2, 8, rng, symmetric=True)
        smin = np.linalg.svd(basis, compute_uv=False).min()
        rad = np.linalg.norm(raw.vertices, axis=1).max()
        body = raw.scale(0.7 * smin / rad)
        arr = LatticeArrangement(body, Lattice.from_basis(basis))
        lo, hi = tightness(arr, resolution=40)
        # independent route: grid-search the deepest hole with the
        # polytope gauge, largest empty homothet = depth - 1
        fr = (np.arange(41) + 0.5) / 41 - 0.5
        mesh = np.stack(np.meshgrid(fr, fr, indexing="ij"),
                        axis=-1).reshape(-1, 2)
        ys = mesh @ basis.T
        ax = np.arange(-4, 5)
        coeffs = np.stack(np.meshgrid(ax, ax, indexing="ij"),
                          axis=-1).reshape(-1, 2)
        zs = coeffs @ basis.T
        depth = max(body.gauge(y - zs).min() for y in ys)
        oracle = depth - 1.0
        w = hi - lo
        assert lo - w - 1e-9 <= oracle <= hi + 1e-9


@pytest.mark.parametrize("d, window, count", [(2, 4, 500), (3, 2, 400),
                                               (3, 3, 3000)])
def test_min_gauge_dist_matches_facet_axis_reduction(d, window, count):
    # the same subtractions and maxima in another order: equal bit for bit
    rng = np.random.default_rng([d, window])
    for _ in range(3):
        body = random_polytope(d, 6 + 2 * d, rng, symmetric=True)
        basis = rng.uniform(-1.5, 1.5, size=(d, d)) + 2.0 * np.eye(d)
        zs = lattice_patch(basis, window)
        ys = rng.uniform(-1.0, 1.0, size=(count, d)) @ basis.T
        got = lattice._min_gauge_dist(body, ys, zs)
        assert np.array_equal(got, min_gauge_dist_oracle(body, ys, zs))
    if window == 3:
        # several chunks of ys
        assert count * len(zs) * body.n_facets > 2 * 4_000_000


# -- the dual-lattice separability criterion ---------------------------------


def test_ns_examples():
    ok, lam1 = is_ns_lattice(chessboard())
    assert ok and lam1 == pytest.approx(0.5, abs=1e-9)
    ok, lam1 = is_ns_lattice(
        LatticeArrangement(cube(2), Lattice.from_basis(np.eye(2))))
    assert ok and lam1 == pytest.approx(0.5, abs=1e-9)
    ok, lam1 = is_ns_lattice(
        LatticeArrangement(cube(2), Lattice.from_basis(np.diag([10., 10.]))))
    assert not ok and lam1 == pytest.approx(0.05, abs=1e-9)


def test_ns_enumeration_overflow():
    skew = Lattice.from_basis([[1.0, 1e8], [0.0, 1.0]])
    with pytest.raises(InputError, match="enumeration bound overflow"):
        is_ns_lattice(LatticeArrangement(cube(2), skew))


def test_tightness_rejects_skewed_lattice():
    # refused from the coefficient bounds, before the offset grid is built
    skew = Lattice.from_basis([[1.0, 300.0], [0.0, 1.0]])
    with pytest.raises(InputError, match="lattice too skewed"):
        tightness(LatticeArrangement(cube(2), skew))


def _skewed_basis(rng, d):
    """A rotated, column-scaled unit upper-triangular basis, shears up to 3."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    shear = np.eye(d) + np.triu(rng.uniform(-3, 3, size=(d, d)), 1)
    return q @ shear @ np.diag(rng.uniform(0.5, 1.5, size=d))


def test_enumeration_bounds_match_brute_force():
    """lambda_1 of is_ns_lattice and the lower end of covering_radius
    against minima over the coefficient window [-8, 8]^d, with gauges
    from scipy hulls alone.  Some shortest dual vectors lie outside
    [-1, 1]^d, where only the enumerator's bound can find them."""
    rng = np.random.default_rng(51)
    beyond = 0
    for i in range(32):
        d = 2 + i % 2
        basis = _skewed_basis(rng, d)
        body = random_polytope(d, 8 if d == 2 else 12, rng, symmetric=True)
        arr = LatticeArrangement(body.scale(float(rng.uniform(0.3, 1.0))),
                                 Lattice.from_basis(basis))
        m = lattice_patch(np.eye(d), 8)
        m = m[m.any(axis=1)]
        polar_rows = gauge_rows(gauge_rows(arr.body.vertices))
        lengths = np.maximum(m @ np.linalg.inv(basis) @ polar_rows.T,
                             0.0).max(axis=1)
        best = m[int(np.argmin(lengths))]
        # a minimiser on the window's edge would hint at a short window
        assert np.abs(best).max() < 8
        beyond += np.abs(best).max() > 1
        assert is_ns_lattice(arr)[1] == pytest.approx(lengths.min(), rel=1e-9)
        res = 16 if d == 2 else 6
        fr = (np.arange(res) + 0.5) / res - 0.5
        ys = np.stack(np.meshgrid(*([fr] * d), indexing="ij"),
                      axis=-1).reshape(-1, d) @ basis.T
        depth = gauge_dist(gauge_rows(arr.body.vertices), ys,
                           lattice_patch(basis, 8)).max()
        assert covering_radius(arr, resolution=res)[0] \
            == pytest.approx(depth, rel=1e-9)
    assert beyond >= 5


def test_coefficient_box_holds_the_ball_only():
    """|m_i| < r (1 + 1e-9) |row i of b^-1|: the identity basis at r = 1.5
    needs [-1, 1]^3, and at r = 2 still reaches (2, 0, 0)."""
    assert lattice._coefficient_box(np.eye(3), 1.5, 1e9, "").shape == (27, 3)
    assert lattice._coefficient_box(np.eye(3), 2.0, 1e9, "").shape == (125, 3)


@pytest.mark.parametrize("shift", [[2.0, 0.0], [0.5, 0.0]])
@pytest.mark.parametrize("width", [None, 0.1])
def test_covering_radius_rejects_origin_off_interior(shift, width):
    """A body missing the origin, or with the origin on its boundary,
    has no gauge; no bracket is returned for it."""
    arr = LatticeArrangement(cube(2).translate(shift), Lattice.from_basis(np.eye(2)))
    with pytest.raises(InputError, match="origin must be interior to the body"):
        covering_radius(arr, resolution=16, width=width)


@pytest.mark.parametrize("s", [1e-10, 1e-9, 1e-8, 1e-5, 1e-3, 1e4, 1e8, 1e12])
def test_ns_is_scale_invariant(s):
    """Scaling body and lattice together changes neither the verdict nor
    lambda_1, also where the basis and dual determinants and the polar's
    facet offsets fall far below GEOM."""
    rng = np.random.default_rng(49)
    for i in range(20):
        band = (0.2, 0.45) if i % 2 == 0 else (0.55, 0.9)
        arr, target = arrangement_with_lambda1(rng, band)
        scaled = LatticeArrangement(arr.body.scale(s),
                                    Lattice.from_basis(s * arr.lattice.basis))
        verdict, lam1 = is_ns_lattice(scaled)
        assert verdict == (target >= 0.5)
        assert lam1 == pytest.approx(is_ns_lattice(arr)[1], rel=1e-9)


def test_ns_agrees_with_patch_probe():
    """The dual-shortest-vector call against a probe that never sees the
    dual lattice: project a finite patch onto thousands of directions and
    look for central gaps."""
    rng = np.random.default_rng(46)
    for i in range(20):
        band = (0.2, 0.45) if i % 2 == 0 else (0.55, 0.9)
        arr, target = arrangement_with_lambda1(rng, band)
        verdict, lam1 = is_ns_lattice(arr)
        assert lam1 == pytest.approx(target, rel=1e-9)
        assert verdict == (target >= 0.5)
        assert ns_patch_probe(arr) == verdict


def test_density_bound_on_ns_instances():
    # density of a non-separable arrangement is at least
    # vol(K) * vol(polar K) / 16
    rng = np.random.default_rng(47)
    for _ in range(12):
        arr, _ = arrangement_with_lambda1(rng, (0.55, 0.95))
        bound = measure(arr.body) * measure(polar(arr.body)) / 16.0
        assert density(arr) >= bound - 1e-12


def test_weak_impassability_implies_ns_2d():
    rng = np.random.default_rng(48)
    passed = failed = 0
    for i in range(8):
        while True:
            basis = rng.uniform(-1.2, 1.2, size=(2, 2))
            if abs(np.linalg.det(basis)) > 0.4:
                break
        lat = Lattice.from_basis(basis)
        raw = random_polytope(2, 8, rng, symmetric=True)
        arr = LatticeArrangement(raw, lat)
        if i % 2 == 0:
            # rescale into a genuine covering so the probe passes
            _, hi = covering_radius(arr, resolution=24)
            arr = LatticeArrangement(raw.scale(1.02 * hi), lat)
        else:
            arr, _ = arrangement_with_lambda1(rng, (0.15, 0.3))
        if weak_impassability_probe(arr, 0, samples=500, seed=i):
            assert is_ns_lattice(arr)[0]
            passed += 1
        else:
            failed += 1
    assert passed >= 3 and failed >= 1


def test_weak_impassability_implies_ns_3d():
    tile = LatticeArrangement(cube(3), Lattice.from_basis(np.eye(3)))
    assert weak_impassability_probe(tile, 1, samples=200, window=3)
    assert is_ns_lattice(tile)[0]
    sparse = LatticeArrangement(cube(3),
                                Lattice.from_basis(np.diag([3., 3., 3.])))
    assert not weak_impassability_probe(sparse, 1, samples=200, window=3)
    with pytest.raises(InputError, match="k = 0"):
        weak_impassability_probe(chessboard(), 1)


# -- equidistribution --------------------------------------------------------


def test_kronecker_gap_examples():
    u = np.array([1.0, np.sqrt(2.0)])
    u /= np.linalg.norm(u)
    assert kronecker_gap(u, 50) < 0.01
    assert kronecker_gap([1.0, 0.0], 10) == 1.0
    u3 = np.array([1.0, np.sqrt(2.0), np.sqrt(3.0)])
    u3 /= np.linalg.norm(u3)
    assert kronecker_gap(u3, 20) < 0.005
    with pytest.raises(InputError, match="unit"):
        kronecker_gap([1.0, 1.0], 10)
    # refused before any point is built: radius 200 in d = 3 lists 64.5 M
    for r in (200, -1):
        with pytest.raises(InputError, match=f"box_radius {r} "):
            kronecker_gap(u3, r)


def test_kronecker_gap_refuses_non_finite_direction():
    for u in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(InputError, match="finite"):
            kronecker_gap(u, 5)


def test_kronecker_gap_trend():
    u = np.array([1.0, np.sqrt(2.0)])
    u /= np.linalg.norm(u)
    gaps = [kronecker_gap(u, r) for r in (10, 20, 35, 50)]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]
    # a rational unit direction stalls: multiples of 1/5 only
    assert kronecker_gap([0.6, 0.8], 50) >= 0.2 - 1e-9


# -- weak covering minimum curves --------------------------------------------


def test_weak_minimum_irrational_parallelotope():
    p = parallelotope([[1.0, np.sqrt(2.0)], [np.sqrt(3.0), 1.0]])
    rows = weak_covering_minimum_1(p, Lattice.from_basis(np.eye(2)),
                                   [0.05], window=200)
    t, frac, margin = rows[0]
    assert frac == 1.0 and margin == 0.0


def test_weak_minimum_axis_square_slabs():
    square = cube(2, half=1.0)
    rows = weak_covering_minimum_1(square, Lattice.from_basis(np.eye(2)),
                                   [0.1, 0.25, 0.4, 0.5], window=60)
    # slabs of width 2t on Z, so 2t of the planes are hit; they meet at t = 1/2
    assert [r[1] for r in rows] == pytest.approx([0.2, 0.5, 0.8, 1.0], abs=1e-11)
    assert [r[2] for r in rows] == pytest.approx([0.4, 0.25, 0.1, 0.0], abs=1e-12)
    assert rows[3][1:] == (1.0, 0.0)


@pytest.mark.parametrize("half", [0.5, 1.0])
def test_weak_minimum_closed_forms(half):
    """Slabs of width w = 2 * half on Z^2: a share min(1, w t) of the planes
    is hit, plus 2e-12 per unit gap while one stays open (a miss of at most
    1e-12 counts as a hit), and the deepest miss is the half-gap
    (1 - w t) / 2."""
    ts = [0.0, 0.4, 0.6, 1.0, 1.2]
    rows = weak_covering_minimum_1(cube(2, half=half),
                                   Lattice.from_basis(np.eye(2)), ts)
    w = 2.0 * half
    for (t, frac, margin), want in zip(rows, ts):
        assert t == want
        assert frac == pytest.approx(min(1.0, w * t + 2e-12), abs=1e-12)
        assert margin == pytest.approx(max(0.0, (1.0 - w * t) / 2.0), abs=1e-12)


def test_weak_minimum_matches_sampled_oracle():
    """40 seeded arrangements (d = 2, 3; symmetric random bodies, and
    asymmetric ones about their vertex mean; identity and random bases) at
    5 scales: the exact fraction lies within 4 binomial sigma of 20,000
    sampled planes per direction, and no sampled plane misses by more than
    the exact margin.  Fractions never fall as t grows, and margins never
    rise."""
    rng = np.random.default_rng(33)
    for i in range(40):
        d = 2 + i % 2
        body = random_polytope(d, 6 + i % 5, rng, symmetric=i % 8 < 4)
        body = body.translate(-body.vertices.mean(axis=0))
        basis = rng.uniform(-1.5, 1.5, size=(d, d)) if i % 4 >= 2 else np.eye(d)
        while abs(np.linalg.det(basis)) < 0.3:
            basis = rng.uniform(-1.5, 1.5, size=(d, d))
        lat = Lattice.from_basis(basis)
        ts = np.sort(rng.uniform(0.0, 0.6, size=5))
        rows = weak_covering_minimum_1(body, lat, ts)
        sampled = sampled_hit_curve(body, lat, ts, samples=20_000, seed=i)
        planes = len(facet_directions(body)) * 20_000
        for (t, frac, margin), (_, share, miss) in zip(rows, sampled):
            sigma = np.sqrt(frac * (1.0 - frac) / planes)
            assert abs(frac - share) <= 4.0 * sigma + 1e-12, (i, t)
            assert margin >= miss - 1e-12, (i, t)
        fracs, margins = [r[1] for r in rows], [r[2] for r in rows]
        assert fracs == sorted(fracs) and margins == sorted(margins, reverse=True)


def test_weak_minimum_empty_grid():
    assert weak_covering_minimum_1(cube(2), Lattice.from_basis(np.eye(2)), [],
                                   window=5) == []


def test_weak_minimum_window_budget():
    """An explicit window listing more than the point budget, or no point
    but the origin, is refused before any point is built; the default
    window fits the budget."""
    lat = Lattice.from_basis(np.eye(3))
    for window in (200, 0, -1):
        with pytest.raises(InputError, match=f"window {window} "):
            weak_covering_minimum_1(cube(3), lat, [0.1], window=window)
    assert (2 * 28 + 1) ** 3 <= lattice._OFFSET_MAX < (2 * 29 + 1) ** 3
    assert weak_covering_minimum_1(cube(3), lat, [0.4]) \
        == weak_covering_minimum_1(cube(3), lat, [0.4], window=28)


@pytest.mark.parametrize("t_grid, message", [
    ([np.nan], "finite"), ([0.1, np.inf], "finite"),
    ([-0.1], "non-negative")])
def test_weak_minimum_refuses_bad_numbers(t_grid, message):
    with pytest.raises(InputError, match=message):
        weak_covering_minimum_1(cube(2), Lattice.from_basis(np.eye(2)), t_grid,
                                window=10)


SQUARE = LatticeArrangement(cube(2), Lattice.from_basis(np.eye(2)))


@pytest.mark.parametrize("call", [
    lambda: kronecker_gap([0.6, 0.8], 2.7),
    lambda: kronecker_gap([0.6, 0.8], True),
    lambda: weak_covering_minimum_1(SQUARE.body, SQUARE.lattice, [0.1], window=2.5),
    lambda: covering_radius(SQUARE, resolution=4.5),
    lambda: tightness(SQUARE, resolution=4.5),
    lambda: covering_radius(SQUARE, resolution=np.True_)])
def test_integer_arguments_refuse_fractions_and_booleans(call):
    # a radius, window or resolution of 2.7, 2.5 or 4.5 is not truncated
    with pytest.raises(InputError, match="must be an integer"):
        call()


def test_integer_arguments_take_numpy_integers():
    u = [0.6, 0.8]
    assert kronecker_gap(u, np.int64(2)) == kronecker_gap(u, 2)
    assert covering_radius(SQUARE, resolution=np.int32(4)) == covering_radius(SQUARE, 4)


def test_weak_minimum_dimension_mismatch():
    with pytest.raises(InputError, match="dimensions"):
        weak_covering_minimum_1(cube(3), Lattice.from_basis(np.eye(2)),
                                [0.1])
