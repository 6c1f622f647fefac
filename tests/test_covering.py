import itertools
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    circumscribed_simplices_oracle,
    criterion_11_families,
    critical_fit,
    overlap_chain,
    same_point_set,
    summand_lp_oracle,
    tower_family,
)

from nonsep import covering, lp, polytope
from nonsep.covering import (
    cover_intervals,
    is_summand,
    lambda_min,
    lutwak_check,
    sigma_cover,
    weighted_cover,
    wip_summand_check,
)
from nonsep.errors import InputError
from nonsep.family import HomotheticFamily, edges_covered, is_wns
from nonsep.polytope import (
    Polytope,
    _simplex_rows,
    box,
    circumscribed_simplices,
    cross_polytope,
    cube,
    genericize,
    random_polytope,
    random_simplex,
    standard_simplex,
    unit_cube,
)


# -- 1-D engine -------------------------------------------------------------


def test_intervals_pinned_cases():
    c, total = cover_intervals([(1.0, 1.0), (3.0, 1.0)])
    assert c == pytest.approx(2.0) and total == pytest.approx(2.0)
    c, total = cover_intervals([(2.0, 2.0), (4.5, 1.0)])
    assert c == pytest.approx(8.5 / 3) and total == pytest.approx(3.0)
    # nested members are fine; weights still go by half-width
    c, total = cover_intervals([(0.0, 1.0), (0.0, 2.0)])
    assert c == pytest.approx(0.0) and total == pytest.approx(3.0)


def test_intervals_exact_fractions():
    pairs = [(Fraction(0), Fraction(1)), (Fraction(3, 2), Fraction(1, 2))]
    c, total = cover_intervals(pairs)
    assert c == Fraction(1, 2) and total == Fraction(3, 2)
    # both cover ends meet the union exactly; only exact arithmetic
    # gets through the internal postcondition in a tight case like this
    assert isinstance(c, Fraction)


def test_intervals_bad_input_rejected():
    with pytest.raises(InputError, match="not non-separable"):
        cover_intervals([(0.0, 1.0), (10.0, 1.0)])
    with pytest.raises(InputError, match="positive"):
        cover_intervals([(0.0, -1.0)])
    with pytest.raises(InputError, match="at least one"):
        cover_intervals([])


def test_intervals_random_cover_property():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        radii = rng.uniform(0.2, 2.0, size=n)
        centers = np.zeros(n)
        for i in range(1, n):
            centers[i] = centers[i - 1] + rng.uniform(0, 1) * (
                radii[i - 1] + radii[i])
        c, total = cover_intervals(list(zip(centers.tolist(),
                                            radii.tolist())))
        lo = (centers - radii).min()
        hi = (centers + radii).max()
        assert c - total <= lo + 1e-9 and hi <= c + total + 1e-9


# -- covers -----------------------------------------------------------------


def two_squares():
    # touching translates of the symmetric unit square
    return HomotheticFamily(cube(2),
                            np.array([[0.0, 0.0], [1.0, 0.0]]),
                            np.ones(2))


def test_weighted_cover_two_squares():
    res = weighted_cover(two_squares())
    assert res.certified and res.lam == 1.0
    assert np.allclose(res.t, [0.5, 0.0], atol=1e-9)


def test_weighted_cover_rejects_asymmetric_base():
    fam = HomotheticFamily(standard_simplex(2),
                           np.array([[0.0, 0.0], [1.0, 0.0]]), np.ones(2))
    with pytest.raises(InputError, match="symmetric"):
        weighted_cover(fam)


def test_weighted_cover_rejects_separable_family():
    fam = HomotheticFamily(cube(2),
                           np.array([[0.0, 0.0], [5.0, 0.0]]), np.ones(2))
    with pytest.raises(InputError, match="separable"):
        weighted_cover(fam)


def test_weighted_cover_random_chains():
    rng = np.random.default_rng(8)
    for _ in range(25):
        base = random_polytope(int(rng.integers(2, 4)), 8, rng,
                               symmetric=True)
        fam = overlap_chain(base, int(rng.integers(2, 7)), rng)
        assert is_wns(fam)[0]
        assert weighted_cover(fam).certified


def test_lambda_min_two_squares_exact():
    res = lambda_min(two_squares())
    assert res.certified
    assert abs(res.lam - 1.0) < 1e-8


def test_lambda_min_two_triangles_exact():
    # worked out by hand: the diagonal facet forces lambda = 1 here
    fam = HomotheticFamily(standard_simplex(2),
                           np.array([[0.0, 0.0], [1.0, 0.0]]), np.ones(2))
    res = lambda_min(fam)
    assert res.certified
    assert abs(res.lam - 1.0) < 1e-8


def grid_lambda(family, span=3.0, steps=61):
    """LP-free search: needed lambda at each center on a refining grid."""
    p = family.base
    c0 = p.vertices.mean(axis=0)
    pc = p.translate(-c0)
    a, b = pc.facet_normals, pc.facet_offsets
    total = family.total_ratio
    shifted = family.translations + np.outer(family.ratios, c0)
    rhs = (shifted @ a.T + np.outer(family.ratios, b)).max(axis=0)

    def needed(t):
        return float(((rhs - a @ t) / (total * b)).max())

    center = shifted.mean(axis=0)
    best = (np.inf, None)
    for gx in np.linspace(-span, span, steps):
        for gy in np.linspace(-span, span, steps):
            t = center + np.array([gx, gy])
            v = needed(t)
            if v < best[0]:
                best = (v, t)
    t = best[1]
    step = 2 * span / (steps - 1)
    for _ in range(40):
        moved = False
        for dx in [(1, 0), (-1, 0), (0, 1), (0, -1),
                   (1, 1), (-1, -1), (1, -1), (-1, 1)]:
            cand = t + step * np.array(dx, float)
            v = needed(cand)
            if v < best[0] - 1e-14:
                best, t, moved = (v, cand), cand, True
        if not moved:
            step *= 0.5
    return best[0]


def test_lambda_min_matches_grid_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        base = random_polytope(2, int(rng.integers(4, 8)), rng)
        fam = overlap_chain(base, int(rng.integers(2, 5)), rng)
        res = lambda_min(fam)
        assert res.certified
        assert res.lam <= grid_lambda(fam) + 1e-6


def test_sigma_and_lambda_do_not_move_when_the_input_is_scaled_by_1e8():
    """Metamorphic: sigma and lambda_min are scale-free, so 20 seeded bodies
    (d = 2, 3, 8-11 Gaussian points) and families of 4 members on them,
    multiplied by 1e8, keep their unit-scale answers to 1e-9 relative."""
    from nonsep.asymmetry import sigma_lp

    for i in range(20):
        rng = np.random.default_rng(i)
        d = 2 + i % 2
        pts = rng.normal(size=(int(rng.integers(8, 12)), d))
        x, t = 2.0 * rng.normal(size=(4, d)), rng.uniform(0.5, 2.0, size=4)
        sigma, lam = [], []
        for s in (1.0, 1e8):
            body = Polytope.from_vertices(s * pts)
            sigma.append(sigma_lp(body).sigma)
            lam.append(lambda_min(HomotheticFamily(body, s * x, t)).lam)
        assert sigma[1] == pytest.approx(sigma[0], rel=1e-9, abs=0), i
        assert lam[1] == pytest.approx(lam[0], rel=1e-9, abs=0), i


def test_sigma_cover_symmetric_base_is_lambda_one():
    res = sigma_cover(two_squares())
    assert res.certified
    assert abs(res.lam - 1.0) < 1e-7


def test_sigma_cover_simplex_chains():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        for _ in range(10):
            base = random_simplex(d, rng)
            fam = overlap_chain(base, int(rng.integers(2, 6)), rng)
            assert is_wns(fam)[0]
            res = sigma_cover(fam)
            assert res.certified
            assert res.lam <= 0.5 * (d + 1) + 1e-6
            assert lambda_min(fam).lam <= res.lam + 1e-9


def test_sigma_cover_random_bases():
    rng = np.random.default_rng(17)
    for _ in range(15):
        d = int(rng.integers(2, 4))
        base = random_polytope(d, int(rng.integers(d + 2, 9)), rng)
        fam = overlap_chain(base, int(rng.integers(2, 6)), rng)
        res = sigma_cover(fam)
        assert res.certified


# -- summands ---------------------------------------------------------------


def erosion_summand(part, whole, tol=1e-8):
    """Independent summand oracle, no face combinatorics.

    The largest M with M + part <= whole is the facet-offset erosion;
    whole decomposes iff every vertex of whole is reachable as m + p,
    which is one feasibility LP per vertex.
    """
    from nonsep import lp

    aw, bw = whole.facet_normals, whole.facet_offsets
    ap, bp = part.facet_normals, part.facet_offsets
    eroded = bw - np.array([part.support(u) for u in aw])
    for v in whole.vertices:
        a_ub = np.vstack([aw, -ap])
        b_ub = np.concatenate([eroded, bp - ap @ v])
        if not lp.solve(np.zeros(whole.dim), a_ub, b_ub, tol=tol).optimal:
            return False
    return True


def test_summand_rectangle_in_square():
    ok, _ = is_summand(box([0, 0], [2, 1]), box([0, 0], [2, 2]))
    assert ok


def test_summand_square_in_long_box():
    ok, _ = is_summand(unit_cube(2), box([0, 0], [3, 1]))
    assert ok


def test_summand_square_not_in_triangle():
    big = standard_simplex(2).homothet(np.zeros(2), 2.0)
    ok, direction = is_summand(unit_cube(2), big)
    assert not ok
    # square's horizontal top edge cannot fit in the triangle's apex
    assert direction is not None and direction.shape == (2,)


def test_summand_polygon_diagonal_fails_in_square():
    from nonsep.polytope import regular_polygon

    gon = regular_polygon(16, radius=1.0)
    ok, direction = is_summand(gon, cube(2).homothet(np.zeros(2), 2.0))
    assert not ok
    # the blamed edge is one of the non-axis-parallel ones
    assert abs(direction[0]) > 0.05 and abs(direction[1]) > 0.05


def test_summand_identity():
    rng = np.random.default_rng(2)
    p = random_polytope(3, 8, rng)
    assert is_summand(p, p)[0]


def test_summand_cross_not_in_cube():
    ok, _ = is_summand(cross_polytope(2), cube(2))
    assert not ok


def test_summand_homothet_always():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        p = random_polytope(d, 8, rng)
        lam = float(rng.uniform(0.1, 0.9))
        small = p.homothet(rng.standard_normal(d), lam)
        ok, _ = is_summand(small, p)
        assert ok


def test_summand_of_explicit_sum():
    rng = np.random.default_rng(14)
    for _ in range(8):
        d = int(rng.integers(2, 4))
        a = random_polytope(d, 7, rng)
        b = random_polytope(d, 7, rng)
        sums = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, d)
        s = Polytope.from_vertices(sums)
        assert is_summand(a, s)[0]
        assert is_summand(b, s)[0]
        assert erosion_summand(a, s) and erosion_summand(b, s)


def test_summand_agrees_with_erosion_oracle():
    rng = np.random.default_rng(31)
    agree_true = agree_false = 0
    for _ in range(30):
        d = int(rng.integers(2, 4))
        p = random_polytope(d, 7, rng)
        q = random_polytope(d, 7, rng).homothet(np.zeros(d),
                                                float(rng.uniform(0.3, 1.2)))
        got = is_summand(q, p)[0]
        want = erosion_summand(q, p)
        assert got == want
        agree_true += want
        agree_false += not want
    assert agree_false >= 5


def _summand_pairs(rng):
    """(part, whole) pairs in d = 2, 3, 4: homothets smaller, equal and
    larger, both parts of a Minkowski sum and the sum in a part, and hulls
    of jittered vertices, at half size and at full size."""
    for d in (2, 3, 4):
        for _ in range(12):
            p = random_polytope(d, 6 + d, rng)
            for lam in (0.3, 1.0, 1.1):
                yield p.homothet(rng.standard_normal(d), lam), p
            a, b = random_polytope(d, 5, rng), random_polytope(d, 5, rng)
            s = Polytope.from_vertices(
                (a.vertices[:, None] + b.vertices[None]).reshape(-1, d))
            yield a, s
            yield b, s
            yield s, a
            for jit in (1e-10, 1e-7, 1e-2):
                q = Polytope.from_vertices(
                    p.vertices + jit * rng.standard_normal(p.vertices.shape))
                yield q.homothet(np.zeros(d), 0.5), p
                yield q, p


def _same_summand_answer(got, want) -> bool:
    if got[0] != want[0]:
        return False
    if want[1] is None:
        return got[1] is None
    return got[1] is not None and np.array_equal(got[1], want[1])


def test_summand_matches_lp_oracle():
    # the witnesses settle most edges; verdict and blamed edge stay the LP's
    pairs = list(_summand_pairs(np.random.default_rng(5)))
    assert len(pairs) >= 400
    verdicts = []
    for q, k in pairs:
        want = summand_lp_oracle(q, k)
        assert _same_summand_answer(is_summand(q, k), want)
        verdicts.append(want[0])
    assert 100 <= sum(verdicts) <= len(verdicts) - 100


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_summand_boundary_band_matches_lp_oracle(d, scale):
    # a box whose long edge overhangs the matching face of a box by
    # delta * scale: a witness slack past rounding would pass edges the
    # LP refuses (from 3e-8 at unit scale, from 1e-9 at 1e3)
    whole = box(np.zeros(d), scale * np.array([2.0] + [1.0] * (d - 1)))
    for delta in (-1e-9, 0.0, 1e-14, 1e-12, 1e-9, 1e-8, 3e-8, 1e-7):
        lo = np.full(d, 5.0 * scale)
        part = box(lo, lo + scale * np.array([2.0 + delta] + [0.5] * (d - 1)))
        got = is_summand(part, whole)
        assert _same_summand_answer(got, summand_lp_oracle(part, whole))
        if delta <= 0.0:
            assert got[0]
        elif delta == 1e-7 and scale >= 1.0:
            assert not got[0] and abs(got[1][0]) == 1.0


def test_summand_witnesses_spare_the_tower_its_lps(monkeypatch):
    rng = np.random.default_rng(3)
    families = [tower_family(rng) for _ in range(6)]
    calls = []
    solve = lp.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "solve", counted)
    for fam in families:
        whole = fam.base.homothet(np.zeros(3), fam.total_ratio)
        assert is_summand(fam.hull(), whole) == (True, None)
    assert not calls
    # no vertex of the apex face takes the square's top edge: the LP decides
    big = standard_simplex(2).homothet(np.zeros(2), 2.0)
    assert not is_summand(unit_cube(2), big)[0]
    assert calls


def test_pipeline_on_square_block():
    fam = HomotheticFamily(unit_cube(2),
                           np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float),
                           np.ones(4))
    ok, rep = wip_summand_check(fam)
    assert ok
    assert rep["edges_covered"] and rep["summand"]
    assert abs(rep["lambda"] - 0.5) < 1e-8


def test_pipeline_padded_identical_members():
    fam = HomotheticFamily(unit_cube(2),
                           np.array([[0, 0], [0, 0]], float), np.ones(2))
    ok, rep = wip_summand_check(fam)
    assert ok and rep["lambda"] <= 1.0 + 1e-9


def test_pipeline_builds_one_hull(monkeypatch):
    """The edge test and the summand test share one hull of the union: a
    check on a fresh family builds it once (one `Polytope.from_vertices`),
    and after `edges_covered` the check builds no hull and runs no edge
    search (no SVD); the report is the one that the public pieces give."""
    build, svd = Polytope.from_vertices, np.linalg.svd
    calls = []

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return spy

    for fam in criterion_11_families():
        want_edges = edges_covered(fam)[0]
        want_summand, direction = is_summand(
            fam.hull(), fam.base.homothet(np.zeros(fam.dim), fam.total_ratio))
        lam = lambda_min(fam)
        fresh, screened = (HomotheticFamily(fam.base, fam.translations, fam.ratios)
                           for _ in range(2))
        with monkeypatch.context() as m:
            m.setattr(Polytope, "from_vertices", staticmethod(counted("hull", build)))
            m.setattr(np.linalg, "svd", counted("svd", svd))
            calls.clear()
            ok, rep = wip_summand_check(fresh)
            assert calls.count("hull") == 1
            edges_covered(screened)
            calls.clear()
            assert wip_summand_check(screened) == (ok, rep)
            assert calls == []
        assert rep == {"edges_covered": want_edges, "summand": want_summand,
                       "failing_direction": None if direction is None else direction.tolist(),
                       "lambda": lam.lam, "lambda_certified": lam.certified}
        assert ok


def test_pipeline_calls_the_public_pieces(monkeypatch):
    """`wip_summand_check` reaches `edges_covered` and `is_summand` through
    the `covering` module's names, so a tracer that wraps them there sees
    one call of each per check."""
    calls = []

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return spy

    for name in ("edges_covered", "is_summand"):
        monkeypatch.setattr(covering, name, counted(name, getattr(covering, name)))
    for fam in itertools.islice(criterion_11_families(), 6):
        calls.clear()
        ok, rep = wip_summand_check(fam)
        assert sorted(calls) == ["edges_covered", "is_summand"]
        assert ok and rep["edges_covered"] and rep["summand"]


def test_pipeline_line_of_cubes_3d():
    fam = HomotheticFamily(unit_cube(3),
                           np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], float),
                           np.ones(3))
    ok, rep = wip_summand_check(fam)
    assert ok and rep["summand"]
    assert abs(rep["lambda"] - 1.0) < 1e-8


# -- translate containment vs circumscribed simplices -----------------------


def test_lutwak_positive_and_negative():
    outer = genericize(cube(2), eps=1e-3, seed=2)
    small = standard_simplex(2).homothet(np.zeros(2), 0.3)
    consistent, detail = lutwak_check(outer, small)
    assert consistent and detail["direct"] and detail["via_simplices"]
    large = cube(2).homothet(np.zeros(2), 3.0)
    consistent, detail = lutwak_check(outer, large)
    assert consistent
    assert not detail["direct"] and not detail["via_simplices"]


def test_lutwak_requires_generic_outer():
    with pytest.raises(InputError, match="generic"):
        lutwak_check(cube(2), standard_simplex(2))


def test_lutwak_random_battery():
    rng = np.random.default_rng(6)
    seen_true = seen_false = 0
    for trial in range(24):
        d = int(rng.integers(2, 4)) if trial < 20 else 4
        outer = genericize(random_polytope(d, d + 3, rng), eps=1e-4,
                           seed=trial)
        scale = float(rng.uniform(0.2, 1.6))
        inner = random_polytope(d, d + 2, rng).homothet(
            rng.standard_normal(d), scale)
        consistent, detail = lutwak_check(outer, inner)
        assert consistent
        seen_true += detail["direct"]
        seen_false += not detail["direct"]
    assert seen_true >= 3 and seen_false >= 3


def _oracle_bodies():
    """Seeded genericized bodies in d = 2, 3, 4, each with an inner body."""
    rng = np.random.default_rng(16)
    for d, npoints in ((2, 5), (2, 8), (3, 6), (3, 8), (4, 6), (4, 7)):
        for trial in range(2):
            outer = genericize(random_polytope(d, npoints, rng), eps=1e-3,
                               seed=trial)
            yield outer, random_polytope(d, d + 2, rng)


def test_circumscribed_simplices_agree_with_from_facets_oracle():
    """Subsets, vertices and the via verdict against `from_facets` per
    subset and one containment LP per simplex."""
    for outer, inner in _oracle_bodies():
        a = outer.facet_normals
        s_star = critical_fit(outer, inner)
        inners = [inner.scale(0.9 * s_star), inner.scale(1.1 * s_star)]
        subsets, oracle, oracle_via = circumscribed_simplices_oracle(outer, inners)
        idx, _, w = _simplex_rows(a)
        assert [tuple(i) for i in idx.tolist()] == subsets
        assert (w > 0).all()
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.abs(np.einsum("ki,kij->kj", w, a[idx])).max() < 1e-12
        sims = circumscribed_simplices(outer)
        assert len(sims) == len(oracle)
        for i, s, o in zip(idx, sims, oracle):
            assert np.array_equal(s.facet_normals, a[i])
            # within 1e-9 of the simplex's largest coordinate (up to 3e3 here)
            eps = 1e-9 * max(1.0, float(np.abs(o.vertices).max()))
            assert same_point_set(s.vertices, o.vertices, eps=eps)
        # just inside and just outside the critical fit
        assert oracle_via == [True, False]
        for scaled, fits in zip(inners, oracle_via):
            consistent, detail = lutwak_check(outer, scaled)
            assert consistent and detail["via_simplices"] == fits


def test_lutwak_check_solves_one_lp_and_builds_no_polytope(monkeypatch):
    rng = np.random.default_rng(17)
    outer = genericize(random_polytope(3, 8, rng), eps=1e-3, seed=0)
    inner = random_polytope(3, 5, rng).scale(0.3)
    calls = {"solve": 0, "from_facets": 0, "qhull": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lp, "solve", counted("solve", lp.solve))
    monkeypatch.setattr(Polytope, "from_facets",
                        staticmethod(counted("from_facets", Polytope.from_facets)))
    monkeypatch.setattr(polytope, "ConvexHull",
                        counted("qhull", polytope.ConvexHull))
    consistent, detail = lutwak_check(outer, inner)
    assert consistent and detail["direct"]
    assert calls == {"solve": 1, "from_facets": 0, "qhull": 0}
    assert circumscribed_simplices(outer)
    assert calls == {"solve": 1, "from_facets": 0, "qhull": 0}
