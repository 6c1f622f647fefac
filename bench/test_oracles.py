"""Each independent check accepts a right answer and rejects a wrong one.

    python3 -m pytest -q bench
"""

import itertools
import math

import numpy as np
import pytest

import oracles as orc

SQUARE = np.array(list(itertools.product((-0.5, 0.5), repeat=2)))
CUBE = np.array(list(itertools.product((-0.5, 0.5), repeat=3)))


def members(verts, xs):
    return [np.asarray(x, float) + verts for x in xs]


def test_planar_oracle_and_flipped_ns_verdict():
    apart = members(SQUARE, [(0, 0), (0.8, 0.1), (2.5, 0.3)])
    chain = members(SQUARE, [(0, 0), (0.8, 0.1), (1.6, 0.3)])
    # a diagonal pair: axis projections overlap, yet a diagonal line splits them
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    diagonal = [tri, np.array([[1.0, 1.0], [0.1, 1.0], [1.0, 0.1]])]
    assert orc.planar_separable(apart)
    assert not orc.planar_separable(chain)
    assert orc.planar_separable(diagonal)
    orc.check_ns(True, None, chain, truth=True)
    orc.check_ns(False, ([2], [0, 1]), apart, truth=False)
    with pytest.raises(orc.CheckError):
        orc.check_ns(False, ([2], [0, 1]), chain, truth=True)
    with pytest.raises(orc.CheckError):
        orc.check_ns(True, None, apart, truth=False)


def test_bipartition_oracle_and_bad_split():
    apart = members(CUBE, [(0, 0, 0), (0.9, 0, 0), (0.9, 2.0, 0.5)])
    chain = members(CUBE, [(0, 0, 0), (0.9, 0, 0), (0.9, 0.9, 0.5)])
    assert orc.bipartition_separable(apart)
    assert not orc.bipartition_separable(chain)
    orc.check_ns(False, ([0, 1], [2]), apart, truth=False)
    with pytest.raises(orc.CheckError):
        orc.check_ns(False, ([0, 2], [1]), apart, truth=False)


def test_wns_check_rejects_flipped_verdict():
    _, a, _ = orc.hull_facets(SQUARE)
    xs, taus = np.array([[0.0, 0.0], [0.8, 0.5]]), np.ones(2)
    orc.check_wns(True, None, SQUARE, a, xs, taus, ns=True)
    with pytest.raises(orc.CheckError):
        orc.check_wns(False, (np.array([1.0, 0.0]), 0.1), SQUARE, a, xs, taus, ns=False)
    far = np.array([[0.0, 0.0], [1.5, 0.0]])
    orc.check_wns(False, (np.array([1.0, 0.0]), 0.5), SQUARE, a, far, taus, ns=False)
    with pytest.raises(orc.CheckError):
        orc.check_wns(False, (np.array([0.0, 1.0]), 0.5), SQUARE, a, far, taus, ns=False)


def test_cover_lambda_and_shrunk_cover():
    verts, a, b = orc.hull_facets(SQUARE)
    xs, taus = np.array([[0.0, 0.0], [1.0, 0.0]]), np.ones(2)
    lam = orc.covering_lambda(a, b, xs, taus)
    assert lam == pytest.approx(1.0, abs=1e-9)
    t = np.array([0.5, 0.0])
    orc.check_cover(t, lam, verts, a, b, xs, taus)
    with pytest.raises(orc.CheckError):
        orc.check_cover(t, 0.99 * lam, verts, a, b, xs, taus)


def test_asymmetry_values():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert orc.asymmetry(*orc.hull_facets(tri)[1:], tri) == pytest.approx(2.0, abs=1e-9)
    assert orc.asymmetry(*orc.hull_facets(SQUARE)[1:], SQUARE) == pytest.approx(1.0, abs=1e-9)


def test_translate_check_rejects_flip_and_bad_witness():
    _, a, b = orc.hull_facets(SQUARE)
    inner = 0.5 * SQUARE
    assert orc.fit_scale(a, b, inner) == pytest.approx(2.0, abs=1e-9)
    orc.check_translate(True, np.zeros(2), a, b, inner, fits=True)
    with pytest.raises(orc.CheckError):
        orc.check_translate(True, np.array([0.4, 0.0]), a, b, inner, fits=True)
    with pytest.raises(orc.CheckError):
        orc.check_translate(False, None, a, b, inner, fits=True)


def test_generic_normals():
    _, a, _ = orc.hull_facets(SQUARE)
    assert not orc.is_generic(a)
    assert orc.is_generic(orc.hull_facets(np.array([[0.0, 0], [1, 0], [0, 1]]))[1])


def test_cube_maxima_reject_the_glued_perimeter():
    for n in (4, 5):
        staircase = [(0, 0), (1, n - 1), (n - 1, 1)] + [(k, k) for k in range(2, n - 1)]
        orc.check_cube_max(n, "perimeter", staircase, orc.perimeter_record(n))
        glued = [(1, 0), (n - 1, 1), (n - 2, n - 1), (0, n - 2)]
        glued += [(k, k) for k in range(2, n - 2)]
        glued_value = 4 + 4 * math.sqrt(n * n - 4 * n + 5)
        assert orc.cell_hull(glued)[1] == pytest.approx(glued_value, abs=1e-9)
        with pytest.raises(orc.CheckError):
            orc.check_cube_max(n, "perimeter", glued, glued_value)
        orc.check_cube_max(n, "area", glued, orc.area_max(n))
        with pytest.raises(orc.CheckError):
            orc.check_cube_max(n, "area", glued, orc.area_max(n) - 1)


def test_contiguity_and_normalization():
    assert orc.cells_wns([(0, 0), (1, 1), (2, 0)])
    assert not orc.cells_wns([(0, 0), (2, 1)])
    before = [(0, 0), (1, 0), (1, 1), (2, 1)]
    orc.check_normalized(before, [(0, 0), (1, 1), (2, 2), (3, 3)], "area")
    with pytest.raises(orc.CheckError):
        orc.check_normalized(before, [(0, 0), (1, 0), (1, 1), (2, 1)], "area")


def test_bracket_rejects_off_by_one():
    orc.check_bracket(0.995, 1.01, 1.0)
    with pytest.raises(orc.CheckError):
        orc.check_bracket(1.995, 2.01, 1.0)


def test_shortest_dual_gauge():
    assert orc.shortest_dual_gauge(np.eye(2), SQUARE) == pytest.approx(0.5)
    assert orc.shortest_dual_gauge(2 * np.eye(2), SQUARE) == pytest.approx(0.25)
    skew = np.array([[1.0, 0.3], [0.0, 1.0]])
    assert orc.shortest_dual_gauge(skew, 2 * SQUARE) == pytest.approx(1.0)


def test_flats_and_edges():
    cube_rep = [(orc.hull_facets(CUBE)[1], orc.hull_facets(CUBE)[2])]
    assert orc.point_misses(np.array([1.0, 0, 0]), cube_rep)
    assert not orc.point_misses(np.zeros(3), cube_rep)
    assert orc.line_misses(np.array([0, 0, 2.0]), np.array([1.0, 0, 0]), cube_rep)
    assert not orc.line_misses(np.array([0, 0, 0.2]), np.array([1.0, 0, 0]), cube_rep)
    two = [(a, b + a @ x) for a, b in cube_rep for x in (np.zeros(3), np.array([0.6, 0, 0]))]
    apart = [(a, b + a @ x) for a, b in cube_rep for x in (np.zeros(3), np.array([3.0, 3, 0]))]
    pts = np.vstack([CUBE, CUBE + [0.6, 0, 0]])
    assert orc.edges_covered(pts, two)
    assert not orc.edges_covered(np.vstack([CUBE, CUBE + [3.0, 3, 0]]), apart)


def test_enclosing_ball_rejects_short_radius():
    centers, radii = np.array([[0.0, 0.0], [2.0, 0.0]]), np.ones(2)
    orc.check_enclosing(np.array([1.0, 0.0]), 2.0, centers, radii)
    with pytest.raises(orc.CheckError):
        orc.check_enclosing(np.array([1.0, 0.0]), 1.9, centers, radii)
