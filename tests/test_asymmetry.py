import json
from pathlib import Path

import numpy as np
import pytest
from helpers import contains_point

from nonsep import asymmetry
from nonsep.asymmetry import (
    bm_bound_report,
    polar_asymmetry_value,
    polar_sigma_check,
    sigma_bisection,
    sigma_lp,
)
from nonsep.polytope import (
    Polytope,
    cross_polytope,
    cube,
    genericize,
    polytope_from_dict,
    random_polytope,
    random_simplex,
    regular_polygon,
    standard_simplex,
)


def test_symmetric_bodies_have_sigma_one():
    for p in [cube(2), cube(3), cross_polytope(2), cross_polytope(3),
              regular_polygon(6)]:
        assert abs(sigma_lp(p).sigma - 1.0) < 1e-7
        assert abs(sigma_bisection(p).sigma - 1.0) < 1e-7


@pytest.mark.parametrize("d", [2, 3, 4])
def test_simplex_attains_dimension(d):
    p = standard_simplex(d)
    res = sigma_lp(p)
    assert abs(res.sigma - d) < 1e-6
    assert abs(sigma_bisection(p).sigma - d) < 1e-6
    # the optimal center of the standard simplex is its centroid
    assert np.allclose(res.center, np.full(d, 1.0 / (d + 1)), atol=1e-6)


def test_demo_triangle_sigma_is_exactly_two():
    # the demo's hypotenuse row is (0.7071..., 0.7071...) with offset
    # 0.7071...; solved as given rather than over its largest entry, the
    # tight rows give 1.9999999999999998
    path = Path(__file__).resolve().parents[1] / "demos/scenarios/triangle_asymmetry.json"
    body = polytope_from_dict(json.loads(path.read_text())["parameters"]["polytope"])
    assert sigma_lp(body).sigma == 2.0


def test_pentagon_value_frozen():
    # frozen from an LP-free grid-plus-descent oracle over centers;
    # the minimum sits at the centroid with value circumradius/apothem
    expected = 1.0 / np.cos(np.pi / 5)  # = 1.2360679774997896
    p = regular_polygon(5, radius=1.0)
    assert abs(sigma_lp(p).sigma - expected) < 1e-7
    assert abs(sigma_bisection(p).sigma - expected) < 1e-7


def test_lp_and_bisection_agree_on_random_bodies(monkeypatch):
    monkeypatch.setattr(asymmetry, "_BRACKET", 1e-8)
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(2, 4))
        p = random_polytope(d, int(rng.integers(d + 2, 9)), rng)
        a = sigma_lp(p)
        b = sigma_bisection(p)
        assert abs(a.sigma - b.sigma) < 1e-5
        assert 1.0 - 1e-9 <= a.sigma <= d + 1e-9


def test_bisection_never_below_lp_value():
    """The bisection's upper end is certified: never below sigma_lp.

    180 seeded bodies: d = 4 simplices, 7-point planar hulls and 12-point
    spatial hulls. Each accepted step's centre meets the reflected rows
    to 1e-12 relative, so the result can sit at most round-off below the
    LP value and at most the bracket width above it.
    """
    rng = np.random.default_rng(7)
    for i in range(180):
        kind = i % 3
        if kind == 0:
            p = random_simplex(4, rng)
        elif kind == 1:
            p = random_polytope(2, 7, rng)
        else:
            p = random_polytope(3, 12, rng)
        s_lp = sigma_lp(p).sigma
        s_bis = sigma_bisection(p).sigma
        assert s_lp - 1e-12 <= s_bis <= s_lp + 1e-9 + 1e-12, (i, s_lp, s_bis)


def test_center_certifies_reflection():
    """Every vertex v must satisfy q - (v - q)/sigma inside P."""
    rng = np.random.default_rng(19)
    for _ in range(15):
        d = int(rng.integers(2, 4))
        p = random_polytope(d, int(rng.integers(d + 2, 8)), rng)
        res = sigma_lp(p)
        for v in p.vertices:
            pulled = res.center - (v - res.center) / res.sigma
            assert contains_point(p, pulled, slack=1e-6)


def test_affine_invariance():
    rng = np.random.default_rng(23)
    p0 = random_polytope(2, 6, rng)
    p1 = random_polytope(3, 7, rng)
    for p in (p0, p1):
        base = sigma_lp(p).sigma
        d = p.dim
        for _ in range(10):
            a = rng.standard_normal((d, d))
            while abs(np.linalg.det(a)) < 0.2:
                a = rng.standard_normal((d, d))
            b = rng.standard_normal(d)
            image = Polytope.from_vertices(p.vertices @ a.T + b)
            assert abs(sigma_lp(image).sigma - base) < 1e-6


def test_polar_check_passes():
    rng = np.random.default_rng(12)
    assert polar_sigma_check(standard_simplex(2))
    assert polar_sigma_check(regular_polygon(6))
    for _ in range(10):
        d = int(rng.integers(2, 4))
        p = random_polytope(d, int(rng.integers(d + 2, 8)), rng)
        assert polar_sigma_check(p)


def test_polar_value_equals_sigma_at_optimum():
    # asymmetry about a fixed center is polar-invariant
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = random_polytope(2, 6, rng)
        res = sigma_lp(p)
        assert abs(polar_asymmetry_value(p, res.center) - res.sigma) < 1e-5


def test_polar_value_worse_off_center():
    p = standard_simplex(2)
    # centroid of the vertex set is the optimum; a point pushed toward a
    # vertex must read strictly larger
    off = np.array([0.15, 0.15])
    assert polar_asymmetry_value(p, off) > 2.0 + 1e-3


def test_bound_report_on_simplex():
    eps, bound = bm_bound_report(standard_simplex(3))
    assert eps < 1e-6
    assert bound == pytest.approx(1.0, abs=1e-4)


def test_bound_report_on_cut_corner_triangle():
    # clip one corner of the double simplex at small depth
    tri = standard_simplex(2).homothet(np.zeros(2), 2.0)
    a = np.vstack([tri.facet_normals, [[-1.0, -1.0] / np.sqrt(2)]])
    b = np.concatenate([tri.facet_offsets, [-0.02 / np.sqrt(2)]])
    clipped = Polytope.from_facets(a, b)
    eps, bound = bm_bound_report(clipped)
    assert 0 < eps < 1.0 / 24
    assert bound == pytest.approx(1.0 + 24 * eps)


def test_bound_report_declines_far_bodies():
    eps, bound = bm_bound_report(cube(2))
    assert eps == pytest.approx(1.0)
    assert bound is None


def test_bound_report_perturbed_simplex():
    p = genericize(standard_simplex(2), eps=1e-4, seed=1)
    eps, bound = bm_bound_report(p)
    assert bound is not None and bound < 1.1
