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
    for i, p in enumerate(reflection_battery()):
        s_lp = sigma_lp(p).sigma
        s_bis = sigma_bisection(p).sigma
        assert s_lp - 1e-12 <= s_bis <= s_lp + 1e-9 + 1e-12, (i, s_lp, s_bis)


def reflection_battery():
    """The 180 seeded bodies of `test_bisection_never_below_lp_value`."""
    rng = np.random.default_rng(7)
    for i in range(180):
        kind = i % 3
        if kind == 0:
            yield random_simplex(4, rng)
        elif kind == 1:
            yield random_polytope(2, 7, rng)
        else:
            yield random_polytope(3, 12, rng)


def counted_bisection(monkeypatch):
    """`sigma_bisection` that also returns how many LPs it solved."""
    calls = []
    inner = asymmetry.lp.solve
    monkeypatch.setattr(asymmetry.lp, "solve",
                        lambda *a, **k: calls.append(1) or inner(*a, **k))

    def run(p):
        calls.clear()
        res = sigma_bisection(p)
        return res, len(calls)
    return run


def test_bisection_lp_count_on_the_battery(monkeypatch):
    """Farkas roots place the trials: at most 12 LPs per body (a plain
    bisection to 1e-9 takes 32 or 33), 2 on every simplex."""
    run = counted_bisection(monkeypatch)
    for i, p in enumerate(reflection_battery()):
        n = run(p)[1]
        assert n <= (2 if i % 3 == 0 else 12), (i, n)


def test_bisection_without_farkas_vectors(monkeypatch):
    """When no LP returns a checked Farkas vector, each trial's floor is
    mu after a near fit or none, and the bracket closes by halving: the
    first 30 bodies of the battery take more LPs than any with vectors
    (see above), and land as close to sigma_lp."""
    monkeypatch.setattr(asymmetry.lp, "_farkas", lambda a, b, y: None)
    run = counted_bisection(monkeypatch)
    for i, p in zip(range(30), reflection_battery()):
        s_lp = sigma_lp(p).sigma
        res, n = run(p)
        assert s_lp - 1e-12 <= res.sigma <= s_lp + 1e-9 + 1e-12, (i, s_lp, res.sigma)
        assert n > 12, (i, n)


def test_bisection_lp_count_on_simplices_and_symmetric_bodies(monkeypatch):
    """A simplex's first Farkas root is its dimension, which closes the
    bracket after the LP at mu = d; a symmetric body is settled at mu = 1."""
    run = counted_bisection(monkeypatch)
    for d in (2, 3, 4):
        res, n = run(standard_simplex(d))
        assert n == 2 and abs(res.sigma - d) < 1e-6, (d, n, res.sigma)
    for p in [cube(2), cube(3), cross_polytope(2), cross_polytope(3),
              regular_polygon(6)]:
        res, n = run(p)
        assert n == 1 and res.sigma == 1.0


# a jittered icosahedron whose last Farkas root lies 1.4e-9 below sigma;
# the trial just above it is a near fit, and halving from there took 37 LPs
ROOT_THEN_NEAR_FIT = [
    [-0.6915718860815646, -0.41773459902389715, -0.6558921434765346],
    [-0.588240272637471, 0.6221477019077121, -0.4685601105007981],
    [-0.9158678685686699, 0.014437133785932756, 0.27739835229195975],
    [0.37998563717170836, 0.8334664793274661, -0.2565226588877584],
    [-0.18008822878510325, -0.13554023406724092, 1.0116138882099213],
    [0.31004591659048814, -0.833417887189319, -0.5310091201711088],
    [0.6807946656213174, 0.41122476547201314, 0.6456709439589519],
    [0.6202914626963886, -0.6560463912122646, 0.49409033999078744],
    [0.9357257573753094, -0.01475016037770041, -0.2834129159905068],
    [-0.402772097994743, -0.883446661262411, 0.27190546009170297],
    [0.1778590970458843, 0.13386251731840784, -0.9990921335052633],
    [-0.2918621258703227, 0.7845390094742174, 0.49986612426304117],
]


def test_bisection_steps_on_above_a_near_fit(monkeypatch):
    p = Polytope.from_vertices(ROOT_THEN_NEAR_FIT)
    res, n = counted_bisection(monkeypatch)(p)
    assert n <= 12, n
    s_lp = sigma_lp(p).sigma
    assert s_lp - 1e-12 <= res.sigma <= s_lp + 1e-9 + 1e-12


# a random 4-D hull whose reflection LP finds centres that miss the rows
# by more than REFLECT_FIT from sigma up to about sigma + 1.4e-8: trials
# half the bracket width above each near fit took 45 LPs to cross them
NEAR_FIT_BAND = [
    [1.0533540835372917, -0.13317951668875577, 0.761400524515282, -0.9783194070397829],
    [0.9237541947754802, 1.0846787632235095, -0.7275971667792466, 0.5229985030603586],
    [-0.6384116016269509, -0.5028989826188704, -0.9179774029868747, -0.42985798584505897],
    [-0.681141866072663, 1.221550822928463, -0.2165560116985246, -1.1424050421514602],
    [1.4251651406077703, 0.5751367978582617, 1.0350062235377662, -0.047749092526257295],
    [0.7363600532206109, -0.08048992463270645, -0.959910272325451, 0.13179528269706647],
]


def test_bisection_widens_its_step_across_near_fits(monkeypatch):
    p = Polytope.from_vertices(NEAR_FIT_BAND)
    res, n = counted_bisection(monkeypatch)(p)
    assert n <= 16, n
    assert res.sigma >= sigma_lp(p).sigma - 1e-12


def test_bisection_halves_when_roots_creep(monkeypatch):
    """Roots that creep up by 1e-4 per trial would take 7,000 trials just
    above them to reach sigma = 1.7; after three in a row a midpoint
    halves the bracket instead."""
    sigma, trials = 1.7, []

    def creeping(a, b, rhs_min, mu):
        trials.append(mu)
        if mu >= sigma:
            return np.zeros(2), None
        return None, min(sigma, mu + 1e-4)

    monkeypatch.setattr(asymmetry, "_reflection_step", creeping)
    res = sigma_bisection(regular_polygon(5))
    assert sigma <= res.sigma <= sigma + 1e-9
    assert len(trials) <= 80, len(trials)


def test_demo_triangle_bisection_is_exactly_two(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "demos/scenarios/triangle_asymmetry.json"
    body = polytope_from_dict(json.loads(path.read_text())["parameters"]["polytope"])
    res, n = counted_bisection(monkeypatch)(body)
    assert res.sigma == 2.0 and n == 2


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
