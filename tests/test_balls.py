import itertools
import re
import time

import numpy as np
import pytest
from helpers import (
    ball_certified_lp_oracle,
    ball_circumradius_reference,
    enclosing_ball_oracle,
)

from nonsep import balls, tolerances
from nonsep.balls import (
    BallFamily,
    ball_circumradius,
    centers_line_deviation,
    cube_stability_counterexample,
    stability_construction,
    stability_exponent,
    stability_trace,
)
from nonsep.errors import GeometryError, InputError


def unit_balls(centers):
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    return BallFamily(centers, np.ones(centers.shape[0]))


def test_family_validation():
    with pytest.raises(InputError):
        BallFamily(np.zeros((2, 2)), np.array([1.0, -1.0]))
    with pytest.raises(InputError):
        BallFamily(np.zeros((2, 2)), np.ones(3))
    single = BallFamily(np.array([[1.0, 2.0]]), np.array([0.5]))
    assert single.n == 1 and single.dim == 2
    with pytest.raises(InputError, match="finite"):
        BallFamily(np.array([[0.0, np.nan], [1.0, 0.0]]), np.ones(2))
    with pytest.raises(InputError, match="finite"):
        BallFamily(np.zeros((2, 2)), np.array([1.0, np.inf]))


def test_overflowing_data_rejected():
    # finite but huge: squared distances would overflow to inf and NaN
    with pytest.raises(InputError, match="overflow"):
        BallFamily(np.array([[0.0, 0.0], [1e200, 0.0]]), np.ones(2))
    with pytest.raises(InputError, match="overflow"):
        BallFamily(np.zeros((2, 2)), np.array([1.0, 1e300]))
    for delta in (0.0, 0.1):
        with pytest.raises(InputError, match="overflow"):
            stability_construction([1e300, 1.0, 1.0], delta)
    assert BallFamily(np.array([[0.0, 0.0], [1e100, 0.0]]), np.ones(2)).n == 2


def test_family_leaves_caller_arrays_writeable():
    c = np.array([[0.0, 0.0], [2.0, 0.0]])
    r = np.ones(2)
    fam = BallFamily(c, r)
    assert c.flags.writeable and r.flags.writeable
    assert not fam.centers.flags.writeable
    r[0] = 3.0
    assert fam.radii[0] == 1.0


def test_single_ball_is_its_own_answer():
    c, r = ball_circumradius(BallFamily(np.array([[3.0, -1.0]]), np.array([0.7])))
    assert np.allclose(c, [3.0, -1.0]) and r == 0.7


def test_two_touching_unit_balls():
    c, r = ball_circumradius(unit_balls([(0, 0), (2, 0)]))
    assert np.allclose(c, [1.0, 0.0], atol=1e-12)
    assert r == pytest.approx(2.0, abs=1e-12)


def test_ball_swallowing_another():
    fam = BallFamily(np.array([[0.0, 0.0], [0.1, 0.0]]), np.array([2.0, 0.5]))
    c, r = ball_circumradius(fam)
    assert np.allclose(c, [0.0, 0.0], atol=1e-12)
    assert r == pytest.approx(2.0, abs=1e-12)


def test_collinear_chain_pair_determined():
    c, r = ball_circumradius(unit_balls([(0, 0), (2, 0), (4, 0)]))
    assert np.allclose(c, [2.0, 0.0], atol=1e-12)
    assert r == pytest.approx(3.0, abs=1e-12)


def test_equilateral_triangle_closed_form():
    # circumcenter of the side-2 equilateral triangle, radius 2/sqrt(3) + 1
    fam = unit_balls([(0, 0), (2, 0), (1, np.sqrt(3))])
    c, r = ball_circumradius(fam)
    assert np.allclose(c, [1.0, 1.0 / np.sqrt(3)], atol=1e-9)
    assert r == pytest.approx(1.0 + 2.0 / np.sqrt(3), abs=1e-9)


def test_first_order_probe_no_improving_direction():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 7))
        fam = BallFamily(rng.normal(size=(n, d)), rng.uniform(0.2, 1.5, n))
        c, r = ball_circumradius(fam)
        reach = np.linalg.norm(fam.centers - c, axis=1) + fam.radii
        assert reach.max() <= r + 1e-9
        h = 1e-5
        for u in np.vstack([np.eye(d), -np.eye(d),
                            rng.normal(size=(6, d))]):
            u = u / np.linalg.norm(u)
            moved = np.linalg.norm(fam.centers - (c + h * u), axis=1) + fam.radii
            assert moved.max() >= r - 1e-9


def test_matches_nonlinear_solver_oracle():
    from scipy.optimize import minimize

    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 8))
        p = rng.normal(scale=2.0, size=(n, d))
        radii = rng.uniform(0.1, 2.0, n)
        fam = BallFamily(p, radii)
        _, r = ball_circumradius(fam)
        x0 = np.concatenate([p.mean(axis=0), [10.0]])
        cons = [{"type": "ineq",
                 "args": (i,),
                 "fun": lambda x, i: x[-1] - np.linalg.norm(x[:-1] - p[i]) - radii[i]}
                for i in range(n)]
        res = minimize(lambda x: x[-1], x0, constraints=cons,
                       method="SLSQP", options={"maxiter": 300, "ftol": 1e-12})
        assert res.success
        assert r == pytest.approx(res.x[-1], abs=5e-6)


def test_chain_geometry_exact():
    taus = [0.5, 1.5, 1.0, 2.0]
    fam = stability_construction(taus, 0.3)
    p = fam.centers
    assert np.linalg.norm(p[0] - p[1]) == pytest.approx(2.0, abs=1e-12)
    assert np.linalg.norm(p[1] - p[2]) == pytest.approx(2.5, abs=1e-12)
    assert np.linalg.norm(p[2] - p[3]) == pytest.approx(3.0, abs=1e-12)
    # the second center sits exactly delta off the line through the ends
    v = p[-1] - p[0]
    v = v / np.linalg.norm(v)
    off = (p[1] - p[0]) - ((p[1] - p[0]) @ v) * v
    assert np.linalg.norm(off) == pytest.approx(0.3, abs=1e-10)


def test_straight_chain_has_zero_deficit():
    taus = [1.0, 0.7, 1.3, 0.4]
    fam = stability_construction(taus, 0.0)
    assert centers_line_deviation(fam.centers) <= 1e-12
    _, r = ball_circumradius(fam)
    assert abs(sum(taus) - r) <= 1e-9


def test_bent_chain_deficit_closed_form():
    # three unit balls, arms of length 2: the end-to-end distance is
    # 2*sqrt(4 - delta^2), so the deficit is exactly 2 - sqrt(4 - delta^2)
    delta = 0.1
    fam = stability_construction([1.0, 1.0, 1.0], delta)
    _, r = ball_circumradius(fam)
    eps = 3.0 - r
    assert eps == pytest.approx(2.0 - np.sqrt(4.0 - delta * delta), rel=1e-9)
    assert eps == pytest.approx(delta * delta / 4.0, rel=2e-3)


def test_deficit_bounded_by_radius_sum():
    for delta in (0.0, 0.02, 0.2, 0.6):
        fam = stability_construction([1.0, 1.0, 0.5, 1.5], delta)
        _, r = ball_circumradius(fam)
        assert r <= 1.0 + 1.0 + 0.5 + 1.5 + 1e-9
        if delta > 0:
            assert r < 4.0 - 1e-12


def test_construction_rejections():
    with pytest.raises(InputError):
        stability_construction([1.0, 1.0], 0.1)
    with pytest.raises(InputError):
        stability_construction([1.0, -1.0, 1.0], 0.1)
    with pytest.raises(InputError):
        stability_construction([1.0, 0.5, 1.0], 0.5)
    with pytest.raises(InputError):
        stability_construction([1.0, 1.0, 1.0], -0.1)
    with pytest.raises(InputError):
        stability_construction([10.0, 10.0, 0.1], 9.5)  # unreachable bend


@pytest.mark.parametrize("taus, delta", [
    ([1.0, 1.0, 1.0], np.nan), ([1.0, 1.0, 1.0], np.inf),
    ([1.0, np.nan, 1.0], 0.1), ([1.0, 1.0, np.inf], 0.1)])
def test_construction_refuses_non_finite_input(taus, delta):
    # refused before the bend search or the length check sees a NaN
    with pytest.raises(InputError, match="finite"):
        stability_construction(taus, delta)


def test_trace_rows_and_degenerate_drop():
    rows = stability_trace([1.0, 1.0, 1.0, 1.0], [0.0, 0.05])
    assert rows[0][0] == 0.0 and rows[0][1] <= 1e-9
    assert rows[1][1] > 1e-6 and rows[1][2] > 0.01


def test_exponent_half_unit_radii():
    slope = stability_exponent(stability_trace([1.0] * 4, np.logspace(-1, -3, 7)))
    assert 0.4 <= slope <= 0.6


def test_exponent_half_three_balls():
    slope = stability_exponent(stability_trace([1.0] * 3, np.logspace(-1, -3, 6)))
    assert 0.4 <= slope <= 0.6


def test_deficit_scales_quadratically():
    deltas = np.logspace(-1, -3, 7)
    rows = stability_trace([1.0] * 4, deltas)
    slope = np.polyfit(np.log([d for d, _, _ in rows]),
                       np.log([e for _, e, _ in rows]), 1)[0]
    assert 1.9 <= slope <= 2.1


def test_exponent_drops_zero_rows():
    deltas = [0.0, 0.1, 0.05, 0.01, 0.005, 0.001]
    slope = stability_exponent(stability_trace([1.0] * 4, deltas))
    assert 0.4 <= slope <= 0.6


def test_exponent_rejections():
    with pytest.raises(InputError):
        stability_exponent(stability_trace([1.0] * 4, [0.1, 0.01, 0.001]))
    with pytest.raises(InputError):
        stability_exponent(stability_trace([1.0] * 4, [0.1, 0.09, 0.08, 0.07, 0.06]))


def test_cube_chain_counterexample():
    out = cube_stability_counterexample(3)
    assert out["edge"] == 3
    assert out["epsilon"] == 0.0
    assert out["deviation"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    out5 = cube_stability_counterexample(5)
    assert out5["edge"] == 5 and out5["epsilon"] == 0.0
    assert out5["deviation"] > 0.5
    with pytest.raises(InputError):
        cube_stability_counterexample(2)
    for bad in (3.5, "4", True, None):
        with pytest.raises(InputError, match="n must be an integer"):
            cube_stability_counterexample(bad)
    same = cube_stability_counterexample(np.int64(3))
    assert same.pop("offsets").tolist() == out.pop("offsets").tolist() and same == out


def test_line_deviation_basics():
    assert centers_line_deviation([(0, 0), (1, 1), (2, 2)]) <= 1e-12
    assert centers_line_deviation([(5, 7)]) == 0.0
    dev = centers_line_deviation([(0, 0), (1, 1), (2, 0)])
    assert dev == pytest.approx(2.0 / 3.0, abs=1e-12)


def _working_set_sizes(monkeypatch):
    sizes = []
    solve = balls._enclosing_candidate

    def recording(p, r):
        sizes.append(r.size)
        return solve(p, r)

    monkeypatch.setattr(balls, "_enclosing_candidate", recording)
    return sizes


def _degenerate_families():
    square = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    hexagon = np.array([[np.cos(t), np.sin(t)] for t in np.arange(6) * np.pi / 3])
    cube_corners = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    diagonal = np.outer([0.0, 1.0, 3.0, -2.0], np.ones(3))
    return {
        "identical": (np.ones((3, 2)), np.ones(3), 1.0),
        "concentric": (np.zeros((3, 3)), np.array([0.5, 2.0, 1.0]), 2.0),
        "swallowed": (np.array([[0.0, 0.0, 0.0], [0.3, 0.1, 0.0], [-0.2, 0.4, 0.1]]),
                      np.array([2.0, 0.5, 0.7]), 2.0),
        "collinear in 3-D": (diagonal, np.array([1.0, 0.5, 0.2, 0.3]),
                             0.5 * (5.0 * np.sqrt(3.0) + 0.2 + 0.3)),
        "square": (square, np.full(4, 0.5), np.sqrt(2.0) + 0.5),
        "hexagon": (hexagon, np.full(6, 0.5), 1.5),
        "cube corners": (cube_corners, np.full(8, 0.25), np.sqrt(3.0) / 2 + 0.25),
    }


@pytest.mark.parametrize("name", list(_degenerate_families()))
def test_degenerate_families_match_oracle(name):
    p, r, want = _degenerate_families()[name]
    c, rad = ball_circumradius(BallFamily(p, r))
    oc, orad = enclosing_ball_oracle(p, r)
    assert rad == pytest.approx(want, abs=1e-12)
    assert abs(rad - orad) <= 1e-9
    assert np.abs(c - oc).max() <= 1e-9
    assert (np.linalg.norm(p - c, axis=1) + r).max() <= rad + 1e-9


def test_active_set_matches_enumeration_oracle(monkeypatch):
    # seeded battery in general position: same radius and center as the
    # subset enumeration, and a working set of at most d+2 balls
    sizes = _working_set_sizes(monkeypatch)
    rng = np.random.default_rng(11)
    for k in range(150):
        d = (2, 3, 4)[k % 3]
        n = int(rng.integers(2, 9))
        p = rng.normal(scale=2.0, size=(n, d))
        r = rng.uniform(0.1, 2.0, n)
        sizes.clear()
        c, rad = ball_circumradius(BallFamily(p, r))
        oc, orad = enclosing_ball_oracle(p, r)
        assert abs(rad - orad) <= 1e-9, (k, rad, orad)
        assert np.abs(c - oc).max() <= 1e-7, k
        assert max(sizes) <= d + 2, (k, sizes)


def test_working_set_stays_within_d_plus_two(monkeypatch):
    # families needing more rounds than the battery's: balls that stop
    # being active must leave the working set
    sizes = _working_set_sizes(monkeypatch)
    rng = np.random.default_rng(12)
    for d, n in [(2, 12)] * 30 + [(3, 20)] * 20:
        p = rng.normal(size=(n, d))
        r = rng.uniform(0.1, 1.0, n)
        sizes.clear()
        c, rad = ball_circumradius(BallFamily(p, r))
        assert (np.linalg.norm(p - c, axis=1) + r).max() <= rad + 1e-9
        assert max(sizes) <= d + 2, sizes


def test_balls_tangent_to_one_sphere_match_oracle():
    # every ball touches the sphere of radius 2 from inside: many ties
    rng = np.random.default_rng(3)
    for d, n in ((2, 5), (2, 8), (3, 5), (3, 8), (4, 7)):
        u = rng.normal(size=(n, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        r = rng.uniform(0.1, 1.0, n)
        p = u * (2.0 - r)[:, None]
        _, rad = ball_circumradius(BallFamily(p, r))
        assert abs(rad - enclosing_ball_oracle(p, r)[1]) <= 1e-9


@pytest.mark.parametrize("n", [200, 1000])
def test_large_family_in_3d(n, monkeypatch):
    # the time is printed for the record, not asserted
    rng = np.random.default_rng(n)
    p = rng.normal(size=(n, 3))
    r = rng.uniform(0.1, 1.0, n)
    sizes = _working_set_sizes(monkeypatch)
    start = time.perf_counter()
    c, rad = ball_circumradius(BallFamily(p, r))
    elapsed = time.perf_counter() - start
    print(f"d = 3, n = {n}: {elapsed * 1e3:.2f} ms in {len(sizes)} rounds")
    assert (np.linalg.norm(p - c, axis=1) + r).max() <= rad + 1e-9
    assert balls._certified(c, rad, p, r)
    assert max(sizes) <= 5


def _certificate_calls(rng):
    """(c, rad, p, r) at the optimum of seeded families in d = 2, 3, 4, at
    centres moved off it by 1e-12 to 1e-3, and along a bending chain."""
    for k in range(140):
        d = (2, 3, 4)[k % 3]
        n = int(rng.integers(2, 10))
        p = rng.normal(scale=2.0, size=(n, d))
        r = rng.uniform(0.1, 2.0, n)
        c, rad = ball_circumradius(BallFamily(p, r))
        yield c, rad, p, r
        for shift in (1e-12, 1e-9, 1e-6, 1e-3):
            cs = c + shift * rng.standard_normal(d)
            yield cs, float((np.linalg.norm(p - cs, axis=1) + r).max()), p, r
    for delta in np.logspace(-1, -8, 30):
        f = stability_construction([1.0, 0.7, 1.3, 0.9, 1.1], float(delta))
        c, rad = ball_circumradius(f)
        yield c, rad, f.centers, f.radii


def test_certificate_matches_lp_oracle():
    calls = list(_certificate_calls(np.random.default_rng(8)))
    assert len(calls) >= 700
    verdicts = [ball_certified_lp_oracle(*call) for call in calls]
    assert [balls._certified(*call) for call in calls] == verdicts
    assert 200 <= sum(verdicts) <= len(verdicts) - 200


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
def test_radius_at_large_scale(scale):
    # the enclosure slack grows with the radius, so far from unit scale
    # every family still closes its active set and certifies
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.normal(size=(6, 3))
        r = rng.uniform(0.1, 1.0, 6)
        _, want = ball_circumradius(BallFamily(p, r))
        c, rad = ball_circumradius(BallFamily(scale * p, scale * r))
        assert rad == pytest.approx(scale * want, rel=1e-9)
        reach = np.linalg.norm(scale * p - c, axis=1) + scale * r
        assert reach.max() <= rad * (1.0 + 1e-9)


def _bounds(message):
    lo, hi = re.search(r"\[(\S+), (\S+)\]", message).groups()
    return float(lo), float(hi)


def test_lost_optimum_reports_a_bracket(monkeypatch):
    rng = np.random.default_rng(4)
    families = [(rng.normal(size=(n, d)), rng.uniform(0.2, 1.5, n))
                for d, n in ((2, 3), (2, 6), (3, 5), (3, 8))]
    families.append(_degenerate_families()["hexagon"][:2])
    monkeypatch.setattr(balls, "_certified", lambda *args: False)
    for p, r in families:
        want = enclosing_ball_oracle(p, r)[1]
        with pytest.raises(GeometryError, match="lost the optimum") as err:
            ball_circumradius(BallFamily(p, r))
        lo, hi = _bounds(str(err.value))
        assert lo <= want + 1e-12 and want <= hi + 1e-12 and lo <= hi


def test_round_cap_reports_a_bracket(monkeypatch):
    # a working-set solve that never grows its ball: the round cap ends
    # the loop, and the bound pair still brackets the radius
    p = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0], [-2.0, 1.0]])
    r = np.array([1.0, 0.5, 0.8, 0.3])
    want = enclosing_ball_oracle(p, r)[1]
    rounds = []

    def stuck(pw, rw):
        rounds.append(rw.size)
        return pw[0].copy(), float(rw[0])

    monkeypatch.setattr(balls, "_enclosing_candidate", stuck)
    with pytest.raises(GeometryError, match="lost the optimum") as err:
        ball_circumradius(BallFamily(p, r))
    assert len(rounds) == 2 * r.size + 16
    lo, hi = _bounds(str(err.value))
    assert lo <= want + 1e-12 and want <= hi + 1e-12


def _bench_chains(count, seed=0):
    """Bent chains shaped like the benchmark's: 4 or 5 radii in (0.7, 1.3)
    and a bend of tau_2 * 10^U(-3, -1.3)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        taus = rng.uniform(0.7, 1.3, size=4 + i % 2)
        yield stability_construction(taus, float(taus[1] * 10 ** rng.uniform(-3, -1.3)))


def _reference_families():
    yield from _bench_chains(200)
    rng = np.random.default_rng(11)  # the enumeration-oracle battery
    for k in range(150):
        n = int(rng.integers(2, 9))
        yield BallFamily(rng.normal(scale=2.0, size=(n, (2, 3, 4)[k % 3])),
                         rng.uniform(0.1, 2.0, n))
    for p, r, _ in _degenerate_families().values():
        yield BallFamily(p, r)
    rng = np.random.default_rng(0)  # the large-scale families
    for _ in range(20):
        p, r = rng.normal(size=(6, 3)), rng.uniform(0.1, 1.0, 6)
        for scale in (1.0, 1e3, 1e6, 1e9):
            yield BallFamily(scale * p, scale * r)
    rng = np.random.default_rng(200)
    yield BallFamily(rng.normal(size=(200, 3)), rng.uniform(0.1, 1.0, 200))


def test_matches_reference_solver_bit_for_bit():
    # the float candidates, the early stop and the in-place certificate
    # change no bit of the answer
    count = 0
    for f in _reference_families():
        assert repr(ball_circumradius(f)) == repr(ball_circumradius_reference(f))
        count += 1
    assert count == 200 + 150 + len(_degenerate_families()) + 80 + 1
    taus = [1.0, 0.7, 1.3, 0.9]
    deltas = list(0.7 * np.logspace(-1.3, -3, 9))
    want = [(float(d), float(np.sum(taus))
             - ball_circumradius_reference(stability_construction(taus, d))[1])
            for d in deltas]
    assert repr([row[:2] for row in stability_trace(taus, deltas)]) == repr(want)


def test_fitting_triple_does_not_end_the_search():
    # draw 0 of the nonlinear-solver battery: a triple's Apollonius ball
    # fits its working set of five, yet a larger subset gives a smaller one
    rng = np.random.default_rng(7)
    d, n = int(rng.integers(2, 4)), int(rng.integers(2, 8))
    p, r = rng.normal(scale=2.0, size=(n, d)), rng.uniform(0.1, 2.0, n)
    assert (d, n) == (3, 5)
    c, rad = ball_circumradius(BallFamily(p, r))
    oc, orad = enclosing_ball_oracle(p, r)
    assert rad == 3.582002740006199
    assert abs(rad - orad) <= 1e-9 and np.abs(c - oc).max() <= 1e-7


def test_subsets_of_three_run_only_when_no_pair_fits(monkeypatch):
    calls = []
    solve = balls._subset_candidate

    def counting(p, r, idx):
        calls.append(len(idx))
        return solve(p, r, idx)

    monkeypatch.setattr(balls, "_subset_candidate", counting)
    for f in _bench_chains(200):
        ball_circumradius(f)
    assert calls == []
    ball_circumradius(unit_balls([(0, 0), (2, 0), (1, np.sqrt(3))]))
    assert calls == [3]


@pytest.mark.parametrize("d", [2, 3, 7, 8, 12])
def test_fit_check_agrees_with_reach_to_the_bit(d):
    # bounds a few ulps either side of the farthest reach: the float check
    # gives numpy's verdict, whose sums of 8 or more squares run pairwise
    rng = np.random.default_rng(d)
    for _ in range(300):
        p, r, c = rng.normal(size=(4, d)), rng.uniform(0.1, 1.0, 4), rng.normal(size=d)
        far = balls._reach(c, p, r).max()
        rad0 = far / (1 + tolerances.ENCLOSE) if far > 1 else far - tolerances.ENCLOSE
        for rad in rad0 + np.spacing(rad0) * np.arange(-4, 5):
            want = bool(far <= rad + tolerances.enclose(rad))
            assert balls._fits(c.tolist(), rad, p, r, p.tolist(), r.tolist()) == want

@pytest.mark.parametrize("d, n", [(1, 1), (2, 2), (2, 7), (3, 40), (3, 300), (4, 1000)])
def test_lower_bound_matches_dense_formula(d, n):
    # the widest pair, found a block of rows at a time (several blocks
    # from n = 300 on), equals the one (n, n, d) array gives
    rng = np.random.default_rng(n)
    p, r = rng.normal(size=(n, d)), rng.uniform(0.1, 1.0, n)
    dense = float((np.linalg.norm(p[:, None] - p, axis=-1) + r[:, None] + r).max() / 2)
    assert balls._lower_bound(p, r) == dense
