"""Acceptance suite: one test per numbered criterion, with budgets.

Every test asserts per case as it goes and prints its own
`criterion NN ...: PASS/FAIL` line only once those assertions have
passed, then asserts the summary verdict it printed.  So a plain
`pytest -s` run shows a line for each criterion that reaches its
summary (FAIL when the summary or its time budget fails) and no line
for a criterion that fails on an earlier case.  Criterion 5 is split.  Its area half checks the
closed-form area maxima n^2 - 2n + 4.  Its perimeter half checks the
split-run record 4 + 2*sqrt((n-3)^2+1) + 2*sqrt((n-1)^2+1): the staircase
witness attains it, the search finds no more, and the corner-glued
construction's 4 + 4*sqrt(n^2-4n+5) falls strictly short.  The printed
detail carries the measured maxima.
"""

import time

import numpy as np
import pytest

from helpers import (
    arrangement_with_lambda1,
    criterion_11_families,
    ns_patch_probe,
    overlap_chain,
    perimeter_record,
    perimeter_witness,
)
from nonsep.asymmetry import sigma_bisection, sigma_lp
from nonsep.balls import (
    cube_stability_counterexample,
    stability_exponent,
    stability_trace,
)
from nonsep.covering import (
    lambda_min,
    lutwak_check,
    sigma_cover,
    weighted_cover,
    wip_summand_check,
)
from nonsep.cubes import (
    IntegerCubeFamily,
    construct_extremal,
    cube_is_wns,
    exhaustive_max,
    hull_metrics,
)
from nonsep.family import HomotheticFamily, edges_covered, is_kwip_sampled, is_wns
from nonsep.lattice import (
    Lattice,
    LatticeArrangement,
    density,
    is_ns_lattice,
    kronecker_gap,
    tightness,
)
from nonsep.polytope import (
    Polytope,
    box,
    cross_polytope,
    cube,
    genericize,
    random_polytope,
    random_simplex,
    regular_polygon,
)


def report(num: str, label: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def random_wns_family(base, n, rng, tries=40):
    """Cluster draw screened by is_wns; falls back to an overlap chain."""
    c = base.vertices.mean(axis=0)
    rad = np.linalg.norm(base.vertices - c, axis=1).max()
    spread = rad * n ** (1.0 / base.dim)
    for scale in np.linspace(0.6, 0.15, tries):
        taus = rng.uniform(0.5, 2.0, size=n)
        ys = rng.uniform(-1.0, 1.0, size=(n, base.dim)) * scale * spread
        xs = ys - np.outer(taus, c)
        fam = HomotheticFamily(base, xs, taus)
        if is_wns(fam)[0]:
            return fam
    return overlap_chain(base, n, rng)


def test_criterion_01_symmetric_base_covering():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(200):
        d = 2 if i % 2 == 0 else 3
        kind = i % 3
        if kind == 0:
            h = rng.uniform(0.4, 1.6, size=d)
            base = box(-h, h)
        elif kind == 1:
            base = cross_polytope(d, radius=float(rng.uniform(0.5, 1.5)))
        elif d == 2:
            base = regular_polygon(6, radius=float(rng.uniform(0.5, 1.5)))
        else:
            base = cross_polytope(d)
        fam = random_wns_family(base, int(rng.integers(2, 9)), rng)
        res = lambda_min(fam)
        cov = weighted_cover(fam)
        assert res.certified and cov.certified, f"family {i} not certified"
        assert res.lam <= 1.0 + 1e-7, f"family {i}: lambda {res.lam}"
        worst = max(worst, res.lam)
    elapsed = time.monotonic() - t0
    ok = worst <= 1.0 + 1e-7 and elapsed < 30.0
    assert report("01", "symmetric-base covering at ratio one", ok,
                  f"200 families, worst lambda {worst:.6f}, {elapsed:.1f}s")


def test_criterion_02_simplex_base_covering():
    rng = np.random.default_rng(102)
    t0 = time.monotonic()
    worst_ratio = 0.0
    for i in range(200):
        d = 2 + i % 3
        fam = random_wns_family(random_simplex(d, rng),
                                int(rng.integers(2, 9)), rng)
        res = lambda_min(fam)
        bound = (d + 1) / 2.0
        assert res.certified, f"family {i} not certified"
        assert res.lam <= bound + 1e-7, f"family {i}: lambda {res.lam} in d={d}"
        worst_ratio = max(worst_ratio, res.lam / bound)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    assert report("02", "simplex-base covering within (d+1)/2", ok,
                  f"200 families, worst lambda/bound {worst_ratio:.3f}, "
                  f"{elapsed:.1f}s")


def test_criterion_03_asymmetry_weighted_covering():
    rng = np.random.default_rng(103)
    t0 = time.monotonic()
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        base = random_polytope(d, int(rng.integers(d + 2, 9)), rng)
        fam = random_wns_family(base, int(rng.integers(2, 9)), rng)
        res = sigma_cover(fam)
        assert res.certified, f"family {i} not certified"
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    assert report("03", "asymmetry-weighted covering certificates", ok,
                  f"100 random-base families, {elapsed:.1f}s")


def test_criterion_04_asymmetry_constants():
    rng = np.random.default_rng(104)
    worst = 0.0
    for d in (2, 3, 4):
        for p in (Polytope.from_vertices(np.vstack([np.zeros(d), np.eye(d)])),
                  random_simplex(d, rng)):
            a = sigma_lp(p).sigma
            b = sigma_bisection(p).sigma
            worst = max(worst, abs(a - d), abs(b - d))
            assert a == pytest.approx(d, abs=1e-6)
            assert b == pytest.approx(d, abs=1e-6)
    for p in (cube(2), cross_polytope(3),
              random_polytope(2, 6, rng, symmetric=True),
              random_polytope(3, 8, rng, symmetric=True)):
        a = sigma_lp(p).sigma
        b = sigma_bisection(p).sigma
        worst = max(worst, abs(a - 1), abs(b - 1))
        assert a == pytest.approx(1.0, abs=1e-6)
        assert b == pytest.approx(1.0, abs=1e-6)
    assert report("04", "asymmetry constants, both routes", True,
                  f"simplices d=2,3,4 and symmetric bodies, "
                  f"worst deviation {worst:.2e}")


def test_criterion_05a_cube_hull_area_extremals():
    t0 = time.monotonic()
    got = {}
    for n in range(4, 9):
        want = float(n * n - 2 * n + 4)
        _, got[n] = exhaustive_max(n, "area")
        assert got[n] == want, f"n={n}: area {got[n]} != {want}"
    elapsed = time.monotonic() - t0
    ok = elapsed < 300.0
    assert report("05a", "cube-family hull area maxima", ok,
                  f"areas {got}, {elapsed:.1f}s")


def test_criterion_05b_cube_hull_perimeter_targets():
    # The maxima are the split-run record 4 + 2*sqrt((n-3)^2+1) +
    # 2*sqrt((n-1)^2+1).  The staircase witness W_n attains it without the
    # search, which bounds the maximum from below.  The corner-glued
    # construction glues both long diagonal runs at length n-2; its
    # perimeter 4 + 4*sqrt(n^2-4n+5) falls strictly short, because
    # sqrt(k^2+1) is convex in the run length k.
    t0 = time.monotonic()
    got = {}
    for n in range(4, 9):
        record = perimeter_record(n)
        witness = IntegerCubeFamily(np.array(perimeter_witness(n)))
        assert cube_is_wns(witness), f"n={n}: witness splits along an axis"
        assert hull_metrics(witness)[1] == pytest.approx(record, abs=1e-9)
        glued = hull_metrics(construct_extremal(n))[1]
        assert glued == pytest.approx(4.0 + 4.0 * np.sqrt(n * n - 4 * n + 5),
                                      abs=1e-9)
        _, got[n] = exhaustive_max(n, "perimeter")
        assert got[n] == pytest.approx(record, abs=1e-9), (
            f"n={n}: search maximum {got[n]:.12f} vs record {record:.12f}")
        assert got[n] > glued, f"n={n}: search does not beat the glued hull"
    elapsed = time.monotonic() - t0
    ok = elapsed < 300.0
    assert report("05b", "cube-family hull perimeter targets", ok,
                  "perimeters "
                  + ", ".join(f"n={n}: {v:.6f}" for n, v in got.items())
                  + f", {elapsed:.1f}s")


def test_criterion_06_lattice_tightness_and_density():
    t0 = time.monotonic()
    chess = LatticeArrangement(cube(2),
                               Lattice.from_basis([[1.0, 1.0], [1.0, -1.0]]))
    lo, hi = tightness(chess, resolution=32, width=0.02)
    assert lo <= 1.0 <= hi and hi - lo <= 0.02, (lo, hi)
    cross_brackets = {}
    for d in (2, 3):
        arr = LatticeArrangement(cross_polytope(d, radius=0.5),
                                 Lattice.from_basis(np.eye(d)))
        clo, chi = tightness(arr, resolution=32 if d == 2 else 12, width=0.05)
        assert clo <= d - 1 <= chi, (d, clo, chi)
        cross_brackets[d] = (round(clo, 4), round(chi, 4))
    tri = Polytope.from_vertices([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])
    dens = density(LatticeArrangement(tri, Lattice.from_basis(np.eye(2))))
    assert dens == pytest.approx(0.375, abs=1e-9)
    elapsed = time.monotonic() - t0
    assert report("06", "lattice tightness and density benchmarks", True,
                  f"chessboard [{lo:.4f}, {hi:.4f}], half-cross "
                  f"{cross_brackets}, triangle density {dens:.9f}, "
                  f"{elapsed:.1f}s")


def test_criterion_07_separability_route_agreement():
    rng = np.random.default_rng(107)
    disagreements = 0
    for i in range(20):
        band = (0.2, 0.45) if i % 2 == 0 else (0.55, 0.9)
        arr, _ = arrangement_with_lambda1(rng, band)
        verdict, _ = is_ns_lattice(arr)
        if verdict != ns_patch_probe(arr):
            disagreements += 1
    assert report("07", "dual-route separability agreement", disagreements == 0,
                  f"20 instances, {disagreements} disagreements")
    assert disagreements == 0


def test_criterion_08_stability_exponents():
    t0 = time.monotonic()
    taus = [1.0, 1.0, 1.0, 1.0]
    deltas = list(np.logspace(-1, -3, 9))
    rows = stability_trace(taus, deltas)
    dev_slope = stability_exponent(rows)
    eps_slope = float(np.polyfit(np.log([r[0] for r in rows]),
                                 np.log([r[1] for r in rows]), 1)[0])
    elapsed = time.monotonic() - t0
    ok = 0.4 <= dev_slope <= 0.6 and 1.9 <= eps_slope <= 2.1 and elapsed < 10.0
    assert report("08", "bent-chain stability exponents", ok,
                  f"deviation-vs-deficit slope {dev_slope:.4f}, "
                  f"deficit-vs-bend slope {eps_slope:.4f}, {elapsed:.1f}s")


def test_criterion_09_equidistribution_gap():
    u = np.array([1.0, np.sqrt(2.0)])
    u /= np.linalg.norm(u)
    radii = (10, 20, 35, 50)
    gaps = [kronecker_gap(u, r) for r in radii]
    trend_ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    rational = np.array([0.6, 0.8])
    control = [kronecker_gap(rational, r) for r in radii]
    control_ok = min(control) >= 0.2 - 1e-9
    ok = gaps[-1] < 0.01 and trend_ok and control_ok
    assert report("09", "equidistribution gap decay with rational control", ok,
                  f"gaps {[round(g, 5) for g in gaps]}, control min "
                  f"{min(control):.4f}")


def test_criterion_10_translate_containment_biconditional():
    rng = np.random.default_rng(110)
    inconsistencies = 0
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        outer = genericize(
            random_polytope(d, int(rng.integers(d + 2, 8)), rng),
            1e-3, seed=i)
        inner = random_polytope(d, int(rng.integers(d + 1, 7)), rng)
        inner = inner.scale(float(rng.uniform(0.3, 1.3)))
        consistent, _ = lutwak_check(outer, inner)
        if not consistent:
            inconsistencies += 1
    assert report("10", "translate-containment biconditional",
                  inconsistencies == 0,
                  f"100 genericized pairs, {inconsistencies} inconsistencies")
    assert inconsistencies == 0


def test_criterion_11_impassability_pipeline():
    t0 = time.monotonic()
    for i, fam in enumerate(criterion_11_families()):
        verdict, _ = is_kwip_sampled(fam, 1, samples=10**5, seed=i)
        assert verdict == "not-falsified", f"family {i} falsified"
        covered, _ = edges_covered(fam)
        assert covered, f"family {i} leaves a hull edge uncovered"
        ok, rep = wip_summand_check(fam)
        assert ok, f"family {i}: {rep}"
        assert rep["lambda"] <= 1.0 + 1e-7
    counter = cube_stability_counterexample(3)
    assert counter["epsilon"] == 0.0
    assert counter["deviation"] > 0.5
    elapsed = time.monotonic() - t0
    assert report("11", "impassability pipeline and cube degeneracy", True,
                  f"50 constructed families certified; cube counterexample "
                  f"deficit {counter['epsilon']}, center deviation "
                  f"{counter['deviation']:.4f}; {elapsed:.1f}s")
