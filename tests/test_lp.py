"""Solver checks: pinned micro-instances plus randomized scipy cross-checks."""

import numpy as np
import pytest
from scipy.optimize import linprog

from nonsep import lp
from nonsep.errors import GeometryError, InputError
from nonsep.lp import solve


def test_single_variable_max():
    res = solve(np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([3.0]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(3.0, abs=1e-9)
    assert res.x[0] == pytest.approx(3.0, abs=1e-9)


def test_infeasible_pair():
    res = solve(np.array([1.0]), a_ub=np.array([[1.0], [-1.0]]),
                b_ub=np.array([-1.0, 0.0]))
    assert res.status == "infeasible"


def test_unbounded_ray():
    res = solve(np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([0.0]))
    assert res.status == "unbounded"


def test_iteration_limit_is_geometry_error(monkeypatch):
    # the box corner (1, 1) is two pivots away from the origin
    box = dict(a_ub=np.array([[1.0, 0.0], [0.0, 1.0]]), b_ub=np.array([1.0, 1.0]))
    assert solve(np.array([1.0, 1.0]), **box).value == pytest.approx(2.0)
    monkeypatch.setattr(lp, "_MAX_ITER", 1)
    with pytest.raises(GeometryError, match="iteration limit"):
        solve(np.array([1.0, 1.0]), **box)


def test_equality_row():
    # max 2x + y on the segment x + y = 1, 0 <= x, y <= 1: the equality
    # is the row pair x + y <= 1, -x - y <= -1
    res = solve(
        np.array([2.0, 1.0]),
        a_ub=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                       [1.0, 1.0], [-1.0, -1.0]]),
        b_ub=np.array([1.0, 0.0, 1.0, 0.0, 1.0, -1.0]),
    )
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0, abs=1e-8)
    assert res.x == pytest.approx(np.array([1.0, 0.0]), abs=1e-8)


def test_free_variable_negative_optimum():
    # min x s.t. x >= -5  (as maximize -x)
    res = solve(np.array([-1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([5.0]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(-5.0, abs=1e-8)


def test_feasible_point_square():
    box = np.vstack([np.eye(2), -np.eye(2)])
    rhs = np.array([1.0, 1.0, 0.0, 0.0])
    x = solve(np.zeros(2), box, rhs).x
    assert x is not None
    assert (box @ x <= rhs + 1e-8).all()
    assert solve(np.zeros(2), box, np.array([1.0, -2.0, 0.0, 0.0])).x is None


def test_degenerate_vertex():
    # Three facets through the same optimal vertex force degenerate pivots.
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, 1.0, 2.0, 0.0, 0.0])
    res = solve(np.array([1.0, 1.0]), a_ub=a, b_ub=b)
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0, abs=1e-8)


def _random_instance(rng):
    n = rng.integers(1, 7)
    m = rng.integers(1, 12)
    a = rng.normal(size=(m, n))
    # Anchor the feasible set around a known point so most draws are feasible
    # yet some random objectives still escape to unboundedness.
    x0 = rng.normal(size=n)
    b = a @ x0 + rng.uniform(-0.2, 2.0, size=m)
    c = rng.normal(size=n)
    return c, a, b


def test_against_scipy_oracle():
    rng = np.random.default_rng(7)
    statuses = set()
    for _ in range(250):
        c, a, b = _random_instance(rng)
        mine = solve(-c, a_ub=a, b_ub=b)  # min c @ x = -max(-c @ x)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=(None, None), method="highs")
        ref_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        statuses.add(ref_status)
        assert mine.status == ref_status, (mine.status, ref_status)
        if ref_status == "optimal":
            scale = 1.0 + abs(ref.fun)
            assert abs(-mine.value - ref.fun) <= 1e-6 * scale
            assert (a @ mine.x <= b + 1e-6).all()
    # The generator must actually have exercised both interesting statuses.
    assert "optimal" in statuses and "unbounded" in statuses


def test_against_scipy_oracle_with_equalities():
    rng = np.random.default_rng(19)
    for _ in range(120):
        c, a, b = _random_instance(rng)
        n = c.size
        k = int(rng.integers(1, n + 1))
        a_eq = rng.normal(size=(k, n))
        x0 = rng.normal(size=n)
        b_eq = a_eq @ x0
        b = np.maximum(b, a @ x0 + 0.1)  # keep x0 feasible for both blocks
        # each equality row as a pair of opposite inequality rows
        mine = solve(-c, a_ub=np.vstack([a, a_eq, -a_eq]),
                     b_ub=np.concatenate([b, b_eq, -b_eq]))
        ref = linprog(c, A_ub=a, b_ub=b, A_eq=a_eq, b_eq=b_eq,
                      bounds=(None, None), method="highs")
        ref_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        assert mine.status == ref_status
        if ref_status == "optimal":
            scale = 1.0 + abs(ref.fun)
            assert abs(-mine.value - ref.fun) <= 1e-6 * scale


def test_feasible_nonneg_matches_split_form_and_scipy():
    """Standard form against the free-variable form with -I rows and HiGHS."""
    rng = np.random.default_rng(31)
    verdicts = {True: 0, False: 0}
    for k in range(200):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 14))
        a = rng.normal(size=(m, n))
        if k % 3 == 0:  # feasible: b in the cone of the columns
            b = a @ (rng.uniform(0.0, 2.0, size=n) * (rng.uniform(size=n) < 0.7))
        elif k % 3 == 1:  # infeasible: w separates b from that cone
            w = rng.normal(size=m)
            a *= np.sign(w @ a)
            b = rng.normal(size=m)
            b -= (w @ b + rng.uniform(0.1, 1.0)) * w / (w @ w)
        else:  # either way
            b = rng.normal(size=m) * 3.0
        y = solve(np.zeros(n), a_eq=a, b_eq=b).x
        split = solve(np.zeros(n), np.vstack([-np.eye(n), a, -a]),
                      np.concatenate([np.zeros(n), b, -b])).x
        ref = linprog(np.zeros(n), A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert (y is not None) == (split is not None) == (ref.status == 0), k
        verdicts[y is not None] += 1
        if y is not None:
            assert (y >= -1e-12).all()
            assert np.allclose(a @ y, b, atol=1e-7)
    assert min(verdicts.values()) >= 40, verdicts
    with pytest.raises(InputError, match="shapes"):
        solve(np.zeros(3), a_eq=np.ones((2, 3)), b_eq=np.ones(3))


def test_nonneg_solve_matches_scipy():
    """x >= 0 optima against HiGHS, the bounds posed as rows -x <= 0."""
    rng = np.random.default_rng(47)
    for k in range(100):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        a = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.normal(size=n)
        bounded = np.vstack([a, np.ones((1, n))]), np.r_[b, 5.0]
        mine = solve(-c, np.vstack([bounded[0], -np.eye(n)]),
                     np.concatenate([bounded[1], np.zeros(n)]))
        ref = linprog(c, A_ub=bounded[0], b_ub=bounded[1], bounds=(0, None),
                      method="highs")
        assert mine.optimal == (ref.status == 0), k
        if mine.optimal:
            assert (mine.x >= -1e-12).all()
            assert abs(-mine.value - ref.fun) <= 1e-6 * (1.0 + abs(ref.fun))
    orthant = -np.eye(2), np.zeros(2)
    assert solve([-1.0, -2.0], *orthant).value == 0.0
    assert solve([-1.0, 2.0], *orthant).status == "unbounded"
    assert solve(np.zeros(3), a_eq=np.ones((1, 3)), b_eq=[1.0]).optimal


def _tall_instance(rng, kind, m, n):
    """A tall free LP a @ x <= b of one of four kinds.

    "around": rows face every way around a point, so the LP is bounded.
    "cone": rows face into one half-space, so most objectives escape.
    "contradiction" and "cone contradiction": the same, plus a row pair
    that no point meets, so the dual is unbounded or infeasible.
    """
    a = rng.normal(size=(m, n))
    if kind.startswith("cone"):
        w = rng.normal(size=n)
        a *= np.sign(a @ w)[:, None]
    x0 = rng.normal(size=n)
    b = a @ x0 + rng.uniform(0.1, 2.0, size=m)
    if kind.endswith("contradiction"):
        i, j = rng.choice(m, 2, replace=False)
        a[j], b[j] = -a[i], -b[i] - rng.uniform(0.1, 1.0)
    return a, b


def test_tall_lps_go_through_the_dual_and_match_highs(monkeypatch):
    rng = np.random.default_rng(101)
    dual_calls = []
    inner = lp._solve_dual
    monkeypatch.setattr(lp, "_solve_dual",
                        lambda *a: dual_calls.append(a[1].shape) or inner(*a))
    kinds = ("around", "cone", "contradiction", "cone contradiction")
    statuses, tall = {}, 0
    for k in range(160):
        m = (30, 60, 150, 400)[k % 4]
        n = int(rng.integers(3, 21))
        a, b = _tall_instance(rng, kinds[(k // 4) % 4], m, n)
        c = rng.normal(size=n)
        if k % 2 == 0:  # every other LP minimizes c @ x as -max(-c @ x)
            c = -c
        tall += m > 2 * n
        mine = solve(c, a_ub=a, b_ub=b)
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=(None, None), method="highs")
        ref_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        statuses[ref_status] = statuses.get(ref_status, 0) + 1
        assert mine.status == ref_status, (k, mine.status, ref_status)
        if ref_status == "optimal":
            want = -ref.fun
            assert abs(mine.value - want) <= 1e-6 * (1.0 + abs(want)), k
            assert (a @ mine.x <= b + 1e-6).all(), k
    assert len(dual_calls) == 160 and tall >= 140
    assert min(statuses.get(s, 0) for s in ("optimal", "unbounded", "infeasible")) >= 20, statuses


def test_short_and_constrained_lps_go_through_the_dual(monkeypatch):
    """Every a_ub block reaches the dual; an a_eq block never does, and no
    other shape reaches either."""
    dual_calls = []
    inner = lp._solve_dual
    monkeypatch.setattr(lp, "_solve_dual",
                        lambda *a: dual_calls.append(a[1].shape) or inner(*a))
    a = np.vstack([np.eye(2), -np.eye(2)])
    assert solve([1.0, 1.0], a, np.ones(4)).value == pytest.approx(2.0)
    tall = np.vstack([a] * 3)
    # x == y as a row pair; x >= 0 as -I rows
    assert solve([1.0, 1.0], np.vstack([tall, [[1.0, -1.0], [-1.0, 1.0]]]),
                 np.r_[np.ones(12), 0.0, 0.0]).value == pytest.approx(2.0)
    assert solve([1.0, 1.0], np.vstack([tall, -np.eye(2)]),
                 np.r_[np.ones(12), 0.0, 0.0]).value == pytest.approx(2.0)
    assert dual_calls == [(4, 2), (14, 2), (14, 2)]
    simplex = dict(a_eq=np.ones((1, 3)), b_eq=[1.0])
    assert solve(np.zeros(3), **simplex).optimal
    assert solve([-1.0, -2.0, -0.5], **simplex).value == pytest.approx(-0.5)
    # no block, both blocks, half of each, and a block of zero rows
    for kw in ({}, dict(a_ub=a, b_ub=np.ones(4), **simplex),
               dict(a_ub=np.ones((1, 3)), b_eq=[1.0])):
        with pytest.raises(InputError, match="one block"):
            solve(np.zeros(3), **kw)
    for kw in (dict(a_ub=np.zeros((0, 2)), b_ub=[]),
               dict(a_eq=np.zeros((0, 2)), b_eq=[])):
        with pytest.raises(InputError, match="empty"):
            solve([1.0, 2.0], **kw)
    assert dual_calls == [(4, 2), (14, 2), (14, 2)]


def test_chebyshev_centre_statuses_on_the_dual_route(monkeypatch):
    from nonsep.polytope import _chebyshev_centre

    dual_calls = []
    inner = lp._solve_dual
    monkeypatch.setattr(lp, "_solve_dual",
                        lambda *a: dual_calls.append(a[1].shape) or inner(*a))
    ang = 2 * np.pi * np.arange(8) / 8
    octagon = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    assert _chebyshev_centre(octagon, np.ones(8)) == pytest.approx([0.0, 0.0], abs=1e-9)
    # normals inside the first quadrant: the third quadrant recedes
    ang = np.linspace(0.1, 1.4, 9)
    with pytest.raises(GeometryError, match="^unbounded$"):
        _chebyshev_centre(np.stack([np.cos(ang), np.sin(ang)], axis=1), np.ones(9))
    # a slab of width zero, and an empty one, across the octagon
    for gap in (0.0, 1.0):
        a = np.vstack([octagon, [[1.0, 0.0], [-1.0, 0.0]]])
        b = np.concatenate([np.ones(8), [0.0, -gap]])
        with pytest.raises(GeometryError, match="^not full-dimensional$"):
            _chebyshev_centre(a, b)
    assert dual_calls == [(8, 3), (9, 3), (10, 3), (10, 3)]


def _exact_farkas(a, b, y):
    """The checks `lp` makes of a Farkas vector, redone in rationals: y >= 0,
    |y @ a| <= ROUNDING * (y @ |a|) column by column, and y @ b < 0."""
    from fractions import Fraction

    from nonsep import tolerances

    ys = [Fraction(float(v)) for v in y]
    rows = [[Fraction(float(v)) for v in row] for row in a]
    bound = Fraction(tolerances.ROUNDING)
    if min(ys) < 0 or sum(yi * Fraction(float(bi)) for yi, bi in zip(ys, b)) >= 0:
        return False
    for j in range(a.shape[1]):
        col = [row[j] for row in rows]
        if abs(sum(yi * c for yi, c in zip(ys, col))) > bound * sum(
                yi * abs(c) for yi, c in zip(ys, col)):
            return False
    return True


def _infeasible_instance(rng, objective):
    """An infeasible ``a @ x <= b`` in d = 2..5 with a contradicting pair
    (u, -u).  With objective "zero" the dual is unbounded; with "cone" every
    row leans on w and the cost is w, so the dual is infeasible and the
    Farkas LP runs."""
    d = int(rng.integers(2, 6))
    m = int(rng.integers(d + 2, 40))
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    a = rng.normal(size=(m, d))
    a *= np.sign(a @ w)[:, None]
    u = rng.normal(size=d)
    u -= (u @ w) * w
    b = a @ rng.normal(size=d) + rng.uniform(0.1, 2.0, size=m)
    a = np.vstack([a, u, -u])
    b = np.concatenate([b, [1.0, -1.0 - rng.uniform(0.01, 1.0)]])
    order = rng.permutation(m + 2)
    return a[order], b[order], (np.zeros(d) if objective == "zero" else w)


@pytest.mark.parametrize("objective", ["zero", "cone"])
def test_infeasible_lps_carry_checked_farkas_vectors(monkeypatch, objective):
    """Both dual branches return their Farkas vector, and each one passes
    the same checks redone in rationals; its negation fails lp's check."""
    rng = np.random.default_rng(31 if objective == "zero" else 37)
    standard_calls = []
    inner = lp._standard
    monkeypatch.setattr(lp, "_standard",
                        lambda *a: standard_calls.append(1) or inner(*a))
    returned = 0
    for _ in range(100):
        a, b, c = _infeasible_instance(rng, objective)
        standard_calls.clear()
        res = solve(-c, a, b)
        assert res.status == "infeasible" and res.x is None
        # one LP when the dual is unbounded, two when the Farkas LP runs
        assert len(standard_calls) == (1 if objective == "zero" else 2)
        if res.farkas is None:
            continue
        returned += 1
        assert res.farkas.shape == b.shape
        assert _exact_farkas(a, b, res.farkas)
        assert lp._farkas(a, b, -res.farkas) is None
    assert returned >= 90, returned


def test_farkas_rows_follow_the_callers_blocks():
    """The vector has one weight per a_ub row, so an equality posed as a
    row pair nets to one signed weight, and rows -x <= 0 carry their own."""
    # x <= 1 and x == 2, as x <= 2, -x <= -2
    res = solve([0.0], a_ub=[[1.0], [1.0], [-1.0]], b_ub=[1.0, 2.0, -2.0])
    assert res.status == "infeasible"
    y = res.farkas
    assert y.shape == (3,)
    assert np.r_[y[0], y[1] - y[2]] / y[0] == pytest.approx([1.0, -1.0])
    # x + y <= -1 with x, y >= 0
    a = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    res = solve([1.0, 1.0], a_ub=a, b_ub=[-1.0, 0.0, 0.0])
    assert res.status == "infeasible"
    y = res.farkas
    assert y.shape == (3,) and y[0] > 0
    assert y[1:] / y[0] == pytest.approx([1.0, 1.0])


def test_feasible_and_unbounded_lps_carry_no_farkas_vector():
    rng = np.random.default_rng(41)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        a = rng.normal(size=(3 * d, d))
        b = a @ rng.normal(size=d) + rng.uniform(0.1, 2.0, size=3 * d)
        for c in (np.zeros(d), rng.normal(size=d)):
            res = solve(c, a, b)
            assert res.status in ("optimal", "unbounded")
            assert res.farkas is None
    # standard form, infeasible and unbounded, and a ray
    assert solve(np.zeros(3), a_eq=np.ones((1, 3)), b_eq=[-1.0]).farkas is None
    res = solve([1.0, 0.0], a_eq=[[1.0, -1.0]], b_eq=[0.0])
    assert res.status == "unbounded" and res.farkas is None
    assert solve([1.0], a_ub=[[-1.0]], b_ub=[0.0]).farkas is None
