"""Solver checks: pinned micro-instances plus randomized scipy cross-checks."""

import numpy as np
import pytest
from scipy.optimize import linprog

from nonsep import lp, tolerances
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
    """The standard-form kernel against the free-variable form with -I rows
    and HiGHS."""
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
        y = lp._standard(np.zeros(n), a, b, tolerances.LP)[1]
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
        solve(np.zeros(3), np.ones((2, 3)), np.ones(3))


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
    # y >= 0 with sum(y) == 1 is feasible: max x over x <= 0, its free LP,
    # is bounded
    assert solve([1.0], np.ones((3, 1)), np.zeros(3)).optimal


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
    """Every block of rows reaches the dual, and no rows reach nothing."""
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
    # min (1, 2, 0.5) @ y over y >= 0, sum(y) == 1, posed as the free LP
    # whose dual it is: max x over x <= 1, x <= 2, x <= 0.5
    assert solve([1.0], np.ones((3, 1)), [1.0, 2.0, 0.5]).value == 0.5
    with pytest.raises(InputError, match="empty"):
        solve([1.0, 2.0], np.zeros((0, 2)), [])
    assert dual_calls == [(4, 2), (14, 2), (14, 2), (3, 1)]


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
    row leans on w and the cost is w, so the dual is infeasible and the dual
    of the zero objective runs."""
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
        # one LP when the dual is unbounded, two when it is infeasible
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
    # unbounded with an infeasible dual (the free LP of y >= 0,
    # sum(y) == -1), and a ray
    res = solve([-1.0], np.ones((3, 1)), np.zeros(3))
    assert res.status == "unbounded" and res.farkas is None
    assert solve([1.0], a_ub=[[-1.0]], b_ub=[0.0]).farkas is None


def test_infeasible_dual_and_homogeneous_rows(monkeypatch):
    """An infeasible dual costs a second LP, the dual of the zero objective,
    only when some b < 0: with b >= 0, x = 0 is feasible.  With b == 0 an
    optimal dual gives x = 0 and no basis is solved."""
    standard_calls = []
    inner = lp._standard
    monkeypatch.setattr(lp, "_standard",
                        lambda *a: standard_calls.append(1) or inner(*a))
    # max x + y over x, y >= -1; max x over x >= 1; and x <= -1 with x >= 0
    # under max y: the last one's rows alone contradict
    assert solve([1.0, 1.0], -np.eye(2), np.ones(2)).status == "unbounded"
    assert len(standard_calls) == 1
    res = solve([1.0], [[-1.0]], [-1.0])
    assert res.status == "unbounded" and res.farkas is None
    assert len(standard_calls) == 3
    res = solve([0.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]], [-1.0, 0.0])
    assert res.status == "infeasible" and len(standard_calls) == 5
    assert res.farkas[0] > 0 and res.farkas[1] == pytest.approx(res.farkas[0])

    def no_solve(*args):
        raise AssertionError("x = 0 needs no basis solve")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    square = np.vstack([np.eye(2), -np.eye(2)])
    res = solve([1.0, 2.0], square, np.zeros(4))
    assert res.optimal and res.value == 0.0
    assert res.x.tolist() == [0.0, 0.0] and not np.signbit(res.x).any()


def test_non_finite_data_is_refused():
    """A NaN or an infinity in c, a_ub or b_ub is an InputError: NaN
    comparisons are False, so such an LP would otherwise read as solved."""
    for c, a, b in (([np.nan], [[1.0]], [1.0]), ([1.0], [[1.0]], [np.nan]),
                    ([1.0], [[np.inf]], [1.0]), ([np.inf], [[1.0]], [1.0]),
                    ([1.0], [[1.0]], [-np.inf])):
        with pytest.raises(InputError, match="finite"):
            solve(c, a, b)


def _battery(rng):
    """(kind, c, a_ub, b_ub) for the kernel battery: free LPs of 3-256 rows
    over 2-6 variables, degenerate ones with tied ratios, infeasible ones
    with some b < 0, unbounded ones, and ones whose dual phase 1 drops a
    redundant row."""
    for k in range(240):
        kind = ("free", "degenerate", "infeasible", "unbounded", "redundant")[k % 5]
        n = int(rng.integers(2, 7))
        m = int(rng.choice([3, 5, 8, 13, 30, 64, 128, 256]))
        m = max(m, n + 1)
        c = rng.normal(size=n)
        if kind == "free":
            a, b = _tall_instance(rng, ("around", "cone")[k % 2], m, n)
        elif kind == "degenerate":
            # small integer rows, all tight at one integer point, and an
            # integer objective: ratios and reduced costs tie exactly
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            a = np.vstack([a, np.eye(n), -np.eye(n)])
            x0 = rng.integers(-1, 2, size=n).astype(float)
            b = a @ x0 + (rng.uniform(size=len(a)) < 0.3)
            c = rng.integers(-2, 3, size=n).astype(float)
        elif kind == "infeasible":
            a, b, c = _infeasible_instance(rng, ("zero", "cone")[k % 2])
        elif kind == "unbounded":
            # the rows face into one half-space, a @ w >= 0, and c @ -w > 0
            a, b = _tall_instance(rng, "cone", m, n)
            c = -a.sum(axis=0)
        else:
            # the last variable is the sum of the first two, in the rows and
            # in the cost: the dual's equality rows are dependent
            a, b = _tall_instance(rng, "around", m, n)
            a[:, -1] = a[:, 0] + a[:, 1]
            c[-1] = c[0] + c[1]
        yield kind, c, a, b


def _counted(monkeypatch, module, name, counter):
    inner = getattr(module, name)

    def wrapper(*args):
        counter[0] += 1
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_in_place_kernel_matches_the_parent_kernel_bit_for_bit(monkeypatch):
    """Per LP: the same status and value, the same bytes of x and of the
    Farkas vector, and the same number of pivots as the kernel it replaced
    (`helpers._solve_dual`, which routes into the old `_two_phase`)."""
    import helpers

    rng = np.random.default_rng(2024)
    mine, ref = [0], [0]
    _counted(monkeypatch, lp, "_pivot", mine)
    _counted(monkeypatch, helpers, "_pivot", ref)
    kept = []
    two_phase = lp._two_phase

    def recording(A, *args):
        out = two_phase(A, *args)
        if out[0] == "optimal":
            kept.append(len(out[3]) < A.shape[0])
        return out

    monkeypatch.setattr(lp, "_two_phase", recording)
    statuses, dropped, pivots = {}, 0, 0
    for k, (kind, c, a, b) in enumerate(_battery(rng)):
        mine[0] = ref[0] = 0
        kept.clear()
        res = solve(c, a, b)
        dropped += kind == "redundant" and any(kept)
        with monkeypatch.context() as mp:
            mp.setattr(lp, "_solve_dual", helpers._solve_dual)
            want = solve(c, a, b)
        assert res.status == want.status, (k, kind)
        assert repr(res.value) == repr(want.value), (k, kind)
        for got, exp in ((res.x, want.x), (res.farkas, want.farkas)):
            assert (got is None) == (exp is None), (k, kind)
            assert got is None or got.tobytes() == exp.tobytes(), (k, kind)
        assert mine[0] == ref[0], (k, kind, mine[0], ref[0])
        pivots += mine[0]
        statuses.setdefault(kind, set()).add(res.status)
    assert statuses["infeasible"] == {"infeasible"}
    assert statuses["unbounded"] == {"unbounded"}
    assert {"optimal", "unbounded"} <= statuses["free"] | statuses["degenerate"]
    assert dropped >= 10 and pivots >= 1000, (dropped, pivots)


def _highs_status(c, a, b):
    ref = linprog(-c, A_ub=a, b_ub=b, bounds=(None, None), method="highs")
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status], ref


def test_blands_rule_branch_matches_highs(monkeypatch):
    """With `_BLAND_AFTER = 0` every pivot takes the smallest-index entering
    column (R. G. Bland, Math. Oper. Res. 2, 1977): the battery's statuses
    and values still match HiGHS, and Beale's cycling example (E. M. L.
    Beale, 1955) reaches its optimum -1/20."""
    monkeypatch.setattr(lp, "_BLAND_AFTER", 0)
    rng = np.random.default_rng(2024)
    for k, (kind, c, a, b) in enumerate(_battery(rng)):
        if k % 2:
            continue
        res = solve(c, a, b)
        status, ref = _highs_status(c, a, b)
        assert res.status == status, (k, kind)
        if status == "optimal":
            assert abs(res.value + ref.fun) <= 1e-6 * (1.0 + abs(ref.fun)), (k, kind)
    # Beale: min c@y, A y == b, y >= 0, which cycles from the slack basis
    # under the largest-coefficient rule with ratio ties to the lowest row
    cost = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0])
    A = np.array([[1.0, 0.0, 0.0, 0.25, -60.0, -0.04, 9.0],
                  [0.0, 1.0, 0.0, 0.5, -90.0, -0.02, 3.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
    rhs = np.array([0.0, 0.0, 1.0])
    status, y = lp._standard(cost, A, rhs, tolerances.LP)[:2]
    assert status == "optimal"
    assert (y >= 0).all() and np.allclose(A @ y, rhs, atol=1e-12)
    assert cost @ y == pytest.approx(-0.05, abs=1e-12)
    # the same LP as the free one whose dual it is
    res = solve(rhs, A.T, cost)
    assert res.optimal and res.value == pytest.approx(-0.05, abs=1e-12)
