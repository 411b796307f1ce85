import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import tincell as tc
from tincell.oracle import GridSpec, _Lattice, default_grid, strategy_count
from tincell.strategies import SILENT, DecodingOrder, PowerAllocation

from sample_nets import mknet
from strategy_reference import _ref_bounds


def test_grid_levels_and_validation():
    grid = GridSpec(step=Fraction(1, 2), depth=Fraction(1))
    assert grid.n_levels() == 4  # 0, -1/2, -1, SILENT
    with pytest.raises(ValueError):
        GridSpec(step=Fraction(2), depth=Fraction(1))


def test_default_grid_depth(net_a):
    grid = default_grid(net_a)
    assert grid.depth == net_a.max_strength() + 1
    assert grid.step == Fraction(1, 20)


def test_single_user_points_exact():
    net = mknet([[[1.0]]])
    grid = GridSpec(step=Fraction(1, 2), depth=Fraction(1))
    pts = tc.grid_achievable_points(net, "ibc", grid, mode="exact")
    assert pts == {(Fraction(1),), (Fraction(1, 2),), (Fraction(0),)}
    assert max(p[0] for p in pts) == 1


def test_single_user_points_float():
    net = mknet([[[1.0]]])
    grid = GridSpec(step=Fraction(1, 2), depth=Fraction(1))
    pts = tc.grid_achievable_points(net, "ibc", grid, mode="float")
    assert {round(p[0], 9) for p in pts} == {0.0, 0.5, 1.0}


def test_budget_refusal(net_a):
    grid = default_grid(net_a)
    count = strategy_count(net_a, grid)
    with pytest.raises(tc.BudgetExceededError) as err:
        tc.grid_achievable_points(net_a, "ibc", grid, budget=count - 1)
    assert err.value.count == count


def test_no_cross_links_max_sum_is_strongest_user():
    net = mknet([[[0.5, 0.0], [1.0, 0.0]], [[0.0, 0.8]]])
    grid = GridSpec(step=Fraction(1, 4), depth=Fraction(2))
    best = tc.oracle_max_sum(net, "ibc", [1, 1, 0], grid, mode="exact")
    assert best == 1  # cell-1 sum equals its strongest direct link


def test_oracle_achievable_examples(net_a):
    grid = GridSpec(step=Fraction(1, 10), depth=Fraction(2))
    assert tc.oracle_achievable(net_a, "ibc", [0, 0, 0], grid, mode="exact")
    # boundary point of the hull, shaved by the grid slack 3 * step
    eps = Fraction(3, 10)
    target = [Fraction(0) - eps, Fraction(9, 10) - eps, Fraction(7, 10) - eps]
    assert tc.oracle_achievable(net_a, "ibc", target, grid, mode="exact")
    # beyond the converse region: unreachable at any resolution
    assert not tc.oracle_achievable(net_a, "ibc", [Fraction(7, 10), 0, 0], grid, mode="exact")


def test_oracle_points_sound_for_small_net(net_a):
    grid = GridSpec(step=Fraction(1, 4), depth=Fraction(2))
    for side in ("ibc", "imac"):
        pts = tc.grid_achievable_points(net_a, side, grid, mode="exact")
        for p in sorted(pts):
            ok, _ = tc.tina_region_contains(net_a, p)
            assert ok, (side, p)


def test_oracle_completeness_at_grid_scale(net_a):
    grid = GridSpec(step=Fraction(1, 10), depth=Fraction(2))
    eps = Fraction(3, 10)  # (max cell size + 1) * step
    region = tc.outer_bound_region(net_a)
    for w in ([1, 1, 1], [1, 0, 0], [0, 2, 1]):
        _, vertex = tc.max_weighted_sum(region, w)
        shaved = [v - eps for v in vertex]
        assert tc.oracle_achievable(net_a, "ibc", shaved, grid, mode="exact")


def test_exact_and_float_modes_agree(net_a):
    grid = GridSpec(step=Fraction(1, 4), depth=Fraction(1))
    exact = tc.oracle_max_sum(net_a, "ibc", [1, 1, 1], grid, mode="exact")
    approx = tc.oracle_max_sum(net_a, "ibc", [1, 1, 1], grid, mode="float")
    assert float(exact) == pytest.approx(approx, abs=1e-9)


def test_net_a_max_sum_near_lp(net_a):
    grid = GridSpec(step=Fraction(1, 10), depth=Fraction(2))
    best = tc.oracle_max_sum(net_a, "ibc", [1, 1, 1], grid, mode="exact")
    assert abs(best - Fraction(8, 5)) <= 3 * grid.step
    assert best <= Fraction(8, 5)  # never exceeds the union optimum


def test_uplink_oracle_runs(net_a):
    grid = GridSpec(step=Fraction(1, 4), depth=Fraction(2))
    dl = tc.oracle_max_sum(net_a, "ibc", [1, 1, 1], grid, mode="exact")
    ul = tc.oracle_max_sum(net_a, "imac", [1, 1, 1], grid, mode="exact")
    assert abs(float(dl) - float(ul)) <= 3 * 2 * float(grid.step)


def test_sampled_points_achievable_on_both_sides(net_a):
    # the two directions reach the same points up to grid slack
    grid = GridSpec(step=Fraction(1, 5), depth=Fraction(2))
    eps = 3 * grid.step
    for side, other in (("ibc", "imac"), ("imac", "ibc")):
        pts = sorted(tc.grid_achievable_points(net_a, side, grid, mode="exact"))
        for p in pts[:: max(1, len(pts) // 40)]:
            shaved = [x - eps for x in p]
            assert tc.oracle_achievable(net_a, other, shaved, grid, mode="exact"), (side, p)


def test_exact_mode_incommensurate_raises():
    net = mknet([[[1.0]]])
    grid = GridSpec(step=Fraction(1, 3 * 10**7), depth=Fraction(1))
    with pytest.raises(tc.PreconditionError):
        tc.grid_achievable_points(net, "ibc", grid, mode="exact")


def test_strategy_count_formula(net_a):
    grid = GridSpec(step=Fraction(1, 2), depth=Fraction(1))
    # 2 cells: 2! * 1! orders; 4 levels per user, 3 users
    assert strategy_count(net_a, grid) == 2 * 4**3


def test_vectorized_bounds_match_scalar_evaluation():
    # the oracle's columns must give the bounds of the Fraction reference
    # evaluators, which share no code with the strategy passes, exactly
    rng = random.Random(3)
    grid = GridSpec(step=Fraction(1, 20), depth=Fraction(2))
    for _ in range(6):
        K = rng.choice([1, 2, 3])
        L = [rng.randint(1, 3) for _ in range(K)]
        from tincell.sampling import random_network, random_strategy

        net = random_network(rng, K, L)
        lat = _Lattice(net, grid, "exact")
        for side in ("ibc", "imac"):
            for _ in range(8):
                s = random_strategy(rng, net, side)
                cols = []
                for u in net.users():
                    x = s.power.of(u.cell, u.slot)
                    cols.append(np.array([lat.neg if x is SILENT else int(x * lat.scale)], dtype=np.int64))
                got = lat.bounds(side, tuple(s.order.pi), cols)[0]
                want = _ref_bounds(net, side, s.order, s.power)
                assert [Fraction(int(v), lat.scale) for v in got] == list(want)


def test_exact_points_survive_strengths_past_2_pow_40():
    # scaled by 10^7 the strength exceeds 2^40; SILENT must stay below every level
    net = mknet([[[300000.0000001]]])
    grid = GridSpec(step=Fraction(100000), depth=Fraction(300001))
    exact = tc.grid_achievable_points(net, "ibc", grid, mode="exact")
    approx = tc.grid_achievable_points(net, "ibc", grid, mode="float")
    assert (Fraction(3000000000001, 10**7),) in exact
    assert (300000.0000001,) in approx
    assert len(exact) == len(approx)
    for e, f in zip(sorted(exact), sorted(approx)):
        assert float(e[0]) == pytest.approx(f[0], abs=1e-9)


def test_exact_max_sum_does_not_wrap_int64():
    # 10^13 + 1 on the lattice times weight 10^6 is past 2^63
    net = mknet([[[1000000.0000001]]])
    grid = GridSpec(step=Fraction(10**6), depth=Fraction(10**6))
    best = tc.oracle_max_sum(net, "ibc", [10**6], grid, mode="exact")
    assert best == Fraction(10**12) + Fraction(1, 10)
    approx = tc.oracle_max_sum(net, "ibc", [10**6], grid, mode="float")
    assert approx == pytest.approx(1e12)


def _scalar_grid_points(net, side, grid):
    """Reference bounds of every (order, grid power) strategy, one by one."""
    q = int(grid.depth / grid.step)
    levels = [-k * grid.step for k in range(q + 1)] + [SILENT]
    pools = [sorted(itertools.permutations(range(1, lk + 1))) for lk in net.L]
    points = set()
    for pi in itertools.product(*pools):
        order = DecodingOrder(tuple(pi))
        for flat in itertools.product(levels, repeat=net.n_users):
            it = iter(flat)
            power = PowerAllocation(tuple(tuple(next(it) for _ in range(lk)) for lk in net.L))
            points.add(tuple(_ref_bounds(net, side, order, power)))
    return points


@pytest.mark.parametrize("rows", [
    [[[0.6, 0.2], [1.0, 0.1]], [[0.3, 1.0]]],
    [[[0.5, 0.25, 0.0]], [[0.25, 0.75, 0.5]], [[0.0, 0.5, 1.0]]],
])
def test_exact_points_match_per_strategy_evaluation(rows):
    # depth well past the largest strength, so the lattice folds levels into SILENT
    net = mknet(rows)
    grid = GridSpec(step=Fraction(1, 4), depth=Fraction(2))
    assert grid.depth > net.max_strength() + grid.step
    for side in ("ibc", "imac"):
        want = _scalar_grid_points(net, side, grid)
        assert tc.grid_achievable_points(net, side, grid, mode="exact") == want
        w = list(range(1, net.n_users + 1))
        best = max(sum(wi * x for wi, x in zip(w, p)) for p in want)
        assert tc.oracle_max_sum(net, side, w, grid, mode="exact") == best
