import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import tincell as tc
from tincell.oracle import GridSpec, _Lattice
from tincell.sampling import random_dims, random_network, random_strategy
from tincell.strategies import SILENT

from sample_nets import mknet, nets_with_strategy
from strategy_reference import _ref_bounds, _ref_sinr_rates_ibc


def id_order(net):
    return tc.DecodingOrder.identity(net.L)


def powers(net, rows):
    return tc.PowerAllocation(tuple(tuple(
        None if x is None else Fraction(str(x)) for x in row) for row in rows))


# --- effective levels -------------------------------------------------------


def test_gamma_ibc_single_user():
    net = mknet([[[1.0]]])
    g = tc.gamma_ibc(net, id_order(net), powers(net, [[0]]))
    assert g == (0,)


def test_gamma_ibc_two_user_bc(bc2):
    g = tc.gamma_ibc(bc2, id_order(bc2), powers(bc2, [[0, -0.6]]))
    assert g == (0, 0)


def test_gamma_ibc_net_a_matches_bound_identity(net_a):
    order, power = id_order(net_a), powers(net_a, [[0, 0], [0]])
    g = tc.gamma_ibc(net_a, order, power)
    bounds = tc.gdof_bounds_ibc(net_a, order, power)
    users = net_a.users()
    for i, u in enumerate(users):
        expected = max(0, net_a.direct(u.cell, u.slot) + power.of(u.cell, u.slot) - g[i])
        assert bounds[i] == expected


def test_gamma_imac_single_cell_single_user():
    net = mknet([[[1.0]]])
    for r in ([0], [-0.7], [None]):
        assert tc.gamma_imac(net, id_order(net), powers(net, [r])) == (0,)


def test_gamma_imac_two_user(bc2):
    g = tc.gamma_imac(bc2, id_order(bc2), powers(bc2, [[0, 0]]))
    assert g == (0, Fraction(3, 5))


# --- GDoF bounds ------------------------------------------------------------


def test_bounds_ibc_two_user_bc(bc2):
    d = tc.gdof_bounds_ibc(bc2, id_order(bc2), powers(bc2, [[0, -0.6]]))
    assert d == (Fraction(3, 5), Fraction(2, 5))
    assert sum(d) == 1  # degraded-BC sum exponent


def test_bounds_ibc_point_to_point():
    net = mknet([[[1.0]]])
    assert tc.gdof_bounds_ibc(net, id_order(net), powers(net, [[0]])) == (1,)


def test_bounds_all_silent(net_a):
    silent = tc.PowerAllocation.all_silent(net_a.L)
    assert tc.gdof_bounds_ibc(net_a, id_order(net_a), silent) == (0, 0, 0)
    assert tc.gdof_bounds_imac(net_a, id_order(net_a), silent) == (0, 0, 0)


def test_bounds_imac_two_user(bc2):
    d = tc.gdof_bounds_imac(bc2, id_order(bc2), powers(bc2, [[0, 0]]))
    assert d == (Fraction(3, 5), Fraction(2, 5))


def test_bounds_imac_point_to_point():
    net = mknet([[[1.0]]])
    assert tc.gdof_bounds_imac(net, id_order(net), powers(net, [[0]])) == (1,)


def test_dimension_mismatch_raises(net_a, bc2):
    with pytest.raises(tc.DimensionMismatchError):
        tc.gdof_bounds_ibc(net_a, id_order(bc2), powers(bc2, [[0, 0]]))


# --- the strategy passes, on ints and on oracle columns, vs the gamma form ---
# of the Fraction reference evaluators


def _kernel_bounds(net, side, strategy):
    """Bounds from the oracle's columns (the strategy passes on numpy
    int64), evaluated on one-row exponent columns."""
    lat = _Lattice(net, GridSpec(step=Fraction(1, 20), depth=Fraction(2)), "exact")
    cols = []
    for u in net.users():
        x = strategy.power.of(u.cell, u.slot)
        cols.append(np.array([lat.neg if x is SILENT else int(x * lat.scale)], dtype=np.int64))
    got = lat.bounds(side, strategy.order.pi, cols)[0]
    return tuple(Fraction(int(v), lat.scale) for v in got)


@given(nets_with_strategy("ibc"))
@settings(max_examples=120, deadline=None)
def test_bounds_ibc_equal_gamma_route(net_strategy):
    net, strategy = net_strategy
    bounds = tc.gdof_bounds_ibc(net, strategy.order, strategy.power)
    assert bounds == _ref_bounds(net, "ibc", strategy.order, strategy.power) == _kernel_bounds(net, "ibc", strategy)


@given(nets_with_strategy("imac"))
@settings(max_examples=120, deadline=None)
def test_bounds_imac_equal_gamma_route(net_strategy):
    net, strategy = net_strategy
    bounds = tc.gdof_bounds_imac(net, strategy.order, strategy.power)
    assert bounds == _ref_bounds(net, "imac", strategy.order, strategy.power) == _kernel_bounds(net, "imac", strategy)


@given(nets_with_strategy("ibc"))
@settings(max_examples=120, deadline=None)
def test_gammas_nonnegative(net_strategy):
    net, strategy = net_strategy
    assert all(g >= 0 for g in tc.gamma_ibc(net, strategy.order, strategy.power))
    assert all(g >= 0 for g in tc.gamma_imac(net, strategy.order, strategy.power))


@given(nets_with_strategy("ibc", min_K=2))
@settings(max_examples=80, deadline=None)
def test_lowering_interferer_never_hurts_other_cells(net_strategy):
    net, strategy = net_strategy
    order, power = strategy.order, strategy.power
    before = tc.gdof_bounds_ibc(net, order, power)
    # lower one cell-1 user's exponent, then all the way to SILENT
    target = net.L[0] - 1
    for new_value in (None if power.r[0][target] is SILENT else power.r[0][target] - 1, SILENT):
        rows = list(power.r)
        row = list(rows[0])
        row[target] = new_value
        rows[0] = tuple(row)
        after = tc.gdof_bounds_ibc(net, order, tc.PowerAllocation(tuple(rows)))
        for i, u in enumerate(net.users()):
            if u.cell != 1:
                assert after[i] >= before[i]


# --- achievability ----------------------------------------------------------


def test_achievable_boundary_and_epsilon(bc2):
    strategy = tc.Strategy("ibc", id_order(bc2), powers(bc2, [[0, -0.6]]))
    bounds = tc.gdof_bounds(bc2, strategy)
    assert tc.achievable_with_strategy(bc2, strategy, bounds)
    bumped = (bounds[0] + Fraction(1, 1000), bounds[1])
    assert not tc.achievable_with_strategy(bc2, strategy, bumped)
    assert tc.achievable_with_strategy(bc2, strategy, (0, 0))


def test_achievable_reads_d_as_contains_does():
    net = mknet([[[0.1]]])
    strategy = tc.Strategy("ibc", id_order(net), powers(net, [[0]]))
    assert tc.gdof_bounds(net, strategy) == (Fraction(1, 10),)
    # the float 0.1 is read through its decimal text, not its binary value
    for d in ([0.1], [np.float64(0.1)], [Fraction(1, 10)], [np.int64(0)], [0]):
        assert tc.achievable_with_strategy(net, strategy, d), d
    for d in ([0.11], [np.float64(0.11)], [np.int64(1)]):
        assert not tc.achievable_with_strategy(net, strategy, d), d
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")):
        with pytest.raises(ValueError):
            tc.achievable_with_strategy(net, strategy, [bad])


# --- finite SNR -------------------------------------------------------------


def test_sinr_rate_point_to_point():
    net = mknet([[[1.0]]])
    cfg = tc.FiniteSnrConfig(P=2.0**20)
    ((sinr, rate),) = tc.sinr_rates_ibc(net, id_order(net), powers(net, [[0]]), cfg)
    assert sinr == pytest.approx(2.0**20)
    assert rate == pytest.approx(math.log2(1 + 2.0**20))
    assert rate / 20.0 == pytest.approx(1.0, abs=1e-4)


def test_sinr_rate_silent_user(bc2):
    cfg = tc.FiniteSnrConfig(P=1e6)
    pairs = tc.sinr_rates_ibc(bc2, id_order(bc2), powers(bc2, [[0, None]]), cfg)
    assert pairs[1] == (0.0, 0.0)
    assert pairs[0][0] > 0


def test_rate_normalization_approaches_bounds(bc2):
    order, power = id_order(bc2), powers(bc2, [[0, -0.6]])
    bounds = [float(b) for b in tc.gdof_bounds_ibc(bc2, order, power)]
    P = 1e12
    pairs = tc.sinr_rates_ibc(bc2, order, power, tc.FiniteSnrConfig(P=P))
    for (sinr, rate), b in zip(pairs, bounds):
        assert abs(rate / math.log2(P) - b) < 0.05


def test_rate_gap_nonincreasing_on_net_a(net_a):
    order, power = id_order(net_a), powers(net_a, [[0, 0], [0]])
    bounds = [float(b) for b in tc.gdof_bounds_ibc(net_a, order, power)]
    prev = None
    for P in (1e6, 1e12, 1e20):
        pairs = tc.sinr_rates_ibc(net_a, order, power, tc.FiniteSnrConfig(P=P))
        gaps = [abs(rate / math.log2(P) - b) for (_, rate), b in zip(pairs, bounds)]
        if prev is not None:
            assert all(g <= p + 1e-12 for g, p in zip(gaps, prev))
        prev = gaps
    assert all(g < 0.05 for g in prev)


SNR_POWERS = (1.001, 1.5, 10.0, 1e3, 1e6, 1e12, 1e40, 1e100)


def _snr_draws(rng):
    """Seeded downlink strategies, about one user in seven SILENT: random_dims
    nets, then (3,3,2) and (2,2,2,2) nets."""
    for _ in range(500):
        net = random_network(rng, *random_dims(rng))
        for _ in range(2):
            yield net, random_strategy(rng, net, "ibc")
    for shape in ((3, 3, 2), (2, 2, 2, 2)):
        for _ in range(50):
            net = random_network(rng, len(shape), list(shape))
            for _ in range(2):
                yield net, random_strategy(rng, net, "ibc")


def test_sinr_rates_match_the_float_reference():
    """The log-domain downlink pass against the float evaluator it replaced:
    SINR within 1e-10 relative, rate within 1e-10 bits, and zero exactly
    where the reference is zero."""
    silent = pairs = 0
    for net, s in _snr_draws(random.Random(24)):
        silent += sum(x is SILENT for cell in s.power.r for x in cell)
        for P in SNR_POWERS:
            cfg = tc.FiniteSnrConfig(P=P)
            got = tc.sinr_rates_ibc(net, s.order, s.power, cfg)
            ref = _ref_sinr_rates_ibc(net, s.order, s.power, cfg)
            assert len(got) == len(ref) == net.n_users
            for (sinr, rate), (ref_sinr, ref_rate) in zip(got, ref):
                pairs += 1
                if ref_sinr == 0.0:
                    assert (sinr, rate) == (0.0, 0.0), (net, s, P)
                    continue
                assert abs(sinr - ref_sinr) <= 1e-10 * ref_sinr, (net, s, P)
                assert abs(rate - ref_rate) <= 1e-10, (net, s, P)
    assert silent > 0 and pairs > 40_000


def test_sinr_rates_beyond_a_single_links_float_range():
    """Two one-user cells, direct 30 and cross 29.9, at P = 1e11: each link's
    P**alpha is above 1e328, which the float evaluator cannot form, yet each
    SINR is P**30 / (1 + P**29.9), about 10**1.1."""
    net = mknet([[[30, 29.9]], [[29.9, 30]]])
    order, power = id_order(net), powers(net, [[0], [0]])
    cfg = tc.FiniteSnrConfig(P=1e11)
    with pytest.raises(OverflowError):
        _ref_sinr_rates_ibc(net, order, power, cfg)
    pairs = tc.sinr_rates_ibc(net, order, power, cfg)
    for sinr, rate in pairs:
        assert sinr == pytest.approx(10**1.1, rel=1e-12)
        assert rate == pytest.approx(math.log2(1 + 10**1.1), rel=1e-12)


def test_finite_snr_requires_p_above_one():
    for P in (1.0, math.inf, 1e400, math.nan):
        with pytest.raises(ValueError):
            tc.FiniteSnrConfig(P=P)


# --- strategy files ---------------------------------------------------------


def test_strategy_round_trip(net_a):
    text = '{"side": "ibc", "order": [[2, 1], [1]], "r": [[-0.5, 0], ["off"]]}'
    strategy = tc.parse_strategy(text, net_a)
    assert strategy.order.pi == ((2, 1), (1,))
    assert strategy.power.of(1, 1) == Fraction(-1, 2)
    assert strategy.power.of(2, 1) is SILENT
    doc = tc.strategy_to_dict(strategy)
    assert doc["r"][1] == ["off"]


def test_strategy_rejects_positive_exponent(net_a):
    with pytest.raises(tc.NetworkFormatError):
        tc.parse_strategy('{"side": "ibc", "order": [[1, 2], [1]], "r": [[0.5, 0], [0]]}', net_a)


def test_strategy_rejects_bad_order(net_a):
    with pytest.raises(tc.NetworkFormatError):
        tc.parse_strategy('{"side": "ibc", "order": [[1, 1], [1]], "r": [[0, 0], [0]]}', net_a)
