"""The integer-lattice strategy evaluators against the Fraction evaluators
they replaced.

The reference functions below are the earlier ``strategies`` and
``duality`` bodies, copied verbatim (public names given a ``_ref_``
prefix): every max, add and clip on ``Fraction`` objects.  The lattice
route must give the same values with the same types, so each comparison is
on ``repr``: ``gamma_imac``'s clipped int 0, the shared ``Fraction(0)``
bound and the reduced ``Fraction`` of every other level all show there.
"""

import random
from fractions import Fraction

import pytest

import tincell as tc
from tincell.duality import DualizationReport, _negated_gamma
from tincell.network import ChannelStrengths
from tincell.sampling import random_dims, random_network, random_strategy
from tincell.strategies import (
    SILENT,
    DecodingOrder,
    PowerAllocation,
    Strategy,
    check_dimensions,
)

from sample_nets import MIXED_NETS, mknet
from strategy_reference import NEG_INF, _bounds_from_gamma, _ref_gamma_ibc, _ref_gamma_imac

# ---------------------------------------------------------------------------
# reference: the Fraction evaluators, verbatim (the level and bound ones
# live in strategy_reference.py, shared with the oracle tests)


def _received_power(net: ChannelStrengths, power: PowerAllocation, k: int, slot: int):
    """``direct + r`` of user ``slot`` of cell ``k``; ``-inf`` when SILENT."""
    x = power.of(k, slot)
    return NEG_INF if x is SILENT else net.direct(k, slot) + x


def _ref_satisfies_received_power_order(
    net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation
) -> bool:
    """True iff received powers are non-decreasing along each decode chain.

    The received power of the user at position ``l`` is its direct strength
    plus its exponent, with SILENT counting as ``-inf`` (so SILENT users may
    only sit at the front of the chain).
    """
    check_dimensions(net, order, power)
    for k, perm in enumerate(order.pi, start=1):
        received = [_received_power(net, power, k, slot) for slot in perm]
        if any(b < a for a, b in zip(received, received[1:])):
            return False
    return True


def _ref_normalize_imac_strategy(
    net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation
) -> tuple[DecodingOrder, PowerAllocation]:
    """Rewrite an uplink strategy so the received-power order holds.

    Along each decode chain, a user keeps its power iff it is active and its
    received power is at least every received power before it; every other
    user is silenced and moved to the front, and both groups keep their
    relative order.  This is the fixed point of swapping adjacent pairs with
    decreasing received power and silencing the demoted user (whose bound
    the stronger user behind it had already forced to zero).  Each such step
    is harmless: the promoted user sees exactly the interference it saw
    before, everyone else sees no more, so per-user bounds never decrease.
    The result is deterministic and idempotent, and satisfies
    :func:`satisfies_received_power_order`.
    """
    check_dimensions(net, order, power)
    pi, r = [], []
    for k, perm in enumerate(order.pi, start=1):
        row = list(power.r[k - 1])
        silenced, kept = [], []
        top = NEG_INF
        for slot in perm:
            p = _received_power(net, power, k, slot)
            if row[slot - 1] is not SILENT and p >= top:
                kept.append(slot)
                top = p
            else:
                silenced.append(slot)
                row[slot - 1] = SILENT
        pi.append(tuple(silenced + kept))
        r.append(tuple(row))
    return DecodingOrder(tuple(pi)), PowerAllocation(tuple(r))


def _ref_dualize(net, strategy):
    """The earlier ``duality.dualize`` on the reference evaluators."""
    order, power = strategy.order, strategy.power
    if strategy.side == "ibc":
        gam = _ref_gamma_ibc(net, order, power)
        out = Strategy(side="imac", order=order, power=_negated_gamma(power, gam))
        return DualizationReport("ibc_to_imac", strategy, out, gam)
    order, power = _ref_normalize_imac_strategy(net, order, power)
    gam = _ref_gamma_imac(net, order, power)
    out = Strategy(side="ibc", order=order, power=_negated_gamma(power, gam))
    return DualizationReport("imac_to_ibc", Strategy("imac", order, power), out, gam)


# ---------------------------------------------------------------------------
# inputs


def _strategy(rng, net, denominators=(20,), silent=0.15):
    """Random decode orders; each exponent in [-2, 0] on the 1/d grid, with
    ``d`` drawn from ``denominators``, or SILENT with probability ``silent``."""
    pi = tuple(tuple(rng.sample(range(1, lk + 1), lk)) for lk in net.L)
    r = []
    for lk in net.L:
        dens = [rng.choice(denominators) for _ in range(lk)]
        r.append(tuple(
            SILENT if rng.random() < silent else Fraction(-rng.randint(0, 2 * d), d) for d in dens
        ))
    return Strategy("ibc", DecodingOrder(pi), PowerAllocation(tuple(r)))


def _c01_c02(rng):
    """random_dims nets with both sides' random_strategy draws (c01, c02)."""
    for _ in range(80):
        net = random_network(rng, *random_dims(rng))
        for side in ("ibc", "imac", "imac"):
            yield net, random_strategy(rng, net, side)


def _c03(rng):
    """K=2, L=(2,1) nets on the 1/100 grid with 1/20-grid strategies (c03)."""
    for _ in range(40):
        net = random_network(rng, 2, [2, 1])
        for _ in range(4):
            yield net, _strategy(rng, net)


def _shapes(rng):
    for shape in ((2, 2, 2), (3, 3, 2), (2, 2, 2, 2)):
        for _ in range(8):
            net = random_network(rng, len(shape), list(shape))
            for _ in range(4):
                yield net, _strategy(rng, net)


def _mixed(rng):
    """D = 3 * 7 * 10^900 nets; exponents whose denominators divide D or not."""
    for net in MIXED_NETS:
        for _ in range(30):
            yield net, _strategy(rng, net, denominators=(3, 7, 20, 11, 10**9 + 7))


def _unlike_denominators(rng):
    """Exponent denominators 3, 7 and 10^9, none of which divides D (a
    divisor of 100), so the lattice step 1/E is finer than the network's."""
    for _ in range(40):
        net = random_network(rng, *random_dims(rng))
        for dens in ((3,), (7,), (10**9,), (3, 7, 10**9, 20)):
            yield net, _strategy(rng, net, denominators=dens)


def _ties(rng):
    """Strengths and exponents on the 1/2 grid, so levels and received
    powers often tie and bounds often clip to exactly 0."""
    for _ in range(40):
        K = rng.randint(1, 3)
        alpha = [
            [[Fraction(rng.randint(0, 4), 2) for _ in range(K)] for _ in range(rng.randint(1, 3))]
            for _ in range(K)
        ]
        net = mknet(alpha)
        for _ in range(3):
            yield net, _strategy(rng, net, denominators=(2,), silent=0.3)


def _silent_and_single(rng):
    """All-SILENT strategies, and nets of single-user cells."""
    for _ in range(20):
        net = random_network(rng, *random_dims(rng))
        yield net, Strategy("ibc", DecodingOrder.identity(net.L), PowerAllocation.all_silent(net.L))
    for K in (1, 2, 3):
        for _ in range(10):
            net = random_network(rng, K, [1] * K)
            yield net, _strategy(rng, net, silent=0.3)
            yield net, Strategy("ibc", DecodingOrder.identity(net.L), PowerAllocation.all_silent(net.L))
    net = mknet([[[1.0]]])
    for r in (0, Fraction(-7, 10), Fraction(-1), SILENT):
        yield net, Strategy("ibc", DecodingOrder(((1,),)), PowerAllocation(((r,),)))


GROUPS = {
    "c01-c02": _c01_c02,
    "c03": _c03,
    "shapes": _shapes,
    "mixed": _mixed,
    "unlike-denominators": _unlike_denominators,
    "ties": _ties,
    "silent-and-single": _silent_and_single,
}


# ---------------------------------------------------------------------------
# comparisons


@pytest.mark.parametrize("group", list(GROUPS))
def test_lattice_evaluation_matches_fraction_reference(group):
    for net, strategy in GROUPS[group](random.Random(group)):
        order, power = strategy.order, strategy.power
        g_ibc = _ref_gamma_ibc(net, order, power)
        g_imac = _ref_gamma_imac(net, order, power)
        assert repr(tc.gamma_ibc(net, order, power)) == repr(g_ibc)
        assert repr(tc.gamma_imac(net, order, power)) == repr(g_imac)
        assert repr(tc.gdof_bounds_ibc(net, order, power)) == repr(_bounds_from_gamma(net, power, g_ibc))
        assert repr(tc.gdof_bounds_imac(net, order, power)) == repr(_bounds_from_gamma(net, power, g_imac))
        assert tc.satisfies_received_power_order(net, order, power) == \
            _ref_satisfies_received_power_order(net, order, power)
        assert repr(tc.normalize_imac_strategy(net, order, power)) == \
            repr(_ref_normalize_imac_strategy(net, order, power))
        for side in ("ibc", "imac"):
            s = Strategy(side, order, power)
            assert repr(tc.dualize(net, s)) == repr(_ref_dualize(net, s))


def test_reference_inputs_reach_every_kind_of_value():
    """The groups above hold the values whose type the lattice route must
    keep (gamma_imac's int 0, Fraction zeros from gamma_ibc, the shared
    Fraction(0) bound of an active user) and lattices finer than the
    network's own."""
    seen = set()
    for group, make in GROUPS.items():
        for net, s in make(random.Random(group)):
            exponents = [x for cell in s.power.r for x in cell]
            g_imac = _ref_gamma_imac(net, s.order, s.power)
            bounds = _bounds_from_gamma(net, s.power, g_imac)
            if any(type(g) is int for g in g_imac):
                seen.add("int 0 level")
            if 0 in _ref_gamma_ibc(net, s.order, s.power):
                seen.add("Fraction 0 level")
            if any(x is not SILENT and b == 0 for x, b in zip(exponents, bounds)):
                seen.add("clipped active bound")
            if net.lattice(*(x.denominator for x in exponents if x is not SILENT))[0] != net.scaled[0]:
                seen.add("finer lattice")
    assert seen == {"int 0 level", "Fraction 0 level", "clipped active bound", "finer lattice"}


def test_lattice_helper_scales_strengths_exactly():
    net = MIXED_NETS[0]
    D, ints = net.scaled
    assert net.lattice() == (D, ints) and net.lattice(3, 7, 8)[1] is ints
    E, wide = net.lattice(11, 10**9 + 7)
    assert E == D * 11 * (10**9 + 7)
    for cell, wcell in zip(net.alpha, wide):
        for row, wrow in zip(cell, wcell):
            assert all(type(x) is int and x == a * E for a, x in zip(row, wrow))


# ---------------------------------------------------------------------------
# exponents are read exactly


def test_float_exponents_are_read_through_their_decimal_text(net_a):
    order = DecodingOrder.identity(net_a.L)
    floats = PowerAllocation(((-0.1, 0), (-0.3,)))
    exact = PowerAllocation(((Fraction(-1, 10), 0), (Fraction(-3, 10),)))
    assert floats == exact
    assert tc.gdof_bounds_ibc(net_a, order, floats) == tc.gdof_bounds_ibc(net_a, order, exact)
    assert Fraction(2, 5) in tc.gdof_bounds_ibc(net_a, order, floats)


def test_int_exponents_stay_ints(net_a):
    power = PowerAllocation(((0, 0), (0,)))
    assert [type(x) for cell in power.r for x in cell] == [int, int, int]
    assert tc.gdof_bounds_ibc(net_a, DecodingOrder.identity(net_a.L), power) == (0, Fraction(9, 10), Fraction(7, 10))
    with pytest.raises(ValueError):
        PowerAllocation(((0, 0.25), (0,)))
