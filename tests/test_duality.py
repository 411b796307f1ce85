import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import tincell as tc
from tincell.sampling import random_dims, random_network, random_strategy
from tincell.strategies import SILENT

from sample_nets import mknet, nets, nets_with_strategy


def id_order(net):
    return tc.DecodingOrder.identity(net.L)


def powers(net, rows):
    return tc.PowerAllocation(tuple(tuple(
        None if x is None else Fraction(str(x)) for x in row) for row in rows))


def test_normalize_returns_its_inputs_when_the_order_holds():
    rng = random.Random(5)
    held = moved = 0
    for _ in range(300):
        net = random_network(rng, *random_dims(rng))
        s = random_strategy(rng, net, "imac")
        order, power = tc.normalize_imac_strategy(net, s.order, s.power)
        if tc.satisfies_received_power_order(net, s.order, s.power):
            assert order is s.order and power is s.power
            held += 1
        else:
            assert (order, power) != (s.order, s.power)
            assert tc.normalize_imac_strategy(net, order, power) == (order, power)
            moved += 1
    assert held and moved


# --- forward transform ------------------------------------------------------


def test_dualize_forward_single_user():
    net = mknet([[[1.0]]])
    out = tc.dualize_ibc_to_imac(net, id_order(net), powers(net, [[0]]))
    assert out.r == ((0,),)


def test_dualize_forward_two_user(bc2):
    out = tc.dualize_ibc_to_imac(bc2, id_order(bc2), powers(bc2, [[0, -0.6]]))
    assert out.r == ((0, 0),)


def test_dualize_forward_net_a_inclusion(net_a):
    order, power = id_order(net_a), powers(net_a, [[0, 0], [0]])
    dl = tc.gdof_bounds_ibc(net_a, order, power)
    dual = tc.dualize_ibc_to_imac(net_a, order, power)
    ul = tc.gdof_bounds_imac(net_a, order, dual)
    assert all(u >= d for u, d in zip(ul, dl))


def test_dualize_preserves_silent(net_a):
    order = id_order(net_a)
    power = powers(net_a, [[0, None], [-0.5]])
    fwd = tc.dualize_ibc_to_imac(net_a, order, power)
    assert fwd.of(1, 2) is SILENT
    bwd = tc.dualize_imac_to_ibc(net_a, order, power)
    assert bwd.of(1, 2) is SILENT


# --- backward transform -----------------------------------------------------


def test_dualize_backward_single_user():
    net = mknet([[[1.0]]])
    out = tc.dualize_imac_to_ibc(net, id_order(net), powers(net, [[0]]))
    assert out.r == ((0,),)


def test_dualize_backward_two_user(bc2):
    out = tc.dualize_imac_to_ibc(bc2, id_order(bc2), powers(bc2, [[0, 0]]))
    assert out.r == ((0, Fraction(-3, 5)),)


def test_round_trip_dominates_original(net_a):
    order, power = id_order(net_a), powers(net_a, [[0, -0.2], [0]])
    original = tc.gdof_bounds_ibc(net_a, order, power)
    r_bar = tc.dualize_ibc_to_imac(net_a, order, power)
    r_back = tc.dualize_imac_to_ibc(net_a, order, r_bar)
    again = tc.gdof_bounds_ibc(net_a, order, r_back)
    assert all(a >= o for a, o in zip(again, original))


# --- received-power order ---------------------------------------------------


def test_received_power_order_holds(bc2):
    assert tc.satisfies_received_power_order(bc2, id_order(bc2), powers(bc2, [[0, 0]]))


def test_received_power_order_violated(bc2):
    # 1.0 - 0.5 = 0.5 received power behind 0.6
    assert not tc.satisfies_received_power_order(bc2, id_order(bc2), powers(bc2, [[0, -0.5]]))


def test_received_power_order_vacuous_single_users():
    net = mknet([[[0.7, 0.1]], [[0.2, 0.9]]])
    assert tc.satisfies_received_power_order(net, id_order(net), powers(net, [[0], [-1.0]]))


def test_silent_behind_active_counts_as_violation(bc2):
    assert not tc.satisfies_received_power_order(bc2, id_order(bc2), powers(bc2, [[0, None]]))


# --- normalization ----------------------------------------------------------


def test_normalize_fixpoint(bc2):
    order, power = id_order(bc2), powers(bc2, [[0, 0]])
    new_order, new_power = tc.normalize_imac_strategy(bc2, order, power)
    assert new_order == order and new_power == power


def test_normalize_swaps_and_silences(bc2):
    order, power = id_order(bc2), powers(bc2, [[0, -0.5]])
    before = tc.gdof_bounds_imac(bc2, order, power)
    new_order, new_power = tc.normalize_imac_strategy(bc2, order, power)
    assert new_order.pi == ((2, 1),)
    assert new_power.of(1, 2) is SILENT  # demoted user loses its power
    assert new_power.of(1, 1) == 0
    after = tc.gdof_bounds_imac(bc2, new_order, new_power)
    assert all(a >= b for a, b in zip(after, before))
    assert tc.satisfies_received_power_order(bc2, new_order, new_power)


def test_normalize_all_silent(net_a):
    order = id_order(net_a)
    silent = tc.PowerAllocation.all_silent(net_a.L)
    new_order, new_power = tc.normalize_imac_strategy(net_a, order, silent)
    assert new_order == order and new_power == silent


def test_normalize_three_user_chain():
    # Decode-order received powers (0.5, 1.0, 0.0): fixing the non-adjacent
    # violating pair (1, 3) first would drag the position-1 user behind the
    # stronger middle user and sink its bound; adjacent processing must
    # keep every bound intact.
    net = mknet([[[0.3], [0.5], [1.0]]])
    order = tc.DecodingOrder(((2, 3, 1),))
    power = powers(net, [[-0.3, 0, 0]])
    before = tc.gdof_bounds_imac(net, order, power)
    new_order, new_power = tc.normalize_imac_strategy(net, order, power)
    after = tc.gdof_bounds_imac(net, new_order, new_power)
    assert tc.satisfies_received_power_order(net, new_order, new_power)
    assert all(a >= b for a, b in zip(after, before))


def _swap_loop_normalize(net, order, power):
    """Reference: fix the first adjacent pair with decreasing received power
    by swapping it and silencing the demoted user, until none is left."""
    pi = [list(p) for p in order.pi]
    r = [list(c) for c in power.r]

    def received(k, slot):
        x = r[k - 1][slot - 1]
        return float("-inf") if x is SILENT else net.direct(k, slot) + x

    for k in range(1, net.K + 1):
        perm = pi[k - 1]
        changed = True
        while changed:
            changed = False
            for pos in range(len(perm) - 1):
                lo, hi = perm[pos], perm[pos + 1]
                if received(k, hi) < received(k, lo):
                    perm[pos], perm[pos + 1] = hi, lo
                    r[k - 1][hi - 1] = SILENT
                    changed = True
                    break
    return (
        tc.DecodingOrder(tuple(tuple(p) for p in pi)),
        tc.PowerAllocation(tuple(tuple(c) for c in r)),
    )


@st.composite
def tied_uplink_strategies(draw):
    """Strengths and exponents on the 1/2 grid, so received powers often tie,
    and each user SILENT with probability about a third."""
    net = draw(nets(max_K=3, max_L=4, denom=2, max_num=4))
    half = st.integers(-4, 0).map(lambda n: Fraction(n, 2))
    r = tuple(
        tuple(draw(st.one_of(st.none(), half, half)) for _ in range(lk)) for lk in net.L
    )
    pi = tuple(tuple(draw(st.permutations(range(1, lk + 1)))) for lk in net.L)
    return net, tc.DecodingOrder(pi), tc.PowerAllocation(r)


@given(tied_uplink_strategies())
@settings(max_examples=300, deadline=None)
def test_normalize_matches_swap_loop_reference(drawn):
    net, order, power = drawn
    out = tc.normalize_imac_strategy(net, order, power)
    assert out == _swap_loop_normalize(net, order, power)
    assert tc.satisfies_received_power_order(net, *out)


# --- inclusion properties ---------------------------------------------------


@given(nets_with_strategy("ibc"))
@settings(max_examples=100, deadline=None)
def test_forward_inclusion_exact(net_strategy):
    net, strategy = net_strategy
    order, power = strategy.order, strategy.power
    dl = tc.gdof_bounds_ibc(net, order, power)
    ul = tc.gdof_bounds_imac(net, order, tc.dualize_ibc_to_imac(net, order, power))
    assert all(u >= d for u, d in zip(ul, dl))


@given(nets_with_strategy("imac"))
@settings(max_examples=100, deadline=None)
def test_backward_inclusion_exact_after_normalization(net_strategy):
    net, strategy = net_strategy
    order, power = tc.normalize_imac_strategy(net, strategy.order, strategy.power)
    ul = tc.gdof_bounds_imac(net, order, power)
    dual = tc.dualize_imac_to_ibc(net, order, power, normalize=False)
    dl = tc.gdof_bounds_ibc(net, order, dual)
    assert all(d >= u for d, u in zip(dl, ul))


@given(nets_with_strategy("imac"))
@settings(max_examples=100, deadline=None)
def test_normalization_dominates(net_strategy):
    net, strategy = net_strategy
    before = tc.gdof_bounds_imac(net, strategy.order, strategy.power)
    order, power = tc.normalize_imac_strategy(net, strategy.order, strategy.power)
    assert tc.satisfies_received_power_order(net, order, power)
    after = tc.gdof_bounds_imac(net, order, power)
    assert all(a >= b for a, b in zip(after, before))


def test_raw_backward_dualization_can_break_inclusion():
    # the received-power order is load-bearing: without normalization the
    # transform genuinely fails for some order-violating strategies
    import random as _random
    from tincell.sampling import random_dims, random_network, random_strategy

    rng = _random.Random(99)
    broken = 0
    seen = 0
    while seen < 60:
        K, L = random_dims(rng)
        net = random_network(rng, K, L)
        s = random_strategy(rng, net, "imac")
        if tc.satisfies_received_power_order(net, s.order, s.power):
            continue
        seen += 1
        ul = tc.gdof_bounds_imac(net, s.order, s.power)
        dual = tc.dualize_imac_to_ibc(net, s.order, s.power, normalize=False)
        dl = tc.gdof_bounds_ibc(net, s.order, dual)
        if not all(d >= u for d, u in zip(dl, ul)):
            broken += 1
            # the default (normalizing) path must still give the inclusion
            order, power = tc.normalize_imac_strategy(net, s.order, s.power)
            fixed = tc.dualize_imac_to_ibc(net, s.order, s.power)
            dl_fixed = tc.gdof_bounds_ibc(net, order, fixed)
            ul_norm = tc.gdof_bounds_imac(net, order, power)
            assert all(d >= u for d, u in zip(dl_fixed, ul))
            assert all(d >= u for d, u in zip(dl_fixed, ul_norm))
    assert broken > 0


def test_dualize_report_structure(net_a):
    strategy = tc.Strategy("ibc", id_order(net_a), powers(net_a, [[0, 0], [0]]))
    report = tc.dualize(net_a, strategy)
    assert report.direction == "ibc_to_imac"
    assert report.gamma == tc.gamma_ibc(net_a, strategy.order, strategy.power)
    assert report.output_strategy.side == "imac"
