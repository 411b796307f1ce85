"""Explicit power-allocation duality between downlink and uplink TIN.

The transform in each direction is the negated effective interference
level of the source strategy, applied per user: a downlink strategy with
exponents ``r`` maps to an uplink strategy with ``r_bar = -gamma`` whose
achievable box contains the downlink one, and conversely once the uplink
strategy respects the received-power order along the decode chain.  SILENT
users stay SILENT in both directions (they achieve 0 either way and
silencing them only lowers interference for everyone else).
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import ChannelStrengths
from .strategies import (
    SILENT,
    DecodingOrder,
    PowerAllocation,
    Strategy,
    check_dimensions,
    gamma_ibc,
    gamma_imac,
)


def _negated_gamma(power: PowerAllocation, gamma: tuple) -> PowerAllocation:
    """Per-user ``-gamma`` nested per cell, with SILENT users kept SILENT."""
    rows = []
    i = 0
    for cell in power.r:
        rows.append(tuple(
            SILENT if x is SILENT else -g for x, g in zip(cell, gamma[i:i + len(cell)])
        ))
        i += len(cell)
    return PowerAllocation(tuple(rows))


def dualize_ibc_to_imac(
    net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation
) -> PowerAllocation:
    """Uplink allocation achieving (at least) the given downlink strategy's box.

    Componentwise ``r_bar = -gamma`` with SILENT preserved; the result is
    feasible (``<= 0``) because effective interference levels are
    nonnegative.
    """
    return _negated_gamma(power, gamma_ibc(net, order, power))


def dualize_imac_to_ibc(
    net: ChannelStrengths,
    order: DecodingOrder,
    power: PowerAllocation,
    normalize: bool = True,
) -> PowerAllocation:
    """Downlink allocation achieving (at least) the given uplink strategy's box.

    Componentwise ``r = -gamma_bar`` with SILENT preserved.  The inclusion
    is only guaranteed when the uplink strategy satisfies the received-power
    order, so by default a violating strategy is normalized first; the
    returned allocation then pairs with the normalized decode order
    (recover it with :func:`normalize_imac_strategy`, which is
    deterministic and idempotent).  Pass ``normalize=False`` to dualize the
    raw strategy as-is.
    """
    if normalize and not satisfies_received_power_order(net, order, power):
        order, power = normalize_imac_strategy(net, order, power)
    return _negated_gamma(power, gamma_imac(net, order, power))


def satisfies_received_power_order(
    net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation
) -> bool:
    """True iff received powers are non-decreasing along each decode chain.

    The received power of the user at position ``l`` is its direct strength
    plus its exponent, with SILENT counting as ``-inf`` (so a SILENT user is
    dominated by everyone and may only sit at the front of the chain once
    any active user precedes it).  Non-decreasing adjacent pairs are
    equivalent to the full pairwise condition.
    """
    check_dimensions(net, order, power)
    for k in range(1, net.K + 1):
        prev = None
        for slot in order.pi[k - 1]:
            x = power.of(k, slot)
            cur = float("-inf") if x is SILENT else net.direct(k, slot) + x
            if prev is not None and cur < prev:
                return False
            prev = cur
    return True


def normalize_imac_strategy(
    net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation
) -> tuple[DecodingOrder, PowerAllocation]:
    """Rewrite an uplink strategy so the received-power order holds.

    Repeatedly, in each cell, the first adjacent decode-position pair with
    decreasing received power is fixed by swapping the two users and
    silencing the demoted one (whose bound was already forced to zero by the
    stronger user behind it in the chain).  Restricting to adjacent pairs
    keeps every step harmless: the promoted user sees exactly the
    interference it saw before, everyone else sees no more, so per-user
    bounds never decrease.  Cells are processed in index order and positions
    bottom-up, making the result deterministic.
    """
    check_dimensions(net, order, power)
    pi = [list(p) for p in order.pi]
    r = [list(c) for c in power.r]
    total = sum(net.L)
    max_steps = net.K * total * total + total + 1
    steps = 0
    for k in range(1, net.K + 1):
        perm = pi[k - 1]
        changed = True
        while changed:
            changed = False
            for pos in range(len(perm) - 1):
                lo, hi = perm[pos], perm[pos + 1]
                x_lo, x_hi = r[k - 1][lo - 1], r[k - 1][hi - 1]
                p_lo = float("-inf") if x_lo is SILENT else net.direct(k, lo) + x_lo
                p_hi = float("-inf") if x_hi is SILENT else net.direct(k, hi) + x_hi
                if p_hi < p_lo:
                    perm[pos], perm[pos + 1] = hi, lo
                    r[k - 1][hi - 1] = SILENT
                    changed = True
                    steps += 1
                    assert steps <= max_steps, "normalization failed to terminate"
                    break
    out_order = DecodingOrder(tuple(tuple(p) for p in pi))
    out_power = PowerAllocation(tuple(tuple(c) for c in r))
    assert satisfies_received_power_order(net, out_order, out_power)
    return out_order, out_power


@dataclass(frozen=True)
class DualizationReport:
    """Input/output of one dualization, with the levels that drove it."""

    direction: str  # "ibc_to_imac" or "imac_to_ibc"
    input_strategy: Strategy
    output_strategy: Strategy
    gamma: tuple  # per-user effective levels of the source strategy

    def __post_init__(self):
        for cell in self.output_strategy.power.r:
            assert all(x is SILENT or x <= 0 for x in cell)


def dualize(net: ChannelStrengths, strategy: Strategy) -> DualizationReport:
    """Dualize a full strategy to the other side and report the details."""
    order, power = strategy.order, strategy.power
    if strategy.side == "ibc":
        gam = gamma_ibc(net, order, power)
        out = Strategy(side="imac", order=order, power=_negated_gamma(power, gam))
        return DualizationReport("ibc_to_imac", strategy, out, gam)
    if not satisfies_received_power_order(net, order, power):
        order, power = normalize_imac_strategy(net, order, power)
    gam = gamma_imac(net, order, power)
    normalized_input = Strategy(side="imac", order=order, power=power)
    out = Strategy(side="ibc", order=order, power=_negated_gamma(power, gam))
    return DualizationReport("imac_to_ibc", normalized_input, out, gam)
