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
    _on_lattice,
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
    order, so by default the strategy is first normalized with
    :func:`normalize_imac_strategy` (a no-op when the order holds), and the
    returned allocation pairs with the normalized decode order.  Pass
    ``normalize=False`` to dualize the raw strategy as-is.
    """
    if normalize:
        order, power = normalize_imac_strategy(net, order, power)
    return _negated_gamma(power, gamma_imac(net, order, power))


def _received_chains(net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation):
    """Per cell, its decode chain as ``(slot, received power)`` pairs on the
    strategy's integer lattice; a SILENT user receives ``-inf``."""
    _, ints, r, _ = _on_lattice(net, order, power)
    return [
        [(s, float("-inf") if cell[s - 1] is SILENT else ints[k0][s - 1][k0] + r[k0][s - 1]) for s in perm]
        for k0, (perm, cell) in enumerate(zip(order.pi, power.r))
    ]


def satisfies_received_power_order(
    net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation
) -> bool:
    """True iff received powers are non-decreasing along each decode chain.

    The received power of the user at position ``l`` is its direct strength
    plus its exponent, with SILENT counting as ``-inf`` (so SILENT users may
    only sit at the front of the chain).
    """
    return all(
        b >= a
        for chain in _received_chains(net, order, power)
        for (_, a), (_, b) in zip(chain, chain[1:])
    )


def normalize_imac_strategy(
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
    :func:`satisfies_received_power_order`.  When nothing changes, the
    inputs themselves are returned.
    """
    pi, r = [], []
    for cell, chain in zip(power.r, _received_chains(net, order, power)):
        row = list(cell)
        silenced, kept = [], []
        top = float("-inf")
        for slot, p in chain:
            if row[slot - 1] is not SILENT and p >= top:
                kept.append(slot)
                top = p
            else:
                silenced.append(slot)
                row[slot - 1] = SILENT
        pi.append(tuple(silenced + kept))
        r.append(tuple(row))
    if tuple(pi) == order.pi and tuple(r) == power.r:
        return order, power
    return DecodingOrder(tuple(pi)), PowerAllocation(tuple(r))


@dataclass(frozen=True)
class DualizationReport:
    """Input/output of one dualization, with the levels that drove it."""

    direction: str  # "ibc_to_imac" or "imac_to_ibc"
    input_strategy: Strategy
    output_strategy: Strategy
    gamma: tuple  # per-user effective levels of the source strategy

    def __post_init__(self):
        for cell in self.output_strategy.power.r:
            assert all(x is SILENT or x.numerator <= 0 for x in cell)


def dualize(net: ChannelStrengths, strategy: Strategy) -> DualizationReport:
    """Dualize a full strategy to the other side and report the details."""
    order, power = strategy.order, strategy.power
    if strategy.side == "ibc":
        gam = gamma_ibc(net, order, power)
        out = Strategy(side="imac", order=order, power=_negated_gamma(power, gam))
        return DualizationReport("ibc_to_imac", strategy, out, gam)
    order, power = normalize_imac_strategy(net, order, power)
    gam = gamma_imac(net, order, power)
    out = Strategy(side="ibc", order=order, power=_negated_gamma(power, gam))
    return DualizationReport("imac_to_ibc", Strategy("imac", order, power), out, gam)
