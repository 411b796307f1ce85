"""Seeded generators for random networks and strategies.

All strengths are drawn from a centi-grid (integer multiples of 1/100) so
exact rational arithmetic downstream stays cheap and any sampled value is
reproducible from the seed alone.  Rejection samplers bias their proposal
ranges toward the target regime; the acceptance test is always the real
classifier, never the proposal itself.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .network import ChannelStrengths
from .regions import RegimeLabel, classify_regime, ia_sum_gdof
from .strategies import SILENT, DecodingOrder, PowerAllocation, Strategy


_MAX_TRIES = 20000


def _grid_value(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    return Fraction(rng.randint(int(lo * 100), int(hi * 100)), 100)


def random_network(
    rng: random.Random,
    K: int,
    L,
    direct_range=(Fraction(0), Fraction(2)),
    cross_range=(Fraction(0), Fraction(2)),
) -> ChannelStrengths:
    """Network with direct links sorted ascending per cell, all entries on
    the centi-grid within the given ranges."""
    rows = []
    for k in range(K):
        directs = sorted(_grid_value(rng, *direct_range) for _ in range(L[k]))
        cell = []
        for l in range(L[k]):
            row = [
                directs[l] if i == k else _grid_value(rng, *cross_range)
                for i in range(K)
            ]
            cell.append(row)
        rows.append(cell)
    return ChannelStrengths.from_rows(K, list(L), rows)


def random_dims(rng: random.Random):
    """2 or 3 cells of 1 to 3 users each."""
    K = rng.choice([2, 3])
    return K, [rng.randint(1, 3) for _ in range(K)]


def random_strategy(rng: random.Random, net: ChannelStrengths, side: str) -> Strategy:
    """Uniform decode orders; exponents on the 1/20 grid in [-2, 0], with
    each user independently silenced with probability 0.15."""
    pi = []
    for lk in net.L:
        perm = list(range(1, lk + 1))
        rng.shuffle(perm)
        pi.append(tuple(perm))
    r = []
    for lk in net.L:
        row = []
        for _ in range(lk):
            if rng.random() < 0.15:
                row.append(SILENT)
            else:
                row.append(Fraction(-rng.randint(0, 40), 20))
        r.append(tuple(row))
    return Strategy(side=side, order=DecodingOrder(tuple(pi)), power=PowerAllocation(tuple(r)))


def sample_ctin_network(rng: random.Random, K: int, L) -> ChannelStrengths:
    """Rejection-sample until the convex-regime conditions hold."""
    for _ in range(_MAX_TRIES):
        net = random_network(
            rng,
            K,
            L,
            direct_range=(Fraction(1), Fraction(2)),
            cross_range=(Fraction(0), Fraction(1, 2)),
        )
        if classify_regime(net) in (RegimeLabel.TIN, RegimeLabel.CTIN_ONLY):
            return net
    raise RuntimeError("no convex-regime network found within the try budget")


def sample_tin_network(rng: random.Random, K: int, L) -> ChannelStrengths:
    """Rejection-sample until the strict (TIN-optimal) conditions hold."""
    for _ in range(_MAX_TRIES):
        net = random_network(
            rng,
            K,
            L,
            direct_range=(Fraction(1), Fraction(2)),
            cross_range=(Fraction(0), Fraction(2, 5)),
        )
        if classify_regime(net) is RegimeLabel.TIN:
            return net
    raise RuntimeError("no strict-regime network found within the try budget")


def sample_ia_applicable_network(rng: random.Random) -> ChannelStrengths:
    """2-cell (2, 1) network where the alignment gain is strictly positive.

    The proposal picks the stronger user's direct link so that both strict
    branch violations and the convex-regime margin hold by construction,
    then re-verifies with the real applicability check.
    """
    for _ in range(_MAX_TRIES):
        a1 = _grid_value(rng, Fraction(4, 5), Fraction(6, 5))
        a2 = _grid_value(rng, Fraction(3, 10), Fraction(3, 5))
        b2 = _grid_value(rng, a2 / 2 + Fraction(1, 100), a2)
        g_lo = max(a2 - b2, Fraction(1, 100))
        g_hi = b2 - Fraction(1, 100)
        if g_hi < g_lo:
            continue
        gap = _grid_value(rng, g_lo, g_hi)
        b1 = a1 - a2 + b2 + gap
        g1 = _grid_value(rng, Fraction(0), a1 - a2)
        if g1 + a2 > 2:
            continue
        g2 = _grid_value(rng, g1 + a2, Fraction(2))
        net = ChannelStrengths.from_rows(
            2, [2, 1], [[[a1, a2], [b1, b2]], [[g1, g2]]]
        )
        if ia_sum_gdof(net).applicable:
            return net
    raise RuntimeError("no alignment-applicable network found within the try budget")
