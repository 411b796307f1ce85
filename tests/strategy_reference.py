"""The Fraction strategy evaluators that the integer-lattice passes
replaced, kept as the reference that the passes and the grid oracle are
checked against, and the float finite-SNR evaluator that the log-domain
downlink pass replaced.

The bodies are the earlier ``strategies`` ones, copied verbatim (public
names given a ``_ref_`` prefix): every max, add and clip on ``Fraction``
objects, with ``-inf`` for an empty max and for a SILENT user.
:func:`_ref_bounds` picks the side for the tests.  :func:`_ref_sinr_rates_ibc`
sums the powers ``P**x`` themselves, so it raises ``OverflowError`` once a
single link's ``P**alpha`` leaves the float range.
"""

import math
from fractions import Fraction

from tincell.network import ChannelStrengths
from tincell.strategies import SILENT, DecodingOrder, FiniteSnrConfig, PowerAllocation, check_dimensions

NEG_INF = float("-inf")


def _cross_interference(net: ChannelStrengths, power: PowerAllocation, k0: int, obs_slot: int):
    """max over out-of-cell users (l_j, j) of alpha_kj[obs] + r_j[l_j] (downlink)."""
    best = NEG_INF
    row = net.alpha[k0][obs_slot - 1]
    for j0 in range(net.K):
        if j0 == k0:
            continue
        for x in power.r[j0]:
            if x is SILENT:
                continue
            v = row[j0] + x
            if v > best:
                best = v
    return best


def _ref_gamma_ibc(net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation) -> tuple:
    """Downlink effective interference level per user.

    For the user decoded at position ``l`` of cell ``k`` it aggregates the
    not-yet-cancelled same-cell powers and, over every same-cell observer at
    positions ``m >= l``, the clipped out-of-cell interference seen by that
    observer relative to its direct link.  Always nonnegative.

    One reverse pass per cell keeps both maxima over later positions, so
    each observer's out-of-cell interference is computed once.
    """
    check_dimensions(net, order, power)
    out = []
    for k0, perm in enumerate(order.pi):
        rows, r = net.alpha[k0], power.r[k0]
        per_slot = [None] * len(perm)
        later = NEG_INF  # max exponent decoded after the current position
        seen = NEG_INF  # max over observers at or after it of (cross)^+ - direct
        for u in reversed(perm):
            direct = rows[u - 1][k0]
            v = max(0, _cross_interference(net, power, k0, u)) - direct
            if v > seen:
                seen = v
            per_slot[u - 1] = direct + max(later, seen)
            x = r[u - 1]
            if x is not SILENT and x > later:
                later = x
        out.extend(per_slot)
    assert all(g >= 0 for g in out)
    return tuple(out)


def _ref_gamma_imac(net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation) -> tuple:
    """Uplink effective interference level per user (nonnegative).

    At the base station of cell ``k`` decoding position ``l``, the residual
    interference consists of same-cell users at earlier positions (decoded
    later) plus every out-of-cell user, clipped at the noise floor.  One
    forward pass per cell keeps that maximum running.
    """
    check_dimensions(net, order, power)
    out = []
    for k0, perm in enumerate(order.pi):
        inter = NEG_INF
        for j0, cell in enumerate(power.r):
            if j0 == k0:
                continue
            rows = net.alpha[j0]
            for lj, x in enumerate(cell):
                if x is not SILENT:
                    v = rows[lj][k0] + x
                    if v > inter:
                        inter = v
        rows, r = net.alpha[k0], power.r[k0]
        per_slot = [None] * len(perm)
        level = max(0, inter)
        for u in perm:
            per_slot[u - 1] = level
            x = r[u - 1]
            if x is not SILENT:
                v = rows[u - 1][k0] + x
                if v > level:
                    level = v
        out.extend(per_slot)
    return tuple(out)


_ZERO = Fraction(0)


def _bounds_from_gamma(net: ChannelStrengths, power: PowerAllocation, gamma: tuple) -> tuple:
    """``(direct + r - gamma)^+`` per user, 0 for SILENT users."""
    out = []
    i = 0
    for k0, cell in enumerate(power.r):
        rows = net.alpha[k0]
        for l0, x in enumerate(cell):
            if x is SILENT:
                out.append(_ZERO)
            else:
                out.append(max(_ZERO, rows[l0][k0] + x - gamma[i]))
            i += 1
    return tuple(out)


def _ref_bounds(net: ChannelStrengths, side: str, order: DecodingOrder, power: PowerAllocation) -> tuple:
    """``(direct + r - gamma)^+`` of either side, with the reference gamma."""
    gamma = (_ref_gamma_ibc if side == "ibc" else _ref_gamma_imac)(net, order, power)
    return _bounds_from_gamma(net, power, gamma)


def _ref_sinr_rates_ibc(
    net: ChannelStrengths,
    order: DecodingOrder,
    power: PowerAllocation,
    cfg: FiniteSnrConfig,
) -> tuple[tuple[float, float], ...]:
    """Finite-SNR downlink (SINR, rate) per user, rate in bits.

    Codeword powers are ``P**r / L_k`` (0 for SILENT users); each user's
    SINR is the worst over the same-cell observers that must decode its
    signal.
    """
    check_dimensions(net, order, power)
    P = float(cfg.P)
    q = [
        [0.0 if x is SILENT else (P ** float(x)) / net.L[k] for x in cell]
        for k, cell in enumerate(power.r)
    ]
    cell_q_sum = [sum(cell) for cell in q]
    out = []
    for k in range(1, net.K + 1):
        perm = order.pi[k - 1]
        Lk = len(perm)
        per_slot = [None] * Lk
        for l in range(1, Lk + 1):
            u = perm[l - 1]
            q_u = q[k - 1][u - 1]
            if q_u == 0.0:
                per_slot[u - 1] = (0.0, 0.0)
                continue
            sinr = math.inf
            for m in range(l, Lk + 1):
                obs = perm[m - 1]
                row = net.alpha[k - 1][obs - 1]
                gain = P ** float(row[k - 1])
                intra = sum(q[k - 1][perm[j - 1] - 1] for j in range(l + 1, Lk + 1))
                den = 1.0 + gain * intra
                for j0 in range(net.K):
                    if j0 != k - 1 and cell_q_sum[j0] > 0.0:
                        den += (P ** float(row[j0])) * cell_q_sum[j0]
                sinr = min(sinr, gain * q_u / den)
            per_slot[u - 1] = (sinr, math.log2(1.0 + sinr))
        out.extend(per_slot)
    return tuple(out)
