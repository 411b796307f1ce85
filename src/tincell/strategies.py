"""Evaluation of fixed multi-cell TIN strategies.

A strategy fixes, per cell, a successive-decoding order and, per user, a
transmit power exponent ``r <= 0`` (or ``SILENT`` for a user that is
allocated no power).  Downlink evaluation follows the superposition /
successive-decoding scheme in which the signal meant for the user decoded
at position ``l`` must be decodable by every user at positions ``m >= l``
of the same cell; uplink evaluation follows the reversed decode convention
in which the base station cancels later-position users first.

Conventions used throughout: a maximum over an empty index set is ``-inf``,
the clip ``(x)^+ = max(0, x)`` sends ``-inf`` to 0, and a ``SILENT`` user
contributes ``-inf`` wherever its power exponent would appear.

Per-user results (effective levels, GDoF bounds, SINRs) are returned as
tuples aligned with ``net.users()`` (cells ascending, slots ascending).

Exponents are read exactly: ints and Fractions as given, anything else
(a float goes through its decimal text) with ``as_fraction``.  Levels and
bounds are evaluated on one integer lattice: with ``E`` the lcm of the
strength and exponent denominators, every strength and exponent is an int
multiple of ``1/E``, and each max, add and clip runs on those ints.  Only
the results become ``Fraction(n, E)``: every downlink level, every uplink
level above the noise floor (a clipped one is the int 0), and every
positive bound (a zero bound is one shared ``Fraction(0)``).

The bound is written once per side, in :func:`_ibc_pass` and
:func:`_imac_pass`, which run here on ints with :func:`_max` / :func:`_min`
and in the grid oracle on numpy columns with ``np.maximum`` / ``np.minimum``.
On those lattices SILENT enters as ``-(largest lattice strength + 1)``,
which every link carries below zero, so the clip and the noise floor drop it
from every max, and a SILENT user's own unclipped bound is negative.

:func:`sinr_rates_ibc` runs :func:`_ibc_pass` once more, on floats in
``log_P`` units with log-add-exp in base ``P`` for the max.  There SILENT is
``-inf``, not the sentinel: a sentinel would still carry some power, and
log-add-exp, unlike the max, would count it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionMismatchError, NetworkFormatError
from .network import ChannelStrengths, _exact, _is_int, _is_int_lists, as_fraction, parse_decimal

#: Sentinel for a user that transmits nothing / is allocated no power.
SILENT = None

PowerExponent = Optional[Fraction]  # None == SILENT


@dataclass(frozen=True)
class DecodingOrder:
    """Per-cell decode permutations: ``pi[k][pos]`` is the slot decoded at
    position ``pos + 1`` in cell ``k + 1`` (downlink convention)."""

    pi: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for k, perm in enumerate(self.pi):
            if sorted(perm) != list(range(1, len(perm) + 1)):
                raise ValueError(f"cell {k + 1}: {perm} is not a permutation of 1..{len(perm)}")

    @staticmethod
    def identity(L: Sequence[int]) -> "DecodingOrder":
        return DecodingOrder(tuple(tuple(range(1, lk + 1)) for lk in L))


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user power exponents, nested like the strength tensor:
    ``r[k][l]`` is the exponent of user ``(l + 1, k + 1)`` or ``SILENT``.

    Ints and Fractions are kept as given; any other exponent is read with
    :func:`~tincell.network.as_fraction` (a float through its decimal text).
    """

    r: tuple[tuple[PowerExponent, ...], ...]

    def __post_init__(self):
        r = tuple(
            tuple(x if x is SILENT or type(x) is int or isinstance(x, Fraction) else as_fraction(x)
                  for x in cell)
            for cell in self.r
        )
        object.__setattr__(self, "r", r)
        for k, cell in enumerate(r):
            for l, x in enumerate(cell):
                if x is not SILENT and x.numerator > 0:
                    raise ValueError(f"user ({l + 1},{k + 1}): exponent {x} must be <= 0")

    @staticmethod
    def all_silent(L: Sequence[int]) -> "PowerAllocation":
        return PowerAllocation(tuple(tuple(SILENT for _ in range(lk)) for lk in L))

    def of(self, cell: int, slot: int) -> PowerExponent:
        return self.r[cell - 1][slot - 1]


@dataclass(frozen=True)
class Strategy:
    """A complete TIN strategy: link direction, decode order and powers."""

    side: str  # "ibc" (downlink) or "imac" (uplink)
    order: DecodingOrder
    power: PowerAllocation

    def __post_init__(self):
        if self.side not in ("ibc", "imac"):
            raise ValueError(f"side must be 'ibc' or 'imac', got {self.side!r}")


@dataclass(frozen=True)
class FiniteSnrConfig:
    """Nominal power for finite-SNR rate evaluation; rates are in bits (log base 2)."""

    P: float

    def __post_init__(self):
        if not 1 < self.P < math.inf:
            raise ValueError("nominal power P must exceed 1 and be finite")


def check_dimensions(net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation) -> None:
    if tuple(map(len, order.pi)) != net.L:
        raise DimensionMismatchError(f"order shape {[len(p) for p in order.pi]} != L {list(net.L)}")
    if tuple(map(len, power.r)) != net.L:
        raise DimensionMismatchError(f"power shape {[len(c) for c in power.r]} != L {list(net.L)}")


@functools.lru_cache(maxsize=256)
def _silent_level(ints) -> int:
    """The SILENT sentinel ``-(largest strength + 1)`` on a lattice of
    strengths ``ints`` (nested tuples, so that the value is cached)."""
    return -1 - max(max(row) for cell in ints for row in cell)


def _on_lattice(net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation):
    """``(E, ints, r, neg)`` after the dimension check: the strengths and the
    exponents (nested like ``power.r``) as Python ints on one lattice of step
    ``1/E``, with SILENT replaced by the sentinel ``neg``."""
    check_dimensions(net, order, power)
    E, ints = net.lattice(*[x.denominator for cell in power.r for x in cell if x is not SILENT])
    neg = _silent_level(ints)
    r = [[neg if x is SILENT else x.numerator * (E // x.denominator) for x in cell] for cell in power.r]
    return E, ints, r, neg


def _max(a, b):
    return a if a > b else b


def _min(a, b):
    return a if a < b else b


def _ibc_pass(pi, ints, r, neg, mx, mn):
    """``(received, pre)`` of a downlink strategy, flat in user order:
    ``direct + r`` and the bound before its clip, the min over same-cell
    observers ``m`` at or after the user's position of ``(direct(m) + r) -
    max(direct(m) + later, cross(m)^+)``.  ``later`` is the largest exponent
    decoded after the user; ``cross(m)``, computed once per observer, is its
    cross strength plus the largest exponent of each other cell.

    ``mx`` / ``mn`` are the max and min, and ``neg`` is SILENT: on ints and
    numpy columns the max itself and the lattice sentinel; for finite-SNR
    rates log-add-exp in base ``P`` and ``-inf``, which turn every max into
    ``log_P`` of a sum of powers (the 0 that ``cross`` starts from is the
    unit noise), so ``pre`` is ``log_P`` of the SINR."""
    tops = [functools.reduce(mx, cell) for cell in r]
    received, pre = [], []
    for k0, (perm, rows, rk) in enumerate(zip(pi, ints, r)):
        observers = []  # (direct, cross^+) in decode order
        for m in perm:
            row, cross = rows[m - 1], 0
            for j0, t in enumerate(tops):
                if j0 != k0:
                    cross = mx(cross, row[j0] + t)
            observers.append((row[k0], cross))
        rec, b = [None] * len(perm), [None] * len(perm)
        later = neg
        for pos in range(len(perm) - 1, -1, -1):
            u0 = perm[pos] - 1
            x = rk[u0]
            a, c = observers[pos]
            rec[u0] = a + x
            best = (a + x) - mx(a + later, c)
            for a, c in observers[pos + 1:]:
                best = mn(best, (a + x) - mx(a + later, c))
            b[u0] = best
            later = mx(later, x)
        received += rec
        pre += b
    return received, pre


def _imac_pass(pi, ints, r, neg, mx, mn):
    """As :func:`_ibc_pass` (whose signature it shares), uplink: the bound
    is ``received - level``, with ``level`` the largest of the noise floor,
    the out-of-cell received powers and the same-cell ones decoded before."""
    received, pre = [], []
    for k0, perm in enumerate(pi):
        level = 0  # the noise floor
        for j0, (rows, cell) in enumerate(zip(ints, r)):
            if j0 != k0:
                for row, x in zip(rows, cell):
                    level = mx(level, row[k0] + x)
        rows, rk = ints[k0], r[k0]
        rec, b = [None] * len(perm), [None] * len(perm)
        for u in perm:
            rec[u - 1] = p = rows[u - 1][k0] + rk[u - 1]
            b[u - 1] = p - level
            level = mx(level, p)
        received += rec
        pre += b
    return received, pre


def gamma_ibc(net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation) -> tuple:
    """Downlink effective interference level per user.

    For the user decoded at position ``l`` of cell ``k`` it aggregates the
    not-yet-cancelled same-cell powers and, over every same-cell observer at
    positions ``m >= l``, the clipped out-of-cell interference seen by that
    observer relative to its direct link.  Always nonnegative.
    """
    E, ints, r, neg = _on_lattice(net, order, power)
    received, pre = _ibc_pass(order.pi, ints, r, neg, _max, _min)
    gamma = [p - b for p, b in zip(received, pre)]
    assert all(g >= 0 for g in gamma)
    return tuple(Fraction(g, E) for g in gamma)


def gamma_imac(net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation) -> tuple:
    """Uplink effective interference level per user (nonnegative).

    At the base station of cell ``k`` decoding position ``l``, the residual
    interference consists of same-cell users at earlier positions (decoded
    later) plus every out-of-cell user, clipped at the noise floor, where
    the level is the int 0.
    """
    E, ints, r, neg = _on_lattice(net, order, power)
    received, pre = _imac_pass(order.pi, ints, r, neg, _max, _min)
    return tuple(Fraction(p - b, E) if p != b else 0 for p, b in zip(received, pre))


_ZERO = Fraction(0)


def _bounds(E: int, pre: list) -> tuple:
    """``(direct + r - gamma)^+`` per user, 0 for SILENT users."""
    return tuple([_ZERO if b <= 0 else Fraction(b, E) for b in pre])


def gdof_bounds_ibc(net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation) -> tuple:
    """Componentwise-largest downlink GDoF tuple achievable with the strategy.

    Each user gets ``(direct + r - gamma)^+`` with ``gamma`` from
    :func:`gamma_ibc`, which equals the min over same-cell observers
    ``m >= l`` of the observer's direct strength plus the user's exponent
    minus the dominant interference-plus-residual term.  SILENT users get 0.
    """
    E, ints, r, neg = _on_lattice(net, order, power)
    _, pre = _ibc_pass(order.pi, ints, r, neg, _max, _min)
    return _bounds(E, pre)


def gdof_bounds_imac(net: ChannelStrengths, order: DecodingOrder, power: PowerAllocation) -> tuple:
    """Componentwise-largest uplink GDoF tuple achievable with the strategy:
    ``(direct + r - gamma)^+`` with ``gamma`` from :func:`gamma_imac`, and 0
    for SILENT users."""
    E, ints, r, neg = _on_lattice(net, order, power)
    _, pre = _imac_pass(order.pi, ints, r, neg, _max, _min)
    return _bounds(E, pre)


def gdof_bounds(net: ChannelStrengths, strategy: Strategy) -> tuple:
    """Per-user GDoF bounds for the strategy's own side."""
    f = gdof_bounds_ibc if strategy.side == "ibc" else gdof_bounds_imac
    return f(net, strategy.order, strategy.power)


def achievable_with_strategy(net: ChannelStrengths, strategy: Strategy, d: Sequence) -> bool:
    """True iff ``d`` lies below the strategy's per-user bounds componentwise;
    ``d`` is read as :func:`~tincell.regions.contains` reads it."""
    bounds = gdof_bounds(net, strategy)
    if len(d) != len(bounds):
        raise DimensionMismatchError(f"tuple of length {len(d)}, expected {len(bounds)}")
    return all(di <= bi for di, bi in zip(_exact(d), bounds))


def _log_add(lnP: float):
    """Two-argument log-add-exp in base ``P = e**lnP``: ``log_P(P**a +
    P**b)``, with ``-inf`` (no power) as its identity."""

    def add(a, b):
        if a < b:
            a, b = b, a
        if b == -math.inf:
            return a
        return a + math.log1p(math.exp((b - a) * lnP)) / lnP

    return add


def sinr_rates_ibc(
    net: ChannelStrengths,
    order: DecodingOrder,
    power: PowerAllocation,
    cfg: FiniteSnrConfig,
) -> tuple[tuple[float, float], ...]:
    """Finite-SNR downlink (SINR, rate) per user, rate in bits.

    Codeword powers are ``P**r / L_k`` (0 for SILENT users); each user's
    SINR is the worst over the same-cell observers that must decode its
    signal.  This is :func:`_ibc_pass` in ``log_P`` units: float strengths,
    exponents ``r - log_P(L_k)``, SILENT as ``-inf`` and log-add-exp for
    the max, so each user's ``pre`` is ``log_P`` of its SINR.  A SILENT
    user's ``pre`` is ``-inf``, and ``P ** -inf`` gives it ``(0.0, 0.0)``.

    No power is formed on the way, so a link whose ``P**alpha`` is beyond
    the float range is fine.  What still raises: a shape that does not
    match ``net`` (``DimensionMismatchError``), and ``OverflowError`` for a
    strength or exponent beyond the float range or for a reported SINR
    ``P ** pre`` above it.
    """
    check_dimensions(net, order, power)
    P = float(cfg.P)
    lnP = math.log(P)
    r = [
        [-math.inf if x is SILENT else float(x) - math.log(len(cell)) / lnP for x in cell]
        for cell in power.r
    ]
    _, pre = _ibc_pass(order.pi, net.floats(), r, -math.inf, _log_add(lnP), min)
    sinrs = [P ** p for p in pre]
    return tuple((s, math.log2(1.0 + s)) for s in sinrs)


# ---------------------------------------------------------------------------
# strategy file format


def parse_strategy(text: str, net: ChannelStrengths) -> Strategy:
    """Parse the JSON strategy format: side, 1-based per-cell order, powers
    with ``"off"`` marking SILENT users."""
    try:
        doc = json.loads(text, parse_float=parse_decimal, parse_int=int)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or {"side", "order", "r"} - doc.keys():
        raise NetworkFormatError('strategy file needs keys "side", "order", "r"')
    side = doc["side"]
    if side not in ("ibc", "imac"):
        raise NetworkFormatError(f'side must be "ibc" or "imac", got {side!r}')
    perms, cells = doc["order"], doc["r"]
    for key, value in (("order", perms), ("r", cells)):
        if not isinstance(value, list) or not all(isinstance(cell, list) for cell in value):
            raise NetworkFormatError(f'"{key}" must be a list of per-cell lists')
    if not _is_int_lists(perms):
        raise NetworkFormatError("decoding order entries must be integers")
    try:
        order = DecodingOrder(tuple(tuple(perm) for perm in perms))
    except ValueError as exc:
        raise NetworkFormatError(f"bad decoding order: {exc}") from exc
    rows = []
    for cell in cells:
        row = []
        for x in cell:
            if x == "off":
                row.append(SILENT)
            elif _is_int(x) or isinstance(x, Fraction):
                row.append(as_fraction(x))
            else:
                raise NetworkFormatError(f'power entry must be a number or "off", got {x!r}')
        rows.append(tuple(row))
    try:
        power = PowerAllocation(tuple(rows))
    except ValueError as exc:
        raise NetworkFormatError(str(exc)) from exc
    strategy = Strategy(side=side, order=order, power=power)
    check_dimensions(net, order, power)
    return strategy


def strategy_to_dict(strategy: Strategy) -> dict:
    return {
        "side": strategy.side,
        "order": [list(p) for p in strategy.order.pi],
        "r": [["off" if x is SILENT else float(x) for x in cell] for cell in strategy.power.r],
    }
