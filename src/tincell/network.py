"""K-cell channel-strength data: parsing, validation and canonical ordering.

A network is described by exponents ``alpha[(cell k, slot l), tx cell i]``:
the power gain of the link from base station ``i`` to user ``(l, k)`` scales
as ``P ** alpha``.  Strengths are kept as exact :class:`~fractions.Fraction`
values whenever the input was decimal text, so that every downstream region
and regime comparison can be carried out without rounding.

Indices are 1-based in the API (``cell`` in ``1..K``, ``slot`` in
``1..L_k``); the JSON file format uses 0-based nested arrays (documented in
the README).
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .errors import NetworkFormatError

Number = Union[int, float, Fraction]


MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*$")


def parse_decimal(text: str) -> Fraction:
    """``Fraction(text)``, refusing a decimal exponent beyond ``MAX_DECIMAL_EXPONENT``.

    ``Fraction`` expands the exponent eagerly: ``1e-999999`` takes a fraction
    of a second and every further digit about 60 times longer.  No GDoF
    input comes near the cap, so such a token is refused before parsing.
    """
    if "e" in text or "E" in text:
        m = _EXPONENT.search(text)
        if m:
            digits = m.group(1).replace("_", "").lstrip("0")
            if len(digits) > 4 or int(digits or "0") > MAX_DECIMAL_EXPONENT:
                raise NetworkFormatError(
                    f"number {text.strip()[:40]!r} has a decimal exponent beyond "
                    f"{MAX_DECIMAL_EXPONENT} in magnitude"
                )
    return Fraction(text)


class UserId(NamedTuple):
    """One user equipment, identified by its cell and in-cell slot (1-based)."""

    cell: int
    slot: int


def as_fraction(value) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Strings and floats are routed through their decimal text form, so
    ``as_fraction(0.6) == Fraction(3, 5)`` rather than the binary float.
    A float subclass such as ``numpy.float64`` is read through the same
    text (``float.__repr__``, not its own ``repr``), and an integer scalar
    such as ``numpy.int64`` through ``operator.index``.  NaN and infinities
    raise ``ValueError``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{float.__repr__(value)} is not a finite number")
        return Fraction(float.__repr__(value))
    if isinstance(value, str):
        return parse_decimal(value)
    try:
        return Fraction(operator.index(value))
    except TypeError:
        raise TypeError(f"cannot interpret {value!r} as an exact rational") from None


def _exact(d: Sequence) -> list:
    """The coordinates of ``d`` as ints and Fractions; any other value is
    read with :func:`as_fraction` (a float through its decimal text, NaN and
    infinities refused)."""
    return [x if type(x) is int or type(x) is Fraction else as_fraction(x) for x in d]


def _fraction_to_text(x: Fraction) -> str:
    """Exact decimal text for terminating fractions, shortest float repr otherwise."""
    den = x.denominator
    d = den
    for p in (2, 5):
        while d % p == 0:
            d //= p
    if d != 1:
        return repr(float(x))
    # scale to a power of ten
    exp = 0
    num = x.numerator
    den = x.denominator
    while den % 10 == 0:
        den //= 10
        exp += 1
    while den % 2 == 0:
        den //= 2
        num *= 5
        exp += 1
    while den % 5 == 0:
        den //= 5
        num *= 2
        exp += 1
    if exp == 0:
        return str(num)
    sign = "-" if num < 0 else ""
    digits = str(abs(num)).rjust(exp + 1, "0")
    return f"{sign}{digits[:-exp]}.{digits[-exp:]}"


@dataclass(frozen=True)
class ChannelStrengths:
    """Immutable strength-exponent tensor for a K-cell network.

    ``alpha[k][l][i]`` (0-based) is the exponent of the link from base
    station ``i+1`` to user ``(l+1, k+1)``.  Entries are nonnegative
    Fractions; negative inputs are clamped to zero on construction.
    """

    K: int
    L: tuple[int, ...]
    alpha: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @staticmethod
    def from_rows(K: int, L: Sequence[int], alpha: Sequence[Sequence[Sequence[Number]]]) -> "ChannelStrengths":
        K, L = operator.index(K), tuple(map(operator.index, L))  # numpy ints become ints
        if K < 1 or len(L) != K or any(lk < 1 for lk in L):
            raise NetworkFormatError(f"invalid dimensions K={K}, L={list(L)}")
        if len(alpha) != K:
            raise NetworkFormatError(f"alpha has {len(alpha)} cells, expected {K}")
        rows = []
        for k in range(K):
            if len(alpha[k]) != L[k]:
                raise NetworkFormatError(
                    f"cell {k + 1}: {len(alpha[k])} strength rows, expected {L[k]}"
                )
            cell_rows = []
            for l in range(L[k]):
                row = alpha[k][l]
                if len(row) != K:
                    raise NetworkFormatError(
                        f"cell {k + 1}, slot {l + 1}: row of length {len(row)}, expected {K}"
                    )
                cell_rows.append(tuple(max(Fraction(0), as_fraction(a)) for a in row))
            rows.append(tuple(cell_rows))
        return ChannelStrengths(K=K, L=L, alpha=tuple(rows))

    def users(self) -> tuple[UserId, ...]:
        """All users in canonical order: cells ascending, slots ascending.

        The tuple is built once per network object and shared by every call.
        """
        return self._users

    @functools.cached_property
    def _users(self) -> tuple[UserId, ...]:
        return tuple(UserId(k, l) for k in range(1, self.K + 1) for l in range(1, self.L[k - 1] + 1))

    @property
    def n_users(self) -> int:
        return sum(self.L)

    def strength(self, rx_cell: int, slot: int, tx_cell: int) -> Fraction:
        """Exponent of the link from base station ``tx_cell`` to user ``(slot, rx_cell)``."""
        return self.alpha[rx_cell - 1][slot - 1][tx_cell - 1]

    def direct(self, cell: int, slot: int) -> Fraction:
        """Exponent of the user's own-cell (direct) link."""
        return self.strength(cell, slot, cell)

    def max_strength(self) -> Fraction:
        return max(a for cell in self.alpha for row in cell for a in row)

    @functools.cached_property
    def scaled(self) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
        """``(D, ints)``: ``D`` is the lcm of all strength denominators and
        ``ints[k][l][i] == alpha[k][l][i] * D`` as Python ints.

        Computed once per network object; equality, hashing and ``repr``
        read the fields only, so the cached value never shows there.
        """
        D = math.lcm(*(a.denominator for cell in self.alpha for row in cell for a in row))
        ints = tuple(
            tuple(tuple(a.numerator * (D // a.denominator) for a in row) for row in cell)
            for cell in self.alpha
        )
        return D, ints

    @functools.cached_property
    def _blocks(self) -> dict:
        """Constraint blocks that :func:`~tincell.regions.polyhedral_region`
        shares between the regions of this network, created empty per
        network object; like :attr:`scaled`, it never shows in equality,
        hashing or ``repr``."""
        return {}

    def lattice(self, *denominators: int) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
        """``(E, ints)`` with ``E = lcm(D, *denominators)`` and the strengths
        times ``E`` as Python ints, so that values with those denominators
        join the strengths on one integer lattice.  When ``E == D`` this is
        :attr:`scaled` itself."""
        D, ints = self.scaled
        E = math.lcm(D, *denominators)
        if E == D:
            return D, ints
        f = E // D
        return E, tuple(tuple(tuple(a * f for a in row) for row in cell) for cell in ints)

    def floats(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        """Float view of the tensor (derived on demand; storage stays exact)."""
        return tuple(tuple(tuple(float(a) for a in row) for row in cell) for cell in self.alpha)


@dataclass(frozen=True)
class CanonicalizationRecord:
    """Per-cell slot relabeling applied by :func:`canonicalize`.

    ``maps[k][orig_slot - 1]`` is the new (1-based) slot of the user that
    occupied ``orig_slot`` in cell ``k+1``.
    """

    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for m in self.maps:
            if sorted(m) != list(range(1, len(m) + 1)):
                raise ValueError(f"not a permutation: {m}")


def _is_int(x) -> bool:
    """JSON integer check; bool is a subclass of int, so exclude it."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_lists(doc) -> bool:
    """True iff ``doc`` is a JSON list of lists of integers (per-cell slots)."""
    return isinstance(doc, list) and all(
        isinstance(cell, list) and all(_is_int(x) for x in cell) for cell in doc
    )


def parse_network(text: str) -> ChannelStrengths:
    """Parse a JSON network description into a :class:`ChannelStrengths`.

    Negative entries are clamped to zero.  Ordering of direct links is not
    enforced here; use :func:`validate` / :func:`canonicalize`.
    """
    try:
        doc = json.loads(text, parse_float=parse_decimal, parse_int=int)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NetworkFormatError("top-level value must be an object")
    missing = {"K", "L", "alpha"} - doc.keys()
    if missing:
        raise NetworkFormatError(f"missing keys: {sorted(missing)}")
    K = doc["K"]
    L = doc["L"]
    alpha = doc["alpha"]
    if not _is_int(K) or not isinstance(L, list) or not all(_is_int(x) for x in L):
        raise NetworkFormatError("K must be an integer and L a list of integers")
    if not isinstance(alpha, list):
        raise NetworkFormatError("alpha must be a nested list")
    for cell in alpha:
        if not isinstance(cell, list) or not all(isinstance(row, list) for row in cell):
            raise NetworkFormatError("alpha must be a 3-level nested list")
        for row in cell:
            for a in row:
                if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
                    raise NetworkFormatError(f"non-numeric strength entry: {a!r}")
    return ChannelStrengths.from_rows(K, L, alpha)


def serialize_network(net: ChannelStrengths) -> str:
    """Emit the JSON form of a network; exact decimals round-trip unchanged."""
    rows = []
    for cell in net.alpha:
        rows.append("[" + ", ".join(
            "[" + ", ".join(_fraction_to_text(a) for a in row) + "]" for row in cell
        ) + "]")
    return (
        '{"K": ' + str(net.K)
        + ', "L": ' + json.dumps(list(net.L))
        + ', "alpha": [' + ", ".join(rows) + "]}"
    )


def validate(net: ChannelStrengths) -> list[tuple[int, int, int]]:
    """Check the ascending-direct-link convention in every cell.

    Returns a list of violations ``(cell, slot, slot + 1)`` where the direct
    strength decreases; an empty list means the network is well ordered.
    Violations are data, not faults: nothing is raised.
    """
    violations = []
    for k in range(1, net.K + 1):
        for l in range(1, net.L[k - 1]):
            if net.direct(k, l) > net.direct(k, l + 1):
                violations.append((k, l, l + 1))
    return violations


def canonicalize(net: ChannelStrengths) -> tuple[ChannelStrengths, CanonicalizationRecord]:
    """Stably sort users of every cell by ascending direct-link strength.

    Each user's whole cross-strength row moves with it.  Equal direct
    strengths keep their original relative order, so the operation is
    idempotent.
    """
    new_alpha = []
    maps = []
    for k in range(net.K):
        order = sorted(range(net.L[k]), key=lambda l: (net.alpha[k][l][k], l))
        new_alpha.append(tuple(net.alpha[k][l] for l in order))
        new_slot = [0] * net.L[k]
        for pos, orig in enumerate(order):
            new_slot[orig] = pos + 1
        maps.append(tuple(new_slot))
    canonical = ChannelStrengths(K=net.K, L=net.L, alpha=tuple(new_alpha))
    return canonical, CanonicalizationRecord(maps=tuple(maps))
