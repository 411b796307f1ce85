"""Brute-force ground truth by exhaustive strategy enumeration.

Every per-cell decode order is combined with every assignment of power
exponents from the grid ``{0, -step, ..., -depth} + {SILENT}``; the
per-strategy GDoF bounds are collected.  They come from the strategy
evaluators' own passes (``strategies._ibc_pass`` / ``_imac_pass``), run on
numpy columns, one per user, with ``np.maximum`` / ``np.minimum``.  In
exact mode all strengths and grid levels are rescaled to a common integer
lattice, so bound arithmetic (max / min / add / clip) stays exact while
running as vectorized int64 numpy; float mode runs the same code on
float64 with dedup at 1e-12.

An exponent below ``-max strength`` is clipped to 0 by every bound's
positive part, exactly like SILENT, so the default depth
``max strength + 1`` loses nothing.  The lattice folds all such levels
into its single SILENT level (the passes' sentinel ``-(max strength + 1)``
in both modes, below every kept level), and they are never enumerated; the
strategy count and the budget check still count the caller's grid, and the
returned points are the same.

The mesh of exponent assignments is open: each user's levels lie on an
axis of their own, and numpy broadcasting spans the mesh inside the
passes, so no flat ``levels^n`` column is built and a bound that depends
on few users stays small.  A mesh of more than ``_CHUNK`` rows is cut into
chunks by taking the leading users out as scalars; the rows of the chunks
in turn are in radix order (user 0 slowest), as a flat mesh would have them.

Exact points are deduplicated on one int64 key per bound row,
``sum(b_u * (top + 1)**u)`` with ``top`` the largest scaled strength (each
clipped bound lies in ``[0, top]``), by one ``np.unique`` per chunk over
every decode order; sorted keys are the rows in ``lexsort`` order, and
``divmod`` by ``top + 1`` reads them back.  Float mode, and an exact
lattice whose ``(top + 1)**n`` passes int64, stack the rows and dedup them
with a lexsort and an adjacent-row compare.  The exact maximum and the
dominance test run on the broadcast columns themselves; the float maximum
keeps stacked rows and a matrix product.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .network import ChannelStrengths, as_fraction
from .strategies import _ibc_pass, _imac_pass, _silent_level

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 20
_MAX_DENOMINATOR = 10**7


@dataclass(frozen=True)
class GridSpec:
    """Exponent search grid: multiples of ``step`` down to ``-depth``, plus SILENT."""

    step: Fraction
    depth: Fraction

    def __post_init__(self):
        object.__setattr__(self, "step", as_fraction(self.step))
        object.__setattr__(self, "depth", as_fraction(self.depth))
        if not (0 < self.step <= self.depth):
            raise ValueError("need 0 < step <= depth")

    def n_levels(self) -> int:
        """Number of exponent levels including SILENT."""
        return int(self.depth / self.step) + 2


def default_grid(net: ChannelStrengths) -> GridSpec:
    return GridSpec(step=Fraction(1, 20), depth=net.max_strength() + 1)


def strategy_count(net: ChannelStrengths, grid: GridSpec) -> int:
    orders = 1
    for lk in net.L:
        orders *= math.factorial(lk)
    return orders * grid.n_levels() ** net.n_users


def _check_budget(net: ChannelStrengths, grid: GridSpec, budget: int) -> None:
    count = strategy_count(net, grid)
    if count > budget:
        raise BudgetExceededError(count, budget)


class _Lattice:
    """Scaled arrays shared by all enumeration passes."""

    def __init__(self, net: ChannelStrengths, grid: GridSpec, mode: str):
        if mode not in ("exact", "float"):
            raise ValueError("mode must be 'exact' or 'float'")
        self.net = net
        self.n = net.n_users
        q = int(grid.depth / grid.step)
        if mode == "exact":
            D, self.alpha = net.lattice(grid.step.denominator)
            if D > _MAX_DENOMINATOR:
                raise PreconditionError(
                    "strengths and grid step are not commensurate enough for "
                    "exact mode; use float mode"
                )
            self.scale = D
            levels = (-int(grid.step * D)) * np.arange(q + 1, dtype=np.int64)
        else:
            self.scale = None
            self.alpha = net.floats()
            levels = (-float(grid.step)) * np.arange(q + 1, dtype=np.float64)
        # largest strength, which also caps every bound
        self.top = max(a for cell in self.alpha for row in cell for a in row)
        self.neg = _silent_level(self.alpha)
        # A level with top + r < 0 is clipped to 0 by every max(0, .) in both
        # passes, exactly like SILENT, so all such levels fold into SILENT.
        self.levels = np.append(levels[self.top + levels >= 0], self.neg)

    def iter_r_chunks(self):
        """Yield the exponent columns, one per user, of each mesh chunk in
        radix order.  The trailing users lie on an open mesh (user ``i`` on
        its own axis), so the columns broadcast to the chunk's rows in radix
        order; while that mesh would pass ``_CHUNK`` rows, the leading users
        are scalars, one chunk per combination of their levels.  A last
        axis longer than ``_CHUNK`` is cut into pieces."""
        base = len(self.levels)
        tail = self.n
        while tail > 1 and base**tail > _CHUNK:
            tail -= 1
        axes = [self.levels.reshape((base,) + (1,) * (tail - 1 - j)) for j in range(tail - 1)]
        pieces = [self.levels[s : s + _CHUNK] for s in range(0, base, _CHUNK)]
        for heads in itertools.product(self.levels, repeat=self.n - tail):
            for piece in pieces:
                yield [*heads, *axes, piece]

    def clipped(self, side: str, order, cols) -> list:
        """The clipped bound of each user (in ``net.users()`` order) of the
        decode order on the exponent columns ``cols``, as arrays that
        broadcast to the columns' mesh.  Each user's own bound depends on
        its own exponent, so together they span every axis of the mesh."""
        it = iter(cols)
        r = [[next(it) for _ in range(lk)] for lk in self.net.L]
        pass_ = _ibc_pass if side == "ibc" else _imac_pass
        _, pre = pass_(order, self.alpha, r, self.neg, np.maximum, np.minimum)
        return [np.maximum(0, b) for b in pre]

    def bounds(self, side: str, order, cols) -> np.ndarray:
        """The clipped bounds, one row per mesh point, of the decode order on
        the exponent columns ``cols`` (in ``net.users()`` order)."""
        return _rows(self.clipped(side, order, cols))

    def iter_clipped(self, side: str):
        """Yield, per mesh chunk, the clipped columns of every decode order
        (lazily); each chunk is built once and every order runs on it."""
        perms = (itertools.permutations(range(1, lk + 1)) for lk in self.net.L)
        orders = tuple(itertools.product(*perms))
        for cols in self.iter_r_chunks():
            yield (self.clipped(side, order, cols) for order in orders)


def _rows(cols: list) -> np.ndarray:
    """The broadcast columns ``cols`` stacked side by side, one row per mesh point."""
    return np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(-1, len(cols))


def _lattice(net, side, grid, mode, budget) -> _Lattice:
    """Check the side, then the budget, then build the lattice."""
    if side not in ("ibc", "imac"):
        raise ValueError("side must be 'ibc' or 'imac'")
    _check_budget(net, grid, budget)
    return _Lattice(net, grid, mode)


def grid_achievable_points(
    net: ChannelStrengths,
    side: str,
    grid: GridSpec,
    mode: str = "float",
    budget: int = DEFAULT_BUDGET,
) -> set:
    """Set of per-user bound tuples over every enumerated strategy.

    Exact mode yields Fraction tuples with no tolerance; float mode dedups
    at 1e-12.
    """
    lat = _lattice(net, side, grid, mode, budget)
    if mode == "exact" and (lat.top + 1) ** lat.n <= 2**63:
        columns = _distinct_keys(lat, side)
    else:
        chunks = []
        for chunk in lat.iter_clipped(side):
            for cols in chunk:
                b = _rows(cols)
                if mode == "float":
                    b = np.round(b / 1e-12) * 1e-12
                chunks.append(_distinct_rows(b))
        columns = _distinct_rows(np.concatenate(chunks)).T.tolist()
    if mode == "exact":
        frac = {v: Fraction(v, lat.scale) for v in set().union(*columns)}
        columns = [[frac[v] for v in col] for col in columns]
    return set(zip(*columns))


def _distinct_keys(lat: _Lattice, side: str) -> list:
    """Columns of the distinct exact bound rows, in lexsort order: each row
    packed into the key ``sum(b_u * radix**u)``, which the caller has
    checked to fit int64 (every bound lies in ``[0, top]``)."""
    radix = lat.top + 1
    chunks = []
    for chunk in lat.iter_clipped(side):
        keys = []
        for cols in chunk:
            key, weight = cols[0], 1
            for b in cols[1:]:
                weight *= radix
                key = key + b * weight
            keys.append(key.ravel())
        chunks.append(np.unique(np.concatenate(keys)))
    keys = chunks[0] if len(chunks) == 1 else np.unique(np.concatenate(chunks))
    columns = []
    for _ in range(lat.n):
        keys, b = np.divmod(keys, radix)
        columns.append(b.tolist())
    return columns


def _distinct_rows(b: np.ndarray) -> np.ndarray:
    """Distinct rows of ``b``: one lexsort, then drop rows equal to their predecessor."""
    b = b[np.lexsort(b.T)]
    keep = np.ones(len(b), dtype=bool)
    keep[1:] = np.any(b[1:] != b[:-1], axis=1)
    return b[keep]


def oracle_achievable(
    net: ChannelStrengths,
    side: str,
    d: Sequence,
    grid: GridSpec,
    mode: str = "float",
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff some enumerated strategy's bounds dominate ``d`` componentwise."""
    if len(d) != net.n_users:
        raise ValueError(f"tuple of length {len(d)}, expected {net.n_users}")
    lat = _lattice(net, side, grid, mode, budget)
    if mode == "exact":
        target = np.array([math.ceil(as_fraction(x) * lat.scale) for x in d], dtype=np.int64)
    else:
        target = np.asarray([float(x) for x in d])
    for chunk in lat.iter_clipped(side):
        for cols in chunk:
            if np.any(functools.reduce(np.logical_and, [b >= t for b, t in zip(cols, target)])):
                return True
    return False


def oracle_max_sum(
    net: ChannelStrengths,
    side: str,
    w: Sequence,
    grid: GridSpec,
    mode: str = "float",
    budget: int = DEFAULT_BUDGET,
):
    """Largest enumerated value of ``w . bounds``.

    Exact mode returns a Fraction (weights are scaled onto the lattice as
    well) and sums the weighted columns on their mesh; float mode returns a
    float of ``rows @ w``.
    """
    if len(w) != net.n_users:
        raise ValueError(f"{len(w)} weights for {net.n_users} users")
    lat = _lattice(net, side, grid, mode, budget)
    if mode == "float":
        weights = np.asarray([float(x) for x in w])
        return float(max((_rows(cols) @ weights).max() for chunk in lat.iter_clipped(side) for cols in chunk))
    wf = [as_fraction(x) for x in w]
    w_den = math.lcm(*(x.denominator for x in wf))
    w_int = [int(x * w_den) for x in wf]
    # every bound is at most the largest scaled strength; a weighted
    # sum that could leave int64 is evaluated on Python ints
    big = lat.top * sum(abs(x) for x in w_int) >= 2**63
    weights = np.array(w_int, dtype=object if big else np.int64)
    terms = [(u, x) for u, x in enumerate(weights) if x]
    best = max(
        np.max(sum((cols[u].astype(object) if big else cols[u]) * x for u, x in terms))
        for chunk in lat.iter_clipped(side)
        for cols in chunk
    )
    return Fraction(int(best), lat.scale * w_den)
