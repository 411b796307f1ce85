"""Brute-force ground truth by exhaustive strategy enumeration.

Every per-cell decode order is combined with every assignment of power
exponents from the grid ``{0, -step, ..., -depth} + {SILENT}``; the
per-strategy GDoF bounds are collected.  In exact mode all strengths and
grid levels are rescaled to a common integer lattice, so bound arithmetic
(max / min / add / clip) stays exact while running as vectorized int64
numpy; float mode runs the same code on float64 with dedup at 1e-12.

An exponent below ``-max strength`` is clipped to 0 by every bound's
positive part, exactly like SILENT, so the default depth
``max strength + 1`` loses nothing.  The lattice folds all such levels
into its single SILENT level (in exact mode ``-(max scaled strength + 1)``,
below every kept level), and they are never enumerated; the strategy
count and the budget check still count the caller's grid, and the
returned points are the same.  Each chunk of bounds is deduplicated by a
lexsort and an adjacent-row compare before it joins the point set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .network import ChannelStrengths, as_fraction

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
        self.mode = mode
        self.n = net.n_users
        self.flat = {}  # (cell, slot) -> column index
        for idx, u in enumerate(net.users()):
            self.flat[(u.cell, u.slot)] = idx
        q = int(grid.depth / grid.step)
        if mode == "exact":
            D, self.alpha = net.lattice(grid.step.denominator)
            if D > _MAX_DENOMINATOR:
                raise PreconditionError(
                    "strengths and grid step are not commensurate enough for "
                    "exact mode; use float mode"
                )
            self.scale = D
            # largest strength, which also caps every bound
            self.top = max(a for cell in self.alpha for row in cell for a in row)
            levels = (-int(grid.step * D)) * np.arange(q + 1, dtype=np.int64)
            self.neg = -(self.top + 1)  # SILENT: below every kept level
            self.dtype = np.int64
        else:
            self.scale = None
            self.alpha = net.floats()
            self.top = max(a for cell in self.alpha for row in cell for a in row)
            levels = (-float(grid.step)) * np.arange(q + 1, dtype=np.float64)
            self.neg = -np.inf
            self.dtype = np.float64
        # A level with top + r < 0 is clipped to 0 by every max(0, .) in both
        # kernels, exactly like SILENT, so all such levels fold into SILENT.
        self.levels = np.append(levels[self.top + levels >= 0], self.neg)

    def iter_r_chunks(self):
        """Yield (rows, n) arrays covering the full exponent mesh in order."""
        base = len(self.levels)
        total = base**self.n
        radix = [base ** (self.n - 1 - i) for i in range(self.n)]
        start = 0
        while start < total:
            stop = min(start + _CHUNK, total)
            idx = np.arange(start, stop, dtype=np.int64)
            cols = [self.levels[(idx // radix[i]) % base] for i in range(self.n)]
            yield np.stack(cols, axis=1)
            start = stop

    def all_orders(self):
        pools = [
            sorted(itertools.permutations(range(1, lk + 1))) for lk in self.net.L
        ]
        return list(itertools.product(*pools))

    def bounds_ibc(self, order, R: np.ndarray) -> np.ndarray:
        alpha, flat, neg = self.alpha, self.flat, self.neg
        K = self.net.K
        rows = R.shape[0]
        cell_max = []
        for j in range(1, K + 1):
            cols = [R[:, flat[(j, l)]] for l in range(1, self.net.L[j - 1] + 1)]
            cell_max.append(np.max(np.stack(cols, axis=1), axis=1))
        out = np.zeros((rows, self.n), dtype=self.dtype)
        zero = np.zeros(rows, dtype=self.dtype)
        for k in range(1, K + 1):
            perm = order[k - 1]
            Lk = len(perm)
            for l in range(1, Lk + 1):
                u = perm[l - 1]
                r_u = R[:, flat[(k, u)]]
                later = [R[:, flat[(k, perm[j - 1])]] for j in range(l + 1, Lk + 1)]
                if later:
                    a_term = np.max(np.stack(later, axis=1), axis=1)
                else:
                    a_term = np.full(rows, neg, dtype=self.dtype)
                best = None
                for m in range(l, Lk + 1):
                    obs = perm[m - 1]
                    a_obs = alpha[k - 1][obs - 1][k - 1]
                    cross = np.full(rows, neg, dtype=self.dtype)
                    for j in range(1, K + 1):
                        if j != k:
                            np.maximum(cross, alpha[k - 1][obs - 1][j - 1] + cell_max[j - 1], out=cross)
                    hit = np.maximum(zero, np.maximum(a_obs + a_term, cross))
                    term = a_obs + r_u - hit
                    best = term if best is None else np.minimum(best, term)
                out[:, flat[(k, u)]] = np.maximum(zero, best)
        return out

    def bounds_imac(self, order, R: np.ndarray) -> np.ndarray:
        alpha, flat, neg = self.alpha, self.flat, self.neg
        K = self.net.K
        rows = R.shape[0]
        # received power of every user at every base station
        rx = {}
        for j in range(1, K + 1):
            for lj in range(1, self.net.L[j - 1] + 1):
                col = R[:, flat[(j, lj)]]
                for k in range(1, K + 1):
                    rx[(j, lj, k)] = alpha[j - 1][lj - 1][k - 1] + col
        out = np.zeros((rows, self.n), dtype=self.dtype)
        zero = np.zeros(rows, dtype=self.dtype)
        for k in range(1, K + 1):
            perm = order[k - 1]
            Lk = len(perm)
            inter = np.full(rows, neg, dtype=self.dtype)
            for j in range(1, K + 1):
                if j == k:
                    continue
                for lj in range(1, self.net.L[j - 1] + 1):
                    np.maximum(inter, rx[(j, lj, k)], out=inter)
            intra = np.full(rows, neg, dtype=self.dtype)
            for l in range(1, Lk + 1):
                u = perm[l - 1]
                d = rx[(k, u, k)] - np.maximum(zero, np.maximum(intra, inter))
                out[:, flat[(k, u)]] = np.maximum(zero, d)
                np.maximum(intra, rx[(k, u, k)], out=intra)
        return out

    def bounds(self, side: str, order, R: np.ndarray) -> np.ndarray:
        return self.bounds_ibc(order, R) if side == "ibc" else self.bounds_imac(order, R)

    def iter_bounds(self, side: str):
        """Yield the bound arrays of every decode order and mesh chunk."""
        for order in self.all_orders():
            for R in self.iter_r_chunks():
                yield self.bounds(side, order, R)


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
    chunks = []
    for b in lat.iter_bounds(side):
        if mode == "float":
            b = np.round(b / 1e-12) * 1e-12
        chunks.append(_distinct_rows(b))
    columns = _distinct_rows(np.concatenate(chunks)).T.tolist()
    if mode == "exact":
        frac = {v: Fraction(v, lat.scale) for v in set().union(*columns)}
        columns = [[frac[v] for v in col] for col in columns]
    return set(zip(*columns))


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
    return any(bool(np.any(np.all(b >= target, axis=1))) for b in lat.iter_bounds(side))


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
    well); float mode returns a float.
    """
    if len(w) != net.n_users:
        raise ValueError(f"{len(w)} weights for {net.n_users} users")
    lat = _lattice(net, side, grid, mode, budget)
    if mode == "exact":
        wf = [as_fraction(x) for x in w]
        w_den = math.lcm(*(x.denominator for x in wf))
        w_int = [int(x * w_den) for x in wf]
        # every bound is at most the largest scaled strength; a weighted
        # sum that could leave int64 is evaluated on Python ints
        big = lat.top * sum(abs(x) for x in w_int) >= 2**63
        weights = np.array(w_int, dtype=object if big else np.int64)
    else:
        weights = np.asarray([float(x) for x in w])
    best = max((b @ weights).max() for b in lat.iter_bounds(side))
    if mode == "exact":
        return Fraction(int(best), lat.scale * w_den)
    return float(best)
