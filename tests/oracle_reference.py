"""The grid oracle's earlier enumerator, kept as the reference that the open
mesh and the packed-key dedup are checked against.

The bodies are the earlier ``oracle`` ones: the whole ``base**n`` mesh as
flat columns built with ``//`` and ``%`` (user 0 slowest), one stacked
``(N, n)`` bound array per decode order, and dedup by a ``lexsort`` and an
adjacent-row compare, per order and once more over all of them.  They share
the lattice (:class:`tincell.oracle._Lattice`) and the bound passes with the
oracle; the passes are checked on their own against
``strategy_reference``.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from tincell.network import as_fraction
from tincell.oracle import _Lattice
from tincell.strategies import _ibc_pass, _imac_pass


def radix_columns(lat: _Lattice) -> list:
    """The exponent columns, one per user, of the whole mesh in radix order."""
    base = len(lat.levels)
    idx = np.arange(base**lat.n, dtype=np.int64)
    return [lat.levels[(idx // base ** (lat.n - 1 - i)) % base] for i in range(lat.n)]


def _ref_bounds(lat: _Lattice, side: str, order, cols) -> np.ndarray:
    it = iter(cols)
    r = [[next(it) for _ in range(lk)] for lk in lat.net.L]
    pass_ = _ibc_pass if side == "ibc" else _imac_pass
    _, pre = pass_(order, lat.alpha, r, lat.neg, np.maximum, np.minimum)
    return np.maximum(0, np.stack(pre, axis=1))


def _ref_iter_bounds(lat: _Lattice, side: str):
    perms = (itertools.permutations(range(1, lk + 1)) for lk in lat.net.L)
    cols = radix_columns(lat)
    for order in itertools.product(*perms):
        yield _ref_bounds(lat, side, order, cols)


def _ref_distinct_rows(b: np.ndarray) -> np.ndarray:
    b = b[np.lexsort(b.T)]
    keep = np.ones(len(b), dtype=bool)
    keep[1:] = np.any(b[1:] != b[:-1], axis=1)
    return b[keep]


def ref_points(net, side, grid, mode) -> set:
    lat = _Lattice(net, grid, mode)
    chunks = []
    for b in _ref_iter_bounds(lat, side):
        if mode == "float":
            b = np.round(b / 1e-12) * 1e-12
        chunks.append(_ref_distinct_rows(b))
    columns = _ref_distinct_rows(np.concatenate(chunks)).T.tolist()
    if mode == "exact":
        frac = {v: Fraction(v, lat.scale) for v in set().union(*columns)}
        columns = [[frac[v] for v in col] for col in columns]
    return set(zip(*columns))


def ref_achievable(net, side, d, grid, mode) -> bool:
    lat = _Lattice(net, grid, mode)
    if mode == "exact":
        target = np.array([math.ceil(as_fraction(x) * lat.scale) for x in d], dtype=np.int64)
    else:
        target = np.asarray([float(x) for x in d])
    return any(bool(np.any(np.all(b >= target, axis=1))) for b in _ref_iter_bounds(lat, side))


def ref_max_sum(net, side, w, grid, mode):
    lat = _Lattice(net, grid, mode)
    if mode == "exact":
        wf = [as_fraction(x) for x in w]
        w_den = math.lcm(*(x.denominator for x in wf))
        w_int = [int(x * w_den) for x in wf]
        big = lat.top * sum(abs(x) for x in w_int) >= 2**63
        weights = np.array(w_int, dtype=object if big else np.int64)
    else:
        weights = np.asarray([float(x) for x in w])
    best = max((b @ weights).max() for b in _ref_iter_bounds(lat, side))
    if mode == "exact":
        return Fraction(int(best), lat.scale * w_den)
    return float(best)
