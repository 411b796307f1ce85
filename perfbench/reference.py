"""Reference answers computed without the program's own region code.

The constraint builder below is written from the region definition (one
prefix bound per cell and prefix length, one cyclic bound per cyclically
ordered cell sequence and choice of prefix lengths), not by calling
``tincell.regions``.  LP optima come from ``scipy.optimize.linprog``, not from
the program's rational simplex, so a gate that compares the two is not the
program checked against itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog


def user_index(L):
    """Map (cell, slot), both 1-based, to the flat canonical user index."""
    out, i = {}, 0
    for k, lk in enumerate(L, start=1):
        for s in range(1, lk + 1):
            out[(k, s)] = i
            i += 1
    return out


def region_constraints(alpha, L, order, subnet):
    """Constraints ``(users, bound)`` of the region for ``order`` on ``subnet``.

    ``alpha[k][l][i]`` is the 0-based strength tensor, ``subnet[k]`` the sorted
    1-based slots of cell ``k + 1`` and ``order[cell]`` the decode order of a
    participating cell.  Users are flat indices.
    """
    idx = user_index(L)
    cells = [k + 1 for k, slots in enumerate(subnet) if slots]

    def direct(i, s):
        return alpha[i - 1][s - 1][i - 1]

    rows = []
    for i in cells:
        perm = order[i]
        for n in range(1, len(perm) + 1):
            rows.append((frozenset(idx[(i, s)] for s in perm[:n]), direct(i, perm[n - 1])))
    for size in range(2, len(cells) + 1):
        for subset in itertools.combinations(cells, size):
            for tail in itertools.permutations(subset[1:]):
                seq = (subset[0],) + tail
                for lengths in itertools.product(*(range(1, len(order[i]) + 1) for i in seq)):
                    users, bound = set(), Fraction(0)
                    for pos, i in enumerate(seq):
                        prev = seq[pos - 1]
                        top = order[i][lengths[pos] - 1]
                        users.update(idx[(i, s)] for s in order[i][: lengths[pos]])
                        bound += direct(i, top) - alpha[i - 1][top - 1][prev - 1]
                    rows.append((frozenset(users), bound))
    return rows


def full_identity(L):
    """(order, subnet) of the identity-order full-participation hull."""
    subnet = [tuple(range(1, lk + 1)) for lk in L]
    return {k + 1: subnet[k] for k in range(len(L))}, subnet


def zero_forced(L, subnet):
    idx = user_index(L)
    return {idx[(k + 1, s)] for k, lk in enumerate(L) for s in range(1, lk + 1) if s not in subnet[k]}


def region_contains(rows, zero, d) -> bool:
    """Exact membership of the rational tuple ``d``."""
    if any(x < 0 for x in d) or any(d[u] != 0 for u in zero):
        return False
    return all(sum(d[u] for u in users) <= bound for users, bound in rows)


def lp_max(rows, zero, n_users, w) -> float:
    """max w.d over the region, by HiGHS in floating point."""
    if not rows:  # only the empty subnetwork has no rows: every user is zero-forced
        return 0.0
    A = np.zeros((len(rows), n_users))
    for r, (users, _) in enumerate(rows):
        A[r, list(users)] = 1.0
    b = np.array([float(bound) for _, bound in rows])
    bounds = [(0.0, 0.0) if u in zero else (0.0, None) for u in range(n_users)]
    res = linprog(-np.asarray(w, dtype=float), A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


def all_regions(L):
    """Every (order, subnet) pair of the union, as the program enumerates it."""
    per_cell = [
        [c for m in range(lk + 1) for c in itertools.combinations(range(1, lk + 1), m)] for lk in L
    ]
    for subnet in itertools.product(*per_cell):
        cells = [k + 1 for k, slots in enumerate(subnet) if slots]
        pools = [list(itertools.permutations(subnet[i - 1])) for i in cells]
        for combo in itertools.product(*pools):
            yield dict(zip(cells, combo)), list(subnet)


def union_lp_max(alpha, L, w) -> float:
    """max w.d over the union of every nonempty region."""
    n = sum(L)
    best = 0.0
    for order, subnet in all_regions(L):
        rows = region_constraints(alpha, L, order, subnet)
        if any(bound < 0 for _, bound in rows):
            continue
        best = max(best, lp_max(rows, zero_forced(L, subnet), n, w))
    return best
