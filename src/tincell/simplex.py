"""Small exact simplex on a condensed tableau of integer rows.

Solves  max c.x  subject to  A x <= b,  x >= 0  with b >= 0 componentwise,
so the all-slack basis is feasible and no phase-1 is needed.  Bland's
smallest-index rule picks the entering variable and breaks ratio ties on
the leaving one, which guarantees termination and makes the reported
optimal vertex deterministic.

The tableau is condensed (Tucker form): it keeps one column per nonbasic
variable plus the right-hand side, never the identity block of the basic
ones.  Each row is a list of Python ints with a positive row scale ``h``,
so row ``i`` reads ``h_i x_B(i) + sum_j t_ij x_N(j) = rhs_i``; the
objective row holds the scaled reduced costs and the current value the
same way.  Inputs are scaled to integers once, row by row, by the lcm of
their denominators.  A pivot on ``t_rk = P`` rewrites every other row as
``row * P - t_ik * pivot_row``, sets its pivot-column entry to
``-t_ik * h_r`` and its scale to ``h_i * P``, then divides the row by its
gcd; the pivot row only swaps ``P`` and ``h_r``.  Signs of reduced costs
and ratios ``rhs_i / t_ik`` are those of the rational tableau, so the
pivots are exactly those of the dense rational Bland tableau, and
``Fraction`` objects are built only for the returned value and vertex.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class UnboundedError(Exception):
    """The LP is unbounded above (cannot happen for bounded regions)."""


def _rational(v):
    return v if type(v) is int else Fraction(v)


def _integer_row(values: list) -> list[int]:
    """``values`` times the lcm of their denominators, then the row scale."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values] + [scale]


def _reduce(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g == 1 else [v // g for v in row]


def solve_lp(c: Sequence, A: Sequence[Sequence], b: Sequence) -> tuple[Fraction, list]:
    """Return (optimal value, optimal vertex) of max c.x, A x <= b, x >= 0.

    All arithmetic is exact; entries may be ints or anything ``Fraction``
    accepts.  The value and the vertex entries are Fractions.
    """
    m = len(A)
    n = len(c)
    c = [_rational(v) for v in c]
    b = [_rational(v) for v in b]
    if any(bi < 0 for bi in b):
        raise ValueError("b must be componentwise nonnegative")
    # rows: [t_1 .. t_n | rhs | h]; the objective row ends [value | h]
    rows = []
    for i in range(m):
        if len(A[i]) != n:
            raise ValueError("A row length mismatch")
        rows.append(_reduce(_integer_row([_rational(v) for v in A[i]] + [b[i]])))
    obj = _reduce(_integer_row([-v for v in c] + [0]))
    nonbasic = list(range(n))
    basis = list(range(n, n + m))

    while True:
        enter = None
        for j in range(n):
            if obj[j] < 0 and (enter is None or nonbasic[j] < nonbasic[enter]):
                enter = j
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                if leave is None:
                    leave, num, den = i, rows[i][n], a
                    continue
                lhs, rhs = rows[i][n] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, rows[i][n], a
        if leave is None:
            raise UnboundedError("objective unbounded above")
        prow = rows[leave]
        piv, h_r = prow[enter], prow[-1]
        # with these two entries swapped in, ``v * piv - f * p`` also gives the
        # pivot-column entry ``-f * h_r`` and the new scale ``h * piv``
        sub = prow[:]
        sub[enter], sub[-1] = piv + h_r, 0
        for i in range(m):
            f = rows[i][enter]
            if f and i != leave:
                rows[i] = _reduce([v * piv - f * p for v, p in zip(rows[i], sub)])
        f = obj[enter]
        if f:
            obj = _reduce([v * piv - f * p for v, p in zip(obj, sub)])
        prow[enter], prow[-1] = h_r, piv
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]

    x = [Fraction(0)] * n
    for row, var in zip(rows, basis):
        if var < n:
            x[var] = Fraction(row[n], row[-1])
    return Fraction(obj[n], obj[-1]), x
