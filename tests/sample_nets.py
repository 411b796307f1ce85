"""Networks shared by the test modules: a builder from nested strength
rows, fixed nets with unlike denominators, and hypothesis strategies that
draw random nets and strategies.  The pytest fixtures stay in
``conftest.py``, which imports :func:`mknet` from here."""

from fractions import Fraction

from hypothesis import strategies as st

import tincell as tc
from tincell.network import parse_decimal


def mknet(alpha):
    """Build a network from nested (decimal) strength rows."""
    K = len(alpha)
    L = [len(cell) for cell in alpha]
    return tc.ChannelStrengths.from_rows(K, L, alpha)


# strengths with unlike denominators: thirds, sevenths, eighths and a 10^900 one
_TINY = parse_decimal("1e-900")
MIXED_NETS = [
    mknet([[[Fraction(1, 3), Fraction(2, 7)], [1.125, _TINY]], [[0.125, Fraction(5, 3)]]]),
    mknet([
        [[Fraction(2, 7), Fraction(1, 3), 0.125], [Fraction(4, 3), _TINY, Fraction(6, 7)]],
        [[0.125, Fraction(9, 7), Fraction(1, 3)], [Fraction(1, 3), Fraction(11, 8), _TINY]],
        [[Fraction(2, 7), 0.125, 1 + _TINY]],
    ]),
    # slots given in descending direct strength, then sorted
    tc.canonicalize(mknet([
        [[Fraction(5, 3), Fraction(1, 7), 0.125], [Fraction(2, 7), Fraction(1, 3), _TINY]],
        [[0.125, Fraction(8, 7), Fraction(1, 3)]],
        [[Fraction(1, 3), Fraction(2, 7), Fraction(3, 8)], [_TINY, 0.125, Fraction(1, 3)]],
    ]))[0],
]


@st.composite
def nets(draw, min_K=1, max_K=3, max_L=3, denom=20, max_num=40):
    """Random networks on the 1/denom grid, direct links ascending."""
    K = draw(st.integers(min_K, max_K))
    L = [draw(st.integers(1, max_L)) for _ in range(K)]
    alpha = []
    for k in range(K):
        directs = sorted(Fraction(draw(st.integers(0, max_num)), denom) for _ in range(L[k]))
        cell = []
        for l in range(L[k]):
            row = [
                directs[l] if i == k else Fraction(draw(st.integers(0, max_num)), denom)
                for i in range(K)
            ]
            cell.append(row)
        alpha.append(cell)
    return tc.ChannelStrengths.from_rows(K, L, alpha)


@st.composite
def nets_with_strategy(draw, side, **net_kwargs):
    net = draw(nets(**net_kwargs))
    pi = []
    for lk in net.L:
        perm = draw(st.permutations(list(range(1, lk + 1))))
        pi.append(tuple(perm))
    r = []
    for lk in net.L:
        row = []
        for _ in range(lk):
            if draw(st.booleans()) and draw(st.integers(0, 5)) == 0:
                row.append(tc.SILENT)
            else:
                row.append(Fraction(-draw(st.integers(0, 40)), 20))
        r.append(tuple(row))
    strategy = tc.Strategy(
        side=side,
        order=tc.DecodingOrder(tuple(pi)),
        power=tc.PowerAllocation(tuple(r)),
    )
    return net, strategy
