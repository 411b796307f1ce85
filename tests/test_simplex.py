import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import tincell as tc
from tincell import regions
from tincell.regions import _all_suborders, _all_subnetworks
from tincell.sampling import random_network
from tincell.simplex import UnboundedError, solve_lp


def test_single_variable_box():
    value, x = solve_lp([1], [[1]], [Fraction(3, 2)])
    assert value == Fraction(3, 2) and x == [Fraction(3, 2)]


def test_two_variable_vertex():
    # max x + y  s.t. x <= 1, y <= 2, x + y <= 5/2
    value, x = solve_lp([1, 1], [[1, 0], [0, 1], [1, 1]], [1, 2, Fraction(5, 2)])
    assert value == Fraction(5, 2)
    assert x[0] + x[1] == Fraction(5, 2)
    assert x[0] <= 1 and x[1] <= 2


def test_degenerate_rhs_terminates():
    # degenerate zero rows exercise the anti-cycling rule
    value, x = solve_lp([1, 1], [[1, 1], [1, 0], [0, 1]], [0, 0, 0])
    assert value == 0 and x == [0, 0]


def test_unbounded_detected():
    with pytest.raises(UnboundedError):
        solve_lp([1, 0], [[0, 1]], [1])


def test_zero_objective():
    value, x = solve_lp([0, 0], [[1, 1]], [1])
    assert value == 0


def test_input_errors():
    with pytest.raises(ValueError, match="nonnegative"):
        solve_lp([1], [[1]], [Fraction(-1, 3)])
    with pytest.raises(ValueError, match="row length"):
        solve_lp([1, 1], [[1]], [1])


def test_returns_fractions_for_int_and_float_inputs():
    value, x = solve_lp([2, 0.5], [[1, 0], [0, 4]], [3, 1])
    assert (value, x) == (Fraction(49, 8), [Fraction(3), Fraction(1, 4)])
    assert type(value) is Fraction and all(type(v) is Fraction for v in x)


def test_matches_scipy_on_random_problems():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        c = [Fraction(rng.randint(0, 10), 2) for _ in range(n)]
        A = [[Fraction(rng.randint(0, 6), 2) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(0, 20), 2) for _ in range(m)]
        # keep the LP bounded: cap every variable
        for j in range(n):
            row = [Fraction(0)] * n
            row[j] = Fraction(1)
            A.append(row)
            b.append(Fraction(10))
        value, x = solve_lp(c, A, b)
        res = linprog(
            c=[-float(v) for v in c],
            A_ub=np.array([[float(v) for v in row] for row in A]),
            b_ub=np.array([float(v) for v in b]),
            bounds=[(0, None)] * n,
            method="highs",
        )
        assert res.success
        assert float(value) == pytest.approx(-res.fun, abs=1e-7)
        # reported vertex is feasible and attains the value
        for row, bi in zip(A, b):
            assert sum(r * v for r, v in zip(row, x)) <= bi
        assert sum(ci * v for ci, v in zip(c, x)) == value


def test_deterministic_vertex():
    args = ([1, 1], [[1, 0], [0, 1], [1, 1]], [1, 1, 1])
    assert solve_lp(*args) == solve_lp(*args)


# --- the dense rational Bland tableau as a reference -------------------------


def _rational_bland_reference(c, A, b, ties=None):
    """The dense rational tableau ``solve_lp`` replaced: one column per
    original and slack variable, every entry a Fraction, Bland's rule for
    the entering column and for ratio ties.  ``ties`` (a list) collects one
    entry per ratio tie the leaving-row choice had to break."""
    m = len(A)
    n = len(c)
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in b]
    if any(bi < 0 for bi in b):
        raise ValueError("b must be componentwise nonnegative")
    rows = []
    for i in range(m):
        if len(A[i]) != n:
            raise ValueError("A row length mismatch")
        row = [Fraction(v) for v in A[i]] + [Fraction(0)] * m + [b[i]]
        row[n + i] = Fraction(1)
        rows.append(row)
    obj = [-v for v in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))

    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if ties is not None and ratio == best:
                    ties.append(enter)
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise UnboundedError("objective unbounded above")
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * p for v, p in zip(obj, rows[leave])]
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rows[i][-1]
    return obj[-1], x


def _outcome(solver, c, A, b, **kwargs):
    """``("ok", value, vertex)`` or ``("raise", exception type)``."""
    try:
        value, x = solver(c, A, b, **kwargs)
    except (UnboundedError, ValueError) as exc:
        return ("raise", type(exc))
    assert type(value) is Fraction and all(type(v) is Fraction for v in x)
    return ("ok", value, x)


def _random_lp(rng):
    """A small LP with negative entries and mixed denominators; a fifth of
    them draw from {0, 1, 2} only, so ratio ties and degenerate zero rows
    are common, and some have a zero objective or no rows at all."""
    n, m = rng.randint(0, 5), rng.randint(0, 8)
    if rng.random() < 0.2:
        def q(lo, hi):
            return rng.randint(max(lo, -1), min(hi, 2))
    else:
        def q(lo, hi):
            return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3, 7, 100, rng.randint(1, 100)]))
    zero_c = rng.random() < 0.05
    c = [0 if zero_c else q(-5, 10) for _ in range(n)]
    A = [[q(-6, 6) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(m)]
    b = [q(0, 10) if rng.random() < 0.7 else 0 for _ in range(m)]
    return c, A, b


def test_matches_rational_reference_on_random_lps():
    rng = random.Random(2024)
    ties, kinds = [], {"ok": 0, UnboundedError: 0}
    for _ in range(4000):
        c, A, b = _random_lp(rng)
        expected = _outcome(_rational_bland_reference, c, A, b, ties=ties)
        assert _outcome(solve_lp, c, A, b) == expected, (c, A, b)
        kinds[expected[1] if expected[0] == "raise" else "ok"] += 1
    # the draw really covers what the comparison is about
    assert kinds["ok"] > 1000 and kinds[UnboundedError] > 500
    assert len(ties) > 500


# Degenerate LPs with several optimal vertices, on which breaking ratio ties
# by row position instead of by basis index ends on another vertex (found by
# search; random draws hit such a case about once in 5000 LPs).
TIE_DECIDED_LPS = [
    (
        [2, 2, 0, 0],
        [[2, -1, -1, 0], [0, 1, 0, 1], [-1, 0, 2, -1], [2, 1, 0, -1]],
        [2, 2, 0, 1],
        (3, [0, Fraction(3, 2), 0, Fraction(1, 2)]),
    ),
    (
        [1, 2, 0, 2, 0],
        [[-1, 0, -1, 2, -1], [-1, 0, 1, 0, 1], [0, -1, 1, 1, 1], [2, 1, 1, 1, -1]],
        [0, 2, 2, 1],
        (6, [0, 3, 0, 0, 2]),
    ),
    (
        [1, 2, 1, 2, 0],
        [[1, -1, 1, 1, -1], [1, 0, 0, 0, -1], [-1, 1, -1, -1, 1], [1, 0, -1, 0, 2],
         [2, -1, 1, 1, -1], [1, 1, 1, 1, -1]],
        [1, 1, 0, 1, 2, 0],
        (1, [0, 0, 1, 0, 1]),
    ),
]


@pytest.mark.parametrize("c, A, b, expected", TIE_DECIDED_LPS)
def test_ratio_ties_break_on_the_basis_index(c, A, b, expected):
    assert solve_lp(c, A, b) == expected
    assert _outcome(solve_lp, c, A, b) == _outcome(_rational_bland_reference, c, A, b)


@st.composite
def lps(draw):
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 6))
    num = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    rhs = st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=6, max_denominator=12))
    small = st.integers(-1, 2)
    entry = st.one_of(small, num)
    c = [draw(entry) for _ in range(n)]
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b = [draw(st.one_of(st.integers(0, 2), rhs)) for _ in range(m)]
    return c, A, b


@given(lps())
@settings(max_examples=200, deadline=None)
def test_matches_rational_reference_hypothesis(lp):
    c, A, b = lp
    assert _outcome(solve_lp, c, A, b) == _outcome(_rational_bland_reference, c, A, b)


def test_matches_rational_reference_on_region_lps(monkeypatch):
    """Weighted-sum LPs of random orders and subnetworks of (2,2,2) nets give
    the same value and argmax (or the same exception) with either solver."""
    rng = random.Random(11)
    nonempty = 0
    for i in range(60):
        # cross strengths up to 1 or 2, so some regions are empty
        net = random_network(rng, 3, (2, 2, 2), (Fraction(1), Fraction(2)), (Fraction(0), Fraction(1 + i % 2)))
        subnets = _all_subnetworks(net)  # largest first; favour large ones
        subnet = subnets[min(rng.randrange(len(subnets)), rng.randrange(len(subnets)))]
        order = rng.choice(list(_all_suborders(subnet)))
        region = tc.polyhedral_region(net, order, subnet)
        w = [rng.randint(0, 9) for _ in range(net.n_users)]
        outcomes = []
        for solver in (solve_lp, _rational_bland_reference):
            monkeypatch.setattr(regions, "solve_lp", solver)
            try:
                outcomes.append(tc.max_weighted_sum(region, w))
            except tc.EmptyRegionError:
                outcomes.append("empty")
        assert outcomes[0] == outcomes[1]
        nonempty += outcomes[0] != "empty"
    assert 30 <= nonempty < 60
