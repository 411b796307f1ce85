from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tincell as tc
from tincell.errors import NetworkFormatError
from tincell.network import as_fraction, parse_decimal
from tincell.oracle import GridSpec, oracle_max_sum
from tincell.strategies import PowerAllocation

from sample_nets import mknet, nets


def test_parse_smallest_network():
    net = tc.parse_network('{"K": 1, "L": [1], "alpha": [[[1.0]]]}')
    assert net.K == 1 and net.L == (1,)
    assert net.strength(1, 1, 1) == 1


def test_negative_strength_clamps_to_zero():
    net = tc.parse_network('{"K": 1, "L": [1], "alpha": [[[-0.3]]]}')
    assert net.strength(1, 1, 1) == 0


def test_parse_net_a_fixture(net_a):
    text = '{"K": 2, "L": [2, 1], "alpha": [[[0.6, 0.2], [1.0, 0.1]], [[0.3, 1.0]]]}'
    parsed = tc.parse_network(text)
    assert parsed == net_a
    entries = [a for cell in parsed.alpha for row in cell for a in row]
    assert len(entries) == 6
    assert parsed.strength(1, 2, 1) == Fraction(1)
    assert parsed.strength(2, 1, 1) == Fraction(3, 10)


@pytest.mark.parametrize(
    "text, match",
    [
        ("{not json", "invalid JSON"),
        ('{"K": 1, "L": [1]}', "missing"),
        ('{"K": 2, "L": [1], "alpha": [[[1.0]]]}', "dimensions"),
        ('{"K": 1, "L": [2], "alpha": [[[1.0]]]}', "rows"),
        ('{"K": 1, "L": [1], "alpha": [[[1.0, 2.0]]]}', "length"),
        ('{"K": 1, "L": [1], "alpha": [[["x"]]]}', "non-numeric"),
        ('{"K": true, "L": [1], "alpha": [[[1.0]]]}', "K must be an integer"),
        ('{"K": 1, "L": [true], "alpha": [[[1.0]]]}', "L a list of integers"),
        ('{"K": 1, "L": [1], "alpha": [[[true]]]}', "non-numeric"),
    ],
)
def test_parse_rejects_malformed(text, match):
    with pytest.raises(NetworkFormatError, match=match):
        tc.parse_network(text)


def test_validate_ok_on_net_a(net_a):
    assert tc.validate(net_a) == []


def test_validate_reports_reversed_pair():
    net = mknet([[[1.0], [0.6]]])
    assert tc.validate(net) == [(1, 1, 2)]


def test_validate_single_user_vacuous():
    assert tc.validate(mknet([[[1.0]]])) == []


def test_canonicalize_identity_on_sorted(net_a):
    canonical, record = tc.canonicalize(net_a)
    assert canonical == net_a
    assert record.maps == ((1, 2), (1,))


def test_canonicalize_two_element_sort():
    net = mknet([[[1.0, 0.3], [0.6, 0.9]], [[0.1, 0.5]]])
    canonical, record = tc.canonicalize(net)
    assert [canonical.direct(1, l) for l in (1, 2)] == [Fraction(3, 5), Fraction(1)]
    # cross rows travel with their users
    assert canonical.strength(1, 1, 2) == Fraction(9, 10)
    assert canonical.strength(1, 2, 2) == Fraction(3, 10)
    assert record.maps[0] == (2, 1)


def test_canonicalize_ties_are_stable():
    net = mknet([[[0.5, 0.7], [0.5, 0.2]], [[0.0, 1.0]]])
    canonical, record = tc.canonicalize(net)
    assert canonical == net
    assert record.maps[0] == (1, 2)


@given(nets())
@settings(max_examples=60, deadline=None)
def test_canonicalize_idempotent_and_valid(net):
    once, _ = tc.canonicalize(net)
    twice, rec = tc.canonicalize(once)
    assert twice == once
    assert all(m == tuple(range(1, len(m) + 1)) for m in rec.maps)
    assert tc.validate(once) == []


@given(nets())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_round_trip(net):
    assert tc.parse_network(tc.serialize_network(net)) == net


def test_round_trip_preserves_exact_decimals(net_a):
    again = tc.parse_network(tc.serialize_network(net_a))
    assert again.alpha == net_a.alpha  # exact Fractions, not float approximations


def test_users_canonical_order(net_a):
    assert net_a.users() == (
        tc.UserId(1, 1),
        tc.UserId(1, 2),
        tc.UserId(2, 1),
    )
    assert net_a.n_users == 3


def test_float_view(net_a):
    view = net_a.floats()
    assert view[0][0][0] == pytest.approx(0.6)
    assert isinstance(view[0][0][0], float)


@given(
    st.integers(-10**6, 10**6),
    st.integers(0, 10**6),
    st.integers(-1000, 1000),
    st.sampled_from(["e", "E"]),
    st.sampled_from(["", "+"]),
)
@settings(max_examples=200, deadline=None)
def test_parse_decimal_matches_fraction_within_the_cap(whole, frac, exp, e, plus):
    sign = "-" if exp < 0 else plus
    for text in (f"{whole}.{frac}{e}{sign}{abs(exp)}", f" {whole}{e}{sign}{abs(exp)} ", f"{whole}/{frac + 1}"):
        assert parse_decimal(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1e1000", "1e-1000", "2.5E+0_1_000", "1e-00000000000001000"])
def test_parse_decimal_accepts_exponents_at_the_cap(text):
    assert parse_decimal(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1e1001", "1e-1001", "3.5E+99999", "1e-9999999", "1e-1_0_0_1", "1e" + "9" * 5000])
def test_parse_decimal_refuses_exponents_beyond_the_cap(text):
    with pytest.raises(NetworkFormatError, match="decimal exponent"):
        parse_decimal(text)


def test_network_and_strategy_json_refuse_huge_exponents(net_a):
    with pytest.raises(NetworkFormatError, match="decimal exponent"):
        tc.parse_network('{"K": 1, "L": [1], "alpha": [[[1e-9999999]]]}')
    with pytest.raises(NetworkFormatError, match="decimal exponent"):
        tc.parse_strategy('{"side": "ibc", "order": [[1, 2], [1]], "r": [[0, -1e9999999], [0]]}', net_a)


# --- numpy scalars at the exact entry points --------------------------------
# numpy 2 prints np.float64(0.6) as "np.float64(0.6)", so a float subclass
# must be read through float.__repr__, and np.int64 is no Python int


@pytest.mark.parametrize(
    "np_value, py_value",
    [(np.float64(0.6), 0.6), (np.float64(-0.1), -0.1), (np.float64(1e-7), 1e-7),
     (np.int64(3), 3), (np.int32(-2), -2), (np.uint8(0), 0)],
)
def test_as_fraction_reads_numpy_scalars_like_python_numbers(np_value, py_value):
    got = as_fraction(np_value)
    assert type(got) is Fraction and got == as_fraction(py_value)


def test_as_fraction_refuses_non_finite_and_unknown_values():
    for bad in (float("nan"), float("inf"), np.float64("-inf")):
        with pytest.raises(ValueError, match="finite"):
            as_fraction(bad)
    with pytest.raises(TypeError):
        as_fraction(object())


def test_from_rows_reads_numpy_rows(net_a):
    rows = [np.array([[0.6, 0.2], [1.0, 0.1]]), np.array([[0.3, 1.0]])]
    assert tc.ChannelStrengths.from_rows(2, [2, 1], rows) == net_a
    ints = [np.array([[1, 0], [2, 1]]), np.array([[0, 3]])]
    assert tc.ChannelStrengths.from_rows(2, [2, 1], ints) == mknet([[[1, 0], [2, 1]], [[0, 3]]])
    dims = tc.ChannelStrengths.from_rows(np.int64(2), np.array([2, 1]), rows)
    assert repr(dims) == repr(net_a) and tc.serialize_network(dims) == tc.serialize_network(net_a)


def test_grid_spec_reads_numpy_scalars():
    assert GridSpec(np.float64(0.1), 2) == GridSpec(0.1, 2) == GridSpec(Fraction(1, 10), 2)
    assert GridSpec(np.int64(1), np.int64(2)) == GridSpec(1, 2)


def test_power_allocation_reads_numpy_scalars():
    assert PowerAllocation(((np.float64(-0.1), 0), (0,))) == PowerAllocation(((-0.1, 0), (0,)))
    assert PowerAllocation(((np.int64(0), 0), (np.int64(-1),))) == PowerAllocation(((0, 0), (-1,)))


def test_weighted_sums_read_numpy_weights(net_a):
    full = tc.Subnetwork.full(net_a)
    region = tc.polyhedral_region(net_a, tc.identity_suborder(full), full)
    grid = GridSpec(Fraction(1, 4), net_a.max_strength() + 1)
    for np_w, py_w in [(np.array([1.0, 0.5, 0.25]), [1.0, 0.5, 0.25]), (np.array([1, 2, 1]), [1, 2, 1])]:
        assert tc.max_weighted_sum(region, np_w) == tc.max_weighted_sum(region, py_w)
        for mode in ("exact", "float"):
            assert oracle_max_sum(net_a, "ibc", np_w, grid, mode) == oracle_max_sum(net_a, "ibc", py_w, grid, mode)


def test_membership_reads_numpy_points(net_a):
    full = tc.Subnetwork.full(net_a)
    region = tc.polyhedral_region(net_a, tc.identity_suborder(full), full)
    for np_d, py_d in [(np.array([0.3, 0.4, 0.5]), [0.3, 0.4, 0.5]), (np.array([0, 1, 0]), [0, 1, 0]),
                       (np.array([0.0, 0.9, 0.7]), [0, Fraction(9, 10), Fraction(7, 10)])]:
        assert tc.contains(region, np_d) == tc.contains(region, py_d)
        assert tc.tina_region_contains(net_a, np_d) == tc.tina_region_contains(net_a, py_d)
    assert tc.contains(region, np.array([0.0, 0.9, 0.7]))
