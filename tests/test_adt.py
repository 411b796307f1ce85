import hashlib
import itertools
import json
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tincell as tc
import tincell.adt
import tincell.cli
from tincell.adt import (
    AdtDistribution,
    AdtParams,
    _entropy_rows,
    _report,
    bits_to_int,
    downshift,
    int_to_bits,
    interference_image_entropy,
    mutual_information_x1,
    output_entropy,
    random_product_dists,
    random_product_laws,
    random_table_dists,
    regime_params,
    require_q_cap,
)
from tincell.cli import run


# --- channel mechanics -------------------------------------------------------


def test_downshift_zero_is_identity():
    bits = (1, 0, 1, 1)
    assert downshift(bits, 0) == bits


def test_downshift_moves_top_bits():
    assert downshift((1, 0, 0, 0), 1) == (0, 1, 0, 0)
    assert downshift((1, 1, 0, 1), 2) == (0, 0, 1, 1)
    assert downshift((1, 1, 1, 1), 4) == (0, 0, 0, 0)


def test_adt_output_example_3141():
    params = AdtParams(3, 1, 4, 1)
    e1 = (1, 0, 0, 0)
    zero = (0, 0, 0, 0)
    ya, yb = tc.adt_output(params, e1, zero)
    assert ya == (0, 1, 0, 0)  # shift by q - m1 = 1
    assert yb == (1, 0, 0, 0)  # shift by q - n1 = 0


def test_adt_output_zero_inputs():
    params = AdtParams(3, 1, 4, 1)
    zero = (0, 0, 0, 0)
    assert tc.adt_output(params, zero, zero) == (zero, zero)


def test_adt_output_is_deterministic_function():
    params = AdtParams(4, 2, 4, 1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x1 = tuple(int(b) for b in rng.integers(0, 2, size=4))
        x2 = tuple(int(b) for b in rng.integers(0, 2, size=4))
        assert tc.adt_output(params, x1, x2) == tc.adt_output(params, x1, x2)


def test_bits_int_round_trip():
    for v in range(16):
        assert bits_to_int(int_to_bits(v, 4)) == v


def test_params_validation():
    with pytest.raises(ValueError):
        AdtParams(1, 2, 3, 1)
    with pytest.raises(ValueError):
        AdtParams(2, 1, -1, 0)


@pytest.mark.parametrize("v, q", [(8, 2), (4, 2), (-1, 3), (1, 0), (-(1 << 70), 4)])
def test_int_to_bits_refuses_values_that_do_not_fit(v, q):
    with pytest.raises(ValueError):
        int_to_bits(v, q)


def test_int_to_bits_keeps_every_value_that_fits():
    assert int_to_bits(7, 3) == (1, 1, 1)
    assert int_to_bits(0, 0) == ()
    assert int_to_bits(np.int64(5), 3) == (1, 0, 1)


@pytest.mark.parametrize("bits", [[1.0, 0], [0, 2], [-1], [0.5], ["1"], [None]])
def test_bits_to_int_refuses_non_bits(bits):
    with pytest.raises(ValueError, match="entries must be bits"):
        bits_to_int(bits)


def test_bits_to_int_takes_numpy_bits():
    assert bits_to_int(np.array([1, 0, 1])) == 5


@pytest.mark.parametrize("x1, x2", [((2, 0), (0, 0)), ((0, 0), (0, -1)), ((1.0, 0), (0, 0)), ((0, 0), (0, 0.5))])
def test_adt_output_refuses_non_bits(x1, x2):
    with pytest.raises(ValueError, match="entries must be bits"):
        tc.adt_output(AdtParams(2, 1, 2, 1), x1, x2)


@pytest.mark.parametrize("strengths", [(1.5, 0, 2, 0), (2, 1.0, 2, 0), (2, 1, 2.0, 1), (2, 1, 2, "1")])
def test_params_refuse_non_integer_strengths(strengths):
    with pytest.raises(TypeError):
        AdtParams(*strengths)


def test_params_store_numpy_strengths_as_plain_ints():
    params = AdtParams(*np.array([3, 1, 4, 1]))
    assert [type(x) for x in (params.m1, params.m2, params.n1, params.n2)] == [int] * 4
    assert params == AdtParams(3, 1, 4, 1) and hash(params) == hash(AdtParams(3, 1, 4, 1))
    assert params.q == 4


# --- entropy -----------------------------------------------------------------


def test_entropy_uniform_four():
    assert tc.entropy([0.25] * 4) == pytest.approx(2.0)


def test_entropy_point_mass():
    assert tc.entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_mixed():
    assert tc.entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5)


def test_entropy_requires_normalized():
    with pytest.raises(ValueError):
        tc.entropy([0.5, 0.2])


# --- information identities ---------------------------------------------------


def joint_entropies_brute_force(params, dist, receiver):
    """Slow, fully independent (H(y), H(y | x1)) straight from the joint."""
    q = params.q
    size = 1 << q
    marg = np.zeros(size)
    cond_H = 0.0
    for v1 in range(size):
        if dist.p1[v1] == 0:
            continue
        cond = np.zeros(size)
        for v2 in range(size):
            ya, yb = tc.adt_output(params, int_to_bits(v1, q), int_to_bits(v2, q))
            y = bits_to_int(ya if receiver == "a" else yb)
            cond[y] += dist.p2[v2]
        marg += dist.p1[v1] * cond
        cond_H += dist.p1[v1] * tc.entropy(cond)
    return tc.entropy(marg), cond_H


def joint_mi_brute_force(params, dist, receiver):
    h_y, h_cond = joint_entropies_brute_force(params, dist, receiver)
    return h_y - h_cond


def test_mi_matches_joint_brute_force():
    params = AdtParams(3, 1, 4, 1)
    rng = np.random.default_rng(0)
    for dist in random_product_dists(4, 5, rng) + random_table_dists(4, 3, rng):
        for receiver in "ab":
            fast = mutual_information_x1(params, dist, receiver)
            slow = joint_mi_brute_force(params, dist, receiver)
            assert fast == pytest.approx(slow, abs=1e-9)


def test_chain_identity_under_independence():
    # I(x1; y) = H(y) - H(shifted interference image)
    params = AdtParams(4, 2, 4, 1)
    rng = np.random.default_rng(1)
    for dist in random_product_dists(4, 8, rng):
        for receiver in "ab":
            mi = mutual_information_x1(params, dist, receiver)
            identity = output_entropy(params, dist, receiver) - interference_image_entropy(
                params, dist, receiver
            )
            assert mi == pytest.approx(identity, abs=1e-9)


def test_output_conditional_entropy_is_zero():
    # deterministic channel: H(y | x1, x2) = 0 for any input law
    params = AdtParams(3, 1, 4, 1)
    rng = np.random.default_rng(2)
    (dist,) = random_product_dists(4, 1, rng)
    h = 0.0
    for v1, v2 in itertools.product(range(16), repeat=2):
        p = dist.p1[v1] * dist.p2[v2]
        if p > 0:
            h += p * 0.0  # the output is a point mass given (x1, x2)
    assert h == 0.0


# --- inequality checks ---------------------------------------------------------


def test_less_noisy_uniform_and_random():
    params = AdtParams(3, 1, 4, 1)
    rng = np.random.default_rng(4)
    dists = [AdtDistribution.uniform(4)] + random_product_dists(4, 50, rng)
    report = tc.check_less_noisy(params, dists)
    assert report.passed
    assert report.min_slack >= -1e-9


def test_less_noisy_deterministic_x1_zero_slack():
    params = AdtParams(3, 1, 4, 1)
    dist = AdtDistribution.point(4, 5, 0)
    report = tc.check_less_noisy(params, [dist])
    assert report.min_slack == pytest.approx(0.0, abs=1e-12)


def test_less_noisy_regime_guard():
    with pytest.raises(tc.PreconditionError):
        tc.check_less_noisy(AdtParams(4, 2, 4, 1), [AdtDistribution.uniform(4)])


def test_q_cap_guard():
    params = AdtParams(3, 1, 9, 1)
    with pytest.raises(tc.PreconditionError):
        tc.check_less_noisy(params, [AdtDistribution.uniform(9)])


def test_entropy_diff_uniform_and_random():
    params = AdtParams(4, 2, 4, 1)
    rng = np.random.default_rng(5)
    dists = [AdtDistribution.uniform(4)] + random_product_dists(4, 50, rng)
    report = tc.check_entropy_diff(params, dists)
    assert report.passed


def test_entropy_diff_x2_deterministic_nonpositive():
    # with no interference the stronger receiver sees at least as much
    params = AdtParams(4, 2, 4, 1)
    rng = np.random.default_rng(6)
    for dist in random_product_dists(4, 10, rng):
        fixed = AdtDistribution(dist.p1, AdtDistribution.point(4, 0, 3).p2)
        diff = output_entropy(params, fixed, "a") - output_entropy(params, fixed, "b")
        assert diff <= 1e-9  # n1 >= m1 so receiver b keeps every level


def test_entropy_diff_point_masses():
    params = AdtParams(4, 2, 4, 1)
    dists = [AdtDistribution.point(4, v1, v2) for v1 in (0, 3, 9) for v2 in (0, 7)]
    report = tc.check_entropy_diff(params, dists)
    assert report.min_slack == pytest.approx(params.m2 - params.n2)


def test_entropy_diff_regime_guard():
    with pytest.raises(tc.PreconditionError):
        tc.check_entropy_diff(AdtParams(3, 1, 4, 3), [AdtDistribution.uniform(4)])


def test_both_checks_over_small_param_sweep():
    rng = np.random.default_rng(7)
    for params in regime_params(4, "lessnoisy"):
        dists = [AdtDistribution.uniform(params.q)] + random_product_dists(params.q, 20, rng)
        assert tc.check_less_noisy(params, dists).passed, params
    for params in regime_params(4, "entropydiff"):
        dists = [AdtDistribution.uniform(params.q)] + random_product_dists(params.q, 20, rng)
        assert tc.check_entropy_diff(params, dists).passed, params


def test_table_dists_also_pass():
    params = AdtParams(3, 1, 4, 1)
    rng = np.random.default_rng(8)
    report = tc.check_less_noisy(params, random_table_dists(4, 30, rng))
    assert report.passed


def test_less_noisy_sweep_all_params_up_to_q6():
    rng = np.random.default_rng(9)
    for params in regime_params(6, "lessnoisy"):
        size = 1 << params.q
        dists = [AdtDistribution.uniform(params.q)]
        dists += random_product_dists(params.q, 10, rng)
        dists += [
            AdtDistribution.point(params.q, int(rng.integers(size)), int(rng.integers(size)))
            for _ in range(5)
        ]
        assert tc.check_less_noisy(params, dists).passed, params


# --- batched checks against the joint enumeration -------------------------------


def _brute_slack(params, dist, mode):
    (ha, ca), (hb, cb) = (joint_entropies_brute_force(params, dist, r) for r in "ab")
    if mode == "lessnoisy":
        return (hb - cb) - (ha - ca)
    return (params.m2 - params.n2) - (ha - hb)


@pytest.mark.parametrize("mode", ["lessnoisy", "entropydiff"])
def test_batched_slacks_match_joint_brute_force(mode):
    check = tc.check_less_noisy if mode == "lessnoisy" else tc.check_entropy_diff
    rng = np.random.default_rng(12)
    for params in regime_params(4, mode):
        q, size = params.q, 1 << params.q
        dists = random_product_dists(q, 2, rng) + random_table_dists(q, 2, rng)
        dists.append(AdtDistribution.point(q, int(rng.integers(size)), int(rng.integers(size))))
        slow = [_brute_slack(params, d, mode) for d in dists]
        report = check(params, dists)
        assert report.n_dists == len(dists)
        assert report.min_slack == pytest.approx(min(slow), abs=1e-9), params
        assert slow[report.worst_index] == pytest.approx(min(slow), abs=1e-9), params
        for dist, slack in zip(dists, slow):
            assert check(params, [dist]).min_slack == pytest.approx(slack, abs=1e-9), params


def _laws_digest(dists):
    return hashlib.sha256(repr([(d.p1, d.p2) for d in dists]).encode()).hexdigest()


# Digests of the laws drawn by the earlier per-distribution generators: two
# rng.uniform(size=q) draws per distribution expanded level by level with
# np.kron, and two rng.dirichlet(np.ones(2^q)) draws per distribution.
PRODUCT_DIGESTS = {
    (1, 7, 0): "be82b0b1cc149ca99c96b4a19d296acb97a1a0d0108c12c1e09dcdd8af016fd5",
    (4, 50, 1): "2d92f0a8dc9e6acee39fe49868b6e90d19e1e420b5c05ae07e173c0b35e4f020",
    (6, 20, 2): "1c45c5114dcc6062f3ec637366ceaf677f6f86584128a37a06186f3d5e6b3b0b",
    (8, 5, 3): "44c7650a06e15179424b5948a8a0322691562cfdb7d24a3f9f922c80e3a3b6f2",
}
TABLE_DIGESTS = {
    (1, 7, 0): "fb12a06c9ae21345cac2e0af7b51682dad2aa0b4bf137e390d8ff5fef3aeab21",
    (4, 30, 1): "0632f118a35c421a04a7dcc7bb6aae503c51ff9c145d97e6c548b26a323bfea1",
    (6, 10, 2): "94a30678a9da575ddf44af436906e16aeebc85d8790a671b02671e0744319777",
    (8, 3, 3): "c1246f69791d56cbfdf501ed2b62ece0b0fd493967c8e13af53f12dddafdbca2",
}


@pytest.mark.parametrize("q, count, seed", sorted(PRODUCT_DIGESTS))
def test_random_product_dists_are_bit_identical(q, count, seed):
    dists = random_product_dists(q, count, np.random.default_rng(seed))
    assert _laws_digest(dists) == PRODUCT_DIGESTS[q, count, seed]
    laws = random_product_laws(q, count, np.random.default_rng(seed))
    assert laws.shape == (count, 2, 1 << q) and laws.dtype == np.float64
    assert np.array_equal(laws, _as_array(dists, q))


@pytest.mark.parametrize("q, count, seed", sorted(TABLE_DIGESTS))
def test_random_table_dists_are_bit_identical(q, count, seed):
    dists = random_table_dists(q, count, np.random.default_rng(seed))
    assert _laws_digest(dists) == TABLE_DIGESTS[q, count, seed]


def test_product_bernoulli_matches_batched_draw():
    rng = np.random.default_rng(13)
    theta = rng.uniform(size=(2, 5))
    (drawn,) = random_product_dists(5, 1, np.random.default_rng(13))
    assert AdtDistribution.product_bernoulli(theta[0].tolist(), theta[1].tolist()) == drawn


def test_zero_count_draws_nothing():
    rng = np.random.default_rng(14)
    assert random_product_dists(4, 0, rng) == []
    assert random_table_dists(4, 0, rng) == []


def test_worst_index_is_first_minimum():
    params = AdtParams(3, 1, 4, 1)
    dists = [
        AdtDistribution.uniform(4),
        AdtDistribution.point(4, 5, 0),  # deterministic x1: slack exactly 0
        AdtDistribution.point(4, 9, 3),
        AdtDistribution.point(4, 5, 0),
    ]
    report = tc.check_less_noisy(params, dists)
    assert (report.min_slack, report.worst_index) == (0.0, 1)
    points = [AdtDistribution.point(4, v, 2 * v) for v in (1, 4, 7)]
    report = tc.check_entropy_diff(AdtParams(4, 2, 4, 1), points)
    assert (report.min_slack, report.worst_index) == (1.0, 0)


@pytest.mark.parametrize("check, params", [
    (tc.check_less_noisy, AdtParams(3, 1, 4, 1)),
    (tc.check_entropy_diff, AdtParams(4, 2, 4, 1)),
])
def test_empty_batch_reports_inf_and_no_index(check, params):
    report = check(params, [])
    assert report.min_slack == float("inf")
    assert report.worst_index is None
    assert report.n_dists == 0 and report.passed


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_distribution_rejects_non_finite_mass(bad):
    with pytest.raises(ValueError):
        AdtDistribution((bad, 0.5, 0.5, 0.0), (0.25,) * 4)
    with pytest.raises(ValueError):
        AdtDistribution((0.25,) * 4, (0.5, bad, 0.5, 0.0))


def test_distribution_q_must_match_params():
    with pytest.raises(ValueError):
        tc.check_less_noisy(AdtParams(3, 1, 4, 1), [AdtDistribution.uniform(3)])


@pytest.mark.parametrize("v1, v2", [(-1, 0), (0, -1), (16, 0), (0, 16), (-17, 3)])
def test_point_rejects_values_outside_the_columns(v1, v2):
    with pytest.raises(ValueError):
        AdtDistribution.point(4, v1, v2)


@pytest.mark.parametrize("helper", [interference_image_entropy, mutual_information_x1, output_entropy])
@pytest.mark.parametrize("receiver", ["c", "", "A", "ab"])
def test_helpers_reject_unknown_receivers(helper, receiver):
    with pytest.raises(ValueError):
        helper(AdtParams(3, 1, 4, 1), AdtDistribution.uniform(4), receiver)


# --- the per-receiver transform as the reference ---------------------------------
#
# The checker before the batched pass, kept verbatim: one receiver at a time,
# np.pad images and an np.stack butterfly.  The batched pass gives every
# element the same operands in the same order, so the slacks agree bit for bit.


def _stack(params: AdtParams, dists: Sequence[AdtDistribution]):
    """The batch's marginals as two (n, 2^q) arrays."""
    shape = (len(dists), 1 << params.q)
    if any(len(d.p1) != shape[1] for d in dists):
        raise ValueError(f"every distribution must have q = {params.q}")
    return np.reshape([d.p1 for d in dists], shape), np.reshape([d.p2 for d in dists], shape)


def _image(p: np.ndarray, s: int) -> np.ndarray:
    """Row laws of x >> (q - s), still over all 2^q columns."""
    n, size = p.shape
    img = p.reshape(n, 1 << s, size >> s).sum(axis=2)
    return np.pad(img, ((0, 0), (0, size - (1 << s))))


def _wht(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of every row (length 2^q)."""
    n, size = a.shape
    h = 1
    while h < size:
        a = a.reshape(n, size // (2 * h), 2, h)
        a = np.stack((a[:, :, 0] + a[:, :, 1], a[:, :, 0] - a[:, :, 1]), axis=2)
        h *= 2
    return a.reshape(n, size)


def _entropies(params: AdtParams, p1: np.ndarray, p2: np.ndarray, receiver: str):
    """Rows of H(y) and of H(y | x1) at receiver 'a' or 'b'.

    y is the XOR of the x1 image and the interference image: its law is
    their XOR-convolution, and given x1 it relabels the interference image.
    """
    s1, s2 = (params.m1, params.m2) if receiver == "a" else (params.n1, params.n2)
    signal, interf = _image(p1, s1), _image(p2, s2)
    law = _wht(_wht(signal) * _wht(interf)) / p1.shape[1]
    return _entropy_rows(law), _entropy_rows(interf)


def _batch_entropies(params: AdtParams, dists: Sequence[AdtDistribution]):
    """Rows of (H(y), H(y | x1)) at receiver a, then at receiver b."""
    require_q_cap(params)
    p1, p2 = _stack(params, dists)
    return _entropies(params, p1, p2, "a"), _entropies(params, p1, p2, "b")


def _reference_report(mode, params, dists):
    (ha, ca), (hb, cb) = _batch_entropies(params, dists)
    if mode == "lessnoisy":
        return _report(mode, params, (hb - cb) - (ha - ca))
    return _report(mode, params, (params.m2 - params.n2) - (ha - hb))


def _assert_same_report(mode, params, dists):
    check = tc.check_less_noisy if mode == "lessnoisy" else tc.check_entropy_diff
    report, ref = check(params, dists), _reference_report(mode, params, dists)
    assert (report.min_slack.hex(), report.worst_index) == (ref.min_slack.hex(), ref.worst_index), params
    assert report == ref


def _c11_batch(params, rng):
    size = 1 << params.q
    batch = [AdtDistribution.uniform(params.q)] + random_product_dists(params.q, 30, rng)
    batch += [AdtDistribution.point(params.q, int(rng.integers(size)), int(rng.integers(size)))
              for _ in range(10)]
    return batch


def test_c11_sweep_slacks_match_the_reference_bit_for_bit():
    for j, params in enumerate(regime_params(6, "entropydiff")):
        _assert_same_report("entropydiff", params, _c11_batch(params, np.random.default_rng([1, j])))


def test_less_noisy_slacks_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(15)
    for params in regime_params(5, "lessnoisy"):
        q, size = params.q, 1 << params.q
        dists = [AdtDistribution.uniform(q)]
        dists += random_product_dists(q, 4, rng) + random_table_dists(q, 4, rng)
        dists += [
            AdtDistribution.point(q, int(rng.integers(size)), int(rng.integers(size)))
            for _ in range(3)
        ]
        _assert_same_report("lessnoisy", params, dists)
        # each law alone too, so a wrong row cannot hide behind the batch minimum
        for dist in (dists[1], dists[5]):
            _assert_same_report("lessnoisy", params, [dist])


@pytest.mark.parametrize("mode, params", [
    ("lessnoisy", AdtParams(3, 1, 4, 1)),
    ("entropydiff", AdtParams(4, 2, 4, 1)),
])
def test_empty_batch_matches_the_reference(mode, params):
    _assert_same_report(mode, params, [])


def test_single_distribution_helpers_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(16)
    cases = (AdtParams(3, 1, 4, 1), AdtParams(4, 2, 4, 1), AdtParams(2, 0, 5, 2), AdtParams(1, 1, 1, 0))
    for params in cases:
        q = params.q
        dists = [AdtDistribution.uniform(q), AdtDistribution.point(q, 1, (1 << q) - 1)]
        dists += random_product_dists(q, 2, rng) + random_table_dists(q, 2, rng)
        for dist, receiver in itertools.product(dists, "ab"):
            h_y, h_cond = _entropies(params, *_stack(params, [dist]), receiver)
            assert output_entropy(params, dist, receiver).hex() == float(h_y[0]).hex()
            assert interference_image_entropy(params, dist, receiver).hex() == float(h_cond[0]).hex()
            assert mutual_information_x1(params, dist, receiver).hex() == float(h_y[0] - h_cond[0]).hex()


@pytest.mark.parametrize("mode, params", [("lessnoisy", "3,1,4,1"), ("entropydiff", "4,2,4,1")])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_cli_adt_reports_match_the_reference_bit_for_bit(capsys, mode, params, seed):
    assert run(["adt", "--params", params, "--mode", mode, "--trials", "1000", "--seed", str(seed)]) == 0
    doc = json.loads(capsys.readouterr().out)
    p = AdtParams(*(int(x) for x in params.split(",")))
    dists = [AdtDistribution.uniform(p.q)] + random_product_dists(p.q, 1000, np.random.default_rng(seed))
    ref = _reference_report(mode, p, dists)
    assert doc["min_slack"].hex() == ref.min_slack.hex()
    worst = dists[ref.worst_index]
    assert doc["worst_case_dist"] == {"p1": list(worst.p1), "p2": list(worst.p2)}


# --- one law array in place of the distribution list -------------------------------


def _as_array(dists, q):
    """The (n, 2, 2^q) array holding the same laws as ``dists``."""
    return np.array([(d.p1, d.p2) for d in dists], dtype=np.float64).reshape(len(dists), 2, 1 << q)


def _drawn(q, kinds, rng):
    size, dists = 1 << q, []
    for kind in kinds:
        if kind == "product":
            dists += random_product_dists(q, 1, rng)
        elif kind == "table":
            dists += random_table_dists(q, 1, rng)
        elif kind == "point":
            dists.append(AdtDistribution.point(q, int(rng.integers(size)), int(rng.integers(size))))
        else:
            dists.append(AdtDistribution.uniform(q))
    return dists


_REGIME_CASES = [(mode, p) for mode in ("lessnoisy", "entropydiff") for p in regime_params(6, mode)]


@given(
    st.sampled_from(_REGIME_CASES),
    st.lists(st.sampled_from(["product", "table", "point", "uniform"]), max_size=12),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_checks_read_an_array_as_the_equal_distribution_list(case, kinds, seed):
    mode, params = case
    check = tc.check_less_noisy if mode == "lessnoisy" else tc.check_entropy_diff
    dists = _drawn(params.q, kinds, np.random.default_rng(seed))
    from_array, from_list = check(params, _as_array(dists, params.q)), check(params, dists)
    assert (from_array.min_slack.hex(), from_array.worst_index) == (from_list.min_slack.hex(), from_list.worst_index)
    assert from_array == from_list


def _malformed(kind):
    laws = np.full((3, 2, 16), 1 / 16)
    if kind == "ndim":
        return laws[0]
    if kind == "pair":
        return np.full((3, 3, 16), 1 / 16)
    if kind == "q":
        return np.full((3, 2, 8), 1 / 8)
    if kind == "negative":
        laws[1, 0, :2] = (-1 / 16, 3 / 16)
    elif kind == "nan":
        laws[2, 1, 5] = float("nan")
    elif kind == "inf":
        laws[0, 1, 0] = float("inf")
    elif kind == "sum":
        laws[1, 1, 3] += 1e-9
    return laws


@pytest.mark.parametrize("check, params", [
    (tc.check_less_noisy, AdtParams(3, 1, 4, 1)),
    (tc.check_entropy_diff, AdtParams(4, 2, 4, 1)),
])
@pytest.mark.parametrize("kind", ["ndim", "pair", "q", "negative", "nan", "inf", "sum"])
def test_checks_refuse_malformed_law_arrays(check, params, kind):
    with pytest.raises(ValueError):
        check(params, _malformed(kind))


@pytest.mark.parametrize("check, params", [
    (tc.check_less_noisy, AdtParams(3, 1, 4, 1)),
    (tc.check_entropy_diff, AdtParams(4, 2, 4, 1)),
])
def test_empty_law_array_reports_inf_and_no_index(check, params):
    report = check(params, np.empty((0, 2, 16)))
    assert (report.min_slack, report.worst_index, report.n_dists) == (float("inf"), None, 0)


def test_cli_adt_builds_one_distribution_per_request(monkeypatch, capsys):
    built = []

    class Counting(AdtDistribution):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    # both names: a law built in tincell.adt on behalf of the verb counts too
    monkeypatch.setattr(tincell.cli, "AdtDistribution", Counting)
    monkeypatch.setattr(tincell.adt, "AdtDistribution", Counting)
    assert run(["adt", "--params", "3,1,4,1", "--trials", "1000", "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(built) == 1
    assert doc["worst_case_dist"] == {"p1": list(built[0].p1), "p2": list(built[0].p2)}
