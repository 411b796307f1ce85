from fractions import Fraction

import pytest

import tincell.cli
import workloads
from tincell.network import serialize_network
from worker import drive


@pytest.mark.parametrize("name", ["crosscheck", "union_search", "convex_lp"])
def test_network_generators_are_deterministic(name, tmp_path):
    def nets(seed, sub):
        d = tmp_path / f"{sub}"
        d.mkdir()
        wl = workloads.WORKLOADS[name](seed, d)
        return [serialize_network(getattr(n, "net", n)) for n in wl.nets]

    assert nets(3, "a") == nets(3, "b")
    assert nets(3, "c") != nets(4, "d")


def test_session_inputs_are_deterministic(tmp_path):
    def first_ops(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        wl = workloads.WORKLOADS["union_search"](seed, d)
        res = drive(wl.sessions(), max_ops=10)
        return res.attempted, res.failed, res.digest

    assert first_ops(5, "a") == first_ops(5, "b")


def test_adt_batches_are_deterministic(tmp_path):
    def batch(seed, j):
        p, dists = workloads.WORKLOADS["adt_check"](seed, tmp_path).sweep_item(j)
        return p, [(d.p1, d.p2) for d in dists]

    assert batch(2, 7) == batch(2, 7)
    assert batch(2, 7) != batch(3, 7)
    assert batch(2, 7) != batch(2, 8)


def test_injected_wrong_answer_counts_as_failure(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["convex_lp"](1, tmp_path)
    honest = drive(wl.sessions(), max_ops=3)  # classify, then two maxsum requests
    assert (honest.attempted, honest.failed) == (3, 0)

    real = tincell.cli.max_weighted_sum

    def off_by_a_tenth(region, w):
        value, arg = real(region, w)
        return value + Fraction(1, 10), arg

    monkeypatch.setattr(tincell.cli, "max_weighted_sum", off_by_a_tenth)
    wrong = drive(wl.sessions(), max_ops=3)
    assert (wrong.attempted, wrong.failed) == (3, 2)


def test_exception_counts_as_failure_and_ends_the_session(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["convex_lp"](1, tmp_path)

    def boom(net):
        raise RuntimeError("injected")

    monkeypatch.setattr(tincell.cli, "classify_regime", boom)
    res = drive(wl.sessions(), max_ops=2)
    assert res.attempted == 2 and res.failed == 2
    assert all("RuntimeError: injected" in e for e in res.errors)


def test_error_report_fails_the_op_once_and_aborts_the_session(tmp_path, monkeypatch):
    from tincell.errors import TincellError

    wl = workloads.WORKLOADS["union_search"](1, tmp_path)

    def refuse(net, strategy):
        raise TincellError("injected")

    monkeypatch.setattr(tincell.cli, "gdof_bounds", refuse)
    res = drive(wl.sessions(), max_ops=5)  # validate, classify, region, bounds; then the next session
    assert (res.attempted, res.failed) == (5, 1)
    assert any("aborted" in e for e in res.errors)
