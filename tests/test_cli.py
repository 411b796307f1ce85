import contextlib
import copy
import hashlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tincell.cli import run

NET_A = '{"K": 2, "L": [2, 1], "alpha": [[[0.6, 0.2], [1.0, 0.1]], [[0.3, 1.0]]]}'
STRAT_IBC = '{"side": "ibc", "order": [[1, 2], [1]], "r": [[0, 0], [0]]}'


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "netA.json"
    path.write_text(NET_A)
    return str(path)


@pytest.fixture
def strat_file(tmp_path):
    path = tmp_path / "strategy.json"
    path.write_text(STRAT_IBC)
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def test_validate_ok(capsys, net_file):
    code, doc = invoke_json(capsys, "validate", "--net", net_file)
    assert code == 0
    assert doc["ok"] is True
    assert doc["inputs"]["net"].startswith("sha256:")
    assert doc["version"]


def test_classify(capsys, net_file):
    code, doc = invoke_json(capsys, "classify", "--net", net_file)
    assert code == 0 and doc["regime"] == "TIN"


def test_region_default_order(capsys, net_file):
    code, doc = invoke_json(capsys, "region", "--net", net_file)
    assert code == 0
    bounds = sorted(c["bound"] for c in doc["region"]["constraints"])
    assert bounds == [0.6, 1.0, 1.0, 1.1, 1.6]
    assert doc["region"]["zero"] == []


def test_member(capsys, net_file):
    code, doc = invoke_json(capsys, "member", "--net", net_file, "--point", "0,0.9,0.7")
    assert code == 0 and doc["contained"] is True
    assert doc["witness"]["subnet"] == [[1, 2], [1]]
    code, doc = invoke_json(capsys, "member", "--net", net_file, "--point", "0.7,0,0")
    assert code == 0 and doc["contained"] is False


def test_region_from_order_and_subnet_files(capsys, tmp_path, net_file):
    subnet = tmp_path / "subnet.json"
    subnet.write_text("[[1, 2], []]")
    order = tmp_path / "order.json"
    order.write_text("[[2, 1]]")
    code, doc = invoke_json(
        capsys, "region", "--net", net_file,
        "--order", str(order), "--subnet", str(subnet),
    )
    assert code == 0
    assert doc["region"]["zero"] == [2]  # cell-2 user is forced to zero
    bounds = sorted(c["bound"] for c in doc["region"]["constraints"])
    assert bounds == [0.6, 1.0]  # reversed-order prefixes in cell 1


def test_maxsum(capsys, net_file):
    code, doc = invoke_json(
        capsys, "maxsum", "--net", net_file, "--order", "id", "--subnet", "all",
        "--weights", "1,1,1",
    )
    assert code == 0
    assert doc["value"] == 1.6
    assert sum(doc["argmax"]) == pytest.approx(1.6)


def test_bounds(capsys, net_file, strat_file):
    code, doc = invoke_json(capsys, "bounds", "--net", net_file, "--strategy", strat_file)
    assert code == 0
    assert doc["bounds"] == [0.0, 0.9, 0.7]


def test_rates(capsys, net_file, strat_file):
    code, doc = invoke_json(
        capsys, "rates", "--net", net_file, "--strategy", strat_file, "--pnominal", "1e6",
    )
    assert code == 0
    assert len(doc["rate_bits"]) == 3
    assert all(r >= 0 for r in doc["rate_bits"])


def test_dualize(capsys, net_file, strat_file):
    code, doc = invoke_json(capsys, "dualize", "--net", net_file, "--strategy", strat_file)
    assert code == 0
    assert doc["direction"] == "ibc_to_imac"
    assert doc["output"]["side"] == "imac"
    assert len(doc["gamma"]) == 3


def test_oracle_summary_and_csv(capsys, net_file):
    code, doc = invoke_json(
        capsys, "oracle", "--net", net_file, "--side", "ibc",
        "--grid", "0.25", "--rmax", "1", "--weights", "1,1,1", "--exact",
    )
    assert code == 0
    assert doc["count"] > 0
    assert doc["max_sum"] <= 1.6
    code, out = invoke(
        capsys, "oracle", "--net", net_file, "--side", "ibc",
        "--grid", "0.25", "--rmax", "1", "--csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d_cell1_slot1,d_cell1_slot2,d_cell2_slot1"
    assert len(lines) == doc["count"] + 1


def test_oracle_float_mode_bits_are_pinned(capsys, tmp_path):
    # The float bound's last bits depend on how the downlink bound is
    # associated: (direct(m) + r) - max(direct(m) + later, cross(m)^+) per
    # observer gives 0.6299999999999998 and 1.1099999999999999 at the
    # argmax, so the weighted sum prints 4.589999999999999, where the gamma
    # form direct + r - (direct + max(later, seen)) gives 4.59.
    path = tmp_path / "net.json"
    path.write_text(
        '{"K": 3, "L": [2, 1, 1], "alpha": [[[0.52, 0.04, 0.17], [1.91, 0.68, 1.05]], '
        '[[0.63, 1.14, 0.15]], [[0.45, 0.72, 0.11]]]}'
    )
    got = {}
    for mode in ("--float", "--exact"):
        code, doc = invoke_json(
            capsys, "oracle", "--net", str(path), "--grid", "0.1", "--weights", "1,2,3,4", mode
        )
        assert code == 0
        got[mode] = repr(doc["max_sum"])
    assert got == {"--float": "4.589999999999999", "--exact": "4.59"}


def test_oracle_rmax_alone_controls_depth(capsys, net_file):
    code, doc = invoke_json(
        capsys, "oracle", "--net", net_file, "--side", "ibc", "--rmax", "0.5",
    )
    assert code == 0
    assert doc["grid"] == {"step": 0.05, "depth": 0.5}


def test_oracle_budget_error(capsys, net_file):
    code, doc = invoke_json(
        capsys, "oracle", "--net", net_file, "--side", "ibc", "--budget", "1",
    )
    assert code == 1
    assert doc["error"]["type"] == "BudgetExceededError"


def test_ia(capsys, tmp_path):
    path = tmp_path / "ia.json"
    path.write_text('{"K": 2, "L": [2, 1], "alpha": [[[1.0, 0.5], [1.2, 0.4]], [[0.2, 1.0]]]}')
    code, doc = invoke_json(capsys, "ia", "--net", str(path))
    assert code == 0
    assert doc["d_tina"] == 1.6
    assert doc["gamma_ia"] == pytest.approx(0.1)
    assert doc["applicable"] is True


def test_adt(capsys):
    code, doc = invoke_json(
        capsys, "adt", "--params", "3,1,4,1", "--trials", "25", "--mode", "lessnoisy",
        "--seed", "1",
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["min_slack"] >= -1e-9


def test_adt_zero_trials_checks_uniform_law_only(capsys):
    code, doc = invoke_json(capsys, "adt", "--params", "3,1,4,1", "--trials", "0")
    assert code == 0
    assert doc["trials"] == 0
    assert doc["min_slack"] == pytest.approx(1.0)  # I(x1; yb) - I(x1; ya) = 4 - 3 bits
    assert doc["worst_case_dist"]["p1"] == [1 / 16] * 16


def test_adt_negative_trials_is_domain_error(capsys):
    code, doc = invoke_json(capsys, "adt", "--params", "3,1,4,1", "--trials", "-1")
    assert code == 1
    assert doc["error"]["type"] == "TincellError"
    assert "--trials" in doc["error"]["message"]


def test_rates_overflow_is_domain_error(capsys, tmp_path):
    net = tmp_path / "strong.json"
    net.write_text('{"K": 1, "L": [1], "alpha": [[[30]]]}')
    strategy = tmp_path / "one.json"
    strategy.write_text('{"side": "ibc", "order": [[1]], "r": [[0]]}')
    code, doc = invoke_json(
        capsys, "rates", "--net", str(net), "--strategy", str(strategy), "--pnominal", "1e12",
    )
    assert code == 1
    assert doc["error"]["type"] == "OverflowError"


def test_rates_beyond_a_single_links_float_range(capsys, tmp_path):
    # each P**alpha is above 1e328, each SINR about 10**1.1
    net = tmp_path / "strong2.json"
    net.write_text('{"K": 2, "L": [1, 1], "alpha": [[[30, 29.9]], [[29.9, 30]]]}')
    strategy = tmp_path / "two.json"
    strategy.write_text('{"side": "ibc", "order": [[1], [1]], "r": [[0], [0]]}')
    code, out = invoke(
        capsys, "rates", "--net", str(net), "--strategy", str(strategy), "--pnominal", "1e11",
    )
    assert code == 0
    doc = _strict_json(out)
    assert doc["sinr"] == pytest.approx([10**1.1] * 2, rel=1e-12)


def test_boolean_dimensions_are_domain_error(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"K": true, "L": [1], "alpha": [[[1.0]]]}')
    code, doc = invoke_json(capsys, "validate", "--net", str(path))
    assert code == 1
    assert doc["error"]["type"] == "NetworkFormatError"


def test_reports_are_reproducible(capsys, net_file):
    _, first = invoke(capsys, "classify", "--net", net_file)
    _, second = invoke(capsys, "classify", "--net", net_file)
    assert first == second


def test_missing_file_is_domain_error(capsys):
    code, doc = invoke_json(capsys, "validate", "--net", "/nonexistent.json")
    assert code == 1
    assert "error" in doc


def test_wrong_shape_ia_is_domain_error(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text('{"K": 1, "L": [1], "alpha": [[[1.0]]]}')
    code, doc = invoke_json(capsys, "ia", "--net", str(path))
    assert code == 1
    assert doc["error"]["type"] == "PreconditionError"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["not-a-verb"])
    assert exc.value.code == 2


@pytest.mark.parametrize("r", ["5", "[5]", "[[0, 0], 0]", '"off"', "{}"])
def test_strategy_powers_not_nested_lists_are_domain_error(capsys, tmp_path, net_file, r):
    path = tmp_path / "bad.json"
    path.write_text('{"side": "ibc", "order": [[1, 2], [1]], "r": ' + r + "}")
    code, doc = invoke_json(capsys, "bounds", "--net", net_file, "--strategy", str(path))
    assert code == 1
    assert doc["error"]["type"] == "NetworkFormatError"


@pytest.mark.parametrize("order", ["5", '["12", "1"]', "[[1.5, 2], [1]]", "[[true, 2], [1]]"])
def test_strategy_order_not_nested_integers_is_domain_error(capsys, tmp_path, net_file, order):
    path = tmp_path / "bad.json"
    path.write_text('{"side": "ibc", "order": ' + order + ', "r": [[0, 0], [0]]}')
    code, doc = invoke_json(capsys, "dualize", "--net", net_file, "--strategy", str(path))
    assert code == 1
    assert doc["error"]["type"] == "NetworkFormatError"


@pytest.mark.parametrize("verb", ["region", "maxsum"])
@pytest.mark.parametrize("flag, doc", [
    ("--order", "[[1.5, 2], [1]]"),
    ("--order", '["12", "1"]'),
    ("--order", "[[2, 1], [1], [7]]"),
    ("--order", "[[2, 1]]"),
    ("--order", "[[true, 2], [1]]"),
    ("--order", "5"),
    ("--subnet", "[[1, 2.9], [1]]"),
    ("--subnet", '["12", "1"]'),
    ("--subnet", "[[1, false], [1]]"),
    ("--subnet", "{}"),
])
def test_order_and_subnet_files_need_nested_integers(capsys, tmp_path, net_file, verb, flag, doc):
    path = tmp_path / "arg.json"
    path.write_text(doc)
    argv = [verb, "--net", net_file, flag, str(path)]
    if verb == "maxsum":
        argv += ["--weights", "1,1,1"]
    code, out = invoke_json(capsys, *argv)
    assert code == 1
    assert out["error"]["type"] == "TincellError"
    assert out["error"]["message"].startswith(f"bad {flag[2:]} file:")


# --- fuzzing: malformed documents never escape as a traceback ------------------

_WRONG_VALUES = [None, True, 0, -1, 3, 1.5, -0.5, "x", "off", [], [0], [[0]], {}, {"a": 1}]


def _paths(node, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


@st.composite
def _mutated(draw, text):
    """The document with one node given a wrong type or a wrong length."""
    doc = json.loads(text)
    path = draw(st.sampled_from(list(_paths(doc))))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    kinds = ["type"] + (["length"] if isinstance(node, (list, dict)) and node else [])
    if draw(st.sampled_from(kinds)) == "type":
        new = copy.deepcopy(draw(st.sampled_from(_WRONG_VALUES)))
    elif isinstance(node, dict):
        new = dict(node)
        del new[draw(st.sampled_from(sorted(new)))]
    elif draw(st.booleans()):
        new = node[:-1]
    else:
        new = node + [copy.deepcopy(node[-1])]
    if parent is None:
        return json.dumps(new)
    parent[path[-1]] = new
    return json.dumps(doc)


_STRAT_IMAC = '{"side": "imac", "order": [[2, 1], [1]], "r": [[-0.5, "off"], [0]]}'


def _run_with_files(argv, files):
    """Run the CLI with each ``files`` text written to a temporary file whose
    path replaces its key in ``argv``; return the exit code and report."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, text in files.items():
            paths[key] = os.path.join(tmp, f"{key}.json")
            with open(paths[key], "w") as fh:
                fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run([paths.get(a, a) for a in argv])
    return code, json.loads(out.getvalue())


def _assert_report_or_error(code, doc):
    if code == 0:
        assert "error" not in doc and doc["version"]
    else:
        assert code == 1
        assert set(doc["error"]) == {"type", "message"}


@given(
    st.sampled_from(["classify", "bounds", "dualize"]),
    st.one_of(_mutated(NET_A), st.just(NET_A)),
    st.one_of(_mutated(STRAT_IBC), _mutated(_STRAT_IMAC), st.just(STRAT_IBC)),
)
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_malformed_documents(verb, net_text, strategy_text):
    argv = [verb, "--net", "NET"]
    if verb != "classify":
        argv += ["--strategy", "STRATEGY"]
    code, doc = _run_with_files(argv, {"NET": net_text, "STRATEGY": strategy_text})
    _assert_report_or_error(code, doc)


_JUNK_ENTRIES = ["", " ", "x", "nan", "inf", "-inf", "1/0", "--1", "1e", "0.5.5", "-0.5", "3/4", "0x1"]


@st.composite
def _malformed_list(draw, text):
    """The comma list with one entry dropped, repeated or replaced by junk."""
    parts = text.split(",")
    i = draw(st.integers(0, len(parts) - 1))
    action = draw(st.sampled_from(["drop", "repeat", "junk"]))
    if action == "drop":
        del parts[i]
    elif action == "repeat":
        parts.insert(i, parts[i])
    else:
        parts[i] = draw(st.sampled_from(_JUNK_ENTRIES))
    return ",".join(parts)


_ORDER = "[[2, 1], [1]]"
_SUBNET = "[[1, 2], [1]]"


@given(
    st.sampled_from(["region", "maxsum", "member"]),
    _mutated(_ORDER),
    st.sampled_from(["ORDER", "id"]),
    _mutated(_SUBNET),
    st.sampled_from(["SUBNET", "all"]),
    st.one_of(_malformed_list("0,0.9,0.7"), st.just("0,0.9,0.7")),
)
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_malformed_arguments(verb, order_text, order, subnet_text, subnet, numbers):
    argv = [verb, "--net", "NET"]
    if verb == "member":
        argv.append(f"--point={numbers}")  # "=" keeps a leading "-" a value
    else:
        argv += ["--order", order, "--subnet", subnet]
        if verb == "maxsum":
            argv.append(f"--weights={numbers}")
    files = {"NET": NET_A, "ORDER": order_text, "SUBNET": subnet_text}
    _assert_report_or_error(*_run_with_files(argv, files))


_IA_NET = '{"K": 2, "L": [2, 1], "alpha": [[[1.0, 0.5], [1.2, 0.4]], [[0.2, 1.0]]]}'
_DECIMALS = ["0.25", "1/3", "0.5", "1", "2", "0", "-0.25", "1e-400", "1e400", "1e-9999999"]
_DECIMAL_ARGS = st.one_of(st.none(), st.sampled_from(_DECIMALS + _JUNK_ENTRIES))


@given(
    st.sampled_from(["ibc", "imac"]),
    _DECIMAL_ARGS,
    _DECIMAL_ARGS,
    st.one_of(st.none(), st.just("1,1,1"), _malformed_list("1,0.5,1")),
    st.integers(-2, 3000),
    st.sampled_from([[], ["--exact"], ["--float"]]),
)
@settings(max_examples=100, deadline=None)
def test_cli_fuzz_oracle_arguments(side, grid, rmax, weights, budget, mode):
    argv = ["oracle", "--net", "NET", "--side", side, f"--budget={budget}", *mode]
    for flag, value in (("grid", grid), ("rmax", rmax), ("weights", weights)):
        if value is not None:
            argv.append(f"--{flag}={value}")
    _assert_report_or_error(*_run_with_files(argv, {"NET": NET_A}))


@given(st.one_of(_mutated(_IA_NET), _mutated(NET_A), st.sampled_from([_IA_NET, NET_A])))
@settings(max_examples=100, deadline=None)
def test_cli_fuzz_ia_arguments(net_text):
    _assert_report_or_error(*_run_with_files(["ia", "--net", "NET"], {"NET": net_text}))


@given(
    st.one_of(
        st.sampled_from(["3,1,4,1", "4,2,4,1", "0,0,0,0", "1,2,1,1", "-1,0,0,0", "9,1,9,1", "40,0,40,0"]),
        _malformed_list("3,1,4,1"),
    ),
    st.integers(-2, 5),
    st.sampled_from(["lessnoisy", "entropydiff"]),
    st.one_of(st.integers(-3, 3), st.just(2**70)),
)
@settings(max_examples=100, deadline=None)
def test_cli_fuzz_adt_arguments(params, trials, mode, seed):
    argv = ["adt", f"--params={params}", f"--trials={trials}", "--mode", mode, f"--seed={seed}"]
    _assert_report_or_error(*_run_with_files(argv, {}))


def test_adt_q_beyond_cap_is_refused_before_any_law_is_built(capsys):
    # q = 40 would ask for two 2^40-point laws per distribution
    code, doc = invoke_json(capsys, "adt", "--params", "40,0,40,0", "--trials", "1")
    assert code == 1
    assert doc["error"]["type"] == "PreconditionError"
    assert "exceeds the cap" in doc["error"]["message"]


def test_adt_trials_beyond_the_mass_cap_are_refused_before_any_law_is_built(capsys):
    # ten million trials at q = 4 would hold 3.2e8 masses as Python floats
    start = time.perf_counter()
    code, doc = invoke_json(capsys, "adt", "--params", "3,1,4,1", "--trials", "10000000")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert doc["error"]["type"] == "PreconditionError"
    assert "over the cap" in doc["error"]["message"]


_HUGE_EXPONENT = "1e-9999999"


@pytest.mark.parametrize("argv", [
    ["member", "--net", "NET", f"--point=0,{_HUGE_EXPONENT},0"],
    ["maxsum", "--net", "NET", f"--weights=1,{_HUGE_EXPONENT},1"],
    ["oracle", "--net", "NET", f"--grid={_HUGE_EXPONENT}"],
    ["oracle", "--net", "NET", f"--rmax={_HUGE_EXPONENT}"],
    ["oracle", "--net", "NET", "--grid=0.5", "--rmax=1", f"--weights=1,1,{_HUGE_EXPONENT}"],
    ["classify", "--net", "HUGE"],
])
def test_huge_decimal_exponents_are_refused_at_once(argv):
    # Fraction would expand the exponent into ten million digits first
    huge = NET_A.replace("0.1", _HUGE_EXPONENT)
    start = time.perf_counter()
    code, doc = _run_with_files(argv, {"NET": NET_A, "HUGE": huge})
    assert time.perf_counter() - start < 5
    assert code == 1
    assert doc["error"]["type"] == "NetworkFormatError"
    assert "decimal exponent" in doc["error"]["message"]


def test_decimal_exponents_up_to_the_cap_still_parse(capsys, net_file):
    code, doc = invoke_json(capsys, "member", "--net", net_file, "--point=1e-1000,0.2E+0,0")
    assert code == 0 and doc["contained"] is True
    code, doc = invoke_json(capsys, "maxsum", "--net", net_file, "--weights=1e-1000,0,0")
    assert code == 0 and doc["argmax"] == [0.6, 0.0, 0.0]


# --- byte-identical reports ----------------------------------------------------
#
# sha256 of stdout for every exact verb on the fixture networks of conftest.py.
# A refactor must leave these reports unchanged byte for byte.  `rates`, `adt`
# and float-mode `oracle` are left out: their last bits depend on libm and numpy.

_IMAC_21 = '{"side": "imac", "order": [[2, 1], [1]], "r": [[0, -0.1], [-0.2]]}'
_GOLDEN_DOCS = {
    # name: (network, member points, weights, ibc strategy, imac strategy, order)
    "netA": (NET_A, ("0,0.9,0.7", "0.7,0,0"), "1,2,1", STRAT_IBC, _IMAC_21, "[[2, 1], [1]]"),
    "netB": (
        '{"K": 2, "L": [2, 1], "alpha": [[[1.0, 0.5], [1.2, 0.4]], [[0.2, 1.0]]]}',
        ("0.5,0.3,0.6", "1.2,0,0.1"), "3,1,2", STRAT_IBC, _IMAC_21, "[[2, 1], [1]]",
    ),
    "netC": (
        '{"K": 2, "L": [2, 1], "alpha": [[[1.0, 0.5], [1.15, 0.2]], [[0.2, 1.2]]]}',
        ("0.4,0.4,0.8", "0,1.15,1.2"), "1,1,1", STRAT_IBC, _IMAC_21, "[[2, 1], [1]]",
    ),
    "bc2": (
        '{"K": 1, "L": [2], "alpha": [[[0.6], [1.0]]]}',
        ("0.3,0.3", "0.7,0.5"), "2,1",
        '{"side": "ibc", "order": [[1, 2]], "r": [[0, -0.2]]}',
        '{"side": "imac", "order": [[2, 1]], "r": [[0, 0]]}',
        "[[2, 1]]",
    ),
}


def _golden_argvs(tmp_path, name):
    net, points, weights, ibc, imac, order = _GOLDEN_DOCS[name]
    files = {}
    for key, text in (("net", net), ("ibc", ibc), ("imac", imac), ("order", order)):
        files[key] = str(tmp_path / f"{key}.json")
        (tmp_path / f"{key}.json").write_text(text)
    n = ["--net", files["net"]]
    oracle = ["oracle", *n, "--grid", "0.25", "--rmax", "1", "--exact"]
    argvs = {
        "validate": ["validate", *n],
        "classify": ["classify", *n],
        "region": ["region", *n],
        "region_order": ["region", *n, "--order", files["order"]],
        "maxsum": ["maxsum", *n, "--weights", weights],
        "maxsum_order": ["maxsum", *n, "--order", files["order"], "--weights", weights],
        "bounds_ibc": ["bounds", *n, "--strategy", files["ibc"]],
        "bounds_imac": ["bounds", *n, "--strategy", files["imac"]],
        "dualize_ibc": ["dualize", *n, "--strategy", files["ibc"]],
        "dualize_imac": ["dualize", *n, "--strategy", files["imac"]],
        "ia": ["ia", *n],
        "oracle_ibc": [*oracle, "--side", "ibc", "--weights", weights],
        "oracle_imac_csv": [*oracle, "--side", "imac", "--csv"],
    }
    for i, point in enumerate(points):
        argvs[f"member{i}"] = ["member", *n, "--point", point]
    return argvs


_GOLDEN_SHA256 = {
    "bc2": {
        "bounds_ibc": "46de9fd633f3720abb23d3d1dce8ad0e10656783819a42acfcbffe5ed9c4b0f5",
        "bounds_imac": "8e2b5df7ed0938a6782da2f0a35024ca9a6dcc6bd468c39b59004586ceb79b75",
        "classify": "67a1c0b488cb044e6b31f33d32005cfa63875836fe651ffe9a8d6c989ace025a",
        "dualize_ibc": "d1857158da069f8c76615bfa41dedfc06b638767c7546d839be35b8a138afe10",
        "dualize_imac": "1d505dbd7eb2f99bb2dfd0687fea8eedacb8842f193bda663963cc4817fcf383",
        "ia": "456f001a7abfa84679dd7af3aa9814e001f74dacf9f9e4ae8c1ca960dd27d3c5",
        "maxsum": "cfe5bc9e55b6548cf2be56b21bbf9484f2ca94bcbd84145ef141fb10dab3d2ae",
        "maxsum_order": "1eebc18c0c6041020a973fe4e7fbfb1476a47fc4cf6a467070d099f3a09a91bd",
        "member0": "3612673a84856b3688b755191f5c8e6d00ef00f243d6846e56083a947d2018ab",
        "member1": "41c9c0602f4b93ee7ea406c01e196c66fdb3f93e1f2fbb775050aaab8fa682d8",
        "oracle_ibc": "278aa041e0742673a876dfaa9b339b9aa1726d84bfcad7bb37247e4d86b3d822",
        "oracle_imac_csv": "306367929999b48a7364308ea731e22a50ff7b71c045b82cd04d415aabf51181",
        "region": "bb1524fb6c1dd2dd00e976795d30a3c36cb2af3c14869f064b8da6a16e097ceb",
        "region_order": "8cc8bd31ef4636786c5c2dc90b3623cd6815565e8975945e7f7e1f6105635f2e",
        "validate": "43854a2f9ec4b15be5ddab0f9d12b7005fe6424a0d706066a8a7453ee5e01f60",
    },
    "netA": {
        "bounds_ibc": "fd9b00f926ccd8bc3b2fab98617ab5d1ae23114fa968de5d615ce54ff4881c6d",
        "bounds_imac": "1e6e5a5c8b2418ed1ff98c888f6f2d5034e4d050288e229e8b1f858c3a28da16",
        "classify": "5789e3e80c615af3fba3bec80dbecfef29fd277a886068a1a50a8e4873b8fb75",
        "dualize_ibc": "67122438dda322e0e29519aa2b6863cfad56490d6f6c3fd5acd1aa2560818b73",
        "dualize_imac": "ef9728268a024c953497ebd1a8648d8670b508abb38762d0333ad58594af8f65",
        "ia": "7e39d1773630f0cce97baac3e2204a3ed217efbfb6e8444a67f00405e1919376",
        "maxsum": "e9a83f23297bb7de430a4c480e6ba9f6822c238b0fe8613e68af1406aa0bec0e",
        "maxsum_order": "70db9fbc2feee8930e46f196a6a04945a717ddbbe1030da5029c627c49c16a9b",
        "member0": "c3c57e5493807934b2896fd518015cd5e2aa7757582c274a0a888b774e1245db",
        "member1": "f9d20f1c7ffd3d59ced7cac6e01aa88a3ceb87821171c10f79e4beef5651dd7c",
        "oracle_ibc": "0549bfedcfad028f03174372b6b6a806d955ad6e7601ae84ec4454c0b827dc10",
        "oracle_imac_csv": "e6fa223e01b1bc37a871831d61b689d48612e53d2edef54a3c6404c1e7d9f2d7",
        "region": "b83ff87ff19fb6295da0ab7b685430ced25b613fd593d17a5df0bc8efffa9082",
        "region_order": "7b66a1a58f41d985aa94b596ef4f62ac30f9a314664a35607357648c7efd17b5",
        "validate": "89bdd272b151c5bc82c99d9bf2f859653ceae5e60d329922a2df5d9558257428",
    },
    "netB": {
        "bounds_ibc": "1f25564df87834a2d81d1af7facad4a7e6387c624cf58087eee6bc4ddfdc20a2",
        "bounds_imac": "91049f036f14b31fc54b3c5a02211a5f2e233807bc296ab75c626cb47cb5f081",
        "classify": "8ce6b74c6c724596c2ee3c38da9b09e72867aa6148accb420b6f47f5d6309a9d",
        "dualize_ibc": "23fe6c70036c6377008523eaf6b1cdfdfe9d6e58c292ef022ae2f47c8c45f101",
        "dualize_imac": "eea8a978af6ccb6afa03191e69fe93edb671e822068ddbefb81b7d6139106cee",
        "ia": "87a70277151824b3aea4c8a10bfdf5266dd96a042afb0f3089cbbafa585698b7",
        "maxsum": "23ec8316681d43b4b161600ae1d208bf9cbc617b7084769d738ee08e9a00d931",
        "maxsum_order": "8aff5fd11766dcc777a5519bd5853ef8d262848976ecaaca664f144b24149c9d",
        "member0": "e276c1a70299973d10edac2dcb1a7dca0d1ce5a83bf430cfd4b23431759d819c",
        "member1": "221364eb9e4053e0083f9dff43453ca70ed1c50ee39a1edcabd0b7cddd8d77cb",
        "oracle_ibc": "c7e2f539556f8b70d619c5da3779482660f7ed9a9d5013dbc3b5e55e39657aa2",
        "oracle_imac_csv": "8014c3ca0a20492e38de26b9ea1dcebb8b3a46667e8a0b80a0846261fab510b2",
        "region": "1fd63a23b46e6ebc2fe3e006e5f78e4baa922c6c8d847e0b63d2bc098e8545f1",
        "region_order": "afe7f853978343a1e8226168fd7ebb4217e0e05ef4823c12ba79dd3f2febd2c8",
        "validate": "9e35fe9687be1f765ddc5e669e3e742d2826f40466392fb68775c404218c1780",
    },
    "netC": {
        "bounds_ibc": "664e88cec68a3c968cf408b9522af535ecfd17dd11c4ac623b8009ff73f60309",
        "bounds_imac": "50673f160d55e9c0b5508c76b02f97090673b384f3085f494da18f5aa3141ecc",
        "classify": "30e9a9c600facacd236d6824de9ad8115ecefc77c44ba0f6f552e1ac3684460f",
        "dualize_ibc": "74b82687bb4a4666b455df19c3326cb3454ef83d0f776d9e625f035b70e044ba",
        "dualize_imac": "b69cc235c9fb0691bc935509741aa8c764fdf2af0c6a6299040d639e8bf3fef6",
        "ia": "11139204293a06051a33c6310decc69e722304fb6ed107b84e79b2f2598a9a34",
        "maxsum": "382729e7a7314bdb15be15d950c64a199af234d3a3148ea168ebc1f36690f84e",
        "maxsum_order": "a963656b9bd1872def52e0cdc9c4be90e2eb82542fa3b7ffd282eac8c17b5eb1",
        "member0": "b45f2abdf6412b684663ffb0da293b5098a52824bfc81a0f548c2ec3f48b4f8e",
        "member1": "ef1bdb1150eeb5db4c913bebb86f32fff03d22772684514c6e85c5cdc28d5a06",
        "oracle_ibc": "eaefedf92a559cc26dc48a54a0e6aba9045a53be6e1f4e6f5d8bc0fe7eb7135f",
        "oracle_imac_csv": "6ca7679c7fc4630356a76c827543b6ddb4085f19c7a3b73d07cac52d8e60e023",
        "region": "e90973e3c1f8351abb95b7ab00966b641b76b875f9b40fc8884c1e98e56f2936",
        "region_order": "7141b29b6de571de322a3433a372c9c7fa205742ae1e7d8c418e1221d96e38ba",
        "validate": "114191c257cc79f5b77ea2ad69c704bab62f8d099c0f5e50ac018b00775a4fd6",
    },
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_DOCS))
def test_exact_reports_are_byte_identical(capsys, tmp_path, name):
    got = {}
    for case, argv in _golden_argvs(tmp_path, name).items():
        _, out = invoke(capsys, *argv)
        got[case] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert got == _GOLDEN_SHA256[name]


# --- one request path ---------------------------------------------------------


def test_requests_in_one_process_share_no_state(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["classify"])
    assert exc.value.code == 2
    code, doc = invoke_json(capsys, "validate", "--net", str(tmp_path / "missing.json"))
    assert code == 1 and doc["error"]["type"] == "TincellError"
    argv = _golden_argvs(tmp_path, "netA")["classify"]
    code, out = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _GOLDEN_SHA256["netA"]["classify"]


def test_maxsum_reports_bad_weights_before_a_non_bijective_order(capsys, tmp_path, net_file):
    order = tmp_path / "order.json"
    order.write_text("[[1, 1], [1]]")
    argv = ["maxsum", "--net", net_file, "--order", str(order)]
    code, doc = invoke_json(capsys, *argv, "--weights", "1,1,1")
    assert code == 1
    assert doc["error"] == {"type": "ValueError", "message": "order for cell 1 is not a bijection onto its subset"}
    code, doc = invoke_json(capsys, *argv, "--weights", "x,1,1")
    assert code == 1
    assert doc["error"]["type"] == "TincellError"
    assert doc["error"]["message"].startswith("bad numeric list 'x,1,1'")


def test_adt_report_keys(capsys):
    code, doc = invoke_json(capsys, "adt", "--params", "3,1,4,1", "--trials", "3")
    assert code == 0
    assert set(doc) == {
        "version", "inputs", "mode", "params", "trials", "min_slack", "passed", "worst_case_dist",
    }
    assert doc["inputs"] == {}


def _strict_json(out):
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(out, parse_constant=refuse)


@pytest.mark.parametrize("pnominal", ["inf", "1e400", "nan"])
def test_rates_refuse_a_non_finite_nominal_power(capsys, net_file, strat_file, pnominal):
    code, out = invoke(
        capsys, "rates", "--net", net_file, "--strategy", strat_file, "--pnominal", pnominal,
    )
    assert code == 1
    doc = _strict_json(out)
    assert doc["error"]["type"] == "ValueError"
    assert "finite" in doc["error"]["message"]


def test_non_finite_report_values_become_the_error_object(capsys, net_file, strat_file, monkeypatch):
    monkeypatch.setattr("tincell.cli.sinr_rates_ibc", lambda *a: ((float("inf"), float("inf")),) * 3)
    code, out = invoke(
        capsys, "rates", "--net", net_file, "--strategy", strat_file, "--pnominal", "1e6",
    )
    assert code == 1 and out.count("\n") == 1
    assert _strict_json(out)["error"]["type"] == "ValueError"
