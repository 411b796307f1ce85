import contextlib
import copy
import io
import json
import os
import tempfile

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


@given(
    st.sampled_from(["classify", "bounds", "dualize"]),
    st.one_of(_mutated(NET_A), st.just(NET_A)),
    st.one_of(_mutated(STRAT_IBC), _mutated(_STRAT_IMAC), st.just(STRAT_IBC)),
)
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_malformed_documents(verb, net_text, strategy_text):
    with tempfile.TemporaryDirectory() as tmp:
        net_path = os.path.join(tmp, "net.json")
        strategy_path = os.path.join(tmp, "strategy.json")
        with open(net_path, "w") as fh:
            fh.write(net_text)
        with open(strategy_path, "w") as fh:
            fh.write(strategy_text)
        argv = [verb, "--net", net_path]
        if verb != "classify":
            argv += ["--strategy", strategy_path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(argv)
    doc = json.loads(out.getvalue())
    if code == 0:
        assert "error" not in doc and doc["version"]
    else:
        assert code == 1
        assert set(doc["error"]) == {"type", "message"}
