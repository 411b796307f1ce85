"""Command-line front end.

Every command reads JSON inputs, prints one JSON report to stdout (CSV only
for oracle point dumps) and exits 0.  Domain failures (bad file, violated
precondition, blown budget) print a structured error object and exit 1;
usage errors exit 2.  Reports embed the tool version and a sha256 digest of
every input file, and identical inputs always produce byte-identical
output.

One parser serves every request of a process: it is built on first use and
cached.  ``run`` loads ``--net`` for every verb that takes it and wraps each
verb's payload in the version-and-digests envelope.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .adt import (
    AdtDistribution,
    AdtParams,
    check_entropy_diff,
    check_less_noisy,
    random_product_dists,  # unused: kept for the benchmark tracer's adt.gen layer, which wraps this name
    random_product_laws,
    require_q_cap,
)
from .duality import dualize
from .errors import PreconditionError, TincellError
from .network import ChannelStrengths, _is_int_lists, parse_decimal, parse_network, validate
from .oracle import GridSpec, grid_achievable_points, oracle_max_sum
from .regions import (
    Subnetwork,
    classify_regime,
    ia_sum_gdof,
    identity_suborder,
    max_weighted_sum,
    polyhedral_region,
    region_to_dict,
    tina_region_contains,
)
from .strategies import (
    FiniteSnrConfig,
    gdof_bounds,
    parse_strategy,
    sinr_rates_ibc,
    strategy_to_dict,
)

# masses ``adt`` may draw: trials times two 2^q-point marginals
_MAX_ADT_MASSES = 1 << 21


def _parse_list(text: str) -> list[Fraction]:
    try:
        return [parse_decimal(part.strip()) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise TincellError(f"bad numeric list {text!r}: {exc}") from exc


def _emit(report: dict) -> None:
    """Write one JSON report line; a NaN or infinite value raises ValueError
    before anything is written."""
    sys.stdout.write(json.dumps(report, sort_keys=True, allow_nan=False) + "\n")


class _Inputs:
    """Tracks input files so the report can embed their digests."""

    def __init__(self):
        self.digests = {}

    def _text(self, key: str, path: str) -> str:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise TincellError(f"cannot read {path}: {exc}") from exc
        self.digests[key] = "sha256:" + hashlib.sha256(data).hexdigest()
        return data.decode("utf-8")

    def net(self, path: str) -> ChannelStrengths:
        return parse_network(self._text("net", path))

    def strategy(self, path: str, net: ChannelStrengths):
        return parse_strategy(self._text("strategy", path), net)

    def json_file(self, key: str, path: str):
        text = self._text(key, path)
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise TincellError(f"{path}: invalid JSON: {exc}") from exc

    def envelope(self, payload: dict) -> dict:
        return {"version": __version__, "inputs": self.digests, **payload}


def _int_lists_from_file(key: str, path: str, inputs: _Inputs) -> tuple[tuple[int, ...], ...]:
    doc = inputs.json_file(key, path)
    if not _is_int_lists(doc):
        raise TincellError(f"bad {key} file: expected a list of per-cell lists of integers")
    return tuple(tuple(cell) for cell in doc)


def _order_and_subnet(args, inputs: _Inputs, net: ChannelStrengths) -> tuple[dict, Subnetwork]:
    """The ``--order`` and ``--subnet`` of ``region`` / ``maxsum``; the subnet is read first."""
    if args.subnet == "all":
        subnet = Subnetwork.full(net)
    else:
        cells = _int_lists_from_file("subnet", args.subnet, inputs)
        try:
            subnet = Subnetwork(cells)
        except ValueError as exc:
            raise TincellError(f"bad subnet file: {exc}") from exc
    if args.order == "id":
        return identity_suborder(subnet), subnet
    perms = _int_lists_from_file("order", args.order, inputs)
    cells = subnet.cells()
    if len(perms) != len(cells):
        raise TincellError(
            f"bad order file: {len(perms)} per-cell lists for {len(cells)} participating cells"
        )
    return dict(zip(cells, perms)), subnet


# Each verb takes (args, inputs, parsed --net or None) and returns its payload.


def _cmd_validate(args, inputs, net) -> dict:
    violations = validate(net)
    return {"ok": not violations, "violations": [list(v) for v in violations]}


def _cmd_classify(args, inputs, net) -> dict:
    return {"regime": classify_regime(net).value}


def _cmd_region(args, inputs, net) -> dict:
    order, subnet = _order_and_subnet(args, inputs, net)
    return {"region": region_to_dict(polyhedral_region(net, order, subnet))}


def _cmd_member(args, inputs, net) -> dict:
    point = _parse_list(args.point)
    if len(point) != net.n_users:
        raise TincellError(f"point has {len(point)} entries, expected {net.n_users}")
    ok, witness = tina_region_contains(net, point)
    payload = {"contained": ok, "witness": None}
    if witness is not None:
        order, subnet = witness
        payload["witness"] = {
            "order": {str(c): list(order[c]) for c in sorted(order)},
            "subnet": [list(s) for s in subnet.slots_by_cell],
        }
    return payload


def _cmd_maxsum(args, inputs, net) -> dict:
    order, subnet = _order_and_subnet(args, inputs, net)
    weights = _parse_list(args.weights)  # before the build: bad weights beat a non-bijective order
    value, arg = max_weighted_sum(polyhedral_region(net, order, subnet), weights)
    return {"value": float(value), "argmax": [float(x) for x in arg]}


def _cmd_bounds(args, inputs, net) -> dict:
    strategy = inputs.strategy(args.strategy, net)
    bounds = gdof_bounds(net, strategy)
    return {"side": strategy.side, "bounds": [float(b) for b in bounds]}


def _cmd_rates(args, inputs, net) -> dict:
    strategy = inputs.strategy(args.strategy, net)
    if strategy.side != "ibc":
        raise TincellError("finite-SNR rates are only defined for downlink strategies")
    cfg = FiniteSnrConfig(P=float(args.pnominal))
    pairs = sinr_rates_ibc(net, strategy.order, strategy.power, cfg)
    log2p = math.log2(cfg.P)
    return {
        "P": cfg.P,
        "sinr": [s for s, _ in pairs],
        "rate_bits": [r for _, r in pairs],
        "rate_over_log2P": [r / log2p for _, r in pairs],
    }


def _cmd_dualize(args, inputs, net) -> dict:
    strategy = inputs.strategy(args.strategy, net)
    report = dualize(net, strategy)
    return {
        "direction": report.direction,
        "input": strategy_to_dict(report.input_strategy),
        "output": strategy_to_dict(report.output_strategy),
        "gamma": [float(g) for g in report.gamma],
    }


def _cmd_oracle(args, inputs, net):
    step = parse_decimal(args.grid) if args.grid is not None else Fraction(1, 20)
    depth = parse_decimal(args.rmax) if args.rmax is not None else net.max_strength() + 1
    grid = GridSpec(step=step, depth=depth)
    mode = "exact" if args.exact else "float"
    points = grid_achievable_points(net, args.side, grid, mode=mode, budget=args.budget)
    if args.csv:
        users = net.users()
        sys.stdout.write(",".join(f"d_cell{u.cell}_slot{u.slot}" for u in users) + "\n")
        for p in sorted(points):
            sys.stdout.write(",".join(repr(float(x)) for x in p) + "\n")
        return None
    payload = {
        "side": args.side,
        "mode": mode,
        "grid": {"step": float(grid.step), "depth": float(grid.depth)},
        "count": len(points),
    }
    if args.weights is not None:
        w = _parse_list(args.weights)
        payload["max_sum"] = float(oracle_max_sum(net, args.side, w, grid, mode=mode, budget=args.budget))
    return payload


def _cmd_ia(args, inputs, net) -> dict:
    rep = ia_sum_gdof(net)
    return {
        "d_tina": float(rep.d_tina),
        "gamma_ia": float(rep.gamma_ia),
        "d_ia": float(rep.d_ia),
        "applicable": rep.applicable,
    }


def _cmd_adt(args, inputs, net) -> dict:
    try:
        m1, m2, n1, n2 = (int(x) for x in args.params.split(","))
    except ValueError as exc:
        raise TincellError(f"bad --params {args.params!r}: {exc}") from exc
    if args.trials < 0:
        raise TincellError(f"--trials must be nonnegative, got {args.trials}")
    params = AdtParams(m1, m2, n1, n2)
    require_q_cap(params)
    masses = args.trials << (params.q + 1)
    if masses > _MAX_ADT_MASSES:
        raise PreconditionError(
            f"--trials {args.trials} at q = {params.q} would draw {masses} probability masses, "
            f"over the cap of {_MAX_ADT_MASSES}"
        )
    size = 1 << params.q
    rng = np.random.default_rng(args.seed)
    # law 0 is the uniform law, then the drawn ones: one (trials + 1, 2, 2^q) array
    uniform = np.full((1, 2, size), 1.0 / size)
    laws = np.concatenate((uniform, random_product_laws(params.q, args.trials, rng)))
    check = check_less_noisy if args.mode == "lessnoisy" else check_entropy_diff
    report = check(params, laws)
    worst = None
    if report.worst_index is not None:
        d = AdtDistribution(*(tuple(p) for p in laws[report.worst_index].tolist()))
        worst = {"p1": list(d.p1), "p2": list(d.p2)}
    return {
        "mode": report.mode,
        "params": [m1, m2, n1, n2],
        "trials": args.trials,
        "min_slack": report.min_slack,
        "passed": report.passed,
        "worst_case_dist": worst,
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tincell",
        description="GDoF regions, duality and regime classification for multi-cell TIN",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        return p

    net_flag = {"required": True, "help": "network JSON file"}
    add("validate", _cmd_validate, net=net_flag)
    add("classify", _cmd_classify, net=net_flag)
    add(
        "region", _cmd_region, net=net_flag,
        order={"default": "id", "help": "'id' or order JSON file"},
        subnet={"default": "all", "help": "'all' or subnet JSON file"},
    )
    add("member", _cmd_member, net=net_flag, point={"required": True, "help": "comma list"})
    add(
        "maxsum", _cmd_maxsum, net=net_flag,
        order={"default": "id"}, subnet={"default": "all"},
        weights={"required": True, "help": "comma list of nonnegative weights"},
    )
    add("bounds", _cmd_bounds, net=net_flag, strategy={"required": True})
    add(
        "rates", _cmd_rates, net=net_flag, strategy={"required": True},
        pnominal={"required": True, "type": float, "help": "nominal power, 1 < P < inf"},
    )
    add("dualize", _cmd_dualize, net=net_flag, strategy={"required": True})
    oracle_p = add(
        "oracle", _cmd_oracle, net=net_flag,
        side={"default": "ibc", "choices": ["ibc", "imac"]},
        grid={"default": None, "help": "exponent step (default 0.05)"},
        rmax={"default": None, "help": "search depth (default max strength + 1)"},
        budget={"default": 10**8, "type": int},
        weights={"default": None},
    )
    oracle_p.add_argument("--csv", action="store_true", help="dump points as CSV")
    mode = oracle_p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--float", dest="float_mode", action="store_true")
    add("ia", _cmd_ia, net=net_flag)
    add(
        "adt", _cmd_adt,
        params={"required": True, "help": "m1,m2,n1,n2"},
        trials={"default": 1000, "type": int},
        mode={"default": "lessnoisy", "choices": ["lessnoisy", "entropydiff"]},
        seed={"default": 0, "type": int},
    )
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    inputs = _Inputs()
    try:
        net = inputs.net(args.net) if "net" in args else None
        payload = args.fn(args, inputs, net)
        if payload is not None:
            _emit(inputs.envelope(payload))
    except (TincellError, ValueError, ArithmeticError) as exc:
        _emit({
            "version": __version__,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        })
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
