"""Span tracer that times the program's layers from outside.

``Tracer.install`` replaces each layer function at the name its callers
resolve (``tincell.regions.polyhedral_region`` is what
``tina_region_contains`` calls; ``tincell.cli.polyhedral_region`` is what the
``region`` verb calls) with a wrapper that appends one span per call.  Spans
are kept in memory, carry the id of the benchmark op that caused them and
are written out when the run ends.  An untraced run never installs a
wrapper.

The program has no queues, so no layer ever waits; only busy (self) time
and work counts are reported.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

# layer -> the names callers resolve; every name is wrapped separately
LAYERS = {
    "cli": ["tincell.cli.run"],
    "network.parse": ["tincell.cli.parse_network"],
    "regions.build": ["tincell.regions.polyhedral_region", "tincell.cli.polyhedral_region"],
    "regions.contains": ["tincell.regions.contains"],
    "regions.union": [
        "tincell.regions.tina_region_contains",
        "tincell.cli.tina_region_contains",
        "tincell.regions.tina_max_weighted_sum",
    ],
    "regions.classify": ["tincell.cli.classify_regime"],
    "regions.lp": ["tincell.regions.max_weighted_sum", "tincell.cli.max_weighted_sum"],
    "simplex.solve": ["tincell.regions.solve_lp"],
    "oracle.points": ["tincell.oracle.grid_achievable_points", "tincell.cli.grid_achievable_points"],
    "oracle.maxsum": ["tincell.oracle.oracle_max_sum", "tincell.cli.oracle_max_sum"],
    "adt.check": [
        "tincell.adt.check_entropy_diff",
        "tincell.adt.check_less_noisy",
        "tincell.cli.check_entropy_diff",
        "tincell.cli.check_less_noisy",
    ],
    "adt.gen": ["tincell.cli.random_product_dists"],
    "strategies.bounds": [
        "tincell.strategies.gdof_bounds_ibc",
        "tincell.strategies.gdof_bounds_imac",
        "tincell.cli.gdof_bounds",
    ],
    "strategies.gamma": ["tincell.duality.gamma_ibc", "tincell.duality.gamma_imac"],
    "strategies.rates": ["tincell.cli.sinr_rates_ibc"],
    "duality.dualize": ["tincell.duality.dualize", "tincell.cli.dualize"],
}

# span record fields
OP, SID, PARENT, LAYER, NAME, T0, T1, INFO = range(8)


def _grid_key(net, side, grid, mode):
    return (id(net), side, grid.step, grid.depth, mode)


def _points_info(args, kwargs, result):
    from tincell.oracle import strategy_count

    net, side, grid = args[:3]
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "float")
    return _grid_key(net, side, grid, mode), strategy_count(net, grid), len(result)


def _maxsum_info(args, kwargs, result):
    from tincell.oracle import strategy_count

    net, side, _w, grid = args[:4]
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "float")
    return _grid_key(net, side, grid, mode), strategy_count(net, grid)


# what each layer records about a finished call, outside its timed interval
_INFO = {
    "cli": lambda a, k, r: r,
    "regions.build": lambda a, k, r: r.is_empty(),
    "regions.union": lambda a, k, r: r[0] if isinstance(r[0], bool) else None,
    "simplex.solve": lambda a, k, r: len(a[1]),
    "oracle.points": _points_info,
    "oracle.maxsum": _maxsum_info,
    "adt.check": lambda a, k, r: len(a[1]),
}


class Tracer:
    """Collects spans ``[op, sid, parent, layer, name, t0, t1, info]``."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def install(self):
        for layer, names in LAYERS.items():
            for dotted in names:
                module_name, attr = dotted.rsplit(".", 1)
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, dotted, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, layer, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.op, len(spans), stack[-1] if stack else -1, layer, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[SID])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[T0], rec[T1] = t0, t1
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                info = rec[INFO]
                if isinstance(info, tuple):  # oracle key holds an object id and Fractions
                    info = [str(info[0])] + list(info[1:])
                fh.write(json.dumps(rec[:INFO] + [info], default=str) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus the durations of its
    direct children.  Spans are nested, never overlapping, because the
    program runs on one thread, so the children's durations are exactly the
    part of the parent's interval they cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[T1] - rec[T0]
    return [rec[T1] - rec[T0] - c for rec, c in zip(spans, child)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, overhead_frac):
    """Per-layer metrics from one traced pass, plus the bases of each ratio."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for rec, s in zip(spans, selfs):
        calls[rec[LAYER]] += 1
        self_s[rec[LAYER]] += s

    union_ids = {rec[SID] for rec in spans if rec[LAYER] == "regions.union"}
    union_builds = [rec for rec in spans if rec[LAYER] == "regions.build" and rec[PARENT] in union_ids]
    empties = sum(1 for rec in union_builds if rec[INFO])
    member_queries = [rec for rec in spans if rec[LAYER] == "regions.union" and rec[INFO] is not None]
    hits = sum(1 for rec in member_queries if rec[INFO])

    solves = [rec for rec in spans if rec[LAYER] == "simplex.solve"]
    points = [rec for rec in spans if rec[LAYER] == "oracle.points"]
    maxsums = [rec for rec in spans if rec[LAYER] == "oracle.maxsum"]
    points_strategies = sum(rec[INFO][1] for rec in points)
    strategies = points_strategies + sum(rec[INFO][1] for rec in maxsums)
    points_out = sum(rec[INFO][2] for rec in points)
    oracle_self = self_s["oracle.points"] + self_s["oracle.maxsum"]
    maxsum_by_key = defaultdict(list)
    for rec in maxsums:
        maxsum_by_key[rec[INFO][0]].append(rec[T1] - rec[T0])
    dedup_pairs = [
        (rec[T1] - rec[T0]) - statistics.mean(maxsum_by_key[rec[INFO][0]])
        for rec in points
        if rec[INFO][0] in maxsum_by_key
    ]
    dists = sum(rec[INFO] for rec in spans if rec[LAYER] == "adt.check")

    m = {
        "cli.requests": calls["cli"],
        "cli.errors": sum(1 for rec in spans if rec[LAYER] == "cli" and rec[INFO] != 0),
        "cli.self_s": self_s["cli"],
        "network.parse.calls": calls["network.parse"],
        "network.parse.self_s": self_s["network.parse"],
        "regions.build.calls": calls["regions.build"],
        "regions.build.self_s": self_s["regions.build"],
        "regions.contains.calls": calls["regions.contains"],
        "regions.contains.self_s": self_s["regions.contains"],
        "regions.union.queries": calls["regions.union"],
        "regions.union.self_s": self_s["regions.union"],
        "regions.union.builds_per_query": _ratio(len(union_builds), calls["regions.union"]),
        "regions.union.empty_frac": _ratio(empties, len(union_builds)),
        "regions.union.hit_frac": _ratio(hits, len(member_queries)),
        "regions.classify.self_s": self_s["regions.classify"],
        "regions.lp.self_s": self_s["regions.lp"],
        "simplex.solve.calls": len(solves),
        "simplex.solve.self_s": self_s["simplex.solve"],
        "simplex.solve.p50_ms": 1e3 * statistics.median([r[T1] - r[T0] for r in solves]) if solves else 0.0,
        "simplex.solve.rows_mean": _ratio(sum(r[INFO] for r in solves), len(solves)),
        "oracle.points.calls": len(points),
        "oracle.points.self_s": self_s["oracle.points"],
        "oracle.maxsum.calls": len(maxsums),
        "oracle.maxsum.self_s": self_s["oracle.maxsum"],
        "oracle.strategies": strategies,
        "oracle.strategies_per_s": _ratio(strategies, oracle_self),
        "oracle.points_out": points_out,
        "oracle.distinct_frac": _ratio(points_out, points_strategies),
        "oracle.dedup_est_s": sum(dedup_pairs),
        "adt.check.calls": calls["adt.check"],
        "adt.check.self_s": self_s["adt.check"],
        "adt.gen.self_s": self_s["adt.gen"],
        "adt.dists": dists,
        "adt.dists_per_s": _ratio(dists, self_s["adt.check"]),
        "strategies.bounds.self_s": self_s["strategies.bounds"],
        "strategies.gamma.self_s": self_s["strategies.gamma"],
        "strategies.rates.self_s": self_s["strategies.rates"],
        "duality.dualize.calls": calls["duality.dualize"],
        "duality.dualize.self_s": self_s["duality.dualize"],
        "trace.overhead_frac": overhead_frac,
    }
    bases = {
        "regions.union.builds_per_query": f"{len(union_builds)} builds inside union queries / {calls['regions.union']} union queries",
        "regions.union.empty_frac": f"{empties} empty / {len(union_builds)} regions built inside union queries",
        "regions.union.hit_frac": f"{hits} hits / {len(member_queries)} membership queries",
        "simplex.solve.rows_mean": f"{sum(r[INFO] for r in solves)} rows / {len(solves)} solves",
        "oracle.strategies_per_s": f"{strategies} strategies / {oracle_self:.4f} s oracle self time",
        "oracle.distinct_frac": f"{points_out} points out / {points_strategies} strategies of points calls",
        "oracle.dedup_est_s": f"estimate: points time minus maxsum time on the same (net, side, grid, mode), {len(dedup_pairs)} pairs",
        "adt.dists_per_s": f"{dists} distributions / {self_s['adt.check']:.4f} s adt.check self time",
    }
    return m, bases, dict(self_s)
