"""The four workloads: seeded inputs, op schedules and correctness gates.

A workload yields sessions.  A session is a generator that yields one
``Op`` at a time and receives that op's result back, so later ops can be
built from earlier answers (membership queries on oracle points, say).  An
op is one top-level API call or one in-process CLI request; everything a
session does between two yields (drawing points, reference answers) is
harness work and is not timed.

Sessions repeat deterministically: the same seed gives the same ops in the
same order, so a time-bounded run covers the same prefix of work on every
seed and the traced pass can replay exactly the ops of the untraced one.
Each op's ``check`` is a gate that does not compare the program with
itself: reference answers come from ``reference`` (an independent region
builder and scipy's LP solver), from a second mode or side of the oracle,
or from a paper claim linking two different functions.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference
from tincell import adt, cli, duality, oracle, regions, sampling, strategies
from tincell.network import ChannelStrengths, serialize_network


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def _any(_result) -> bool:
    return True


def cli_request(argv):
    """One in-process CLI request: (exit code, stdout text)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
    except SystemExit as exc:  # argparse usage errors exit 2
        code = exc.code
    return code, buf.getvalue()


def cli_ok(result, test=lambda report: True) -> bool:
    code, out = result
    return code == 0 and test(json.loads(out))


def _centi(n: int) -> str:
    return f"{n // 100}.{n % 100:02d}"


def _box_point(rng, net):
    """Uniform centi-grid point in [0, direct + 1/10] per user (the c06 box)."""
    tops = [int((net.direct(u.cell, u.slot) + Fraction(1, 10)) * 100) for u in net.users()]
    return [rng.randint(0, t) for t in tops]


class _Workload:
    name = ""
    cycle = 1  # sessions that make up one whole mix of ops

    def sessions(self):
        """Endless, deterministic stream of sessions."""
        for i in itertools.count():
            yield self.session(i)

    def session(self, i):
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def deferred_failures(self) -> int:
        """Gates that need more than one op's answer, checked after the loop."""
        return 0


class _NetFiles:
    """One network written to disk with a seeded downlink strategy file."""

    def __init__(self, net: ChannelStrengths, rng, workdir: Path, tag: str):
        self.net = net
        self.path = str(workdir / f"{tag}.net.json")
        self.strategy = str(workdir / f"{tag}.strategy.json")
        Path(self.path).write_text(serialize_network(net))
        s = sampling.random_strategy(rng, net, "ibc")
        Path(self.strategy).write_text(json.dumps(strategies.strategy_to_dict(s)))


# ---------------------------------------------------------------------------
# crosscheck: the grid oracle against the polyhedral union (c01-c05 shapes)

# fixed depth 3 = largest strength 2 plus 1, so every points call enumerates
# the same 2 * 32**3 strategies whatever the sampled strengths.  At step
# 1/10 a points call takes about 0.1 s, so a run holds a few hundred of them
# and the tail sits well inside that group.
XC_GRID = oracle.GridSpec(Fraction(1, 10), Fraction(3))
# Per network: 16 membership queries on points drawn from its exact oracle
# points, and 24 duality round trips per side.  Hit costs vary from network
# to network (1 to 16 regions built), so the many cheap bound evaluations
# carry the median and keep it steady from seed to seed.
XC_MEMBERS = 16
XC_TRIPS = 24
XC_POOL = 128
ONES3 = (1, 1, 1)


def net21(rng) -> ChannelStrengths:
    """K=2, L=(2,1) network on the 1/100 grid with entries in [0, 2]."""

    def g():
        return Fraction(rng.randint(0, 200), 100)

    d = sorted([g(), g()])
    return ChannelStrengths.from_rows(2, [2, 1], [[[d[0], g()], [d[1], g()]], [[g(), g()]]])


class Crosscheck(_Workload):
    name = "crosscheck"
    cycle = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = random.Random(seed)
        self.nets = [net21(rng) for _ in range(XC_POOL)]

    def warm_up(self):
        net = self.nets[0]
        coarse = oracle.GridSpec(Fraction(1, 2), Fraction(3))
        oracle.oracle_max_sum(net, "ibc", ONES3, coarse, mode="exact")
        oracle.grid_achievable_points(net, "ibc", coarse, mode="exact")
        oracle.grid_achievable_points(net, "imac", coarse, mode="float")
        regions.tina_max_weighted_sum(net, ONES3)
        regions.tina_region_contains(net, (0, 0, 0))
        s = sampling.random_strategy(random.Random(0), net, "ibc")
        duality.dualize(net, s)
        reference.union_lp_max(net.alpha, net.L, ONES3)

    def session(self, i):
        net = self.nets[i % XC_POOL]
        rng = random.Random(self.seed * 1_000_003 + i)
        top_ibc = yield Op(
            "oracle.maxsum",
            lambda: oracle.oracle_max_sum(net, "ibc", ONES3, XC_GRID, mode="exact"),
            lambda v: v >= 0,
        )
        top_imac = yield Op(
            "oracle.maxsum",
            lambda: oracle.oracle_max_sum(net, "imac", ONES3, XC_GRID, mode="exact"),
            lambda v: abs(v - top_ibc) <= Fraction(1, 5),  # c03
        )
        points = yield Op(
            "oracle.points",
            lambda: oracle.grid_achievable_points(net, "ibc", XC_GRID, mode="exact"),
            lambda pts: max(sum(p) for p in pts) == top_ibc,
        )
        yield Op(  # float mode against exact mode on the uplink
            "oracle.points",
            lambda: oracle.grid_achievable_points(net, "imac", XC_GRID, mode="float"),
            lambda pts: abs(max(sum(p) for p in pts) - float(top_imac)) <= 1e-9,
        )
        union_max = reference.union_lp_max(net.alpha, net.L, ONES3)
        yield Op(  # c05: the oracle never beats the union, whose LP matches scipy
            "regions.union",
            lambda: regions.tina_max_weighted_sum(net, ONES3),
            lambda r: abs(float(r[0]) - union_max) <= 1e-9 and top_ibc <= r[0],
        )
        for d in rng.choices(sorted(points), k=XC_MEMBERS):
            yield Op(  # c04: every exact oracle point lies in the union
                "regions.union",
                lambda: regions.tina_region_contains(net, d),
                lambda r: r[0] is True,
            )
        for _ in range(XC_TRIPS):  # c01: downlink -> uplink inclusion
            s = sampling.random_strategy(rng, net, "ibc")
            dl = yield Op("strategies.bounds", lambda: strategies.gdof_bounds_ibc(net, s.order, s.power), _any)
            rep = yield Op("duality.dualize", lambda: duality.dualize(net, s), lambda r: r.output_strategy.side == "imac")
            out = rep.output_strategy
            yield Op(
                "strategies.bounds",
                lambda: strategies.gdof_bounds_imac(net, out.order, out.power),
                lambda ul: all(u >= x for u, x in zip(ul, dl)),
            )
        for _ in range(XC_TRIPS):  # c02: normalized uplink -> downlink inclusion
            s = sampling.random_strategy(rng, net, "imac")
            rep = yield Op("duality.dualize", lambda: duality.dualize(net, s), lambda r: r.output_strategy.side == "ibc")
            inp, out = rep.input_strategy, rep.output_strategy
            ul = yield Op("strategies.bounds", lambda: strategies.gdof_bounds_imac(net, inp.order, inp.power), _any)
            yield Op(
                "strategies.bounds",
                lambda: strategies.gdof_bounds_ibc(net, out.order, out.power),
                lambda dl: all(x >= u for x, u in zip(dl, ul)),
            )


# ---------------------------------------------------------------------------
# union_search: CLI sessions on GENERAL-regime networks (the c06 query shape)

US_SHAPES = [(2, 2, 1), (2, 2, 2), (3, 2, 2), (3, 3, 2), (2, 2, 2, 2), (3, 3, 3)]
US_ROUNDS = 10
# member requests per session.  (3,3,2) and (2,2,2,2) misses take about
# 0.5 s and get two each, so a cycle takes about 2 s, a run holds about a
# dozen cycles and some fifty of these misses, and the tail sits inside that
# group.  (3,3,3) networks get the light verbs only: one miss there takes
# about 3 s, so a run would hold only a handful and they would decide the
# run-to-run spread.
US_MEMBERS = {(2, 2, 1): 1, (2, 2, 2): 1, (3, 2, 2): 1, (3, 3, 2): 2, (2, 2, 2, 2): 2, (3, 3, 3): 0}


def sample_general(rng, K, L) -> ChannelStrengths:
    while True:
        net = sampling.random_network(rng, K, L)
        if regions.classify_regime(net) is regions.RegimeLabel.GENERAL:
            return net


def _witness_parts(witness, L):
    order = {int(c): tuple(v) for c, v in witness["order"].items()}
    subnet = [tuple(s) for s in witness["subnet"]]
    if len(subnet) != len(L):
        raise ValueError("witness subnet has the wrong number of cells")
    return order, subnet


class UnionSearch(_Workload):
    name = "union_search"
    cycle = len(US_SHAPES)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = random.Random(seed)
        self.nets = []
        for r in range(US_ROUNDS):
            for L in US_SHAPES:
                net = sample_general(rng, len(L), L)
                self.nets.append(_NetFiles(net, rng, workdir, f"us{r}-{'x'.join(map(str, L))}"))
        self.hits = []  # (pool index, point) for the deferred union-max gate
        self._union_max = {}

    def warm_up(self):
        for op in _drain(self.session(0)):
            pass

    def session(self, i):
        nf = self.nets[i % len(self.nets)]
        net, f = nf.net, nf.path
        rng = random.Random(self.seed * 1_000_003 + i)
        hull_order, hull_subnet = reference.full_identity(net.L)
        hull = reference.region_constraints(net.alpha, net.L, hull_order, hull_subnet)
        expected = {(tuple(sorted(u)), float(b)) for u, b in hull}
        yield Op("cli.validate", lambda: cli_request(["validate", "--net", f]),
                 lambda r: cli_ok(r, lambda j: j["ok"] is True))
        yield Op("cli.classify", lambda: cli_request(["classify", "--net", f]),
                 lambda r: cli_ok(r, lambda j: j["regime"] == "GENERAL"))
        yield Op("cli.region", lambda: cli_request(["region", "--net", f]),
                 lambda r: cli_ok(r, lambda j: {(tuple(c["users"]), c["bound"]) for c in j["region"]["constraints"]} == expected))
        directs = [float(net.direct(u.cell, u.slot)) for u in net.users()]
        bounds = yield Op("cli.bounds", lambda: cli_request(["bounds", "--net", f, "--strategy", nf.strategy]),
                          lambda r: cli_ok(r, lambda j: all(0 <= b <= a for b, a in zip(j["bounds"], directs))))
        dl = json.loads(bounds[1])["bounds"]
        yield Op("cli.dualize", lambda: cli_request(["dualize", "--net", f, "--strategy", nf.strategy]),
                 lambda r: cli_ok(r, lambda j: _uplink_dominates(net, j["output"], dl)))
        yield Op("cli.rates", lambda: cli_request(["rates", "--net", f, "--strategy", nf.strategy, "--pnominal", "1e12"]),
                 lambda r: cli_ok(r, lambda j: all(x >= 0 for x in j["rate_bits"])))
        for _ in range(US_MEMBERS[net.L]):
            d = _box_point(rng, net)
            exact = [Fraction(x, 100) for x in d]
            point = ",".join(_centi(x) for x in d)
            yield Op("cli.member", lambda: cli_request(["member", "--net", f, "--point", point]),
                     lambda r: cli_ok(r, lambda j: self._check_member(i % len(self.nets), net, exact, j, hull)))

    def _check_member(self, index, net, d, report, hull):
        if not report["contained"]:
            # the identity hull is one region of the union: a point in it is a hit
            return report["witness"] is None and not reference.region_contains(hull, set(), d)
        order, subnet = _witness_parts(report["witness"], net.L)
        rows = reference.region_constraints(net.alpha, net.L, order, subnet)
        self.hits.append((index, d))
        return reference.region_contains(rows, reference.zero_forced(net.L, subnet), d)

    def deferred_failures(self) -> int:
        """No hit exceeds the union's sum-GDoF maximum (scipy over every region)."""
        failed = 0
        for index, d in self.hits:
            net = self.nets[index].net
            if index not in self._union_max:
                self._union_max[index] = reference.union_lp_max(net.alpha, net.L, [1] * len(d))
            if float(sum(d)) > self._union_max[index] + 1e-9:
                failed += 1
        self.hits.clear()
        return failed


def _uplink_dominates(net, output, dl) -> bool:
    """c01 on a CLI answer: the dual uplink strategy's bounds cover the downlink's."""
    s = strategies.parse_strategy(json.dumps(output), net)
    ul = strategies.gdof_bounds_imac(net, s.order, s.power)
    return s.side == "imac" and all(float(u) >= x - 1e-9 for u, x in zip(ul, dl))


# ---------------------------------------------------------------------------
# convex_lp: LPs over convex-regime hulls (c06 shape)

# A cycle is four sessions: two (2,2,2), one (3,3,3) and one K=2 network,
# the K=2 shapes alternating.  The (3,3,3) sessions get three LPs each
# (0.2-0.7 s), so a run holds about twelve cycles and 36 of these LPs, and
# the tail is a mid-ranked one.  The (2,2,2) LPs (30-90 ms) carry the median.
CV_SHAPES = [(2, 2, 2), (2, 2, 2), (3, 3, 3), (2, 2), (2, 2, 2), (2, 2, 2), (3, 3, 3), (2, 1)]
CV_ROUNDS = 8
CV_MAXSUMS = {(2, 2, 2): 6, (3, 3, 3): 3, (2, 2): 1, (2, 1): 1}
# member requests only on K=2 nets, as in c06: a K=3 miss builds every
# region (4096 at (3,3,3)) and would make this a second regions workload
CV_MEMBERS = {(2, 2, 2): 0, (3, 3, 3): 0, (2, 2): 3, (2, 1): 3}


class ConvexLp(_Workload):
    name = "convex_lp"
    cycle = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = random.Random(seed)
        self.nets = []
        for r in range(CV_ROUNDS):
            for pos, L in enumerate(CV_SHAPES):
                # strict-regime K=2 nets, convex-regime K=3 nets (the strict
                # K=3 sampler rejects too often to keep set-up steady)
                sample = sampling.sample_tin_network if len(L) == 2 else sampling.sample_ctin_network
                net = sample(rng, len(L), L)
                self.nets.append(_NetFiles(net, rng, workdir, f"cv{r}-{pos}-{'x'.join(map(str, L))}"))

    def warm_up(self):
        for op in _drain(self.session(CV_SHAPES.index((2, 2)))):
            pass

    def session(self, i):
        nf = self.nets[i % len(self.nets)]
        net, f, n = nf.net, nf.path, nf.net.n_users
        rng = random.Random(self.seed * 1_000_003 + i)
        order, subnet = reference.full_identity(net.L)
        hull = reference.region_constraints(net.alpha, net.L, order, subnet)
        yield Op("cli.classify", lambda: cli_request(["classify", "--net", f]),
                 lambda r: cli_ok(r, lambda j: j["regime"] in ("TIN", "CTIN_ONLY")))
        for _ in range(CV_MAXSUMS[net.L]):
            w = [rng.randint(1, 9) for _ in range(n)]
            ref = reference.lp_max(hull, set(), n, w)
            weights = ",".join(map(str, w))
            yield Op("cli.maxsum", lambda: cli_request(["maxsum", "--net", f, "--order", "id", "--subnet", "all", "--weights", weights]),
                     lambda r: cli_ok(r, lambda j: abs(j["value"] - ref) <= 1e-9))
        for _ in range(CV_MEMBERS[net.L]):
            d = _box_point(rng, net)
            in_hull = reference.region_contains(hull, set(), [Fraction(x, 100) for x in d])
            point = ",".join(_centi(x) for x in d)
            yield Op("cli.member", lambda: cli_request(["member", "--net", f, "--point", point]),
                     lambda r: cli_ok(r, lambda j: j["contained"] == in_hull))  # c06
        if net.K == 2:  # the union LP equals the hull LP in the convex regime
            w = [rng.randint(1, 9) for _ in range(n)]
            ref = reference.lp_max(hull, set(), n, w)
            yield Op("regions.union", lambda: regions.tina_max_weighted_sum(net, w),
                     lambda r: abs(float(r[0]) - ref) <= 1e-9)


# ---------------------------------------------------------------------------
# adt_check: deterministic-channel checks (c10/c11)

ADT_CLI = [["--params", "4,2,4,1", "--mode", "entropydiff"], ["--params", "3,1,4,1", "--mode", "lessnoisy"]]
ADT_TRIALS = 1000


ADT_STRATA = 4


class AdtCheck(_Workload):
    """The c11 sweep in four strata, each followed by one CLI request per mode.

    The sweep's batches are seeded inputs, drawn once in set-up.  Items are
    dealt into the strata round-robin within each ``q``, so every stratum
    holds the same mix of cheap and expensive items; a cycle is one stratum
    and the two CLI requests.  A run holds about seven cycles, so about 14
    CLI requests, which take longer than any sweep item: the tail is a
    ``lessnoisy`` request, the cheaper mode, well inside that group."""

    name = "adt_check"
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.items = [(p, self._batch(p, np.random.default_rng([seed, j])))
                      for j, p in enumerate(adt.regime_params(6, "entropydiff"))]
        by_q = sorted(range(len(self.items)), key=lambda j: (self.items[j][0].q, j))
        self.strata = [by_q[s::ADT_STRATA] for s in range(ADT_STRATA)]

    def warm_up(self):
        for p, batch in (self.items[0], self.items[-1]):
            adt.check_entropy_diff(p, batch)
        cli_request(["adt", "--params", "3,1,4,1", "--trials", "2", "--mode", "lessnoisy"])

    @staticmethod
    def _batch(p, rng):
        """The c11 sweep batch: uniform, 30 product laws and 10 point masses."""
        size = 1 << p.q
        batch = [adt.AdtDistribution.uniform(p.q)] + adt.random_product_dists(p.q, 30, rng)
        batch += [adt.AdtDistribution.point(p.q, int(rng.integers(size)), int(rng.integers(size))) for _ in range(10)]
        return batch

    def sweep_item(self, j):
        """Parameters and seeded batch of the j-th sweep item."""
        return self.items[j % len(self.items)]

    def session(self, i):
        for j in self.strata[i % ADT_STRATA]:
            p, batch = self.items[j]
            yield Op("adt.sweep", lambda: adt.check_entropy_diff(p, batch), lambda r: r.passed)
        for mode, args in enumerate(ADT_CLI):
            argv = ["adt", *args, "--trials", str(ADT_TRIALS), "--seed", str(self.seed * 1000 + 2 * i + mode)]
            yield Op("cli.adt", lambda: cli_request(argv), lambda r: cli_ok(r, lambda j: j["passed"] is True))


def _drain(session):
    """Run a session's ops unmeasured and unchecked (warm-up)."""
    result = None
    while True:
        try:
            op = session.send(result)
        except StopIteration:
            return
        result = op.call()
        yield op


WORKLOADS = {w.name: w for w in (Crosscheck, UnionSearch, ConvexLp, AdtCheck)}
