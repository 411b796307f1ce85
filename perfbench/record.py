"""Record one point of the perf trajectory: every workload over several seeds.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/trajectory/0001-baseline.json

Runs ``run.py --trace 0`` once per workload and seed, one run at a time,
and writes per metric the ten values, their median and quartiles, and the
spread ``(q3 - q1) / median`` that the bounds in BENCHMARK.json are set
against.  Then runs ``--trace 1`` once per workload on the first seed and
records the share of traced op time spent in the workload's target layer.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the layer each workload exists to exercise (span-name prefix)
TARGETS = {"crosscheck": "oracle.", "union_search": "regions.build", "convex_lp": "simplex.solve", "adt_check": "adt."}
SHARE_LINE = re.compile(r"^  (\S+)\s+[-0-9.]+ s\s+([-0-9.]+)%$")


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(TARGETS))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    lo, hi = map(int, args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"run": f"python3 perfbench/run.py --workload <w> --seed <{lo}..{hi}> --seconds {seconds}",
              "machine": f"{platform.machine()}, CPython {platform.python_version()}",
              "seeds": seeds, "workloads": {}, "traced": {}}
    for w in args.workloads.split(","):
        values, failed = {}, 0
        for seed in seeds:
            result, lines = _run(w, seed, seconds, 0)
            record.setdefault("env", next((ln[len("env "):] for ln in lines if ln.startswith("env ")), None))
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        record["workloads"][w] = {name: summary(v) for name, v in values.items()}
        record["workloads"][w]["failed_ops"] = failed
        for name, v in values.items():
            spread = record["workloads"][w][name]["iqr_over_median"]
            print(f"  {name:<12} median {statistics.median(v):.5g}  spread {spread:.3f}  bound {bounds[name]}", flush=True)

        result, lines = _run(w, seeds[0], seconds, 1)
        shares = {m.group(1): float(m.group(2)) for m in map(SHARE_LINE.match, lines) if m}
        record["traced"][w] = {
            "seed": seeds[0],
            "target_layers": TARGETS[w],
            "target_layer_share_pct": round(sum(p for layer, p in shares.items() if layer.startswith(TARGETS[w])), 1),
            "trace.overhead_frac": result["metrics"]["trace.overhead_frac"]["value"],
            "correct": result["correct"],
        }
        print(f"  traced: {record['traced'][w]}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
