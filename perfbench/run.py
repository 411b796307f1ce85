"""tincell benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 25 --trace 0

Workloads (see README.md in this directory for why each exists and what
each layer metric should move): crosscheck, union_search, convex_lp,
adt_check.  Each runs in a fresh Python process with BLAS/OpenMP threads
pinned to 1, driven by one caller in a closed loop.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` replays the same ops with wrappers around every layer and
reports the per-layer metrics.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment, the tail percentile, per-kind latencies and an answers
digest.  Exits nonzero without a result line when the checkout has no
``src/tincell`` or any step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DEADLINE_S = 170.0
PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _worker(args, deadline):
    """Run the worker in its own process group; on timeout kill the whole
    group (the worker and any set-up probe it forked) and wait for it."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = {**os.environ, **PINS}
    timeout = deadline - monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except BaseException:  # timeout or interrupt: leave no process behind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not (ROOT / "src" / "tincell" / "__init__.py").is_file():
        print(f"perfbench: no src/tincell under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        out = _worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups = out["setup_samples"]
    measured = dict(out["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: worker did not measure {missing}", file=sys.stderr)
        return 1

    env = out["env"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"env python {env['python']} numpy {env['numpy']} scipy {env['scipy']} nproc {env['nproc']} pins {env['thread_pins']}")
    print("load: one process, one thread, closed loop with one caller")
    if not args.trace:
        print(f"setup_s is the median of {len(setups)} set-ups (the measured one, then fresh probes spread over the run): {[round(s, 4) for s in setups]}")
        print(f"fail_frac {out['failed'] / out['attempted']:.6f} ({out['failed']} of {out['attempted']} ops)")
    for line in out["report"]:
        print(line)
    for err in out["errors"]:
        print(f"FAILED {err}")
    for m in wanted:
        print(f"metric {m['name']:<34} {measured[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
