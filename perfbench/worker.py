"""One workload in one fresh process: set up, then measure (or trace).

Started by ``run.py`` with the BLAS/OpenMP thread pins already in its
environment.  Prints one JSON object as its last stdout line.

An untraced run times its own set-up and ``SETUP_PROBES`` more, spread over
the run (see ``SetupProbes``), and reports their median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGEST_OPS = 50  # answers of the first 50 ops form the run's digest
SETUP_PROBES = 4  # with the measured set-up, setup_s is the median of 5
KERNEL_EVERY_S = 0.05  # op time between two host-speed readings
RAW_CAP = 1.2  # a timed run ends by this many --seconds of unscaled op time
SETUP_KERNELS = 5  # host-speed readings on either side of a set-up


class LoopResult:
    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.cycle_ids = []  # the cycle each op belongs to
        self.kernel = []  # host-speed readings: (cycle, kernel seconds)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.busy = 0.0
        self._digest = hashlib.sha256()
        self.digest_ops = 0

    def record_answer(self, kind, result):
        if self.digest_ops < DIGEST_OPS:
            self._digest.update(f"{kind}\n{_canon(result)}\n".encode())
            self.digest_ops += 1

    @property
    def digest(self):
        return self._digest.hexdigest()[:16]

    def scaled_latencies(self):
        """Op times in reference seconds, each scaled by the mean host-speed
        reading of its cycle (``hostspeed.scale``)."""
        readings = {}
        for c, k in self.kernel:
            readings.setdefault(c, []).append(k)
        mean = {c: sum(ks) / len(ks) for c, ks in readings.items()}
        return [hostspeed.scale(dt, mean[c]) for c, dt in zip(self.cycle_ids, self.latencies)]


def _canon(result):
    if isinstance(result, (set, frozenset)):
        return repr(sorted(result))
    return repr(result)


def drive(sessions, seconds=None, max_ops=None, tracer=None, cycle=1, between_cycles=None) -> LoopResult:
    """Closed loop, one caller: run ops for about ``seconds`` of op time in
    reference seconds (``hostspeed``), or exactly ``max_ops`` ops.

    A timed run stops at the boundary of whole cycles of ``cycle`` sessions
    nearest to ``seconds``, so every run holds the same mix of ops, and on
    every host the same number of cycles; a few ops take seconds, and
    cutting mid-cycle would make throughput jump with the cut.  On a host
    much slower than the reference it stops early, once the unscaled op
    time reaches ``RAW_CAP * seconds``.  The host's speed is read after
    every ``KERNEL_EVERY_S`` of op time and at the end of every cycle,
    outside the timed region.  A raised exception, a nonzero exit or a
    failed gate counts the op as failed; an exception also ends its
    session.  ``between_cycles``, if given, is called with the reference op
    time so far at every cycle boundary."""
    out = LoopResult()
    _run_sessions(out, sessions, seconds, max_ops, tracer, cycle, between_cycles)
    if out.cycle_ids:
        out.kernel.append((out.cycle_ids[-1], hostspeed.calibrate()))
    return out


def _run_sessions(out, sessions, seconds, max_ops, tracer, cycle, between_cycles):
    last_reading = 0.0
    ref_busy = 0.0  # op time of the finished cycles, in reference seconds
    cycle_start = 0.0
    readings = []  # the current cycle's host-speed readings

    def read(c):
        kernel_s = hostspeed.calibrate()
        out.kernel.append((c, kernel_s))
        readings.append(kernel_s)

    for i, session in enumerate(sessions):
        if i and i % cycle == 0:
            read(i // cycle - 1)
            ref_busy += hostspeed.scale(out.busy - cycle_start, sum(readings) / len(readings))
            readings.clear()
            cycle_start = out.busy
            if between_cycles is not None:
                between_cycles(ref_busy)
            per_cycle = ref_busy / (i // cycle)
            if seconds is not None and (ref_busy + per_cycle / 2 >= seconds or out.busy >= RAW_CAP * seconds):
                session.close()
                return
        result, op_failed = None, False
        while True:
            try:
                op = session.send(result)
            except StopIteration:
                break
            except Exception as exc:  # a session cannot go on from a bad answer
                out.errors.append(f"session {i} aborted: {type(exc).__name__}: {exc}")
                out.failed += 0 if op_failed else 1
                break
            if tracer is not None:
                tracer.op = out.attempted
            t0 = perf_counter()
            try:
                result = op.call()
                raised = None
            except Exception as exc:  # the loop must survive a failing op
                raised = exc
            dt = perf_counter() - t0
            out.attempted += 1
            out.busy += dt
            out.latencies.append(dt)
            out.kinds.append(op.kind)
            out.cycle_ids.append(i // cycle)
            if out.busy - last_reading >= KERNEL_EVERY_S:
                read(i // cycle)
                last_reading = out.busy
            if raised is not None:
                out.failed += 1
                out.errors.append(f"{op.kind}: {type(raised).__name__}: {raised}")
                session.close()
                if max_ops is not None and out.attempted >= max_ops:
                    return
                break
            try:
                ok = bool(op.check(result))
            except Exception as exc:  # a malformed answer fails its gate
                ok = False
                out.errors.append(f"{op.kind}: check raised {type(exc).__name__}: {exc}")
            op_failed = not ok
            if not ok:
                out.failed += 1
                if len(out.errors) < 20:
                    out.errors.append(f"{op.kind}: wrong answer {_canon(result)[:300]}")
            out.record_answer(op.kind, result)
            if max_ops is not None and out.attempted >= max_ops:
                session.close()
                return


def _versions():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
    }


def _loop_metrics(res: LoopResult):
    import stats

    scaled = res.scaled_latencies()
    tail = stats.tail(scaled)
    if tail is None:
        raise RuntimeError(f"only {len(scaled)} ops timed; the tail needs more than {stats.TAIL_BEYOND}")
    value, pct, n = tail
    raw_tail = stats.tail(res.latencies)[0]
    kernel = [k for _, k in res.kernel]
    return {
        "ops_per_s": n / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_tail_ms": 1e3 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, [
        f"op_tail_ms is p{pct:.2f} of {n} ops ({stats.TAIL_BEYOND} ops beyond it)",
        f"host-speed kernel: {len(kernel)} readings, median {1e3 * statistics.median(kernel):.3f} ms, "
        f"range {1e3 * min(kernel):.3f}-{1e3 * max(kernel):.3f} ms (reference {1e3 * hostspeed.REF_KERNEL_S:.3f} ms)",
        f"unscaled: ops_per_s {n / res.busy:.6g}, op_p50_ms {1e3 * statistics.median(res.latencies):.6g}, "
        f"op_tail_ms {1e3 * raw_tail:.6g}",
    ]


def _kind_lines(latencies, kinds):
    by = {}
    for k, dt in zip(kinds, latencies):
        by.setdefault(k, []).append(dt)
    return [
        f"  op {k:<18} n={len(v):<6} p50={1e3 * statistics.median(v):10.3f} ms  total={sum(v):8.3f} s"
        for k, v in sorted(by.items())
    ]


def _setup(workload, seed, workdir):
    """Import the program, build the seeded inputs and warm up.  Returns the
    workload and the set-up time in reference seconds."""
    before = hostspeed.calibrate(SETUP_KERNELS)
    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.warm_up()
    seconds = perf_counter() - t0
    return wl, hostspeed.scale(seconds, (before + hostspeed.calibrate(SETUP_KERNELS)) / 2)


def _probe_setup(workload, seed) -> float:
    """Time one set-up in a forked child and wait for the child to end."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: set up, report, clean up, leave without unwinding
        os.close(r)
        code = 1
        workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
        try:
            workdir.mkdir(parents=True, exist_ok=True)
            _, seconds = _setup(workload, seed, workdir)
            os.write(w, repr(seconds).encode())
            code = 0
        except BaseException:  # a forked child must never unwind into the parent's code
            traceback.print_exc()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            sys.stderr.flush()
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not text:
        raise RuntimeError(f"set-up probe exited {code}")
    return float(text)


class SetupProbes:
    """Set-ups timed in fresh children, on request, at any point of the run.

    A helper process is forked before the program is imported and waits.
    Each ``probe()`` makes it fork one child that sets up from scratch
    (numpy and scipy loaded, ``tincell`` not, as in the measured set-up)
    while the caller waits, so no probe overlaps the measured ops.  Probes
    taken between cycles sample the host's speed across the whole run, not
    only at its start.  Forking is safe here: the worker runs no threads
    (BLAS and OpenMP are pinned to one), and a fork, unlike a fresh
    interpreter, starts from exactly the measured set-up's state."""

    def __init__(self, workload, seed):
        sys.stdout.flush()
        sys.stderr.flush()
        req_r, self._req_w = os.pipe()
        res_r, res_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # helper: one probe per request byte, until EOF
            os.close(self._req_w)
            os.close(res_r)
            code = 0
            try:
                while os.read(req_r, 1):
                    os.write(res_w, f"{_probe_setup(workload, seed)!r}\n".encode())
            except BaseException:  # as in _probe_setup: report, then leave by os._exit
                traceback.print_exc()
                code = 1
            finally:
                sys.stderr.flush()
                os._exit(code)
        os.close(req_r)
        os.close(res_w)
        self._res = os.fdopen(res_r)

    def probe(self) -> float:
        os.write(self._req_w, b"p")
        line = self._res.readline()
        if not line:
            raise RuntimeError("set-up probe failed")
        return float(line)

    def close(self):
        """End the helper and wait for it."""
        os.close(self._req_w)
        self._res.close()
        _, status = os.waitpid(self.pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"set-up helper exited {code}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import reference  # noqa: F401  -- numpy and scipy load before set-up is timed

    probes = None if args.trace else SetupProbes(args.workload, args.seed)
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_s = _setup(args.workload, args.seed, workdir)
        setups = [setup_s]
        import tincell

        if Path(tincell.__file__).resolve().parent != ROOT / "src" / "tincell":
            raise RuntimeError(f"tincell imported from {tincell.__file__}, not from this checkout")

        out = {"setup_samples": setups, "env": _versions()}
        if args.trace:
            import tracer as tracing

            first = drive(wl.sessions(), seconds=args.seconds / 2, cycle=wl.cycle)
            tr = tracing.Tracer()
            tr.install()
            try:
                second = drive(wl.sessions(), max_ops=first.attempted, tracer=tr, cycle=wl.cycle)
            finally:
                tr.uninstall()
            overhead = sum(second.scaled_latencies()) / sum(first.scaled_latencies()) - 1.0
            metrics, bases, self_s = tracing.layer_metrics(tr.spans, overhead)
            trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tr.write(trace_path)
            deferred = wl.deferred_failures()
            same = first.digest == second.digest
            out.update(
                attempted=first.attempted + second.attempted,
                failed=first.failed + second.failed + deferred + (0 if same else 1),
                errors=(first.errors + second.errors)[:20] + ([] if same else ["traced replay answered differently"]),
                metrics=metrics,
                report=[
                    f"traced pass: {second.attempted} ops replayed, {second.busy:.3f} s traced "
                    f"against {first.busy:.3f} s untraced; spans in {trace_path.relative_to(ROOT)}",
                    "layer self time as a share of traced op time (no layer waits: there are no queues):",
                    *[
                        f"  {layer:<20} {s:9.4f} s  {100 * s / second.busy:5.1f}%"
                        for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1])
                    ],
                    f"  {'(harness, untraced)':<20} {second.busy - sum(self_s.values()):9.4f} s",
                    *[f"ratio {k}: {v}" for k, v in bases.items()],
                    f"answers digest {first.digest} over {first.digest_ops} ops (replay {second.digest})",
                ],
            )
        else:
            # one probe each time the reference op time passes another 1/SETUP_PROBES
            # of --seconds; the rest, if the run ends early, after the loop
            marks = [args.seconds * k / SETUP_PROBES for k in range(1, SETUP_PROBES)]

            def probe_between(busy):
                while marks and busy >= marks[0]:
                    marks.pop(0)
                    setups.append(probes.probe())

            res = drive(wl.sessions(), seconds=args.seconds, cycle=wl.cycle, between_cycles=probe_between)
            while len(setups) < SETUP_PROBES + 1:
                setups.append(probes.probe())
            deferred = wl.deferred_failures()
            metrics, notes = _loop_metrics(res)
            out.update(
                attempted=res.attempted,
                failed=res.failed + deferred,
                errors=res.errors[:20],
                metrics=metrics,
                report=[
                    f"{res.attempted} ops in {res.busy:.3f} s of op time, {res.failed + deferred} failed",
                    *notes,
                    "op times by kind, in reference ms:",
                    *_kind_lines(res.scaled_latencies(), res.kinds),
                    f"answers digest {res.digest} over {res.digest_ops} ops",
                ],
            )
        print(json.dumps(out))
        return 0
    finally:
        if probes is not None:
            probes.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
