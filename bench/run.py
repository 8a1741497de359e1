"""Benchmark for fovisc: closed-loop rounds of in-process CLI operations.

Run from the root of a source checkout:

    python3 bench/run.py --workload identify --seed 1 --seconds 20 --trace 0

Each run sets up (imports fovisc and SciPy, writes the round's inputs), then
repeats whole rounds of the workload's operations until --seconds have
passed; the next operation starts when the previous one returns.  After
every operation its output is checked (outside the timed region) against
the reference computations in ``reference.py``.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics --
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
# One worker thread: on 2 cores the even-N region scan ran slower with 2
# threads (median 6.9 s) than with 1 (4.9 s), and two busy threads double
# the run's exposure to other load on the machine.
THREADS = 1
OUT_DIR = ".bench_out"
WORKLOADS = ("identify", "freq-domain", "stability-boundary")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(root, workload, seed, run_dir):
    """What a user pays before the first operation: imports and inputs."""
    sys.path.insert(0, os.path.join(root, "src"))
    import fovisc
    import fovisc.cli
    import workloads

    os.makedirs(run_dir, exist_ok=True)
    ops = workloads.ROUNDS[workload](seed, run_dir)
    with open(os.path.join(run_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump([op.argv for op in ops], fh)
    return fovisc, ops


def _probe_setup(root, args):
    """Median wall time from a fresh interpreter's start to the end of set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        t0 = time.time()
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def _output_key(op, rc):
    """Identifies what a check sees: the slot's inputs, the exit code, the bytes written."""
    try:
        with open(op.argv[op.argv.index("-o") + 1], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        digest = None
    return op.slot, rc, digest


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fovisc", "cli.py")):
        print("bench: run from the root of a fovisc checkout (src/fovisc not found)", file=sys.stderr)
        return 2
    os.environ["FOVISC_THREADS"] = str(THREADS)
    run_dir = os.path.join(root, OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")

    if args.setup_probe:
        _setup(root, args.workload, args.seed, run_dir)
        print(repr(time.time()))
        shutil.rmtree(run_dir, ignore_errors=True)
        return 0

    setup_s = _probe_setup(root, args)
    fovisc, ops = _setup(root, args.workload, args.seed, run_dir)
    import reference
    import tracing
    import workloads

    reference.self_test()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(fovisc)
    dispatch = fovisc.cli.dispatch

    done = []  # (op, seconds, what its check learned)
    verdicts = {}  # a check is a function of _output_key, so repeats reuse its verdict
    attempted = failed = 0
    correct = True
    rounds = 0
    start = time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            for op in ops:
                op_id = len(done)
                t0 = time.perf_counter()
                try:
                    rc = tracer.run_op(op_id, dispatch, op.argv) if tracer else dispatch(op.argv)
                except Exception:  # a crash fails this operation, not the run
                    traceback.print_exc()
                    rc = "an exception"
                dt = time.perf_counter() - t0
                key = _output_key(op, rc)
                if key not in verdicts:
                    verdicts[key] = op.check() if rc == 0 else workloads.Verdict(failed=[f"exited with {rc}"])
                verdict = verdicts[key]
                attempted += 1
                if verdict.failed:
                    failed += 1
                    if not op.fault or rc != 0:  # the known fault writes a short record and exits 0
                        correct = False
                elif op.fault:
                    print(f"bench: {op.slot} no longer shows the sample-count fault", file=sys.stderr)
                if verdict.wrong:
                    correct = False
                for msg in verdict.failed + verdict.wrong:
                    print(f"bench: {op.slot}: {msg}", file=sys.stderr)
                done.append((op, dt, verdict.info))
            rounds += 1
    finally:
        if tracer:
            tracer.uninstall()

    # One figure per slot: the median of its calls; a role is the sum of its slots.
    by_slot = defaultdict(list)
    role_of = {}
    for op, dt, _ in done:
        by_slot[op.slot].append(dt)
        role_of[op.slot] = op.role
    slot_s = {slot: statistics.median(ts) for slot, ts in by_slot.items()}
    per_round = {op.slot: 0 for op in ops}
    for op in ops:
        per_round[op.slot] += 1
    role_s = defaultdict(float)
    for slot, med in slot_s.items():
        role_s[role_of[slot]] += med * per_round[slot]
    wall_s = sum(role_s.values())
    for slot, med in slot_s.items():
        print(f"bench: {slot:28s} {role_of[slot]:6s} median {med:.4f} s over {len(by_slot[slot])} calls",
              file=sys.stderr)

    if tracer:
        arrays = tracer.arrays()
        np.savez(os.path.join(root, OUT_DIR, f"trace-{args.workload}.npz"), **arrays)
        metrics = tracing.layer_metrics(arrays, [info for _, _, info in done], rounds)
        metrics["trace.wall_s"] = wall_s
        out = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in metrics.items()}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "search_s": {"value": role_s["search"], "unit": "s"},
            "direct_s": {"value": role_s["direct"], "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    shutil.rmtree(run_dir, ignore_errors=True)
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds, {attempted} operations, "
          f"{failed} failed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
