"""dirtyshor benchmark: one workload per call, one JSON result line at the end.

    python3 perfbench/run.py --workload modmul --seed 1 --seconds 15 --trace 0

Each workload runs in its own single-threaded worker process (worker.py).
With --trace 0 the result holds the end-to-end metrics: set-up time (the
median of SETUPS separate worker start-ups, each timed from process start
to its first timed operation), the median operation time, operations per
second and the worker's peak resident memory. With --trace 1 one worker
runs with span recorders installed and the result holds the per-layer
metrics instead. See README.md for the workloads and what each metric
should move.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("modmul", "factor", "outcome-dist", "faultscan")
SETUPS = 3
TIME_LIMIT_S = 170.0
READY, RESULT = "PERFBENCH-READY ", "PERFBENCH-RESULT "


def _worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start one worker; returns its set-up seconds and its result, if any."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    if done.returncode:
        raise RuntimeError(f"worker {' '.join(args)} exited {done.returncode}")
    ready, result = None, None
    for line in done.stdout.splitlines():
        if line.startswith(READY):
            ready = float(line[len(READY):])
        elif line.startswith(RESULT):
            result = json.loads(line[len(RESULT):])
    if ready is None:
        raise RuntimeError(f"worker {' '.join(args)} never reported set-up done")
    return ready - t0, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "dirtyshor", "__init__.py")):
        print(f"perfbench: no dirtyshor sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(_worker(common + ["--setup-only"], deadline)[0])
        setup_s, result = _worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(setup_s)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"perfbench: {args.workload} seed={args.seed} rounds={result.pop('rounds')} "
          f"setups={[round(s, 3) for s in setups] if not args.trace else '-'}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
