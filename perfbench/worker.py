"""One workload process: set up, warm up, then time whole rounds of operations.

run.py starts this file once per measured run and again for each extra
set-up sample. It prints `PERFBENCH-READY <monotonic seconds>` when set-up
is done and, unless --setup-only, `PERFBENCH-RESULT <json>` at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
TALLIES = ("circuits.toffoli", "circuits.cnot", "circuits.not", "circuits.depth")


def _import_program():
    sys.path.insert(0, SRC)
    import dirtyshor

    where = os.path.dirname(os.path.abspath(dirtyshor.__file__))
    if where != os.path.join(SRC, "dirtyshor"):
        raise SystemExit(f"perfbench: imported dirtyshor from {where}, not from {SRC}")


def _measure(wl, seconds: float, tracer):
    """Repeat the round whole, stopping at the round boundary nearest `seconds`.

    Returns per-operation (seconds, completed) pairs, the errors of failed
    operations, the problems the checks found and per-round layer totals.
    """
    ops, errors, wrong, rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        layers: dict[str, float] = {}
        for op in wl.round:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.run(op)
                    dt = time.perf_counter() - t0
                else:
                    out, dt = tracer.run_op(wl.run, op)
            except Exception as exc:  # an operation that raises counts as failed
                ops.append((time.perf_counter() - t0, False))
                errors.append(f"{op!r:.120}: {type(exc).__name__}: {exc}")
                continue
            ops.append((dt, True))
            wrong += [f"{op!r:.120}: {p}" for p in wl.check(op, out)]
            if tracer is not None:
                record = dict(tracer.self_s)
                record.update(tracer.counts)
                record.update(zip(TALLIES, wl.tally(op, out, tracer.built)))
                record["trace.op_s"] = dt
                for name, value in record.items():
                    layers[name] = layers.get(name, 0) + value
        rounds.append(layers)
        now = time.perf_counter()
        if now - start + (now - r0) / 2 >= seconds:
            return ops, errors, wrong, rounds


def _trace_metrics(ops, rounds) -> tuple[dict, list[str]]:
    """Per-round self times (mean over rounds) and counts (exact, from round one)."""
    notes = []
    metrics = {}
    for name in tracing.TIME_METRICS:
        metrics[name] = (statistics.fmean(r.get(name, 0.0) for r in rounds), "s")
    for name in tracing.COUNT_METRICS:
        values = {r.get(name, 0) for r in rounds}
        if len(values) > 1:
            notes.append(f"{name} differs between identical rounds: {sorted(values)}")
        metrics[name] = (rounds[0].get(name, 0), "count")
    times = [dt for dt, ok in ops if ok]
    metrics["trace.op_p50_s"] = (statistics.median(times) if times else 0.0, "s")
    metrics["trace.round_s"] = (statistics.fmean(r.get("trace.op_s", 0.0) for r in rounds), "s")
    accounted = sum(metrics[name][0] for name in tracing.TIME_METRICS)
    if abs(accounted - metrics["trace.round_s"][0]) > 1e-6 * max(1.0, accounted):
        notes.append(f"self times sum to {accounted} s, operations took {metrics['trace.round_s'][0]} s")
    return metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    _import_program()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm = wl.round[0]
        wrong = []
        try:
            wrong += [f"warm-up {warm!r:.120}: {p}" for p in wl.check(warm, wl.run(warm))]
        except Exception as exc:  # the timed copies of this operation will fail too
            print(f"perfbench: warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(f"PERFBENCH-READY {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        ops, errors, op_wrong, rounds = _measure(wl, args.seconds, tracer)
        wrong += op_wrong

    if tracer is None:
        done = [dt for dt, ok in ops if ok] or [dt for dt, _ in ops]
        metrics = {
            "op_p50_s": (statistics.median(done), "s"),
            "ops_per_s": (sum(ok for _, ok in ops) / sum(dt for dt, _ in ops), "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics, notes = _trace_metrics(ops, rounds)
        for note in notes:
            print(f"perfbench: {note}", file=sys.stderr)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "round": [repr(op)[:200] for op in wl.round], "rounds": rounds},
                      fh, indent=1)
    for line in errors:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    for line in wrong:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len(errors),
        "rounds": len(rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("PERFBENCH-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
