#!/usr/bin/env python3
"""Time the lane codec: revsim.run_lanes, revsim.run and permutation_table.

Every circuit is one Toffoli on qubits 0, 1 and 2, so the figures are the
cost of packing states into LaneSink lanes and unpacking them again:
- run_lanes on random full-width states at widths 34, 514 and 4096;
- run of one random 62-bit state on a width-4096 circuit;
- permutation_table on 2^k random states of width 2k for each --table-log
  k (the factoring tables also run sparse inputs at about twice their
  bit length), with the tracemalloc peak of one more, untimed call.
Each time is per call, the best of --repeat timings. Run with src on PYTHONPATH.
"""
import argparse
import sys
import timeit
import tracemalloc

import numpy as np

from dirtyshor.circuits import Circuit
from dirtyshor.revsim import permutation_table, random_bits, run, run_lanes


def best(fn, repeat: int) -> float:
    """Seconds per call: the best of repeat timings, each of enough calls
    to take at least 0.2 s (timeit's autorange)."""
    timer = timeit.Timer(fn)
    number = timer.autorange()[0]
    return min(timer.repeat(repeat, number)) / number


def toffoli(width: int) -> Circuit:
    circ = Circuit(width)
    circ.ccx(0, 1, 2)
    return circ


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5, help="runs per timing, best kept (default 5)")
    ap.add_argument("--table-log", type=int, nargs="+", default=[20, 22],
                    help="log2 of the permutation_table input counts (default 20 22)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if not all(2 <= k <= 22 for k in args.table_log):
        ap.error("--table-log values must lie in 2..22 (revsim.LANE_CAP is 2^22 inputs)")
    rng = np.random.default_rng(0)

    for width, count in ((34, 4), (514, 4), (4096, 4), (4096, 64)):
        circ = toffoli(width)
        states = [random_bits(rng, width) for _ in range(count)]
        dt = best(lambda: run_lanes(circ, states), args.repeat)
        print(f"run_lanes width={width} states={count}: {dt * 1e6:.1f} us")

    circ, state = toffoli(4096), random_bits(rng, 62) | 7
    dt = best(lambda: run(circ, state), args.repeat)
    print(f"run width=4096 state_bits=62: {dt * 1e6:.1f} us")

    for k in args.table_log:
        circ = toffoli(2 * k)
        inputs = rng.integers(0, 1 << 2 * k, 1 << k, dtype=np.int64)
        dt = best(lambda: permutation_table(circ, inputs), args.repeat)
        tracemalloc.start()
        permutation_table(circ, inputs)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"permutation_table inputs=2^{k} width={2 * k}: {dt:.3f} s, "
              f"tracemalloc peak {peak / 2**20:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
