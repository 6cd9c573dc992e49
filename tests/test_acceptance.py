"""Acceptance gate: one test per shipping criterion, tolerances pinned here.

Each test prints a single `criterion N PASS: ...` line with the measured
numbers; run pytest with -s (or -rA) to see them on success.
"""

import math
import time

import numpy as np
import pytest

from dirtyshor.adders import AdderSpec, carry_circuit, const_adder, emit_const_add, t_add_recursion
from dirtyshor.circuits import CountingSink, StateSink
from dirtyshor.faultlab import FaultSpec, call_bound, fault_detect, fault_localize, inject, random_vectors
from dirtyshor.modular import ModMulSpec, emit_ctrl_modmul, ctrl_modmul_inplace, mod_adder
from dirtyshor.resources import fit_leading_coefficient, report, scaling_table
from dirtyshor.revsim import permutation_table
from dirtyshor.shor import exact_outcome_distribution, shor_factor

# pinned tolerances and bands
ADDER_EXHAUSTIVE_MAX_N = 8
ADDER_RANDOM_SIZES = (16, 64, 256, 1024)
ADDER_RANDOM_POINTS = 50
CARRY_COUNT = lambda n: 4 * (n - 2) + 2
RECURSION_SIZES = (2, 4, 8, 16, 32, 64)
MULT_RATIO_BAND = (0.7, 1.3)
MULT_FIT_BAND = (22.0, 42.0)
MULT_SIZES = (64, 128, 256, 512)
SHOR_TV_TOL = 1e-9
FAULT_TRIALS = 100
FAULT_ADDER_N = 16
DEPTH_RATIO_BAND = (1.7, 2.3)
DEPTH_SIZES = (64, 128, 256, 512, 1024)


@pytest.fixture(scope="module")
def modmul_rows():
    return scaling_table(MULT_SIZES, harness="modmul", mode="serial", seed=0)


def _mask(n: int) -> int:
    return (1 << n) - 1


def test_criterion_1_adder_correctness():
    t0 = time.perf_counter()
    # exhaustive: every constant, every register value, every dirty pattern
    checked = 0
    for n in range(1, ADDER_EXHAUSTIVE_MAX_N + 1):
        spec_width = n + 2
        v = np.arange(1 << spec_width, dtype=np.int64)
        lo = v & _mask(n)
        hi = v & ~np.int64(_mask(n))
        for c in range(1 << n):
            perm = permutation_table(const_adder(AdderSpec.standard(n, c)))
            want = hi | ((lo + c) & _mask(n))
            assert (perm == want).all(), (n, c)
            checked += len(v)
    # randomized large widths against python big-integer arithmetic
    rng = np.random.default_rng(2024)
    for n in ADDER_RANDOM_SIZES:
        bits = tuple(range(n))
        pool = (n, n + 1)
        for point in range(ADDER_RANDOM_POINTS):
            c = int.from_bytes(rng.bytes(n // 8), "little")
            x = int.from_bytes(rng.bytes(n // 8), "little")
            pattern = (0, 3, int(rng.integers(0, 4)))[point % 3]
            sink = StateSink(x | (pattern << n))
            emit_const_add(sink, c, bits, pool, (), "serial")
            assert sink.state == ((x + c) & _mask(n)) | (pattern << n), (n, point)
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"criterion 1 PASS: {checked} exhaustive states, "
          f"{ADDER_RANDOM_POINTS} points at n in {ADDER_RANDOM_SIZES}, {dt:.1f}s")


def test_criterion_2_count_formulas():
    for n in range(3, 65):
        circ = carry_circuit(_mask(n), tuple(range(n)), tuple(range(n, 2 * n - 1)), 2 * n - 1)
        measured = report(circ).toffoli_count
        assert measured == CARRY_COUNT(n), (n, measured)
    adder_counts = []
    for n in RECURSION_SIZES:
        counter = CountingSink(n + 2)
        emit_const_add(counter, _mask(n), tuple(range(n)), (n, n + 1), (), "serial")
        assert counter.toffoli == t_add_recursion(n), (n, counter.toffoli)
        adder_counts.append(counter.toffoli)
    print(f"criterion 2 PASS: carry 4(n-2)+2 for n in 3..64, "
          f"adder counts {adder_counts} match the recursion at {RECURSION_SIZES}")


def test_criterion_3_multiplier_scaling(modmul_rows):
    lo, hi = MULT_RATIO_BAND
    ratios = {}
    for row in modmul_rows:
        ratio = row.toffoli / (32 * row.n**2 * math.log2(row.n))
        assert lo <= ratio <= hi, (row.n, ratio)
        ratios[row.n] = round(ratio, 3)
    k = fit_leading_coefficient(modmul_rows, "n2logn")
    assert MULT_FIT_BAND[0] <= k <= MULT_FIT_BAND[1], k
    total = sum(row.seconds for row in modmul_rows)
    assert total < 600.0
    print(f"criterion 3 PASS: ratios {ratios}, fit k={k:.2f}, synth {total:.0f}s")


def test_criterion_4_modular_arithmetic():
    t0 = time.perf_counter()
    checked = 0
    for N in range(3, 32, 2):
        n = N.bit_length()
        b = tuple(range(n))
        g = tuple(range(n, 2 * n - 1))
        ind = 2 * n - 1
        width = 2 * n
        v = np.arange(1 << width, dtype=np.int64)
        bv = v & _mask(n)
        valid = (bv < N) & (((v >> ind) & 1) == 0)
        for a in range(N):
            perm = permutation_table(mod_adder(a, N, b, g, ind))
            want = (v & ~np.int64(_mask(n))) | ((bv + a) % N)
            assert (perm[valid] == want[valid]).all(), (N, a)
            checked += int(valid.sum())
    for N in (15, 21):
        n = N.bit_length()
        v = None
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            spec = ModMulSpec.standard(a, N)
            perm = permutation_table(ctrl_modmul_inplace(spec))
            if v is None:
                v = np.arange(len(perm), dtype=np.int64)
                xv = v & _mask(n)
                on = ((v >> spec.ctrl) & 1) == 1
                clean = (((v >> spec.ind) & 1) == 0) & (((v >> spec.n) & _mask(n)) == 0)
                valid_on = clean & on & (xv < N)
                off = (((v >> spec.ind) & 1) == 0) & ~on
            # indicator and work stay clean: output has them at zero again
            want = (a * xv % N) | np.int64(1 << spec.ctrl)
            assert (perm[valid_on] == want[valid_on]).all(), (N, a)
            assert (perm[off] == v[off]).all(), (N, a)
            checked += int(valid_on.sum()) + int(off.sum())
    dt = time.perf_counter() - t0
    assert dt < 300.0
    print(f"criterion 4 PASS: {checked} states across odd N<32 and N in (15, 21), {dt:.1f}s")


def test_criterion_5_end_to_end_shor():
    dist = exact_outcome_distribution(15, 7)
    uniform = {y: 0.25 for y in (0, 64, 128, 192)}
    assert set(dist) == set(uniform)
    tv = 0.5 * sum(abs(dist[y] - uniform[y]) for y in uniform)
    assert tv <= SHOR_TV_TOL, tv
    out15 = shor_factor(15, seed=0)
    assert out15.factors == (3, 5)
    out21 = shor_factor(21, seed=0)
    assert out21.factors == (3, 7)
    print(f"criterion 5 PASS: TV={tv:.2e}, 15 -> {out15.factors} "
          f"({out15.attempts_used} attempts), 21 -> {out21.factors} "
          f"({out21.attempts_used} attempts)")


def test_criterion_6_width_budget():
    widths = {}
    for N in (15, 21):
        n = N.bit_length()
        spec = ModMulSpec.standard(7 if N == 15 else 2, N)
        counter = CountingSink(spec.width)
        emit_ctrl_modmul(counter, spec)
        assert counter.width_touched == 2 * n + 2, (N, counter.width_touched)
        widths[N] = counter.width_touched
    out = shor_factor(15, seed=0)
    assert all(run.width == 2 * 4 + 2 for run in out.runs)
    print(f"criterion 6 PASS: multiplier touches {widths}, circuit width "
          f"{[run.width for run in out.runs]}, statevector {(15).bit_length() + 1} qubits for N=15")


def test_criterion_7_fault_localization():
    t0 = time.perf_counter()
    circ = const_adder(AdderSpec.standard(FAULT_ADDER_N, _mask(FAULT_ADDER_N)))
    n_gates = len(circ.gates)
    rng = np.random.default_rng(5)
    max_calls = 0
    for _ in range(FAULT_TRIALS):
        idx = int(rng.integers(0, n_gates))
        fault = [FaultSpec("missing", idx)]
        vectors: list[int] = []
        while True:
            batch = random_vectors(circ.width, 4, rng)
            vectors += batch
            if fault_detect(inject(circ, fault), circ, batch):
                break
        executor = inject(circ, fault)
        ranges = fault_localize(executor, circ, vectors)
        assert ranges == [(idx, idx + 1)], (idx, ranges)
        bound = call_bound(n_gates, len(vectors))
        assert executor.calls <= bound, (idx, executor.calls, bound)
        max_calls = max(max_calls, executor.calls)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"criterion 7 PASS: {FAULT_TRIALS}/{FAULT_TRIALS} exact on {n_gates} gates, "
          f"max calls {max_calls}, {dt:.1f}s")


def test_criterion_8_depth_linearity():
    rows = scaling_table(DEPTH_SIZES, harness="adder", mode="parallel", seed=0)
    depths = {row.n: row.depth for row in rows}
    ratios = {}
    lo, hi = DEPTH_RATIO_BAND
    for n in DEPTH_SIZES[:-1]:
        ratio = depths[2 * n] / depths[n]
        assert lo <= ratio <= hi, (n, ratio)
        ratios[n] = round(ratio, 3)
    print(f"criterion 8 PASS: depth(2n)/depth(n) = {ratios}")
