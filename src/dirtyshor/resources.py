"""Gate tallies, ASAP depth, T accounting and the multiplier scaling study.

Every Toffoli is booked as 7 T gates. Depth is greedy as-soon-as-possible
layering: a gate starts one layer after the latest-finishing gate sharing a
qubit with it, so blocks on disjoint qubits count one layer. The scaling
table synthesizes worst-case instances per bit size, streaming each
emission through a counter and a LaneSink at once, so the row is checked
on CHECK_LANES random inputs (dirty-pool bits too; multiplier lanes half
with the control set, half clear) without the circuit ever materializing.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .adders import SynthesisError, emit_const_add
from .circuits import (Circuit, CountingSink, LaneSink, TeeSink, emit_circuit, pack_lanes,
                       unpack_lanes)
from .modular import ModMulSpec, emit_ctrl_modmul
from .revsim import random_bits

T_PER_TOFFOLI = 7
CHECK_LANES = 64  # random inputs each scaling row is checked on


@dataclass(frozen=True)
class ResourceReport:
    toffoli_count: int
    cnot_count: int
    not_count: int
    depth: int
    width: int

    @property
    def t_count(self) -> int:
        return T_PER_TOFFOLI * self.toffoli_count

    @property
    def gate_count(self) -> int:
        return self.toffoli_count + self.cnot_count + self.not_count

    def __str__(self) -> str:
        return (
            f"toffoli={self.toffoli_count} t={self.t_count} cnot={self.cnot_count} "
            f"not={self.not_count} depth={self.depth} width={self.width}"
        )


def _report_from(counter: CountingSink) -> ResourceReport:
    return ResourceReport(
        toffoli_count=counter.toffoli,
        cnot_count=counter.cnot,
        not_count=counter.not_,
        depth=counter.depth,
        width=counter.width_touched,
    )


def report(circuit: Circuit) -> ResourceReport:
    """Exact tallies for a circuit; rejects unlowered MCX."""
    counter = CountingSink(circuit.width)
    emit_circuit(circuit, counter)
    return _report_from(counter)


# --------------------------------------------------------------------------
# scaling study


@dataclass(frozen=True)
class ScalingRow:
    n: int
    toffoli: int
    depth: int
    seconds: float


CSV_HEADER = "n,toffoli,depth,seconds"


def worst_case_constant(n: int) -> int:
    """All-ones addend: every recursion level sees nonzero halves."""
    return (1 << n) - 1


def worst_case_modulus(n: int) -> int:
    """2^n - 1: shifted multiplier constants become bit rotations, so no
    sub-constant ever collapses to a zero block and the full recursion runs."""
    return (1 << n) - 1


def worst_case_multiplier(n: int) -> int:
    """Densest multiplier coprime to 2^n - 1, scanning up from 0101...01.

    The alternating pattern keeps every rotation and every complement
    (the subtraction constants mod 2^n - 1) dense; the scan moves past
    the pattern itself, which divides 2^n - 1.
    """
    modulus = worst_case_modulus(n)
    seed = sum(1 << i for i in range(0, n, 2))
    a = seed
    while math.gcd(a, modulus) != 1:
        a += 1
    return a


def _checked_row(harness: str, n: int, width: int, emit, states, want) -> ScalingRow:
    """Time emit(sink) into a counter and a LaneSink of states, which must end as want."""
    counter, sim = CountingSink(width), LaneSink(pack_lanes(states), (1 << len(states)) - 1)
    t0 = time.perf_counter()
    emit(TeeSink(counter, sim))
    dt = time.perf_counter() - t0
    if unpack_lanes(sim.lanes, states) != want:
        raise SynthesisError(f"{harness} harness n={n}: verification mismatch")
    return ScalingRow(n=n, toffoli=counter.toffoli, depth=counter.depth, seconds=dt)


def _adder_row(n: int, mode: str, rng: np.random.Generator) -> ScalingRow:
    c = worst_case_constant(n)
    pool = tuple(range(n, n + (2 if mode == "serial" else max(2, n // 2))))
    states = [random_bits(rng, n + len(pool)) for _ in range(CHECK_LANES)]  # x, then pool bits
    want = [s >> n << n | (s + c) % (1 << n) for s in states]
    return _checked_row("adder", n, n + len(pool), lambda sink: emit_const_add(
        sink, c, tuple(range(n)), pool, (), mode), states, want)


def _modmul_row(n: int, mode: str, rng: np.random.Generator) -> ScalingRow:
    modulus = worst_case_modulus(n)
    a = worst_case_multiplier(n)
    spec = ModMulSpec.standard(a, modulus, mode=mode)
    # odd lanes have ctrl = 1 and must multiply x; even lanes have ctrl = 0 and must not move
    xs = [random_bits(rng, n) % modulus for _ in range(CHECK_LANES)]
    states = [x | (k & 1) << spec.ctrl for k, x in enumerate(xs)]
    want = [(a * x % modulus if k & 1 else x) | (k & 1) << spec.ctrl for k, x in enumerate(xs)]
    return _checked_row("modmul", n, spec.width, lambda sink: emit_ctrl_modmul(sink, spec),
                        states, want)


_HARNESSES = {"adder": _adder_row, "modmul": _modmul_row}


def scaling_table(
    sizes,
    harness: str = "modmul",
    mode: str = "serial",
    seed: int = 0,
) -> list[ScalingRow]:
    """One row per bit size, ascending, with a random-input check per row."""
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError("sizes must be ascending")
    if sizes and sizes[0] < 1:
        raise ValueError(f"sizes must be at least 1, got {sizes[0]}")
    if harness not in _HARNESSES:
        raise ValueError(f"unknown harness {harness!r}")
    build = _HARNESSES[harness]
    rng = np.random.default_rng(seed)
    return [build(n, mode, rng) for n in sizes]


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.n},{r.toffoli},{r.depth},{r.seconds:.3f}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# model fits

FIT_MODELS = {
    "nlogn": lambda n: n * math.log2(n),
    "n2logn": lambda n: n * n * math.log2(n),
    "n3logn": lambda n: n * n * n * math.log2(n),
}


def fit_leading_coefficient(rows, model: str) -> float:
    """Least-squares k with count ~= k * model(n), two largest decades only.

    Small sizes carry the lower-order terms, so rows below max_n / 100 are
    dropped before the one-parameter fit k = sum(c*m) / sum(m*m).
    """
    if model not in FIT_MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(FIT_MODELS)}")
    if len(rows) < 3:
        raise ValueError("fit needs at least 3 rows")
    f = FIT_MODELS[model]
    cutoff = max(r.n for r in rows) / 100
    kept = [r for r in rows if r.n > cutoff]
    num = sum(r.toffoli * f(r.n) for r in kept)
    den = sum(f(r.n) ** 2 for r in kept)
    return num / den


# --------------------------------------------------------------------------
# whole-algorithm projection


def shor_projection(n: int, mode: str = "serial") -> ResourceReport:
    """Summed cost of the 2n controlled multiplications of a factoring run.

    Each round is costed at the worst-case constant; the per-round tally is
    summed over all 2n rounds, so the full sequence never has to live in
    memory at once. Rounds share every qubit, so depths add as well.

    The actual squared constants of a run are cheaper on average (zero
    sub-blocks of a constant are skipped during synthesis), which would pull
    the total well below the 2n-round figure this projection reports.
    """
    modulus = worst_case_modulus(n)
    a = worst_case_multiplier(n)
    spec = ModMulSpec.standard(a, modulus, mode=mode)
    counter = CountingSink(spec.width)
    emit_ctrl_modmul(counter, spec)
    rounds = 2 * n
    return ResourceReport(
        rounds * counter.toffoli,
        rounds * counter.cnot,
        rounds * counter.not_,
        rounds * counter.depth,
        spec.width,
    )
