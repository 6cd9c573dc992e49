"""Fault injection and binary-search localization for Toffoli networks.

Faults are injected into a segment executor that can run any contiguous
gate range of a fixed circuit on a basis state, standing in for hardware.
Because the networks are permutations, a triggered fault shows up as an
exact bit mismatch against the reversible-simulation golden output, and
localization bisects: feed each half its golden input state, see which
half's output deviates, recurse. A single triggered fault deviates in
exactly one half per level, so the faulty gate index is pinned in
ceil(log2 G) rounds; multiple faults may flag both halves and come back
as a list of ranges. The golden states are checkpoints carried down the
bisection (each range's lo and hi, mid recomputed from lo), so a vector
never holds more than O(log G) states. Both sides run all vectors in one
lane pass per range (revsim.run_lanes for the golden states), and the faulty
pass books one call per vector, up to the first vector that deviates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import (Circuit, CircuitError, Gate, GateKind, LaneSink, emit_circuit, emit_gates,
                       pack_lanes, unpack_lanes)
# prefix_states has no caller here; perfbench/tracing.py wraps faultlab.prefix_states by name
from .revsim import prefix_states, random_bits, run_lanes

_FAULT_KINDS = ("missing", "bitflip")


class FaultError(CircuitError):
    pass


class InconclusiveError(RuntimeError):
    """The vector set never triggers the fault, so bisection has no signal."""


@dataclass(frozen=True)
class FaultSpec:
    """missing: gate `index` is silently skipped.
    bitflip: `qubit` is flipped right after gate `index` executes."""

    kind: str
    index: int
    qubit: int | None = None

    def __post_init__(self):
        if self.kind not in _FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}")
        if self.kind == "bitflip" and self.qubit is None:
            raise FaultError("bitflip fault needs a qubit")
        if self.kind == "missing" and self.qubit is not None:
            raise FaultError("missing-gate fault takes no qubit")


def parse_faults(text: str) -> list[FaultSpec]:
    """One fault per line: `missing <gate-index>` or `bitflip <gate-index> <qubit>`."""
    faults = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "missing" and len(parts) == 2:
                faults.append(FaultSpec("missing", int(parts[1])))
            elif parts[0] == "bitflip" and len(parts) == 3:
                faults.append(FaultSpec("bitflip", int(parts[1]), int(parts[2])))
            else:
                raise FaultError(f"line {lineno}: cannot parse fault {line!r}")
        except ValueError as exc:
            raise FaultError(f"line {lineno}: non-integer field in {line!r}") from exc
    return faults


class SegmentExecutor:
    """Runs gate ranges of one circuit with hidden faults; counts every call."""

    def __init__(self, circuit: Circuit, faults) -> None:
        faults = tuple(faults)
        n_gates = len(circuit.gates)
        for f in faults:
            if not 0 <= f.index < n_gates:
                raise FaultError(f"fault index {f.index} outside 0..{n_gates - 1}")
            if f.kind == "bitflip" and not 0 <= f.qubit < circuit.width:
                raise FaultError(f"fault qubit {f.qubit} outside circuit width")
        self.width = circuit.width
        self.n_gates = n_gates
        self.faults = faults
        self.calls = 0
        self._missing = frozenset(f.index for f in faults if f.kind == "missing")
        flips: dict[int, list[Gate]] = {}  # a bitflip is an X after its gate
        for f in faults:
            if f.kind == "bitflip":
                flips.setdefault(f.index, []).append(Gate(GateKind.X, (), f.qubit))
        self._flips = flips
        self._marks = sorted(self._missing | flips.keys())
        self._circuit = circuit

    def run(self, lo: int, hi: int, states, until=None):
        """Apply gates [lo, hi) with faults realized (a missing gate left out,
        a bitflip an X after its gate) to one int state, or to a list of them
        in one LaneSink pass. Books one call per state, as hardware would;
        given until (the expected images), only up to the first that differs."""
        if not 0 <= lo <= hi <= self.n_gates:
            raise FaultError(f"range [{lo}, {hi}) outside 0..{self.n_gates}")
        one = not isinstance(states, list)
        ins, wants = ([states], [until]) if one else (states, until)
        sink = LaneSink(pack_lanes(ins), (1 << len(ins)) - 1)
        start = lo
        for idx in self._marks:
            if lo <= idx < hi:
                end = idx if idx in self._missing else idx + 1
                emit_circuit(self._circuit, sink, start, end)
                emit_gates(self._flips.get(idx, ()), sink)
                start = idx + 1
        emit_circuit(self._circuit, sink, start, hi)
        outs = unpack_lanes(sink.lanes, ins)
        differ = [] if until is None else [o != w for o, w in zip(outs, wants)]
        self.calls += differ.index(True) + 1 if True in differ else len(outs)
        return outs[0] if one else outs


def inject(circuit: Circuit, faults) -> SegmentExecutor:
    return SegmentExecutor(circuit, faults)


def call_bound(n_gates: int, n_vectors: int) -> int:
    rounds = max(1, math.ceil(math.log2(n_gates))) if n_gates > 1 else 1
    return 2 * n_vectors * (rounds + 1)


def fault_detect(executor: SegmentExecutor, circuit: Circuit, vectors) -> int:
    """How many vectors' full-range outputs differ from fault-free sim;
    0 means the fault set is not detected. One executor pass, one call per vector."""
    values = [int(v) for v in vectors]
    golden = run_lanes(circuit, values)  # rejects states beyond the width first
    return sum(o != g for o, g in zip(executor.run(0, executor.n_gates, values), golden))


def fault_localize(executor: SegmentExecutor, circuit: Circuit, vectors) -> list[tuple[int, int]]:
    """Gate ranges containing faults, each narrowed as far as the call budget
    2 * |vectors| * (ceil(log2 G) + 1) allows; a single triggered fault comes
    back as one exact single-gate range.

    Each bisection level feeds both halves their golden (fault-free) input
    states, so a deviation in a half certifies a triggered fault inside it.
    A range carries its golden states at lo and hi for every vector; the
    states at mid are recomputed from lo in one lane pass over all vectors,
    so a vector holds at most two states per level of the descent.
    Raises InconclusiveError when no vector shows any full-range deviation.
    """
    values = [int(v) for v in vectors]
    if not values:
        raise InconclusiveError("no test vectors supplied")
    n_gates = executor.n_gates
    if n_gates == 0:
        raise InconclusiveError("empty circuit")
    budget = call_bound(n_gates, len(values)) + executor.calls

    def deviates(lo: int, hi: int, ins: list[int], outs: list[int]) -> bool:
        return executor.run(lo, hi, ins, until=outs) != outs

    outs = run_lanes(circuit, values)
    if not deviates(0, n_gates, values, outs):
        raise InconclusiveError("vectors never trigger the fault end to end")

    # depth first, left half first, off a stack: a recursive closure would be
    # a reference cycle that keeps the executor and circuit alive until gc
    ranges: list[tuple[int, int]] = []
    todo = [(0, n_gates, values, outs)]
    while todo:
        lo, hi, ins, outs = todo.pop()
        if hi - lo == 1 or executor.calls + 2 * len(values) > budget:
            ranges.append((lo, hi))
            continue
        mid = (lo + hi) // 2
        mids = run_lanes(circuit, ins, lo, mid)
        # test both halves before entering either; some vector deviates on
        # this range from its golden input, so at least one half deviates
        left = deviates(lo, mid, ins, mids)
        right = deviates(mid, hi, mids, outs)
        if right:
            todo.append((mid, hi, mids, outs))
        if left:
            todo.append((lo, mid, ins, mids))
    return ranges


def random_vectors(width: int, count: int, seed: int | np.random.Generator = 0) -> list[int]:
    """Uniform basis states for trigger sampling; width may exceed 64 bits."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return [random_bits(rng, width) for _ in range(count)]
