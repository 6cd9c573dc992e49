"""Bit-exact simulation of reversible circuits.

A basis state is one python int, bit i = qubit i, so a gate costs O(1)
machine-word work per 64 qubits and registers of thousands of qubits stay
cheap. permutation_table runs many basis states on bit-sliced lanes (Biham
1997): qubit q is one python int whose bit k is lane k's qubit q, so a gate
is one big-integer XOR across all lanes. Exhaustive tests run every state;
the phase estimation driver runs only the inputs it can reach.

Each simulator is a sink fed by circuits.emit_circuit.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, StateSink, emit_circuit, emit_gates

LANE_CAP = 1 << 22  # lanes per table: 32 MiB of int64 images


class SimulationError(ValueError):
    pass


def run(circuit: Circuit, state: int) -> int:
    """Apply every gate to a basis state."""
    if state >> circuit.width:
        raise SimulationError("state has bits beyond the circuit width")
    sink = StateSink(state)
    emit_circuit(circuit, sink)
    return sink.state


def prefix_states(circuit: Circuit, state: int) -> list[int]:
    """All len(circuit)+1 prefix states, one gate at a time."""
    sink = StateSink(state)
    states = [state]
    for gate in circuit.gates:
        emit_gates((gate,), sink)
        states.append(sink.state)
    return states


class LaneSink:
    """Bit-sliced gates: lanes[q] holds qubit q of every lane, one bit per lane."""

    __slots__ = ("lanes", "full")

    def __init__(self, lanes: list[int], full: int):
        self.lanes = lanes
        self.full = full

    def x(self, t: int) -> None:
        self.lanes[t] ^= self.full

    def cx(self, c: int, t: int) -> None:
        lanes = self.lanes
        lanes[t] ^= lanes[c]

    def ccx(self, c1: int, c2: int, t: int) -> None:
        lanes = self.lanes
        lanes[t] ^= lanes[c1] & lanes[c2]

    def mcx(self, controls: tuple[int, ...], t: int) -> None:
        lanes = self.lanes
        acc = lanes[controls[0]]
        for c in controls[1:]:
            acc &= lanes[c]
        lanes[t] ^= acc


def permutation_table(circuit: Circuit, inputs: np.ndarray | None = None) -> np.ndarray:
    """Images of the given int64 basis states, one lane each, capped at
    LANE_CAP lanes; without inputs, perm[s] = circuit(s) for all 2**width s."""
    if inputs is None:
        if 1 << circuit.width > LANE_CAP:
            raise SimulationError(f"width {circuit.width} is over the {LANE_CAP}-lane table cap")
        inputs = np.arange(1 << circuit.width, dtype=np.int64)
    inputs = np.asarray(inputs, dtype=np.int64)
    count = len(inputs)
    if count > LANE_CAP:
        raise SimulationError(f"{count} inputs are over the {LANE_CAP}-lane table cap")
    if count and (inputs.min() < 0 or inputs.max() >> circuit.width):
        raise SimulationError("input states have bits beyond the circuit width")
    # pack and unpack one qubit at a time, never a count x width bit matrix
    lanes = [int.from_bytes(np.packbits((inputs >> q) & 1, bitorder="little").tobytes(), "little")
             for q in range(circuit.width)]
    emit_circuit(circuit, LaneSink(lanes, (1 << count) - 1))
    out = np.zeros(count, dtype=np.int64)
    nbytes = (count + 7) // 8
    for q, lane in enumerate(lanes):
        bits = np.unpackbits(np.frombuffer(lane.to_bytes(nbytes, "little"), dtype=np.uint8),
                             count=count, bitorder="little")
        out |= bits.astype(np.int64) << q
    return out


def random_bits(rng: np.random.Generator, width: int) -> int:
    """Uniform width-bit basis state, drawn 32 bits at a time."""
    v = 0
    for off in range(0, width, 32):
        v |= int(rng.integers(0, 1 << 32)) << off
    return v & ((1 << width) - 1)
