"""Bit-exact simulation of reversible circuits.

Every simulator here is a circuits.LaneSink, bit-sliced (Biham 1997):
qubit q is one python int whose bit k is lane k's qubit q, so a gate is
one small-integer or big-integer XOR across all lanes. run_lanes runs a
gate range on a list of int states in one pass, and run is its one-state
call; prefix_states uses one lane (a StateSink). permutation_table runs
many basis states at once: exhaustive tests run every state, and the
phase estimation driver runs only the inputs it can reach.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, LaneSink, StateSink, emit_circuit, emit_gates

LANE_CAP = 1 << 22  # lanes per table: 32 MiB of int64 images


class SimulationError(ValueError):
    pass


def run(circuit: Circuit, state: int) -> int:
    """Apply every gate to a basis state."""
    return run_lanes(circuit, [state])[0]


def run_lanes(circuit: Circuit, states: list[int], lo: int = 0, hi: int | None = None) -> list[int]:
    """Apply gates [lo, hi) to every basis state at once, one LaneSink lane
    per state: the cost of one pass, whatever the number of states."""
    if any(s >> circuit.width for s in states):
        raise SimulationError("state has bits beyond the circuit width")
    if not states:
        return []
    # rows run from the last state to the first, qubit 0 first: column q is lane q
    rows = [format(s, f"0{circuit.width}b")[::-1] for s in reversed(states)]
    lanes = [int("".join(col), 2) for col in zip(*rows)]
    emit_circuit(circuit, LaneSink(lanes, (1 << len(states)) - 1), lo, hi)
    cols = [format(lane, f"0{len(states)}b") for lane in reversed(lanes)]
    return [int("".join(bits), 2) for bits in zip(*cols)][::-1]


def prefix_states(circuit: Circuit, state: int) -> list[int]:
    """All len(circuit)+1 prefix states, one gate at a time."""
    sink = StateSink(state)
    states = [state]
    for gate in circuit.gates:
        emit_gates((gate,), sink)
        states.append(sink.state)
    return states


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
