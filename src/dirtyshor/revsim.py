"""Bit-exact simulation of reversible circuits.

Every simulator here emits gates into a circuits.LaneSink, one lane per
basis state (bit-sliced, Biham 1997), so a gate is one integer XOR for all
states. run_lanes runs a gate range on python int states or an int64 array
of them, and run on one state; permutation_table runs up to LANE_CAP int64
states: every state for exhaustive tests, or the inputs phase estimation
can reach. prefix_states steps one gate at a time, for tests.
"""
from __future__ import annotations

import numpy as np

from .circuits import (Circuit, LaneSink, StateSink, emit_circuit, emit_gates, pack_lanes,
                       unpack_lanes)

LANE_CAP = 1 << 22  # lanes per table: 32 MiB of int64 images


class SimulationError(ValueError):
    pass


def run(circuit: Circuit, state: int) -> int:
    """Apply every gate to a basis state."""
    return run_lanes(circuit, [state])[0]


def run_lanes(circuit: Circuit, states, lo: int = 0, hi: int | None = None):
    """Apply gates [lo, hi) to every basis state at once, one LaneSink lane
    per state: the cost of one pass, whatever the number of states. Python
    int states come back as a list, int64 states as an int64 array."""
    if np.min(states, initial=0) < 0 or int(np.max(states, initial=0)) >> circuit.width:
        raise SimulationError("state has bits beyond the circuit width")
    sink = LaneSink(pack_lanes(states), (1 << len(states)) - 1)
    emit_circuit(circuit, sink, lo, hi)
    return unpack_lanes(sink.lanes, states)


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
    if len(inputs) > LANE_CAP:
        raise SimulationError(f"{len(inputs)} inputs are over the {LANE_CAP}-lane table cap")
    return run_lanes(circuit, inputs)


def random_bits(rng: np.random.Generator, width: int) -> int:
    """Uniform width-bit basis state, drawn 32 bits at a time."""
    v = 0
    for off in range(0, width, 32):
        v |= int(rng.integers(0, 1 << 32)) << off
    return v & ((1 << width) - 1)
