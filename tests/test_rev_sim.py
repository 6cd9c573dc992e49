"""Basis-state simulator: gate semantics, prefix states, permutation tables, speed."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtyshor.adders import AdderSpec, const_adder
from dirtyshor.circuits import Circuit, Gate, GateKind
from dirtyshor.faultlab import SegmentExecutor
from dirtyshor.revsim import (
    SimulationError,
    permutation_table,
    prefix_states,
    random_bits,
    run,
    run_lanes,
)


def test_not_flips():
    circ = Circuit(1)
    circ.x(0)
    assert run(circ, 0) == 1


def test_toffoli_fires_only_on_11():
    circ = Circuit(3)
    circ.ccx(0, 1, 2)
    # bits 110 reads qubit 0 first: q0=1, q1=1, q2=0
    assert run(circ, 0b011) == 0b111
    assert run(circ, 0b001) == 0b001
    assert run(circ, 0b110) == 0b110


def test_adder_wraps_and_preserves_dirty():
    spec = AdderSpec.standard(4, 11)
    circ = const_adder(spec)
    for g in (0, 1, 2, 3):
        out = run(circ, 5 | (g << 4))
        assert out == (0 | (g << 4))  # 5 + 11 = 16 wraps to 0


def test_run_rejects_oversized_state():
    circ = Circuit(2)
    circ.x(0)
    with pytest.raises(SimulationError):
        run(circ, 7)
    with pytest.raises(SimulationError):
        run_lanes(circ, [0, 3, 4])
    with pytest.raises(SimulationError):
        run_lanes(circ, [-1])
    assert run_lanes(circ, []) == []


def test_run_lanes_matches_run_on_gate_ranges():
    # 514-qubit states: every lane is wider than a machine word
    circ = const_adder(AdderSpec.standard(512, (1 << 512) - 1))
    rng = np.random.default_rng(5)
    states = [random_bits(rng, circ.width) for _ in range(5)] + [0, (1 << circ.width) - 1]
    for _ in range(4):
        lo, hi = sorted(int(i) for i in rng.integers(0, len(circ.gates) + 1, size=2))
        segment = Circuit(circ.width, circ.gates[lo:hi])
        assert run_lanes(circ, states, lo, hi) == [run(segment, s) for s in states]
    assert run_lanes(circ, states) == [run(circ, s) for s in states]
    assert run_lanes(circ, states[:1], 7, 7) == states[:1]


def test_mcx_semantics():
    circ = Circuit(4, [Gate(GateKind.MCX, (0, 1, 2), 3)])
    assert run(circ, 0b0111) == 0b1111
    assert run(circ, 0b0011) == 0b0011


def test_prefix_states_cover_every_gate():
    spec = AdderSpec.standard(3, 5)
    circ = const_adder(spec)
    pres = prefix_states(circ, 6)
    assert len(pres) == len(circ.gates) + 1
    assert pres[0] == 6
    assert pres[-1] == run(circ, 6)


@st.composite
def _circuit_pair(draw):
    width = draw(st.integers(2, 6))
    out = []
    for _ in range(2):
        circ = Circuit(width)
        for _ in range(draw(st.integers(0, 15))):
            qubits = draw(st.permutations(range(width)))
            k = draw(st.integers(0, min(2, width - 1)))
            circ.mcx(tuple(qubits[:k]), qubits[k])
        out.append(circ)
    state = draw(st.integers(0, (1 << width) - 1))
    return out[0], out[1], state


def reference_states(gates, state: int) -> list[int]:
    """Per-gate reference: the state before the first gate and after each."""
    out = [state]
    for kind, controls, target in gates:
        assert kind in (GateKind.X, GateKind.CX, GateKind.CCX, GateKind.MCX)
        if all((state >> c) & 1 for c in controls):
            state ^= 1 << target
        out.append(state)
    return out


@st.composite
def random_circuit(draw, max_gates: int = 20):
    """X/CX/CCX gates plus MCX gates with 3-4 controls, stored as MCX."""
    width = draw(st.integers(5, 7))
    circ = Circuit(width)
    for _ in range(draw(st.integers(0, max_gates))):
        qubits = draw(st.permutations(range(width)))
        k = draw(st.integers(0, 4))
        kind = (GateKind.X, GateKind.CX, GateKind.CCX, GateKind.MCX, GateKind.MCX)[k]
        circ.append(Gate(kind, tuple(qubits[:k]), qubits[k]))
    return circ


@settings(max_examples=60, deadline=None)
@given(random_circuit(), st.data())
def test_simulators_agree_with_reference(circ, data):
    state = data.draw(st.integers(0, (1 << circ.width) - 1))
    want = reference_states(circ.gates, state)
    assert run(circ, state) == want[-1]
    assert prefix_states(circ, state) == want
    table = permutation_table(circ)
    assert table[state] == want[-1]
    inputs = np.array(data.draw(st.lists(st.integers(0, (1 << circ.width) - 1), max_size=9)),
                      dtype=np.int64)
    lanes = permutation_table(circ, inputs)
    assert (lanes == table[inputs]).all()
    assert lanes.tolist() == [reference_states(circ.gates, int(s))[-1] for s in inputs]
    assert run_lanes(circ, [state, *map(int, inputs)]) == [want[-1], *lanes.tolist()]
    ex = SegmentExecutor(circ, [])
    lo = data.draw(st.integers(0, len(circ.gates)))
    hi = data.draw(st.integers(lo, len(circ.gates)))
    assert ex.run(lo, hi, want[lo]) == want[hi]
    assert ex.calls == 1


@settings(max_examples=60, deadline=None)
@given(_circuit_pair())
def test_composition_property(pair):
    c1, c2, s = pair
    joined = Circuit(c1.width, c1.gates + c2.gates)
    assert run(joined, s) == run(c2, run(c1, s))


def test_permutation_table_matches_run():
    spec = AdderSpec.standard(4, 7)
    circ = const_adder(spec)
    table = permutation_table(circ)
    for s in range(1 << circ.width):
        assert table[s] == run(circ, s)
    # bijectivity: synthesized circuits always permute the basis
    assert len(np.unique(table)) == len(table)


def test_permutation_table_width_cap():
    with pytest.raises(SimulationError):
        permutation_table(Circuit(23))
    # given inputs lift the width cap but not the lane cap
    assert permutation_table(Circuit(40), np.array([1 << 39])).tolist() == [1 << 39]
    with pytest.raises(SimulationError):
        permutation_table(Circuit(1), np.zeros((1 << 22) + 1, dtype=np.int64))
    with pytest.raises(SimulationError):
        permutation_table(Circuit(2), np.array([4]))


def test_throughput_regression_guard():
    # performance floor from the module contract: >= 1e6 gates/s at width 4096
    width = 4096
    rng = np.random.default_rng(0)
    circ = Circuit(width)
    triples = rng.integers(0, width, size=(120_000, 3))
    for a, b, c in triples:
        a, b, c = int(a), int(b), int(c)
        if a == b or b == c or a == c:
            circ.x(a)
        else:
            circ.ccx(a, b, c)
    state = 0
    for i, bit in enumerate(rng.integers(0, 2, size=width)):
        state |= int(bit) << i
    best = 0.0
    for _ in range(2):
        t0 = time.perf_counter()
        run(circ, state)
        best = max(best, len(circ.gates) / (time.perf_counter() - t0))
    assert best >= 1e6, f"{best:.0f} gates/s under the 1e6 floor"
