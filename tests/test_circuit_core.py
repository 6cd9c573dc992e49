"""Gate IR: validation, reversal, MCX lowering, replay, text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtyshor.adders import AdderSpec, const_adder
from dirtyshor.circuits import (
    Circuit,
    CircuitError,
    CountingSink,
    Gate,
    GateKind,
    LoweringSink,
    RecordingSink,
    circuit_from_text,
    circuit_to_text,
    emit_circuit,
    emit_mcx,
)
from dirtyshor.revsim import permutation_table, run


def test_append_accepts_valid_gates():
    circ = Circuit(3)
    circ.append(Gate(GateKind.CCX, (0, 1), 2))
    assert len(circ) == 1
    one = Circuit(1)
    one.x(0)
    assert len(one) == 1


def test_append_rejects_duplicate_qubits():
    circ = Circuit(2)
    with pytest.raises(CircuitError):
        circ.append(Gate(GateKind.CX, (0,), 0))
    with pytest.raises(CircuitError):
        circ.append(Gate(GateKind.CCX, (1, 1), 0))


def test_append_rejects_out_of_range():
    circ = Circuit(2)
    with pytest.raises(CircuitError):
        circ.x(2)
    with pytest.raises(CircuitError):
        circ.cx(5, 0)


def test_gate_arity_enforced():
    circ = Circuit(4)
    with pytest.raises(CircuitError):
        circ.append(Gate(GateKind.CX, (0, 1), 2))
    with pytest.raises(CircuitError):
        circ.append(Gate(GateKind.MCX, (), 0))
    with pytest.raises(CircuitError):
        circ.append(Gate(7, (), 0))


def test_mcx_method_narrows_kind():
    circ = Circuit(5)
    circ.mcx((), 0)
    circ.mcx((0,), 1)
    circ.mcx((0, 1), 2)
    circ.mcx((0, 1, 2), 3)
    kinds = [g.kind for g in circ.gates]
    assert kinds == [GateKind.X, GateKind.CX, GateKind.CCX, GateKind.MCX]


def test_width_must_be_positive():
    with pytest.raises(CircuitError):
        Circuit(0)


def test_reverse_reverses_order():
    circ = Circuit(2)
    circ.x(0)
    circ.cx(0, 1)
    rev = circ.reverse()
    assert [g.kind for g in rev.gates] == [GateKind.CX, GateKind.X]
    back = rev.reverse()
    assert back.gates == circ.gates


def test_reverse_is_functional_inverse():
    spec = AdderSpec.standard(16, 0xBEEF)
    circ = const_adder(spec)
    both = Circuit(circ.width, circ.gates + circ.reverse().gates)
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = int(rng.integers(0, 1 << circ.width))
        assert run(both, s) == s


# --------------------------------------------------------------------------
# MCX lowering


def _lower(circ: Circuit, pool) -> Circuit:
    out = Circuit(circ.width)
    emit_circuit(circ, LoweringSink(out, pool))
    return out


def test_lower_three_controls_is_four_toffolis():
    circ = Circuit(5)
    circ.mcx((0, 1, 2), 3)
    low = _lower(circ, (4,))
    assert [g.kind for g in low.gates] == [GateKind.CCX] * 4


def test_lowered_mcx_equivalent_and_restores_dirty():
    # exhaustive over all 2^5 inputs covers both dirty values 0 and 1
    circ = Circuit(5)
    circ.mcx((0, 1, 2), 3)
    low = _lower(circ, (4,))
    want = permutation_table(circ)
    got = permutation_table(low)
    assert (want == got).all()
    assert not ((got ^ np.arange(len(got))) & 1 << 4).any()  # dirty qubit 4 restored


def test_lowering_leaves_mcx_free_circuit_unchanged():
    circ = Circuit(3)
    circ.ccx(0, 1, 2)
    circ.x(0)
    low = _lower(circ, (0,))
    assert low.gates == circ.gates


def test_lowering_needs_untouched_pool_qubit():
    circ = Circuit(4)
    circ.mcx((0, 1, 2), 3)
    with pytest.raises(CircuitError):
        _lower(circ, (0, 3))


def test_lowering_four_controls():
    circ = Circuit(6)
    circ.mcx((0, 1, 2, 3), 4)
    low = _lower(circ, (5,))
    assert all(g.kind == GateKind.CCX for g in low.gates)
    assert (permutation_table(circ) == permutation_table(low)).all()


def test_emit_mcx_narrow_and_errors():
    circ = Circuit(5)
    emit_mcx(circ, (), 0)
    emit_mcx(circ, (1,), 0)
    emit_mcx(circ, (1, 2), 0)
    assert [g.kind for g in circ.gates] == [GateKind.X, GateKind.CX, GateKind.CCX]
    with pytest.raises(CircuitError):
        emit_mcx(circ, (1, 2, 3), 0)  # no dirty qubit
    with pytest.raises(CircuitError):
        emit_mcx(circ, (1, 2, 3), 0, dirty=0)


def test_lowering_sink_passes_through_and_lowers():
    circ = Circuit(6)
    sink = LoweringSink(circ, (4, 5))
    sink.x(0)
    sink.cx(0, 1)
    sink.ccx(0, 1, 2)
    sink.mcx((0, 1, 2), 3)
    kinds = [g.kind for g in circ.gates]
    assert kinds[:3] == [GateKind.X, GateKind.CX, GateKind.CCX]
    assert kinds[3:] == [GateKind.CCX] * 4
    with pytest.raises(CircuitError):
        LoweringSink(Circuit(4), (0, 3)).mcx((0, 1, 2), 3)


def test_emit_circuit_replays_gates():
    circ = Circuit(4)
    circ.x(0)
    circ.cx(0, 1)
    circ.ccx(0, 1, 2)
    circ.mcx((0, 1, 2), 3)
    copy = Circuit(4)
    emit_circuit(circ, copy)
    assert copy.gates == circ.gates
    # recorded blocks hold the same triples and replay through the same loop
    rec = RecordingSink()
    emit_circuit(circ, rec)
    assert rec.ops == circ.gates
    into_rec, into_circ = RecordingSink(), Circuit(4)
    rec.replay(into_rec)
    rec.replay(into_circ)
    assert into_rec.ops == into_circ.gates == circ.gates
    backward = RecordingSink()
    rec.replay_reversed(backward)
    assert backward.ops == circ.reverse().gates


def test_counting_sink_rejects_mcx():
    sink = CountingSink(5)
    with pytest.raises(CircuitError):
        sink.mcx((0, 1, 2), 3)


# --------------------------------------------------------------------------
# text format


def test_text_round_trip_gate_kinds():
    circ = Circuit(5)
    circ.x(0)
    circ.cx(1, 0)
    circ.ccx(2, 3, 1)
    circ.mcx((0, 1, 2), 4)
    text = circuit_to_text(circ)
    lines = text.splitlines()
    assert lines[0] == "width 5"
    assert lines[1:] == ["x 0", "cx 1 0", "ccx 2 3 1", "mcx 0 1 2 4"]
    back = circuit_from_text(text)
    assert back.width == circ.width
    assert back.gates == circ.gates


def test_text_skips_comments_and_blanks():
    circ = circuit_from_text("width 2\n# comment\n\nx 1\n")
    assert len(circ) == 1


@pytest.mark.parametrize(
    "text",
    [
        "x 0\n",
        "width two\nx 0\n",
        "width 2\nrz 0\n",
        "width 2\ncx q 0\n",
        "width 2\nccx\n",
        "width 2\ncx 0 0\n",
        "width 3\nmcx 0 1 2\n",  # a Toffoli is spelled ccx
        "width 2\nmcx 0 1\n",
    ],
)
def test_text_rejects_malformed(text):
    with pytest.raises(CircuitError):
        circuit_from_text(text)


@st.composite
def _small_circuits(draw):
    width = draw(st.integers(2, 6))
    circ = Circuit(width)
    for _ in range(draw(st.integers(0, 25))):
        qubits = draw(st.permutations(range(width)))
        k = draw(st.integers(0, min(3, width - 1)))
        circ.mcx(tuple(qubits[:k]), qubits[k])
    return circ


@settings(max_examples=60, deadline=None)
@given(_small_circuits())
def test_text_round_trip_property(circ):
    back = circuit_from_text(circuit_to_text(circ))
    assert back.width == circ.width and back.gates == circ.gates
