"""Gate IR: validation, reversal, MCX lowering, replay, whole-block sinks, text format."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirtyshor.adders import AdderSpec, const_adder
from dirtyshor.circuits import (
    Circuit,
    CircuitError,
    CountingSink,
    Gate,
    GateKind,
    LaneSink,
    LoweringSink,
    RecordingSink,
    StateSink,
    TeeSink,
    circuit_from_text,
    circuit_to_text,
    emit_circuit,
    emit_controlled_x,
    emit_mcx,
    pack_lanes,
    unpack_lanes,
)
from dirtyshor.circuits import _TILE
from dirtyshor.modular import ModMulSpec, emit_ctrl_modmul
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
    with pytest.raises(CircuitError):
        sink.run_ops([(GateKind.X, (), 0), (GateKind.MCX, (0, 1, 2), 3)])
    # the gates before the MCX are booked, as gate-by-gate calls would book them
    assert (sink.not_, sink.depth) == (1, 1)


# --------------------------------------------------------------------------
# whole-block replay: run_ops against gate-by-gate dispatch


@st.composite
def _blocks(draw, mcx: bool = True):
    """(width, triples) with X, CX, CCX and, unless mcx is False, 3-4 control MCX."""
    width = draw(st.integers(5, 9))
    ops = []
    for _ in range(draw(st.integers(0, 40))):
        qubits = draw(st.permutations(range(width)))
        k = draw(st.integers(0, 4 if mcx else 2))
        ops.append((GateKind(min(k, 3)), tuple(qubits[:k]), qubits[k]))
    return width, ops


def _gate_by_gate(ops, sink):
    for _, controls, target in ops:
        emit_controlled_x(sink, controls, target)


def _reference_state(ops, state: int) -> int:
    for _, controls, target in ops:
        if all(state >> c & 1 for c in controls):
            state ^= 1 << target
    return state


def _counts(sink: CountingSink):
    return sink.toffoli, sink.cnot, sink.not_, sink.depth, sink.width_touched


@settings(max_examples=80, deadline=None)
@given(_blocks(mcx=False), st.integers(0, 40))
def test_counting_run_ops_matches_gate_by_gate(block, cut):
    width, ops = block
    whole, single = CountingSink(width), CountingSink(width)
    whole.run_ops(ops[:cut])
    whole.run_ops(iter(ops[cut:]))  # a block may be any iterable, continuing the tally
    _gate_by_gate(ops, single)
    assert _counts(whole) == _counts(single)
    # independent ASAP layering: one layer past the latest of the gate's qubits
    front, depth = [0] * width, 0
    for _, controls, target in ops:
        layer = 1 + max(front[q] for q in (*controls, target))
        for q in (*controls, target):
            front[q] = layer
        depth = max(depth, layer)
    kinds = [k for k, _, _ in ops]
    assert _counts(whole) == (kinds.count(GateKind.CCX), kinds.count(GateKind.CX),
                              kinds.count(GateKind.X), depth, sum(1 for f in front if f))


@settings(max_examples=80, deadline=None)
@given(_blocks(), st.data())
def test_state_run_ops_matches_gate_by_gate(block, data):
    width, ops = block
    state = data.draw(st.integers(0, (1 << width) - 1))
    whole, single = StateSink(state), StateSink(state)
    whole.run_ops(ops)
    _gate_by_gate(ops, single)
    assert whole.state == single.state == _reference_state(ops, state)
    # StateSink(0) on qubits far past its one-bit list: they read as 0 and grow on use
    high = [(k, tuple(c + 200 for c in cs), t + 200) for k, cs, t in ops]
    for sink in (StateSink(0), StateSink(1)):
        start = sink.state
        sink.run_ops(high)
        assert sink.state == _reference_state(high, start)
    grown = StateSink(0)
    _gate_by_gate(high, grown)
    assert grown.state == _reference_state(high, 0)


@given(st.integers(0, 1 << 600), st.integers(0, 1 << 70))
def test_state_setter_round_trip(big, small):
    sink = StateSink(big)
    assert sink.state == big
    assert StateSink(small).state == small
    sink.x(700)
    assert sink.state == big | 1 << 700


def _hand_packed(states, width):
    """The lane layout written out: bit k of lanes[q] is qubit q of states[k]."""
    return [sum((s >> q & 1) << k for k, s in enumerate(states)) for q in range(width)]


def _trimmed(lanes):
    """Lanes without the all-zero top qubits, which read 0 whether stored or not."""
    lanes = list(lanes)
    while lanes and not lanes[-1]:
        lanes.pop()
    return lanes


@st.composite
def _state_lists(draw):
    width = draw(st.integers(0, 600))
    state = st.one_of(st.integers(0, (1 << width) - 1), st.just(0), st.just((1 << width) - 1))
    return width, draw(st.lists(state, max_size=70))


@settings(max_examples=150, deadline=None)
@given(_state_lists())
@example((0, []))
@example((0, [0]))
@example((9, [0] * 70))
@example((600, [(1 << 600) - 1] * 70))
@example((600, [(1 << 600) - 1]))
@example((5000, [(1 << 5000) - 1, 1 << 4999, 12345]))  # more bits than one tile
def test_pack_lanes_matches_hand_packed_reference(case):
    width, states = case
    lanes = pack_lanes(states)
    assert _trimmed(lanes) == _trimmed(_hand_packed(states, width))
    assert len(lanes) <= max(states, default=0).bit_length() + 7
    assert unpack_lanes(lanes, states) == states
    # lanes a gate grew to the full width unpack the same
    assert unpack_lanes(_hand_packed(states, width), states) == states


@pytest.mark.parametrize("count", [0, 1, 70, _TILE - 3, _TILE + 3, 3 * _TILE])
def test_pack_lanes_on_int64_arrays_across_tiles(count):
    rng = np.random.default_rng(count)
    for bits in (0, 7, 40, 63):
        states = rng.integers(0, 1 << bits, count, dtype=np.int64)
        # reference: one np.packbits pass per qubit
        ref = [int.from_bytes(np.packbits((states >> q) & 1, bitorder="little").tobytes(), "little")
               for q in range(64)]
        lanes = pack_lanes(states)
        assert _trimmed(lanes) == _trimmed(ref)
        assert len(lanes) <= 8 * -(-bits // 8)  # only the bytes the states use
        for packed in (lanes, ref):
            out = unpack_lanes(packed, states)
            assert out.dtype == np.int64 and out.tolist() == states.tolist()


@settings(max_examples=60, deadline=None)
@given(_blocks(), st.data())
def test_lane_run_ops_matches_gate_by_gate(block, data):
    width, ops = block
    states = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=8))
    lanes = _hand_packed(states, width)
    full = (1 << len(states)) - 1
    whole, single = LaneSink(list(lanes), full), LaneSink(list(lanes), full)
    whole.run_ops(ops)
    _gate_by_gate(ops, single)
    assert whole.lanes == single.lanes
    for k, s in enumerate(states):
        got = sum((v >> k & 1) << q for q, v in enumerate(whole.lanes))
        assert got == _reference_state(ops, s)


@settings(max_examples=60, deadline=None)
@given(_blocks(mcx=False), st.data())
def test_tee_and_recorder_run_ops_match_gate_by_gate(block, data):
    width, ops = block
    state = data.draw(st.integers(0, (1 << width) - 1))

    def tee():
        return TeeSink(CountingSink(width), StateSink(state), RecordingSink(),
                       LoweringSink(Circuit(width), ()))

    whole, single = tee(), tee()
    whole.run_ops(iter(ops))  # the tee lists a one-shot block once for all children
    _gate_by_gate(ops, single)
    (wc, ws, wr, wl), (sc, ss, sr, sl) = whole.sinks, single.sinks
    assert _counts(wc) == _counts(sc)
    assert ws.state == ss.state == _reference_state(ops, state)
    assert wr.ops == sr.ops == ops
    assert wl.sink.gates == sl.sink.gates == ops


def test_multiplier_reaches_counter_mostly_in_blocks():
    """Replayed blocks reach a counting sink through run_ops, not one call per gate."""

    class Probe(CountingSink):
        __slots__ = ("booked", "single")

        def __init__(self, width):
            super().__init__(width)
            self.booked = self.single = 0

        def run_ops(self, ops):
            ops = list(ops)
            self.booked += len(ops)
            super().run_ops(ops)

        def x(self, t):
            self.single += 1
            super().x(t)

        def cx(self, c, t):
            self.single += 1
            super().cx(c, t)

        def ccx(self, c1, c2, t):
            self.single += 1
            super().ccx(c1, c2, t)

    spec = ModMulSpec.standard(2, 21)
    probe = Probe(spec.width)
    emit_ctrl_modmul(probe, spec)
    assert probe.booked == probe.total
    assert 3 * probe.single < probe.total, (probe.single, probe.total)


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
        "width 3 junk\nx 0\n",
    ],
)
def test_text_rejects_malformed(text):
    with pytest.raises(CircuitError):
        circuit_from_text(text)


def test_text_errors_name_the_raw_line():
    with pytest.raises(CircuitError, match=r"^line 7: unknown gate 'foo'$"):
        circuit_from_text("# hdr\n\nwidth 3\n\n# c\ncx 0 1\nfoo 1\n")
    with pytest.raises(CircuitError, match=r"^malformed width line$"):
        circuit_from_text("width 3 junk\nx 0\n")


def test_text_repeated_lines_share_one_validated_gate():
    repeated = "width 4\n" + "ccx 0 1 2\n# c\n\ncx 2 3\n" * 500
    circ = circuit_from_text(repeated)
    assert len(circ) == 1000
    assert circ.gates[0] is circ.gates[998] and circ.gates[1] is circ.gates[999]
    with pytest.raises(CircuitError, match=r"^line 2002: non-integer qubit$"):
        circuit_from_text(repeated + "cx 2 three\n")
    # a new line is validated against the width even after many repeats
    with pytest.raises(CircuitError, match="out of range for width 4"):
        circuit_from_text(repeated + "ccx 0 1 4\n")


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
