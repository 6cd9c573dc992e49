"""Fault injection, detection and budgeted bisection localization."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtyshor.adders import AdderSpec, const_adder
from dirtyshor.circuits import Circuit, Gate, GateKind
from dirtyshor.faultlab import (
    FaultError,
    FaultSpec,
    InconclusiveError,
    SegmentExecutor,
    call_bound,
    fault_detect,
    fault_localize,
    inject,
    parse_faults,
    random_vectors,
)
from dirtyshor.revsim import SimulationError, prefix_states


def _x_chain(width: int, targets) -> Circuit:
    circ = Circuit(width)
    for t in targets:
        circ.x(t)
    return circ


# --------------------------------------------------------------------------
# specs and the text format


def test_fault_spec_validation():
    FaultSpec("missing", 3)
    FaultSpec("bitflip", 3, 1)
    with pytest.raises(FaultError):
        FaultSpec("stuck", 3)
    with pytest.raises(FaultError):
        FaultSpec("bitflip", 3)
    with pytest.raises(FaultError):
        FaultSpec("missing", 3, qubit=1)


def test_fault_text_round_trip():
    faults = [FaultSpec("missing", 4), FaultSpec("bitflip", 0, 2)]
    assert parse_faults("missing 4\nbitflip 0 2\n") == faults
    assert parse_faults("") == []
    assert parse_faults("# comment\n\n  \nmissing 1\n") == [FaultSpec("missing", 1)]


@pytest.mark.parametrize("bad", ["dropout 3", "missing", "missing 1 2", "bitflip 1", "bitflip a 0"])
def test_parse_faults_rejects(bad):
    with pytest.raises(FaultError):
        parse_faults(bad)


# --------------------------------------------------------------------------
# segment executor


def test_executor_validates_faults_against_circuit():
    circ = _x_chain(2, [0, 1])
    with pytest.raises(FaultError):
        inject(circ, [FaultSpec("missing", 2)])
    with pytest.raises(FaultError):
        inject(circ, [FaultSpec("bitflip", 0, 5)])


def test_executor_range_checks():
    ex = inject(_x_chain(2, [0, 1]), [])
    with pytest.raises(FaultError):
        ex.run(1, 0, 0)
    with pytest.raises(FaultError):
        ex.run(0, 3, 0)


def test_missing_gate_semantics():
    ex = inject(_x_chain(2, [0, 1]), [FaultSpec("missing", 0)])
    assert ex.run(0, 2, 0) == 0b10


def test_bitflip_applies_after_the_gate():
    ex = inject(_x_chain(2, [0]), [FaultSpec("bitflip", 0, 1)])
    assert ex.run(0, 1, 0) == 0b11


def test_executor_handles_all_reversible_kinds():
    circ = Circuit(5)
    circ.x(0)
    circ.cx(0, 1)
    circ.ccx(0, 1, 2)
    circ.mcx((0, 1, 2), 3)
    ex = inject(circ, [])
    assert ex.run(0, 4, 0) == 0b1111
    assert ex.calls == 1


def _reference_run(circ: Circuit, faults, lo: int, hi: int, state: int) -> int:
    """Gate-by-gate faulty execution: skip missing gates, flip after the gate."""
    missing = {f.index for f in faults if f.kind == "missing"}
    for idx in range(lo, hi):
        _, controls, target = circ.gates[idx]
        if idx not in missing and all((state >> c) & 1 for c in controls):
            state ^= 1 << target
        for f in faults:
            if f.kind == "bitflip" and f.index == idx:
                state ^= 1 << f.qubit
    return state


def test_executor_fault_edges_match_reference():
    circ = const_adder(AdderSpec.standard(3, 5))
    circ.append(Gate(GateKind.MCX, (0, 1, 2), 3))
    last = len(circ.gates) - 1
    fault_sets = [
        [FaultSpec("missing", 4), FaultSpec("bitflip", 4, 1)],  # both kinds at one index
        [FaultSpec("missing", 6), FaultSpec("missing", 7), FaultSpec("bitflip", 8, 0)],  # adjacent
        [FaultSpec("bitflip", 0, 2), FaultSpec("missing", last)],  # first and last gate
        [FaultSpec("missing", last), FaultSpec("bitflip", last, 4)],
    ]
    for faults in fault_sets:
        ex = inject(circ, faults)
        # all (lo, hi) pairs: each fault sits at lo, at hi - 1 and at hi in some range
        for lo in range(len(circ.gates) + 1):
            for hi in range(lo, len(circ.gates) + 1):
                for state in (0, 0b10110, 0b11111):
                    assert ex.run(lo, hi, state) == _reference_run(circ, faults, lo, hi, state)


@st.composite
def _faulty_segment(draw):
    width = draw(st.integers(5, 7))
    circ = Circuit(width)
    for _ in range(draw(st.integers(1, 20))):
        qubits = draw(st.permutations(range(width)))
        k = draw(st.integers(0, 4))
        kind = (GateKind.X, GateKind.CX, GateKind.CCX, GateKind.MCX, GateKind.MCX)[k]
        circ.append(Gate(kind, tuple(qubits[:k]), qubits[k]))
    n_gates = len(circ.gates)
    faults = []
    for _ in range(draw(st.integers(0, 4))):
        idx = draw(st.integers(0, n_gates - 1))
        if draw(st.booleans()):
            faults.append(FaultSpec("missing", idx))
        else:
            faults.append(FaultSpec("bitflip", idx, draw(st.integers(0, width - 1))))
    lo = draw(st.integers(0, n_gates))
    hi = draw(st.integers(lo, n_gates))
    state = draw(st.integers(0, (1 << width) - 1))
    return circ, faults, lo, hi, state


@settings(max_examples=80, deadline=None)
@given(_faulty_segment())
def test_executor_random_faults_match_reference(case):
    circ, faults, lo, hi, state = case
    ex = inject(circ, faults)
    assert ex.run(lo, hi, state) == _reference_run(circ, faults, lo, hi, state)
    assert ex.calls == 1


@settings(max_examples=80, deadline=None)
@given(_faulty_segment(), st.data())
def test_lane_pass_matches_one_state_at_a_time(case, data):
    circ, faults, lo, hi, _ = case
    states = data.draw(st.lists(st.integers(0, (1 << circ.width) - 1), max_size=6))
    one_at_a_time = inject(circ, faults)
    want = [one_at_a_time.run(lo, hi, s) for s in states]
    ex = inject(circ, faults)
    assert ex.run(lo, hi, states) == want
    assert ex.calls == len(states)
    # with until, calls stop at the first deviation, as a short-circuiting loop's do
    golden = [_reference_run(circ, [], lo, hi, s) for s in states]
    short = inject(circ, faults)
    for s, g in zip(states, golden):
        if short.run(lo, hi, s) != g:
            break
    ex = inject(circ, faults)
    assert ex.run(lo, hi, states, until=golden) == want
    assert ex.calls == short.calls


def test_detect_counts_one_call_per_vector():
    circ = _x_chain(3, [0, 1, 2])
    ex = inject(circ, [FaultSpec("missing", 1)])
    assert fault_detect(ex, circ, [0, 5, 7]) == 3
    assert ex.calls == 3
    clean = inject(circ, [])
    assert fault_detect(clean, circ, [0, 5, 7]) == 0
    assert clean.calls == 3
    # the golden side is one lane pass; the executor still books V calls
    adder = const_adder(AdderSpec.standard(16, 40000))
    ex = inject(adder, [FaultSpec("bitflip", 30, 1)])
    assert fault_detect(ex, adder, random_vectors(adder.width, 7, seed=4)) == 7
    assert ex.calls == 7


def test_detect_and_localize_reject_states_beyond_the_width():
    # lanes hold only `width` qubits, so a high bit would read as a deviation
    circ = _x_chain(3, [0, 1, 2])
    for check in (fault_detect, fault_localize):
        with pytest.raises(SimulationError):
            check(inject(circ, [FaultSpec("missing", 1)]), circ, [1, 1 << 3])


def test_detect_counts_only_the_triggering_vectors():
    # a missing Toffoli changes the output exactly when both controls are 1
    circ = Circuit(3)
    circ.ccx(0, 1, 2)
    ex = inject(circ, [FaultSpec("missing", 0)])
    vectors = list(range(8))
    assert fault_detect(ex, circ, vectors) == sum(v & 0b11 == 0b11 for v in vectors) == 2
    assert ex.calls == len(vectors)


# --------------------------------------------------------------------------
# localization


def test_single_missing_gate_is_pinned_exactly():
    circ = _x_chain(8, range(8))
    ex = inject(circ, [FaultSpec("missing", 5)])
    assert fault_localize(ex, circ, [0]) == [(5, 6)]
    assert ex.calls <= call_bound(8, 1)


def test_bitflip_is_pinned_exactly():
    circ = const_adder(AdderSpec.standard(8, 255))
    ex = inject(circ, [FaultSpec("bitflip", 10, 2)])
    assert fault_localize(ex, circ, [0]) == [(10, 11)]
    assert ex.calls <= call_bound(len(circ.gates), 1)


def test_dual_faults_on_distinct_qubits():
    circ = _x_chain(8, range(8))
    ex = inject(circ, [FaultSpec("missing", 3), FaultSpec("missing", 5)])
    assert fault_localize(ex, circ, [0, 1]) == [(3, 4), (5, 6)]
    assert ex.calls <= call_bound(8, 2)


def test_dual_fault_budget_exhaustion_reports_coarse_range():
    # one vector affords 2*1*(3+1)=8 calls; pinning the first fault costs 7,
    # so the second fault comes back as its unbisected half
    circ = _x_chain(8, range(8))
    ex = inject(circ, [FaultSpec("missing", 3), FaultSpec("missing", 5)])
    assert fault_localize(ex, circ, [0]) == [(3, 4), (4, 8)]
    assert ex.calls <= call_bound(8, 1)


def test_cancelling_faults_are_inconclusive():
    circ = _x_chain(4, [0, 0, 0, 0])
    ex = inject(circ, [FaultSpec("missing", 1), FaultSpec("missing", 2)])
    assert fault_detect(ex, circ, [0, 3, 7]) == 0
    with pytest.raises(InconclusiveError):
        fault_localize(ex, circ, [0, 3, 7])


def test_cancelling_bitflips_are_inconclusive():
    circ = _x_chain(2, [0, 1])
    twice = [FaultSpec("bitflip", 1, 0), FaultSpec("bitflip", 1, 0)]
    ex = inject(circ, twice)
    assert fault_detect(ex, circ, [0, 1, 2]) == 0
    with pytest.raises(InconclusiveError):
        fault_localize(ex, circ, [0, 1, 2])


def test_never_triggered_fault_is_inconclusive():
    circ = Circuit(3)
    circ.ccx(0, 1, 2)
    vectors = random_vectors(3, 3, seed=2)
    assert all(v & 0b11 != 0b11 for v in vectors)
    ex = inject(circ, [FaultSpec("missing", 0)])
    assert fault_detect(ex, circ, vectors) == 0
    with pytest.raises(InconclusiveError):
        fault_localize(ex, circ, vectors)


def test_localize_needs_vectors_and_gates():
    circ = _x_chain(2, [0])
    with pytest.raises(InconclusiveError):
        fault_localize(inject(circ, []), circ, [])
    empty = Circuit(2)
    with pytest.raises(InconclusiveError):
        fault_localize(inject(empty, []), empty, [0])


def _pin_single_fault(circ: Circuit, idx: int, seed: int):
    """Grow the vector set until a fresh batch triggers, then localize."""
    rng = np.random.default_rng(seed)
    vectors: list[int] = []
    for _ in range(10):
        vectors += random_vectors(circ.width, 4, rng)
        probe = inject(circ, [FaultSpec("missing", idx)])
        if fault_detect(probe, circ, vectors):
            break
    else:
        raise AssertionError(f"gate {idx} never triggered")
    ex = inject(circ, [FaultSpec("missing", idx)])
    ranges = fault_localize(ex, circ, vectors)
    return ranges, ex.calls, len(vectors)


def test_localization_trials_on_an_adder():
    circ = const_adder(AdderSpec.standard(8, 255))
    n_gates = len(circ.gates)
    rng = np.random.default_rng(11)
    for trial in range(20):
        idx = int(rng.integers(0, n_gates))
        ranges, calls, n_vecs = _pin_single_fault(circ, idx, seed=trial)
        assert ranges == [(idx, idx + 1)], f"gate {idx}: got {ranges}"
        assert calls <= call_bound(n_gates, n_vecs)


def _prefix_list_localize(executor, circ: Circuit, values):
    """Bisection over full golden prefix lists, G+1 states per vector: the
    reference that checkpointed localization must match range for range and
    call for call."""
    n_gates = executor.n_gates
    prefixes = [prefix_states(circ, v) for v in values]
    budget = call_bound(n_gates, len(values))
    start = executor.calls

    def deviates(lo, hi):
        return any(executor.run(lo, hi, pref[lo]) != pref[hi] for pref in prefixes)

    if not deviates(0, n_gates):
        raise InconclusiveError("never triggered")
    ranges = []

    def descend(lo, hi):
        if hi - lo == 1 or executor.calls - start + 2 * len(values) > budget:
            ranges.append((lo, hi))
            return
        mid = (lo + hi) // 2
        left, right = deviates(lo, mid), deviates(mid, hi)
        if not left and not right:
            ranges.append((lo, hi))
            return
        if left:
            descend(lo, mid)
        if right:
            descend(mid, hi)

    descend(0, n_gates)
    return ranges


def _localize_both_ways(circ: Circuit, faults, vectors):
    """(ranges or None when inconclusive, executor calls) for the checkpointed
    localizer and for the prefix-list reference."""
    out = []
    for localize in (fault_localize, _prefix_list_localize):
        ex = inject(circ, faults)
        try:
            ranges = localize(ex, circ, vectors)
        except InconclusiveError:
            ranges = None
        out.append((ranges, ex.calls))
    return out


@st.composite
def _localization_case(draw):
    width = draw(st.integers(3, 7))
    circ = Circuit(width)
    for _ in range(draw(st.integers(1, 40))):
        qubits = draw(st.permutations(range(width)))
        k = draw(st.integers(0, 2))
        circ.append(Gate((GateKind.X, GateKind.CX, GateKind.CCX)[k], tuple(qubits[:k]), qubits[k]))
    faults = []
    for _ in range(draw(st.integers(1, 3))):
        idx = draw(st.integers(0, len(circ.gates) - 1))
        if draw(st.booleans()):
            faults.append(FaultSpec("missing", idx))
        else:
            faults.append(FaultSpec("bitflip", idx, draw(st.integers(0, width - 1))))
    vectors = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=4))
    return circ, faults, vectors


@settings(max_examples=300, deadline=None)
@given(_localization_case())
def test_checkpoints_match_prefix_list_localization(case):
    checkpointed, reference = _localize_both_ways(*case)
    assert checkpointed == reference


@pytest.mark.parametrize(
    "targets, faults, vectors, want",
    [
        # the budget runs out after the first fault is pinned
        (range(8), [FaultSpec("missing", 3), FaultSpec("missing", 5)], [0], [(3, 4), (4, 8)]),
        # two missing X gates on one qubit cancel end to end
        ([0, 0, 0, 0], [FaultSpec("missing", 1), FaultSpec("missing", 2)], [0, 3, 7], None),
        # two bitflips after one gate cancel
        ([0, 1], [FaultSpec("bitflip", 1, 0), FaultSpec("bitflip", 1, 0)], [0, 1, 2], None),
        # a missing gate and a bitflip on the same qubit cancel across the cut
        ([0, 1, 2, 3], [FaultSpec("missing", 0), FaultSpec("bitflip", 3, 0)], [0, 5], None),
    ],
)
def test_budget_and_cancelling_cases_match_prefix_list_localization(targets, faults, vectors, want):
    circ = _x_chain(4 if max(targets) < 4 else 8, targets)
    (ranges, calls), reference = _localize_both_ways(circ, faults, vectors)
    assert (ranges, calls) == reference
    assert ranges == want


def test_one_faulty_pass_per_range_whatever_the_vector_count(monkeypatch):
    circ = const_adder(AdderSpec.standard(64, 2**64 - 1))
    idx = len(circ.gates) // 3
    faults = [FaultSpec("bitflip", idx, 0)]
    passes = []
    run = SegmentExecutor.run

    def counted(self, lo, hi, *args, **kwargs):
        passes.append((lo, hi))
        return run(self, lo, hi, *args, **kwargs)

    monkeypatch.setattr(SegmentExecutor, "run", counted)
    seen = set()
    for count in (1, 4, 16):
        vectors = random_vectors(circ.width, count, seed=count)
        ex = inject(circ, faults)
        passes.clear()
        ranges = fault_localize(ex, circ, vectors)
        seen.add(len(passes))
        reference = inject(circ, faults)
        assert _prefix_list_localize(reference, circ, vectors) == ranges == [(idx, idx + 1)]
        assert ex.calls == reference.calls
    assert len(seen) == 1, f"faulty passes per vector count: {seen}"


def test_localize_memory_stays_logarithmic():
    # G+1 prefix states per vector peak near 1.4 MiB here; O(log G)
    # checkpoints of 130-qubit states take about 11 KiB
    circ = const_adder(AdderSpec.standard(128, (1 << 128) - 1))
    assert len(circ.gates) == 21382
    ex = inject(circ, [FaultSpec("bitflip", 7127, 0)])
    vectors = random_vectors(circ.width, 2, seed=1)
    tracemalloc.start()
    try:
        ranges = fault_localize(ex, circ, vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranges == [(7127, 7128)]
    assert peak < 512 * 1024, f"peak {peak} bytes"


def test_localize_leaves_no_reference_cycle():
    # a cycle would keep the executor and its circuit alive until the next
    # gc pass, so a faultscan op could still hold the previous op's gates
    circ = _x_chain(8, range(8))
    ex = inject(circ, [FaultSpec("missing", 3), FaultSpec("missing", 5)])
    freed = weakref.ref(ex)
    gc.disable()
    try:
        assert fault_localize(ex, circ, [0, 1]) == [(3, 4), (5, 6)]
        del ex
        assert freed() is None
    finally:
        gc.enable()


def test_segment_run_does_not_copy_the_gate_list():
    # a copy of the 111,110 gate pointers alone would take 0.85 MiB
    circ = const_adder(AdderSpec.standard(512, (1 << 512) - 1))
    assert len(circ.gates) == 111110
    ex = SegmentExecutor(circ, ())
    v = random_vectors(circ.width, 1, seed=3)[0]
    want = ex.run(0, ex.n_gates, v)
    tracemalloc.start()
    try:
        got = ex.run(0, ex.n_gates, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want == ex.run(ex.n_gates // 3, ex.n_gates, ex.run(0, ex.n_gates // 3, v))
    assert peak < 64 * 1024, f"peak {peak} bytes"


def test_golden_reference_matches_prefix_states():
    circ = const_adder(AdderSpec.standard(4, 9))
    ex = inject(circ, [])
    for v in (0, 7, 13, 63):
        assert ex.run(0, ex.n_gates, v) == prefix_states(circ, v)[-1]


# --------------------------------------------------------------------------
# bounds and vectors


def test_call_bound_values():
    assert call_bound(1478, 10) == 2 * 10 * (11 + 1)
    assert call_bound(1024, 1) == 2 * (10 + 1)
    assert call_bound(8, 1) == 8
    assert call_bound(1, 5) == 20
    assert call_bound(2, 5) == 20


def test_random_vectors():
    a = random_vectors(100, 10, seed=3)
    b = random_vectors(100, 10, seed=3)
    assert a == b
    assert all(0 <= v < (1 << 100) for v in a)
    assert any(v >= (1 << 64) for v in a)
    assert random_vectors(3, 3, seed=2) == [1, 0, 4]
