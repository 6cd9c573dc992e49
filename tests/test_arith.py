"""Arithmetic synthesis: oracles, restoration, count formulas, promotion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtyshor.adders import (
    AdderSpec,
    SynthesisError,
    carry_circuit,
    comparator,
    const_adder,
    ctrl_incrementer,
    emit_carry,
    emit_const_add,
    incrementer,
    inplace_add,
    t_add_recursion,
)
from dirtyshor.circuits import Circuit, CountingSink, GateKind, StateSink
from dirtyshor.resources import report
from dirtyshor.revsim import permutation_table, run


def _mask(n: int) -> int:
    return (1 << n) - 1


def _fire_mask(v: np.ndarray, qubits) -> np.ndarray:
    fire = np.ones(len(v), dtype=np.int64)
    for q in qubits:
        fire &= (v >> q) & 1
    return fire


def _expect_add(width: int, n: int, c: int, ctrls=()) -> np.ndarray:
    v = np.arange(1 << width, dtype=np.int64)
    added = (v & ~np.int64(_mask(n))) | ((v & _mask(n)) + c) % (1 << n)
    if not ctrls:
        return added
    sel = _fire_mask(v, ctrls) == 1
    return np.where(sel, added, v)


def _expect_carry(width: int, n: int, c: int, target: int, ctrls=()) -> np.ndarray:
    v = np.arange(1 << width, dtype=np.int64)
    fire = (((v & _mask(n)) + c) >> n) & 1
    if ctrls:
        fire &= _fire_mask(v, ctrls)
    return v ^ (fire << target)


# --------------------------------------------------------------------------
# carry


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_carry_exhaustive(n):
    a = tuple(range(n))
    g = tuple(range(n, 2 * n - 1))
    target = 2 * n - 1
    for c in range(1 << n):
        perm = permutation_table(carry_circuit(c, a, g, target))
        assert (perm == _expect_carry(2 * n, n, c, target)).all(), (n, c)


def test_carry_examples():
    # 5 + 11 carries out of 4 bits, 4 + 11 does not
    circ = carry_circuit(11, range(4), range(4, 7), 7)
    for g in (0, 5):
        assert run(circ, 5 | (g << 4)) == 5 | (g << 4) | (1 << 7)
        assert run(circ, 4 | (g << 4)) == 4 | (g << 4)


def test_carry_single_bit():
    circ = carry_circuit(1, (0,), (), 1)
    assert (permutation_table(circ) == _expect_carry(2, 1, 1, 1)).all()
    assert len(carry_circuit(0, (0,), (), 1).gates) == 0


@pytest.mark.parametrize("n_ctrls", [1, 2])
def test_carry_controls_gate_the_target_only(n_ctrls):
    for n in (3, 4):
        a = tuple(range(n))
        g = tuple(range(n, 2 * n - 1))
        target = 2 * n - 1
        ctrls = tuple(range(2 * n, 2 * n + n_ctrls))
        width = 2 * n + n_ctrls
        for c in (1, 5, _mask(n)):
            circ = carry_circuit(c, a, g, target, ctrls)
            assert not any(gt.kind == GateKind.MCX for gt in circ.gates)
            perm = permutation_table(circ)
            assert (perm == _expect_carry(width, n, c, target, ctrls)).all(), (n, c)


def test_carry_count_formula():
    for n in range(3, 65):
        circ = carry_circuit(_mask(n), range(n), range(n, 2 * n - 1), 2 * n - 1)
        assert report(circ).toffoli_count == 4 * (n - 2) + 2, n


def test_carry_rung_requirement():
    with pytest.raises(SynthesisError):
        carry_circuit(7, range(3), range(3, 4), 7)
    with pytest.raises(SynthesisError):
        carry_circuit(3, range(2), (2,), 3, ctrls=(4, 5, 6))


def test_carry_non_elided_variant():
    # one rung per carry instead of conditioning on a[0] directly
    for n, c in ((2, 3), (3, 5), (4, 11)):
        circ = Circuit(2 * n + 1)
        emit_carry(circ, c, tuple(range(n)), tuple(range(n, 2 * n)), 2 * n, elide=False)
        assert (permutation_table(circ) == _expect_carry(2 * n + 1, n, c, 2 * n)).all()


# --------------------------------------------------------------------------
# register adder and incrementers


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inplace_add_exhaustive(n):
    circ = inplace_add(range(n), range(n, 2 * n))
    v = np.arange(1 << (2 * n), dtype=np.int64)
    x, y = v & _mask(n), v >> n
    want = ((x + y) & _mask(n)) | (y << n)
    assert (permutation_table(circ) == want).all()
    if n >= 2:
        assert report(circ).toffoli_count == 2 * n - 2
    sub = circ.reverse()
    want_sub = ((x - y) & _mask(n)) | (y << n)
    assert (permutation_table(sub) == want_sub).all()


def test_inplace_add_width_mismatch():
    with pytest.raises(SynthesisError):
        inplace_add(range(3), range(3, 5))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_incrementer_exhaustive(m):
    circ = incrementer(range(m), range(m, 2 * m))
    v = np.arange(1 << (2 * m), dtype=np.int64)
    want = (v & ~np.int64(_mask(m))) | ((v & _mask(m)) + 1) % (1 << m)
    assert (permutation_table(circ) == want).all()
    assert report(circ).toffoli_count == max(0, 4 * m - 4)


def test_incrementer_needs_enough_borrowed():
    with pytest.raises(SynthesisError):
        incrementer(range(3), range(3, 5))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ctrl_incrementer_exhaustive(m):
    # layout: x = 0..m-1, ctrl = m, g = m+1..2m, spare = 2m+1
    x = tuple(range(m))
    ctrl = m
    g = tuple(range(m + 1, 2 * m + 1))
    for spare in (2 * m + 1, None):
        width = 2 * m + 2 if spare else 2 * m + 1
        circ = ctrl_incrementer(x, ctrl, g, spare=spare)
        v = np.arange(1 << width, dtype=np.int64)
        fire = (v >> ctrl) & 1
        want = (v & ~np.int64(_mask(m))) | ((v & _mask(m)) + fire) % (1 << m)
        assert (permutation_table(circ) == want).all(), (m, spare)


def test_ctrl_incrementer_counts():
    # joint-register construction measures 4m with a spare, 4m-2 without,
    # both inside the 2(2(m+1)-1) additions bound
    m = 8
    x, ctrl, g = tuple(range(m)), m, tuple(range(m + 1, 2 * m + 1))
    full = report(ctrl_incrementer(x, ctrl, g, spare=2 * m + 1))
    fold = report(ctrl_incrementer(x, ctrl, g))
    assert full.toffoli_count == 4 * m == 32
    assert fold.toffoli_count == 4 * m - 2 == 30
    assert full.toffoli_count <= 2 * (2 * (m + 1) - 1) == 34


def test_ctrl_incrementer_needs_borrowed():
    with pytest.raises(SynthesisError):
        ctrl_incrementer(range(4), 4, range(5, 7))


# --------------------------------------------------------------------------
# constant adder


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_const_adder_exhaustive(n):
    # pool of 2 dirty qubits enumerated over all 4 patterns by the table
    for c in range(1 << n):
        spec = AdderSpec.standard(n, c)
        perm = permutation_table(const_adder(spec))
        assert (perm == _expect_add(spec.width, n, c)).all(), (n, c)
        pool = sum(1 << q for q in spec.pool)
        assert not ((perm ^ np.arange(len(perm))) & pool).any()  # dirty pool restored


def test_const_adder_c_zero_is_empty():
    assert len(const_adder(AdderSpec.standard(6, 0)).gates) == 0


def test_const_adder_single_bit_needs_no_pool():
    spec = AdderSpec(n=1, c=1, bits=(0,), pool=())
    assert [g.kind for g in const_adder(spec).gates] == [GateKind.X]


def test_const_adder_needs_pool():
    with pytest.raises(SynthesisError):
        const_adder(AdderSpec(n=4, c=7, bits=(0, 1, 2, 3), pool=()))


def test_const_adder_counts_match_recursion():
    # exact at powers of two; the elided staircase undercuts it elsewhere
    for n in range(2, 65):
        counter = CountingSink(n + 2)
        emit_const_add(counter, _mask(n), tuple(range(n)), (n, n + 1), ())
        if n & (n - 1) == 0:
            assert counter.toffoli == t_add_recursion(n), n
        else:
            assert counter.toffoli <= t_add_recursion(n), n


def test_recursion_frozen_values():
    assert [t_add_recursion(n) for n in (2, 4, 8, 16, 32, 64)] == [8, 40, 136, 392, 1032, 2568]


def test_const_adder_asymptotic_model():
    # 8n(log2 n - 2) tracks the all-ones count within 25% from n = 64 up
    # (at n = 32 the exact recursion value 1032 sits 25.6% over the model,
    # so the window starts one doubling later)
    for m in range(6, 11):
        n = 1 << m
        counter = CountingSink(n + 2)
        emit_const_add(counter, _mask(n), tuple(range(n)), (n, n + 1), ())
        model = 8 * n * (m - 2)
        assert abs(counter.toffoli - model) / counter.toffoli <= 0.25, n


def test_const_adder_single_dirty_fold_path():
    # pool of 1 forces the fold incrementer: fewer Toffolis, same permutation
    for n in (3, 4, 5, 6):
        c = _mask(n)
        spec1 = AdderSpec(n=n, c=c, bits=tuple(range(n)), pool=(n,))
        spec2 = AdderSpec.standard(n, c)
        perm = permutation_table(const_adder(spec1))
        assert (perm == _expect_add(n + 1, n, c)).all()
        t1 = report(const_adder(spec1)).toffoli_count
        t2 = report(const_adder(spec2)).toffoli_count
        assert t1 <= t2 <= t_add_recursion(n)
        if n % 2 == 0:
            # only an even root split lacks an idle spare, forcing the fold
            assert t1 < t2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_serial_parallel_same_permutation(n):
    pool_size = max(2, n // 2)
    constants = range(1 << n) if n <= 6 else [1, 2, _mask(n) // 3, _mask(n) - 1, _mask(n)]
    for c in constants:
        serial = AdderSpec.standard(n, c, pool_size=pool_size, mode="serial")
        parallel = AdderSpec.standard(n, c, pool_size=pool_size, mode="parallel")
        assert (
            permutation_table(const_adder(serial)) == permutation_table(const_adder(parallel))
        ).all(), (n, c)


def test_parallel_mode_cuts_depth():
    n = 64
    serial = CountingSink(n + 32)
    parallel = CountingSink(n + 32)
    emit_const_add(serial, _mask(n), tuple(range(n)), tuple(range(n, n + 2)), ())
    emit_const_add(parallel, _mask(n), tuple(range(n)), tuple(range(n, n + 32)), (), mode="parallel")
    assert parallel.depth < serial.depth


def test_randomized_large_widths():
    rng = np.random.default_rng(17)
    for n in (16, 64, 256):
        mask = _mask(n)
        bits, pool = tuple(range(n)), (n, n + 1)
        for _ in range(10):
            a = int.from_bytes(rng.bytes(n // 8), "little") & mask
            c = int.from_bytes(rng.bytes(n // 8), "little") & mask
            for pat in (0, 3, int(rng.integers(0, 4))):
                sink = StateSink(a | (pat << n))
                emit_const_add(sink, c, bits, pool, ())
                assert sink.state == (((a + c) & mask) | (pat << n)), (n, c)


# --------------------------------------------------------------------------
# controlled constant adder


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ctrl_const_adder_single_control(n):
    for c in (1, 2, _mask(n) - 2, _mask(n)):
        spec = AdderSpec.standard(n, c, n_ctrls=1)
        perm = permutation_table(const_adder(spec))
        # control off: identity on every qubit including the dirty pool
        assert (perm == _expect_add(spec.width, n, c, ctrls=spec.ctrls)).all(), (n, c)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ctrl_const_adder_two_controls(n):
    for c in (1, _mask(n)):
        spec = AdderSpec.standard(n, c, n_ctrls=2)
        circ = const_adder(spec)
        assert not any(g.kind == GateKind.MCX for g in circ.gates)
        perm = permutation_table(circ)
        assert (perm == _expect_add(spec.width, n, c, ctrls=spec.ctrls)).all(), (n, c)


def test_control_promotion_touches_reads_and_base_nots_only():
    # adding a control turns the R staircase target reads CX -> CCX and the
    # B base-case NOTs X -> CX; nothing else changes kind. A second control
    # lowers each read to 4 Toffolis and each base NOT to one Toffoli.
    for n in (2, 3, 4, 5, 8):
        c = _mask(n)
        r0 = report(const_adder(AdderSpec.standard(n, c)))
        r1 = report(const_adder(AdderSpec.standard(n, c, n_ctrls=1)))
        r2 = report(const_adder(AdderSpec.standard(n, c, n_ctrls=2)))
        reads = r1.toffoli_count - r0.toffoli_count
        base = bin(c).count("1")
        assert reads > 0
        assert r1.gate_count == r0.gate_count
        assert r1.cnot_count == r0.cnot_count - reads + base
        assert r1.not_count == r0.not_count - base
        assert r2.toffoli_count == r0.toffoli_count + 4 * reads + base
        assert r2.cnot_count == r0.cnot_count - reads
        assert r2.not_count == r0.not_count - base


# --------------------------------------------------------------------------
# comparator


def test_comparator_exhaustive():
    n = 5
    b = tuple(range(n))
    g = tuple(range(n, 2 * n - 1))
    target = 2 * n - 1
    v = np.arange(1 << (2 * n), dtype=np.int64)
    for c in range(1 << n):
        perm = permutation_table(comparator(c, b, g, target))
        fire = ((v & _mask(n)) < c).astype(np.int64)
        assert (perm == (v ^ (fire << target))).all(), c


def test_comparator_examples_and_count():
    circ = comparator(8, range(4), range(4, 7), 7)
    assert run(circ, 11) == 11  # 11 >= 8
    assert run(circ, 3) == 3 | (1 << 7)  # 3 < 8
    all_ones = comparator(_mask(5), range(5), range(5, 9), 9)
    assert report(all_ones).toffoli_count == 4 * (5 - 2) + 2


# --------------------------------------------------------------------------
# spec validation and properties


def test_adder_spec_validation():
    with pytest.raises(SynthesisError):
        AdderSpec(n=0, c=0, bits=(), pool=())
    with pytest.raises(SynthesisError):
        AdderSpec(n=2, c=0, bits=(0,), pool=())
    with pytest.raises(SynthesisError):
        AdderSpec(n=2, c=0, bits=(0, 1), pool=(1,))
    with pytest.raises(SynthesisError):
        AdderSpec(n=2, c=0, bits=(0, 1), pool=(2,), mode="fast")


def test_adder_spec_reduces_constant_with_warning():
    with pytest.warns(UserWarning):
        spec = AdderSpec.standard(4, 21)
    assert spec.c == 5


def test_adder_spec_standard_layout():
    spec = AdderSpec.standard(4, 3, pool_size=2, n_ctrls=1)
    assert spec.bits == (0, 1, 2, 3)
    assert spec.ctrls == (4,)
    assert spec.pool == (5, 6)
    assert spec.width == 7


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 10),
    c=st.integers(0, (1 << 10) - 1),
    a=st.integers(0, (1 << 10) - 1),
    pool_size=st.integers(1, 5),
    pool_bits=st.integers(0, 31),
    mode=st.sampled_from(["serial", "parallel"]),
)
def test_adder_oracle_property(n, c, a, pool_size, pool_bits, mode):
    c &= _mask(n)
    a &= _mask(n)
    pool_bits &= _mask(pool_size)
    sink = StateSink(a | (pool_bits << n))
    emit_const_add(sink, c, tuple(range(n)), tuple(range(n, n + pool_size)), (), mode)
    assert sink.state == (((a + c) & _mask(n)) | (pool_bits << n))
