"""Modular adder and controlled in-place multiplier against integer oracles."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtyshor.adders import AdderSpec, SynthesisError, const_adder
from dirtyshor.circuits import Circuit, CountingSink, GateKind, StateSink, circuit_to_text
from dirtyshor.modular import (
    ModMulSpec,
    NotCoprimeError,
    ctrl_modmul_inplace,
    emit_ctrl_modmul,
    emit_modmul_forward,
    mod_adder,
    mod_inverse,
    multiplier_constants,
)
from dirtyshor.revsim import permutation_table


def _mask(n: int) -> int:
    return (1 << n) - 1


def _coprimes(N: int):
    return [a for a in range(1, N) if math.gcd(a, N) == 1]


# --------------------------------------------------------------------------
# number-theory helpers


def test_mod_inverse():
    assert mod_inverse(7, 15) == 13
    assert 7 * 13 % 15 == 1
    with pytest.raises(NotCoprimeError) as err:
        mod_inverse(6, 15)
    assert err.value.gcd == 3


def test_multiplier_constants_are_repeated_squares():
    cs = multiplier_constants(7, 15, 5)
    assert cs == [7, 4, 1, 1, 1]
    assert multiplier_constants(2, 21, 3) == [2, 4, 16]


# --------------------------------------------------------------------------
# modular adder


def _mod_adder_layout(N: int, n_ctrls: int = 0):
    n = N.bit_length()
    b = tuple(range(n))
    g = tuple(range(n, 2 * n - 1))
    ind = 2 * n - 1
    ctrls = tuple(range(2 * n, 2 * n + n_ctrls))
    return n, b, g, ind, ctrls


@pytest.mark.parametrize("n_ctrls", [0, 1, 2])
def test_mod_adder_exhaustive_all_odd_moduli(n_ctrls):
    # all odd N < 32, all a < N, all b < N, every dirty pattern, clean ind
    for N in range(3, 32, 2):
        n, b, g, ind, ctrls = _mod_adder_layout(N, n_ctrls)
        width = 2 * n + n_ctrls
        v = np.arange(1 << width, dtype=np.int64)
        bv = v & _mask(n)
        valid = (bv < N) & (((v >> ind) & 1) == 0)
        fire = np.ones(len(v), dtype=bool)
        for q in ctrls:
            fire &= ((v >> q) & 1) == 1
        for a in range(N):
            circ = mod_adder(a, N, b, g, ind, ctrls)
            assert not any(gt.kind == GateKind.MCX for gt in circ.gates)
            perm = permutation_table(circ)
            want = np.where(fire, (v & ~np.int64(_mask(n))) | ((bv + a) % N), v)
            assert (perm[valid] == want[valid]).all(), (N, a, n_ctrls)


def test_mod_adder_examples():
    # N=15, a=7: b=11 wraps to 3, b=2 stays below the modulus
    n, b, g, ind, _ = _mod_adder_layout(15)
    circ = mod_adder(7, 15, b, g, ind)
    for g_bits in (0, 5, 7):
        sink = StateSink(11 | (g_bits << n))
        for gate in circ.gates:
            sink.mcx(gate.controls, gate.target)
        assert sink.state == 3 | (g_bits << n)
    perm = permutation_table(circ)
    assert perm[2] == 9
    # dirty rungs come back to their input values for every basis state
    rungs = sum(1 << q for q in g)
    assert not ((perm ^ np.arange(len(perm))) & rungs).any()


def test_mod_adder_zero_addend_is_empty():
    n, b, g, ind, _ = _mod_adder_layout(15)
    assert len(mod_adder(0, 15, b, g, ind).gates) == 0


def test_mod_adder_validation():
    n, b, g, ind, _ = _mod_adder_layout(15)
    with pytest.raises(SynthesisError):
        mod_adder(15, 15, b, g, ind)
    with pytest.raises(SynthesisError):
        mod_adder(3, 17, b, g, ind)  # 17 needs 5 qubits, b has 4
    with pytest.raises(SynthesisError):
        mod_adder(3, 15, b, g[:2], ind)  # too few dirty rungs
    with pytest.raises(SynthesisError):
        mod_adder(3, 15, b, g, ind, ctrls=(8, 9, 10))
    with pytest.raises(SynthesisError):
        mod_adder(3, 15, b, g, b[0])  # indicator collides with b


# --------------------------------------------------------------------------
# multiplier spec


def test_modmul_spec_standard_layout():
    spec = ModMulSpec.standard(7, 15)
    assert spec.n == 4
    assert spec.x == (0, 1, 2, 3)
    assert spec.work == (4, 5, 6, 7)
    assert (spec.ind, spec.ctrl) == (8, 9)
    assert spec.width == 2 * spec.n + 2


def test_modmul_spec_validation():
    with pytest.raises(SynthesisError):
        ModMulSpec.standard(1, 2)
    with pytest.raises(SynthesisError):
        ModMulSpec(n=3, a=3, modulus=15, x=(0, 1, 2), work=(3, 4, 5), ind=6, ctrl=7)
    with pytest.raises(SynthesisError):
        ModMulSpec.standard(0, 15)
    with pytest.raises(SynthesisError):
        ModMulSpec.standard(15, 15)
    with pytest.raises(NotCoprimeError):
        ModMulSpec.standard(6, 15)
    with pytest.raises(SynthesisError):
        ModMulSpec(n=4, a=7, modulus=15, x=(0, 1, 2, 3), work=(3, 4, 5, 6), ind=7, ctrl=8)


# --------------------------------------------------------------------------
# multiplier semantics


def _forward(spec: ModMulSpec) -> Circuit:
    circ = Circuit(spec.width)
    emit_modmul_forward(circ, spec)
    return circ


def test_modmul_forward_examples():
    spec = ModMulSpec.standard(7, 15)
    perm = permutation_table(_forward(spec))
    ctrl_on = 1 << spec.ctrl
    # x=9: work accumulates 63 mod 15 = 3
    assert perm[9 | ctrl_on] == 9 | (3 << 4) | ctrl_on
    assert perm[0 | ctrl_on] == 0 | ctrl_on
    assert perm[9] == 9  # control off


def test_modmul_forward_keeps_work_zero_when_off():
    spec = ModMulSpec.standard(11, 21)
    perm = permutation_table(_forward(spec))
    v = np.arange(len(perm), dtype=np.int64)
    off = ((v >> spec.ctrl) & 1) == 0
    ind0 = ((v >> spec.ind) & 1) == 0
    work0 = ((v >> spec.n) & _mask(spec.n)) == 0
    sel = off & ind0 & work0
    assert (perm[sel] == v[sel]).all()


@pytest.mark.parametrize("N", [15, 21])
def test_ctrl_modmul_exhaustive(N):
    # both control values, every coprime a, work and indicator restored
    n = N.bit_length()
    v = None
    for a in _coprimes(N):
        spec = ModMulSpec.standard(a, N)
        perm = permutation_table(ctrl_modmul_inplace(spec))
        if v is None:
            v = np.arange(len(perm), dtype=np.int64)
            xv = v & _mask(n)
            ind0 = ((v >> spec.ind) & 1) == 0
            work0 = ((v >> spec.n) & _mask(n)) == 0
            on = ((v >> spec.ctrl) & 1) == 1
            valid_on = ind0 & work0 & on & (xv < N)
            off = ind0 & ~on
        want = (a * xv % N) | np.int64((1 << spec.ctrl))
        assert (perm[valid_on] == want[valid_on]).all(), (N, a)
        # control off: exact identity, dirty x and work values arbitrary
        assert (perm[off] == v[off]).all(), (N, a)


@pytest.mark.parametrize("N", [15, 21])
def test_ctrl_modmul_touches_exactly_2n_plus_2(N):
    spec = ModMulSpec.standard(_coprimes(N)[-1], N)
    counter = CountingSink(spec.width)
    emit_ctrl_modmul(counter, spec)  # CountingSink raises on any MCX
    assert counter.width_touched == 2 * spec.n + 2


def test_ctrl_modmul_inverse_constant_round_trip():
    # multiplying by a then by a^-1 with the control on is the identity
    N = 15
    for a in (2, 7, 11):
        fwd = permutation_table(ctrl_modmul_inplace(ModMulSpec.standard(a, N)))
        inv = permutation_table(ctrl_modmul_inplace(ModMulSpec.standard(mod_inverse(a, N), N)))
        spec = ModMulSpec.standard(a, N)
        ctrl_on = 1 << spec.ctrl
        for x in range(N):
            assert inv[fwd[x | ctrl_on]] == x | ctrl_on


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(2, 31).map(lambda k: 2 * k + 1),
    a=st.integers(1, 61),
    x=st.integers(0, 62),
    ctrl=st.booleans(),
)
def test_modmul_oracle_property(N, a, x, ctrl):
    a %= N
    x %= N
    if a == 0 or math.gcd(a, N) != 1:
        a = 1
    spec = ModMulSpec.standard(a, N)
    start = x | (ctrl << spec.ctrl)
    sink = StateSink(start)
    emit_ctrl_modmul(sink, spec)
    want = ((a * x % N) if ctrl else x) | (ctrl << spec.ctrl)
    assert sink.state == want


# --------------------------------------------------------------------------
# gate lists are the fixed point

# SHA-256 over circuit_to_text of every circuit _pinned_circuits yields,
# serial mode then parallel; a change to synthesis that moves any gate,
# even one that keeps every count, changes it
_PINNED_DIGEST = "fd8e673b825f6bab8fffd5dad64c3c70811c2b4899788fbd8c7e9393b5502fb0"


def _pinned_circuits(mode):
    for N, a in ((15, 7), (21, 2), (255, 13), (1073, 5), (93, 5)):
        yield ctrl_modmul_inplace(ModMulSpec.standard(a, N, mode=mode))
    for n in range(1, 20):
        for k in range(3):
            c = (1 << n) - 1 - n // 3
            yield const_adder(AdderSpec.standard(n, c, pool_size=max(2, n // 2), n_ctrls=k, mode=mode))
    for N, a, k in ((21, 2, 2), (255, 100, 2), (31, 7, 1)):
        n = N.bit_length()
        yield mod_adder(a, N, range(n), range(n, 2 * n - 1), 2 * n - 1, range(2 * n, 2 * n + k), mode=mode)


def test_gate_lists_are_pinned():
    h = hashlib.sha256()
    for mode in ("serial", "parallel"):
        for circ in _pinned_circuits(mode):
            h.update(circuit_to_text(circ).encode())
    assert h.hexdigest() == _PINNED_DIGEST
