"""Modular addition and multiplication from the dirty-ancilla adders.

The modular adder wraps two constant additions in two comparators that
steer a single clean indicator qubit: add a when b < N - a, otherwise
subtract N - a, then recompute the indicator from the result so it ends
back at 0. The controlled in-place multiplier runs a shift-and-add pass
into a zeroed work register, swaps, and unruns the pass for the inverse
multiplicand, touching exactly 2n + 2 qubits for n-bit moduli.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .adders import SynthesisError, _require_disjoint, _width, emit_comparator, emit_const_add
from .circuits import Circuit, LoweringSink, RecordingSink, emit_controlled_x


class NotCoprimeError(ValueError):
    """Raised when a modular inverse does not exist; carries the gcd."""

    def __init__(self, a: int, modulus: int, gcd: int):
        super().__init__(f"{a} is not invertible mod {modulus}: gcd is {gcd}")
        self.gcd = gcd


def mod_inverse(a: int, modulus: int) -> int:
    g = math.gcd(a, modulus)
    if g != 1:
        raise NotCoprimeError(a, modulus, g)
    return pow(a, -1, modulus)


def multiplier_constants(a: int, modulus: int, count: int) -> list[int]:
    """Repeated squares a, a^2, a^4, ... mod modulus, one per exponent bit."""
    out = []
    c = a % modulus
    for _ in range(count):
        out.append(c)
        c = c * c % modulus
    return out


# --------------------------------------------------------------------------
# modular constant adder


def emit_mod_adder(sink, a: int, modulus: int, b, g, ind: int, ctrls=(), mode: str = "serial") -> None:
    """b -> (b + a) mod modulus for b < modulus; ind is clean, ends 0.

    Flow: flip ind when no reduction is due (b < modulus - a), add a under
    ind, then under the complemented indicator subtract modulus - a, which
    lands the wrapped sum. A second comparison against a recomputes from
    the result which branch ran, returning ind to 0.

    The inner additions are controlled by ind alone; the comparator target
    reads, the indicator complements and the final clearing NOT carry the
    outer ctrls, so with any control at 0 the indicator never leaves 0 and
    everything else is control-gated identity.
    """
    n = len(b)
    ctrls = tuple(ctrls)
    if not 0 <= a < modulus:
        raise SynthesisError(f"addend {a} outside [0, {modulus})")
    if modulus > (1 << n):
        raise SynthesisError(f"modulus {modulus} needs more than {n} qubits")
    if len(ctrls) > 2:
        raise SynthesisError("mod adder supports at most 2 controls")
    if a == 0:
        return
    # only the comparators' target reads gain a third control (their carry
    # top plus both ctrls); the additions are controlled by ind alone, so
    # just the comparators go through the lowering
    cmp_sink = LoweringSink(sink, tuple(b) + tuple(g)) if len(ctrls) >= 2 else sink
    emit_comparator(cmp_sink, modulus - a, b, g, ind, ctrls)
    emit_const_add(sink, a, b, g, (), mode, (ind,))
    emit_controlled_x(sink, ctrls, ind)
    back = RecordingSink()
    emit_const_add(back, modulus - a, b, g, (), mode, (ind,))
    back.replay_reversed(sink)
    emit_controlled_x(sink, ctrls, ind)
    emit_comparator(cmp_sink, a, b, g, ind, ctrls)
    emit_controlled_x(sink, ctrls, ind)


def mod_adder(a: int, modulus: int, b, g, ind: int, ctrls=(), mode: str = "serial") -> Circuit:
    """Circuit for b -> (b + a) mod modulus; needs n-1 dirty rungs in g."""
    b, g, ctrls = tuple(b), tuple(g), tuple(ctrls)
    _require_disjoint(b=b, g=g, ind=(ind,), ctrls=ctrls)
    if len(g) < len(b) - 1:
        raise SynthesisError(f"mod adder over {len(b)} bits needs {len(b) - 1} dirty rungs")
    circ = Circuit(_width(b, g, (ind,), ctrls))
    emit_mod_adder(circ, a, modulus, b, g, ind, ctrls, mode)
    return circ


# --------------------------------------------------------------------------
# controlled in-place modular multiplier


@dataclass(frozen=True)
class ModMulSpec:
    """Layout for |x> -> |a x mod modulus> under one control.

    x and work are n-qubit registers, ind the clean comparator indicator,
    ctrl the single control. Total footprint is exactly 2n + 2 qubits.
    During the i-th shift-and-add the other n - 1 x qubits serve as the
    dirty scratch for the modular adder, so no further ancillae exist.
    """

    n: int
    a: int
    modulus: int
    x: tuple[int, ...]
    work: tuple[int, ...]
    ind: int
    ctrl: int
    mode: str = "serial"

    def __post_init__(self):
        if self.modulus < 3:
            raise SynthesisError("modulus must be >= 3")
        if self.n < self.modulus.bit_length():
            raise SynthesisError(f"modulus {self.modulus} needs {self.modulus.bit_length()} qubits")
        if not 1 <= self.a < self.modulus:
            raise SynthesisError(f"multiplicand {self.a} outside [1, {self.modulus})")
        if math.gcd(self.a, self.modulus) != 1:
            raise NotCoprimeError(self.a, self.modulus, math.gcd(self.a, self.modulus))
        if len(self.x) != self.n or len(self.work) != self.n:
            raise SynthesisError("x and work must both have n qubits")
        _require_disjoint(x=self.x, work=self.work, ind=(self.ind,), ctrl=(self.ctrl,))

    @classmethod
    def standard(cls, a: int, modulus: int, mode: str = "serial") -> "ModMulSpec":
        n = modulus.bit_length()
        return cls(
            n=n,
            a=a,
            modulus=modulus,
            x=tuple(range(n)),
            work=tuple(range(n, 2 * n)),
            ind=2 * n,
            ctrl=2 * n + 1,
            mode=mode,
        )

    @property
    def width(self) -> int:
        return max(max(self.x), max(self.work), self.ind, self.ctrl) + 1


def emit_modmul_forward(sink, spec: ModMulSpec, a: int | None = None) -> None:
    """work -> (work + a * x) mod modulus when ctrl, via n controlled mod-adds.

    Shift-and-add: the i-th adder adds a * 2^i mod modulus under controls
    (ctrl, x_i), borrowing the remaining x qubits as its dirty scratch.
    """
    a = spec.a if a is None else a
    c = a % spec.modulus
    for i in range(spec.n):
        rungs = spec.x[:i] + spec.x[i + 1 :]
        emit_mod_adder(
            sink, c, spec.modulus, spec.work, rungs, spec.ind,
            (spec.ctrl, spec.x[i]), spec.mode,
        )
        c = c * 2 % spec.modulus


def emit_ctrl_modmul(sink, spec: ModMulSpec) -> None:
    """|x, 0, 0> -> |a x mod modulus, 0, 0> when ctrl, identity otherwise.

    Multiply-accumulate into the zeroed work register, controlled-swap the
    registers, then subtract a^-1 times the product from the old x, which
    zeroes work again. Requires x < modulus and clean work and ind.

    The n shifted additions of a pass commute (they all add constants to
    work), so the subtraction is the forward pass for -a^-1 mod modulus:
    each step adds the complement of its constant instead of unwinding a
    recorded gate list.
    """
    a_inv = mod_inverse(spec.a, spec.modulus)
    emit_modmul_forward(sink, spec)
    for xq, wq in zip(spec.x, spec.work):
        sink.cx(wq, xq)
        sink.ccx(spec.ctrl, xq, wq)
        sink.cx(wq, xq)
    emit_modmul_forward(sink, spec, spec.modulus - a_inv)


def ctrl_modmul_inplace(spec: ModMulSpec) -> Circuit:
    circ = Circuit(spec.width)
    emit_ctrl_modmul(circ, spec)
    return circ
