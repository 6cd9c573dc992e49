"""In-place Toffoli arithmetic built on borrowed dirty ancillae.

Everything here adds classical constants to quantum registers (or registers
to registers) using scratch qubits in unknown states. Scratch is written
toggle-style, compute / use / uncompute, so each helper qubit returns to
the exact bit it arrived with, and idle data registers double as workspace.

Construction inventory, with exact Toffoli counts for all-ones constants:

- carry_circuit        4(n-2)+2   carry of (a + c) onto a target via a
                                  staircase over n-1 dirty rungs
- inplace_add          2n-2       ripple adder, target += addend, no ancilla
- incrementer          4m-4       x += 1 from two borrowed-register
                                  subtractions (x - g - ~g = x + 1 mod 2^m)
- ctrl_incrementer     4m         incrementer over the joint register
                                  [ctrl, x] with ctrl as least significant bit
- const_adder          recursion  T(n) = T(ceil n/2) + T(floor n/2) + 8n-8,
                                  split add with dirty-carry sandwich
- comparator           4(n-2)+2   target ^= (b < c), carry of (~b + c)
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

from .circuits import (
    Circuit,
    CircuitError,
    LoweringSink,
    RecordingSink,
    emit_controlled_x,
)


class SynthesisError(CircuitError):
    pass


def _require_disjoint(**groups) -> None:
    seen: dict[int, str] = {}
    for name, qubits in groups.items():
        for q in qubits:
            if q in seen:
                raise SynthesisError(f"qubit {q} shared between {seen[q]} and {name}")
            seen[q] = name


def _width(*groups) -> int:
    return max(q for g in groups for q in g) + 1


# --------------------------------------------------------------------------
# register-register adder


def emit_inplace_add(sink, x, y, carry_out: int | None = None) -> None:
    """x += y mod 2^n with y restored; 2n-2 Toffolis, no ancilla.

    Ripple structure: CNOT prefix folds y into x, a staircase on y carries
    the ripple rail, Toffolis push carries up and the mirrored suffix
    restores y while writing sum bits. Given carry_out, it also gets
    carry_out ^= the carry out of the top bit, for one more Toffoli.
    """
    n = len(x)
    if len(y) != n:
        raise SynthesisError("inplace add needs equal register sizes")
    if n == 0:
        return
    if n == 1:
        if carry_out is not None:
            sink.ccx(x[0], y[0], carry_out)
        sink.cx(y[0], x[0])
        return
    for i in range(1, n):
        sink.cx(y[i], x[i])
    if carry_out is not None:
        sink.cx(y[n - 1], carry_out)
    for i in range(n - 2, 0, -1):
        sink.cx(y[i], y[i + 1])
    for i in range(n - 1):
        sink.ccx(x[i], y[i], y[i + 1])
    if carry_out is not None:
        sink.ccx(x[n - 1], y[n - 1], carry_out)
    for i in range(n - 1, 0, -1):
        sink.cx(y[i], x[i])
        sink.ccx(x[i - 1], y[i - 1], y[i])
    for i in range(1, n - 1):
        sink.cx(y[i], y[i + 1])
    for i in range(n):
        sink.cx(y[i], x[i])


def _emit_sub(sink, x, y) -> None:
    """x -= y mod 2^n, the adder replayed in reverse."""
    rec = RecordingSink()
    emit_inplace_add(rec, x, y)
    rec.replay_reversed(sink)


def _emit_sub_fold(sink, x, y) -> None:
    """x(w) -= y where y is one qubit narrower; borrow folds into the top bit."""
    rec = RecordingSink()
    emit_inplace_add(rec, x[:-1], y, x[-1])
    rec.replay_reversed(sink)


# --------------------------------------------------------------------------
# incrementers


def emit_incrementer(sink, x, g) -> None:
    """x += 1 mod 2^m borrowing m dirty qubits, restored.

    Uses x - g - ~g = x - (2^m - 1) = x + 1 mod 2^m: subtract the borrowed
    register, complement it, subtract again, complement back.
    """
    m = len(x)
    if m == 0:
        return
    if len(g) < m:
        raise SynthesisError(f"incrementer over {m} qubits needs {m} borrowed, got {len(g)}")
    g = tuple(g[:m])
    _emit_sub(sink, x, g)
    for q in g:
        sink.x(q)
    _emit_sub(sink, x, g)
    for q in g:
        sink.x(q)


def _emit_incrementer_fold(sink, x, g) -> None:
    """x += 1 with only m-1 borrowed qubits.

    The two subtractions run one qubit narrow and fold their borrow into
    the top bit of x; the missing top complement becomes a free X there
    (adding 2^(m-1) twice is adding 2^m = 0, so one X stands in for it).
    """
    m = len(x)
    if len(g) < m - 1:
        raise SynthesisError(f"fold incrementer over {m} qubits needs {m - 1} borrowed")
    g = tuple(g[: m - 1])
    _emit_sub_fold(sink, x, g)
    for q in g:
        sink.x(q)
    _emit_sub_fold(sink, x, g)
    sink.x(x[-1])
    for q in g:
        sink.x(q)


def emit_ctrl_incrementer(sink, x, ctrl: int, borrowed) -> None:
    """x += 1 iff ctrl, by incrementing the joint register [ctrl, x].

    With ctrl as least significant bit the joint value is 2x + ctrl;
    adding 1 to it maps (ctrl=0) to a pure ctrl flip and (ctrl=1) to a
    carry into x, so one trailing X on ctrl leaves exactly x += ctrl.
    Needs m+1 borrowed qubits; with only m it falls back to the fold
    incrementer (4m-2 instead of 4m Toffolis).
    """
    joint = (ctrl,) + tuple(x)
    if len(borrowed) >= len(joint):
        emit_incrementer(sink, joint, borrowed)
    elif len(borrowed) == len(joint) - 1:
        _emit_incrementer_fold(sink, joint, borrowed)
    else:
        raise SynthesisError(
            f"controlled incrementer over {len(x)} qubits needs at least {len(x)} borrowed"
        )
    sink.x(ctrl)


# --------------------------------------------------------------------------
# carry staircase


def emit_carry(sink, c: int, a, rungs, target: int, ctrls=(), elide: bool = True) -> None:
    """target ^= carry of (a + c) over n = len(a) bits.

    Carries are toggle-encoded on dirty rungs: rung j flips iff carry j
    would be set, given whatever bit it already holds. Each staircase level
    is a Toffoli pair around the level below plus a CNOT and NOT when the
    constant bit is 1; running the staircase, reading the top rung into the
    target, and running it again restores every rung and every a qubit.

    elide=True drops the bottom rung by conditioning the first Toffoli
    directly on a[0] (n-1 rungs, 4(n-2)+2 Toffolis for all-ones c);
    elide=False keeps a rung per carry (n rungs, 4n-4 Toffolis).

    Only the two target reads are promoted when ctrls are given.
    """
    n = len(a)
    c &= (1 << n) - 1
    ctrls = tuple(ctrls)
    if n == 1:
        if c & 1:
            emit_controlled_x(sink, (a[0],) + ctrls, target)
        return
    need = n - 1 if elide else n
    if len(rungs) < need:
        raise SynthesisError(f"carry over {n} bits needs {need} dirty rungs, got {len(rungs)}")
    stair = RecordingSink()
    if elide:
        r = (None,) + tuple(rungs[: n - 1])  # r[j] toggles with carry j, j >= 1
        for j in range(n - 1, 1, -1):
            if (c >> j) & 1:
                stair.cx(a[j], r[j])
                stair.x(a[j])
            stair.ccx(r[j - 1], a[j], r[j])
        if (c >> 1) & 1:
            stair.cx(a[1], r[1])
            stair.x(a[1])
        if c & 1:
            stair.ccx(a[0], a[1], r[1])
        for j in range(2, n):
            stair.ccx(r[j - 1], a[j], r[j])
    else:
        r = tuple(rungs[:n])  # r[j] toggles with carry j, j >= 0
        for j in range(n - 1, 0, -1):
            if (c >> j) & 1:
                stair.cx(a[j], r[j])
                stair.x(a[j])
            stair.ccx(r[j - 1], a[j], r[j])
        if c & 1:
            stair.cx(a[0], r[0])
        for j in range(1, n):
            stair.ccx(r[j - 1], a[j], r[j])
    top = r[n - 1]
    emit_controlled_x(sink, (top,) + ctrls, target)
    stair.replay(sink)
    emit_controlled_x(sink, (top,) + ctrls, target)
    stair.replay_reversed(sink)


def emit_comparator(sink, c: int, b, rungs, target: int, ctrls=()) -> None:
    """target ^= (b < c): carry of (~b + c) since ~b + c >= 2^n iff b < c."""
    n = len(b)
    c &= (1 << n) - 1
    for q in b:
        sink.x(q)
    emit_carry(sink, c, b, rungs, target, ctrls, elide=True)
    for q in b:
        sink.x(q)


# --------------------------------------------------------------------------
# recursive constant adder


@dataclass(frozen=True)
class AdderSpec:
    """Layout and options for one constant addition.

    bits is the little-endian target register; pool lists dirty qubits the
    adder may borrow (>= 1 needed whenever a carry sandwich fires, 2 keep
    the Toffoli counts at the 8n-8 recursion; parallel mode uses up to
    floor(n/2)). ctrls adds classical-style controls to the whole addition.
    """

    n: int
    c: int
    bits: tuple[int, ...]
    pool: tuple[int, ...]
    ctrls: tuple[int, ...] = ()
    mode: str = "serial"

    def __post_init__(self):
        if self.n < 1:
            raise SynthesisError("adder width must be >= 1")
        if len(self.bits) != self.n:
            raise SynthesisError("bits length must equal n")
        if self.mode not in ("serial", "parallel"):
            raise SynthesisError(f"unknown mode {self.mode!r}")
        _require_disjoint(bits=self.bits, pool=self.pool, ctrls=self.ctrls)
        if not 0 <= self.c < (1 << self.n):
            warnings.warn(f"constant {self.c} reduced mod 2^{self.n}", stacklevel=3)
            object.__setattr__(self, "c", self.c % (1 << self.n))

    @classmethod
    def standard(cls, n: int, c: int, pool_size: int = 2, n_ctrls: int = 0, mode: str = "serial"):
        """Canonical layout: bits, then ctrls, then the dirty pool."""
        bits = tuple(range(n))
        ctrls = tuple(range(n, n + n_ctrls))
        pool = tuple(range(n + n_ctrls, n + n_ctrls + pool_size))
        return cls(n=n, c=c, bits=bits, pool=pool, ctrls=ctrls, mode=mode)

    @property
    def width(self) -> int:
        return _width(self.bits, self.pool, self.ctrls, (0,))


def emit_const_add(sink, c: int, bits, pool, idle, mode: str = "serial", ctrls=()) -> None:
    """bits += c mod 2^n, recursive halving with a dirty-carry sandwich.

    Split bits into low ceil(n/2) and high floor(n/2). The carry of
    (low + c_low) lands on a borrowed dirty qubit d via the staircase; the
    controlled incrementer adds it to the high half. Because d only toggles
    with the carry, the incrementer runs once between the two staircase
    passes and once inverted after, bracketed by conditional complements of
    the high half, which adds the carry regardless of d's resting value.
    Then recurse into both halves. Zero sub-constants emit nothing.

    Even splits use the full staircase (high half = exactly the rungs it
    needs); odd splits use the elided one. The incrementer borrows the low
    half plus one spare; without a spare it degrades to the fold variant,
    which costs two fewer Toffolis per level and so leaves the all-ones
    counts below the 8n-8 recursion.

    Controls promote only the staircase target reads and base-case NOTs.
    """
    n = len(bits)
    c &= (1 << n) - 1
    if n == 0 or c == 0:
        return
    if n == 1:
        emit_controlled_x(sink, tuple(ctrls), bits[0])
        return
    m_low = (n + 1) // 2
    x_low, x_high = tuple(bits[:m_low]), tuple(bits[m_low:])
    c_low = c & ((1 << m_low) - 1)
    c_high = c >> m_low
    if c_low:
        if not pool:
            raise SynthesisError("constant adder needs a dirty carry qubit")
        d = pool[0]
        for h in x_high:
            sink.cx(d, h)
        carry = RecordingSink()
        emit_carry(carry, c_low, x_low, x_high, d, ctrls, elide=(len(x_high) == m_low - 1))
        carry.replay(sink)
        spare = [q for q in list(pool[1:]) + list(idle)][:1]
        inc = RecordingSink()
        emit_ctrl_incrementer(inc, x_high, d, list(x_low) + spare)
        inc.replay(sink)
        carry.replay(sink)
        inc.replay_reversed(sink)
        for h in x_high:
            sink.cx(d, h)
    if mode == "parallel" and len(pool) >= 2 and c_low and c_high:
        half = len(pool) // 2
        idle_half = len(idle) // 2
        emit_const_add(sink, c_low, x_low, pool[:half], idle[:idle_half], mode, ctrls)
        emit_const_add(sink, c_high, x_high, pool[half:], idle[idle_half:], mode, ctrls)
    else:
        emit_const_add(sink, c_low, x_low, pool, tuple(idle) + x_high, mode, ctrls)
        emit_const_add(sink, c_high, x_high, pool, tuple(idle) + x_low, mode, ctrls)


# --------------------------------------------------------------------------
# public circuit builders


def carry_circuit(c: int, a, g, target: int, ctrls=()) -> Circuit:
    """Circuit flipping target iff adding c to register a would carry out.

    g must offer n-1 dirty rungs (restored). With k controls the two target
    reads become (k+1)-fold controlled; at two controls each is an MCX,
    lowered on the idle a qubits.
    """
    a, g, ctrls = tuple(a), tuple(g), tuple(ctrls)
    _require_disjoint(a=a, g=g, target=(target,), ctrls=ctrls)
    if len(ctrls) > 2:
        raise SynthesisError("carry supports at most 2 controls")
    circ = Circuit(_width(a, g, (target,), ctrls))
    emit_carry(LoweringSink(circ, a), c, a, g, target, ctrls, elide=True)
    return circ


def comparator(c: int, b, g, target: int, ctrls=()) -> Circuit:
    """Circuit flipping target iff b < c; same scratch contract as carry."""
    b, g, ctrls = tuple(b), tuple(g), tuple(ctrls)
    _require_disjoint(b=b, g=g, target=(target,), ctrls=ctrls)
    if len(ctrls) > 2:
        raise SynthesisError("comparator supports at most 2 controls")
    circ = Circuit(_width(b, g, (target,), ctrls))
    emit_comparator(LoweringSink(circ, b), c, b, g, target, ctrls)
    return circ


def inplace_add(x, y) -> Circuit:
    """Circuit computing x += y mod 2^n with y restored."""
    x, y = tuple(x), tuple(y)
    _require_disjoint(x=x, y=y)
    circ = Circuit(_width(x, y))
    emit_inplace_add(circ, x, y)
    return circ


def incrementer(x, g) -> Circuit:
    """Circuit computing x += 1 mod 2^m from m borrowed dirty qubits."""
    x, g = tuple(x), tuple(g)
    _require_disjoint(x=x, g=g)
    circ = Circuit(_width(x, g))
    emit_incrementer(circ, x, g)
    return circ


def ctrl_incrementer(x, ctrl: int, g, spare: int | None = None) -> Circuit:
    """Circuit computing x += ctrl. Needs m+1 borrowed qubits overall.

    g supplies m of them; the one extra comes from spare when given (the
    usual case for even joint splits), otherwise the fold variant runs with
    g alone.
    """
    x, g = tuple(x), tuple(g)
    extra = (spare,) if spare is not None else ()
    _require_disjoint(x=x, ctrl=(ctrl,), g=g, spare=extra)
    circ = Circuit(_width(x, (ctrl,), g, extra))
    emit_ctrl_incrementer(circ, x, ctrl, g + extra)
    return circ


def const_adder(spec: AdderSpec) -> Circuit:
    """Circuit adding spec.c to spec.bits, dirty pool restored.

    Serial mode reuses pool[0] as every level's carry qubit; parallel mode
    splits the pool so the two recursive halves land in disjoint-qubit
    layers. Both modes compute the same permutation.
    """
    circ = Circuit(spec.width)
    sink = LoweringSink(circ, spec.bits + spec.pool)
    emit_const_add(sink, spec.c, spec.bits, spec.pool, (), spec.mode, spec.ctrls)
    return circ


def t_add_recursion(n: int) -> int:
    """Unrolled Toffoli recursion T(n) = T(ceil) + T(floor) + 8n - 8."""
    if n <= 1:
        return 0
    if n == 2:
        return 8
    return t_add_recursion((n + 1) // 2) + t_add_recursion(n // 2) + 8 * n - 8
