"""Gate-level circuit IR for Toffoli-based reversible synthesis.

Circuits are flat gate lists over qubits indexed 0..width-1, little endian
(qubit i of a register carries weight 2**i). Every gate is the triple
(kind, controls, target) of a NOT with zero or more controls: X, CX, CCX
or MCX, so every circuit is a classical reversible permutation of basis
states; a basis state is one python int with bit i = qubit i, simulated
as a one-lane LaneSink. The phase estimation driver's Hadamard, phase and
measurement steps act on its statevector directly and are never stored
as gates. Synthesis routines emit into any "sink" exposing x/cx/ccx/mcx.
Stored circuits and recorded blocks hold the same triples and replay
through emit_gates, which hands a whole block to a sink's run_ops (the
counting, lane, tee and recording sinks) and otherwise dispatches per gate.
"""
from __future__ import annotations

from enum import IntEnum
from itertools import islice
from typing import Iterable, Iterator, NamedTuple


class GateKind(IntEnum):
    X = 0
    CX = 1
    CCX = 2
    MCX = 3

_X, _CX, _CCX, _MCX = GateKind.X, GateKind.CX, GateKind.CCX, GateKind.MCX
_N_CONTROLS = {_X: 0, _CX: 1, _CCX: 2}


class Gate(NamedTuple):
    kind: GateKind
    controls: tuple[int, ...]
    target: int


class CircuitError(ValueError):
    pass


def _check_gate(kind: GateKind, controls: tuple[int, ...], target: int, width: int) -> None:
    if not 0 <= target < width:
        raise CircuitError(f"target {target} out of range for width {width}")
    seen = {target}
    for c in controls:
        if not 0 <= c < width:
            raise CircuitError(f"control {c} out of range for width {width}")
        if c in seen:
            raise CircuitError(f"duplicate qubit {c} in gate")
        seen.add(c)
    if kind == GateKind.MCX:
        # one spelling per gate: fewer controls are X, CX or CCX
        if len(controls) < 3:
            raise CircuitError(f"MCX takes at least 3 controls, got {len(controls)}")
    elif kind not in _N_CONTROLS:
        raise CircuitError(f"unknown gate kind {kind!r}")
    elif len(controls) != _N_CONTROLS[kind]:
        raise CircuitError(f"{kind.name} takes {_N_CONTROLS[kind]} controls, got {len(controls)}")


class Circuit:
    """Mutable gate list with a fixed width.

    Doubles as an emission sink: the x/cx/ccx/mcx methods append validated
    gates, so synthesis code can target a Circuit or any lighter sink
    interchangeably.
    """

    __slots__ = ("width", "gates")

    def __init__(self, width: int, gates: Iterable[Gate] = ()):
        if width < 1:
            raise CircuitError("width must be positive")
        self.width = width
        self.gates: list[Gate] = []
        for g in gates:
            self.append(g)

    def append(self, gate: Gate) -> None:
        _check_gate(gate.kind, gate.controls, gate.target, self.width)
        self.gates.append(gate)

    # sink interface
    def x(self, t: int) -> None:
        self.append(Gate(GateKind.X, (), t))

    def cx(self, c: int, t: int) -> None:
        self.append(Gate(GateKind.CX, (c,), t))

    def ccx(self, c1: int, c2: int, t: int) -> None:
        self.append(Gate(GateKind.CCX, (c1, c2), t))

    def mcx(self, controls: tuple[int, ...], t: int) -> None:
        controls = tuple(controls)
        if len(controls) <= 2:
            emit_controlled_x(self, controls, t)
        else:
            self.append(Gate(GateKind.MCX, controls, t))

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def reverse(self) -> "Circuit":
        """Inverse circuit: every gate is self-inverse, so reversed order."""
        return Circuit(self.width, reversed(self.gates))


# --------------------------------------------------------------------------
# sinks


class CountingSink:
    """Tallies gate counts, greedy ASAP depth and touched qubits in O(1)/gate.

    Depth layers gates as early as qubit availability allows: a gate lands on
    layer 1 + max(frontier of its qubits). This is the schedule a
    maximally-parallel executor could realize, so disjoint-qubit gate blocks
    count as one layer.
    """

    __slots__ = ("toffoli", "cnot", "not_", "_frontier", "depth")

    def __init__(self, width: int):
        self.toffoli = 0
        self.cnot = 0
        self.not_ = 0
        self.depth = 0
        self._frontier = [0] * width

    def x(self, t: int) -> None:
        self.run_ops(((_X, (), t),))

    def cx(self, c: int, t: int) -> None:
        self.run_ops(((_CX, (c,), t),))

    def ccx(self, c1: int, c2: int, t: int) -> None:
        self.run_ops(((_CCX, (c1, c2), t),))

    def mcx(self, controls: tuple[int, ...], t: int) -> None:
        raise CircuitError("MCX must be lowered before resource counting")

    def run_ops(self, ops) -> None:
        f, depth = self._frontier, self.depth
        tof = cnot = nots = 0
        X, CX, CCX = _X, _CX, _CCX
        try:
            for k, c, t in ops:
                if k == CCX:
                    c1, c2 = c
                    layer, a, b = f[c1], f[c2], f[t]
                    if a > layer:
                        layer = a
                    if b > layer:
                        layer = b
                    layer += 1
                    f[c1] = f[c2] = f[t] = layer
                    tof += 1
                elif k == CX:
                    c1 = c[0]
                    a, b = f[c1], f[t]
                    layer = (a if a > b else b) + 1
                    f[c1] = f[t] = layer
                    cnot += 1
                elif k == X:
                    layer = f[t] + 1
                    f[t] = layer
                    nots += 1
                else:
                    self.mcx(c, t)
                if layer > depth:
                    depth = layer
        finally:
            self.toffoli += tof
            self.cnot += cnot
            self.not_ += nots
            self.depth = depth

    @property
    def width_touched(self) -> int:
        # a qubit was touched exactly when some gate advanced its frontier
        return sum(1 for v in self._frontier if v)

    @property
    def total(self) -> int:
        return self.toffoli + self.cnot + self.not_


class RecordingSink:
    """Buffers a block as (kind, controls, target) triples, Gate's field
    order, so it can be replayed, possibly reversed, through emit_gates.

    Synthesis uses this for compute/uncompute sandwiches; all reversible
    gates here are self-inverse, so reversal is order reversal. A recorder
    receiving a replay takes the whole block in one extend.
    """

    __slots__ = ("ops",)

    def __init__(self):
        self.ops: list[tuple] = []

    def x(self, t: int) -> None:
        self.ops.append((_X, (), t))

    def cx(self, c: int, t: int) -> None:
        self.ops.append((_CX, (c,), t))

    def ccx(self, c1: int, c2: int, t: int) -> None:
        self.ops.append((_CCX, (c1, c2), t))

    def mcx(self, controls: tuple[int, ...], t: int) -> None:
        self.ops.append((_MCX, controls, t))

    def run_ops(self, ops) -> None:
        self.ops.extend(ops)

    def replay(self, sink) -> None:
        emit_gates(self.ops, sink)

    def replay_reversed(self, sink) -> None:
        emit_gates(reversed(self.ops), sink)


class LaneSink:
    """Bit-sliced basis states (Biham 1997): lanes[q] holds qubit q of every
    lane, bit k for lane k, so a gate is one big-integer XOR across lanes.

    A qubit past the end of lanes reads as 0 in every lane; the list grows
    the first time a gate touches it.
    """

    __slots__ = ("lanes", "full")

    def __init__(self, lanes: list[int], full: int):
        self.lanes = lanes
        self.full = full

    def x(self, t: int) -> None:
        try:
            self.lanes[t] ^= self.full
        except IndexError:
            self.run_ops(((_X, (), t),))

    def cx(self, c: int, t: int) -> None:
        try:
            self.lanes[t] ^= self.lanes[c]
        except IndexError:
            self.run_ops(((_CX, (c,), t),))

    def ccx(self, c1: int, c2: int, t: int) -> None:
        try:
            self.lanes[t] ^= self.lanes[c1] & self.lanes[c2]
        except IndexError:
            self.run_ops(((_CCX, (c1, c2), t),))

    def mcx(self, controls: tuple[int, ...], t: int) -> None:
        self.run_ops(((_MCX, controls, t),))

    def run_ops(self, ops) -> None:
        lanes, full = self.lanes, self.full
        X, CX, CCX = _X, _CX, _CCX
        for k, c, t in ops:
            try:
                if k == CCX:
                    lanes[t] ^= lanes[c[0]] & lanes[c[1]]
                elif k == CX:
                    lanes[t] ^= lanes[c[0]]
                elif k == X:
                    lanes[t] ^= full
                else:
                    acc = full
                    for q in c:
                        acc &= lanes[q]
                    lanes[t] ^= acc
            except IndexError:
                # nothing was stored yet: grow, then apply the gate again
                lanes.extend([0] * (max((t, *c)) + 1 - len(lanes)))
                self.run_ops(((k, c, t),))


class StateSink(LaneSink):
    """One basis state as a one-lane LaneSink: lanes[q] is qubit q's bit."""

    __slots__ = ()
    _digits, _bits = bytes.maketrans(b"\0\1", b"01"), bytes.maketrans(b"01", b"\0\1")

    def __init__(self, state: int):
        super().__init__([], 1)
        self.state = state

    @property
    def state(self) -> int:
        return int(bytes(reversed(self.lanes)).translate(self._digits) or b"0", 2)

    @state.setter
    def state(self, value: int) -> None:
        self.lanes = list(bin(value)[:1:-1].encode().translate(self._bits))


class TeeSink:
    """Fans emitted gates out to several sinks in one pass."""

    __slots__ = ("sinks",)

    def __init__(self, *sinks):
        self.sinks = sinks

    def x(self, t: int) -> None:
        for s in self.sinks:
            s.x(t)

    def cx(self, c: int, t: int) -> None:
        for s in self.sinks:
            s.cx(c, t)

    def ccx(self, c1: int, c2: int, t: int) -> None:
        for s in self.sinks:
            s.ccx(c1, c2, t)

    def mcx(self, controls: tuple[int, ...], t: int) -> None:
        for s in self.sinks:
            s.mcx(controls, t)

    def run_ops(self, ops) -> None:
        ops = list(ops)  # the children share no state: each takes the block in turn
        for s in self.sinks:
            emit_gates(ops, s)


def emit_controlled_x(sink, controls: tuple[int, ...], target: int) -> None:
    """Emit a NOT with however many controls, picking the narrowest kind."""
    k = len(controls)
    if k == 0:
        sink.x(target)
    elif k == 1:
        sink.cx(controls[0], target)
    elif k == 2:
        sink.ccx(controls[0], controls[1], target)
    else:
        sink.mcx(tuple(controls), target)


class LoweringSink:
    """Pass-through sink that rewrites k >= 3 MCX gates into Toffolis.

    Borrows the first pool qubit the gate does not touch; borrowed qubits
    are restored, so any idle data qubit qualifies.
    """

    __slots__ = ("sink", "pool")

    def __init__(self, sink, pool: Iterable[int]):
        self.sink = sink
        self.pool = tuple(pool)

    def x(self, t: int) -> None:
        self.sink.x(t)

    def cx(self, c: int, t: int) -> None:
        self.sink.cx(c, t)

    def ccx(self, c1: int, c2: int, t: int) -> None:
        self.sink.ccx(c1, c2, t)

    def mcx(self, controls: tuple[int, ...], t: int) -> None:
        if len(controls) <= 2:
            emit_controlled_x(self.sink, controls, t)
            return
        used = set(controls)
        used.add(t)
        dirty = next((q for q in self.pool if q not in used), None)
        if dirty is None:
            raise CircuitError("no pool qubit free of the MCX being lowered")
        emit_mcx(self.sink, controls, t, dirty)


def emit_circuit(circuit: Circuit, sink, lo: int = 0, hi: int | None = None) -> None:
    """Replay gates [lo, hi) of a materialized circuit into a sink, uncopied."""
    gates = iter(circuit.gates)
    gates.__setstate__(lo)  # a list iterator starts at lo in O(1)
    emit_gates(gates if hi is None else islice(gates, hi - lo), sink)


def emit_gates(gates: Iterable[tuple], sink) -> None:
    """Feed (kind, controls, target) triples into a sink.

    A sink with run_ops takes the whole block in one call. Otherwise this is
    the one GateKind -> sink method dispatch (Circuit, LoweringSink).
    """
    if hasattr(sink, "run_ops"):
        return sink.run_ops(gates)
    x, cx, ccx, mcx = sink.x, sink.cx, sink.ccx, sink.mcx
    X, CX, CCX = _X, _CX, _CCX
    for k, c, t in gates:
        if k == CCX:
            ccx(c[0], c[1], t)
        elif k == CX:
            cx(c[0], t)
        elif k == X:
            x(t)
        else:
            mcx(c, t)


# --------------------------------------------------------------------------
# multi-control lowering


def emit_mcx(sink, controls: tuple[int, ...], target: int, dirty: int | None = None) -> None:
    """Emit a multi-controlled NOT, lowering k >= 3 controls to Toffolis.

    A 3-controlled NOT costs exactly 4 Toffolis and borrows one dirty qubit
    in an unknown state, which is restored. Larger k recurses by splitting
    off one control, reusing the target as scratch for the inner gate, so
    the cost grows as 4**(k-2); the artifact itself never emits k > 3.
    """
    k = len(controls)
    if k <= 2:
        emit_controlled_x(sink, controls, target)
        return
    if dirty is None:
        raise CircuitError(f"lowering a {k}-controlled NOT needs a dirty qubit")
    if dirty == target or dirty in controls:
        raise CircuitError("dirty qubit must not touch the gate being lowered")
    head, tail = controls[:-1], controls[-1]
    # toggle trick: target ^= tail & (dirty ^ head-AND) twice leaves
    # target ^= AND(all controls) and restores dirty
    if k == 3:
        sink.ccx(tail, dirty, target)
        sink.ccx(head[0], head[1], dirty)
        sink.ccx(tail, dirty, target)
        sink.ccx(head[0], head[1], dirty)
    else:
        sink.ccx(tail, dirty, target)
        emit_mcx(sink, head, dirty, target)
        sink.ccx(tail, dirty, target)
        emit_mcx(sink, head, dirty, target)


# --------------------------------------------------------------------------
# text format

_KIND_NAMES = {GateKind.X: "x", GateKind.CX: "cx", GateKind.CCX: "ccx", GateKind.MCX: "mcx"}
_NAME_KINDS = {v: k for k, v in _KIND_NAMES.items()}


def circuit_to_text(circuit: Circuit) -> str:
    """Serialize a circuit.

    Line 1 is `width <w>`; each following line is one gate, controls first,
    target last: `x t`, `cx c t`, `ccx c1 c2 t`, `mcx c1 ... ck t`.
    """
    lines = [f"width {circuit.width}"]
    for g in circuit.gates:
        lines.append(" ".join([_KIND_NAMES[g.kind], *map(str, g.controls), str(g.target)]))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Parse circuit_to_text's format; errors name the raw line, counting
    blanks and comments. Each distinct gate line is parsed and validated
    once, and its repeats share that immutable Gate."""
    lines = ((n, ln) for n, ln in enumerate(map(str.strip, text.splitlines()), start=1)
             if ln and not ln.startswith("#"))
    _, head = next(lines, (0, ""))
    if not head.startswith("width "):
        raise CircuitError("first line must be `width <w>`")
    try:
        _, width = head.split()
        width = int(width)
    except ValueError as exc:
        raise CircuitError("malformed width line") from exc
    circ = Circuit(width)
    parsed: dict[str, Gate] = {}
    for lineno, ln in lines:
        gate = parsed.get(ln)
        if gate is None:
            parts = ln.split()
            kind = _NAME_KINDS.get(parts[0])
            if kind is None:
                raise CircuitError(f"line {lineno}: unknown gate {parts[0]!r}")
            try:
                qubits = [int(p) for p in parts[1:]]
            except ValueError as exc:
                raise CircuitError(f"line {lineno}: non-integer qubit") from exc
            if not qubits:
                raise CircuitError(f"line {lineno}: missing target")
            gate = parsed[ln] = Gate(kind, tuple(qubits[:-1]), qubits[-1])
            _check_gate(kind, gate.controls, gate.target, width)
        circ.gates.append(gate)
    return circ
