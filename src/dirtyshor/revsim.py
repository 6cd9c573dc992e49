"""Bit-exact simulation of reversible-pure circuits.

A basis state is one python int, bit i = qubit i, so a gate costs O(1)
machine-word work per 64 qubits and registers of thousands of qubits stay
cheap. permutation_table vectorizes the same semantics over every basis
state at once for small widths, which is what exhaustive tests and the
phase estimation driver use.

Each simulator is a sink fed by circuits.emit_circuit.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .circuits import Circuit, CircuitError, RegisterMap, StateSink, emit_circuit

_PERM_WIDTH_CAP = 22  # 2**22 int64 entries = 32 MiB, enough for every test


class SimulationError(ValueError):
    pass


class BasisState:
    """Packed-bit computational basis state with optional register views."""

    __slots__ = ("value", "width", "regs")

    def __init__(self, width: int, value: int = 0, regs: RegisterMap | None = None):
        if width < 1:
            raise SimulationError("width must be positive")
        if not 0 <= value < 1 << width:
            raise SimulationError("value does not fit the declared width")
        if regs is not None and regs.width != width:
            raise SimulationError("register map width mismatch")
        self.value = value
        self.width = width
        self.regs = regs

    def get(self, name: str) -> int:
        if self.regs is None:
            raise SimulationError("no register map attached")
        return self.regs.value(self.value, name)

    def set(self, name: str, v: int) -> "BasisState":
        if self.regs is None:
            raise SimulationError("no register map attached")
        return BasisState(self.width, self.regs.with_value(self.value, name, v), self.regs)

    def bit(self, q: int) -> int:
        return (self.value >> q) & 1

    def __eq__(self, other) -> bool:
        return isinstance(other, BasisState) and self.value == other.value and self.width == other.width

    def __repr__(self) -> str:
        return f"BasisState(width={self.width}, value={self.value:#x})"


def _emit(circuit: Circuit, sink) -> None:
    try:
        emit_circuit(circuit, sink)
    except CircuitError as exc:
        raise SimulationError(str(exc)) from exc


def run(circuit: Circuit, state: int | BasisState) -> int | BasisState:
    """Apply every gate; returns the same type it was given."""
    wrapped = isinstance(state, BasisState)
    s = state.value if wrapped else state
    if s >> circuit.width:
        raise SimulationError("state has bits beyond the circuit width")
    sink = StateSink(s)
    _emit(circuit, sink)
    if wrapped:
        return BasisState(state.width, sink.state, state.regs)
    return sink.state


class _PrefixSink(StateSink):
    """StateSink that also appends the state after every gate to a list."""

    __slots__ = ("states",)

    def __init__(self, state: int):
        super().__init__(state)
        self.states = [state]

    def x(self, t: int) -> None:
        StateSink.x(self, t)
        self.states.append(self.state)

    def cx(self, c: int, t: int) -> None:
        StateSink.cx(self, c, t)
        self.states.append(self.state)

    def ccx(self, c1: int, c2: int, t: int) -> None:
        StateSink.ccx(self, c1, c2, t)
        self.states.append(self.state)

    def mcx(self, controls: tuple[int, ...], t: int) -> None:
        StateSink.mcx(self, controls, t)
        self.states.append(self.state)


def prefix_states(circuit: Circuit, state: int) -> list[int]:
    """All len(circuit)+1 prefix states in one pass."""
    sink = _PrefixSink(state)
    _emit(circuit, sink)
    return sink.states


class PermSink:
    """Streams gates over all 2**width basis states at once (numpy int64)."""

    __slots__ = ("vals",)

    def __init__(self, width: int):
        if width > _PERM_WIDTH_CAP:
            raise SimulationError(f"permutation table capped at width {_PERM_WIDTH_CAP}")
        self.vals = np.arange(1 << width, dtype=np.int64)

    def x(self, t: int) -> None:
        self.vals ^= 1 << t

    def cx(self, c: int, t: int) -> None:
        v = self.vals
        v ^= ((v >> c) & 1) << t

    def ccx(self, c1: int, c2: int, t: int) -> None:
        v = self.vals
        v ^= ((v >> c1) & (v >> c2) & 1) << t

    def mcx(self, controls: tuple[int, ...], t: int) -> None:
        v = self.vals
        acc = (v >> controls[0]) & 1
        for c in controls[1:]:
            acc &= (v >> c) & 1
        v ^= acc << t


def permutation_table(circuit: Circuit) -> np.ndarray:
    """perm[s] = circuit(s) for every basis state s; width-capped."""
    sink = PermSink(circuit.width)
    _emit(circuit, sink)
    return sink.vals


def check_restores(perm: np.ndarray, qubits: Iterable[int]) -> bool:
    """True when the permutation leaves every listed qubit bit-identical."""
    v = np.arange(len(perm), dtype=np.int64)
    for q in qubits:
        if (((perm >> q) ^ (v >> q)) & 1).any():
            return False
    return True
