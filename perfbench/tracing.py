"""Span recorders wrapped around dirtyshor's layer boundaries.

Each public function is wrapped where its caller looks it up: the module
attribute a calling module reads (`modular.emit_const_add` for the
modular adder, `adders.emit_const_add` for the recursion), a method on a
class, or the command table of the command line. A span's self time is
its duration minus the time its child spans cover; the benchmark's own
root span per operation takes what no layer claims. Counts are taken in
the same wrappers.

Spans are folded into per-operation totals as they close, so memory
stays flat however many spans an operation opens.
"""
from __future__ import annotations

import time
from collections import defaultdict

TIME_METRICS = (
    "circuits.replay_s", "circuits.parse_s",
    "adders.const_add_s", "adders.carry_s", "adders.incrementer_s", "adders.comparator_s",
    "modular.mod_adder_s", "modular.circuit_build_s",
    "revsim.perm_table_s", "revsim.prefix_s",
    "shor.loop_s", "shor.statevector_s", "shor.postprocess_s",
    "faultlab.segment_s", "faultlab.bisect_s",
    "cli.faultscan_s",
    "bench.unattributed_s",
)
COUNT_METRICS = (
    "circuits.replayed_ops", "circuits.lowered_mcx",
    "circuits.toffoli", "circuits.cnot", "circuits.not", "circuits.depth",
    "adders.const_add_calls", "modular.mod_adder_calls",
    "revsim.perm_tables", "revsim.perm_states", "revsim.prefix_calls", "revsim.prefix_states",
    "shor.sv_ops", "shor.sv_amplitudes",
    "faultlab.segment_calls", "faultlab.segment_gates",
)
_SV_METHODS = ("copy", "hadamard", "apply_permutation", "phase_shift", "measure",
               "probability", "apply_controlled_x")


class Tracer:
    """Installs the span wrappers and books self time and counts per operation.

    The wrappers stay for the life of the process; a traced worker runs
    nothing else.
    """

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.built: list = []  # circuits materialized during the operation
        # the bottom frame absorbs spans closed outside any operation
        self._stack: list[list[float]] = [[0.0]]

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, span: str, fn, on_exit=None):
        stack, self_s, perf = self._stack, self.self_s, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][0] += dt
                self_s[span] += dt - frame[0]
            if on_exit is not None:
                on_exit(args, result)
            return result

        return traced

    def _count(self, name):
        counts = self.counts

        def bump(args, result):
            counts[name] += 1

        return bump

    def _patch(self, owner, attr, span, on_exit=None):
        if isinstance(owner, dict):
            owner[attr] = self._wrap(span, owner[attr], on_exit)
        else:
            setattr(owner, attr, self._wrap(span, getattr(owner, attr), on_exit))

    def install(self) -> None:
        from dirtyshor import adders, circuits, cli, faultlab, modular, shor

        import workloads

        counts = self.counts

        def replayed(args, result):
            counts["circuits.replayed_ops"] += len(args[0].ops)

        def table(args, result):
            counts["revsim.perm_tables"] += 1
            counts["revsim.perm_states"] += len(result)

        def prefix(args, result):
            counts["revsim.prefix_calls"] += 1
            counts["revsim.prefix_states"] += len(result)

        def sv(args, result):
            counts["shor.sv_ops"] += 1
            counts["shor.sv_amplitudes"] += len(args[0].amps)

        def segment(args, result):
            counts["faultlab.segment_calls"] += 1
            counts["faultlab.segment_gates"] += args[2] - args[1]

        def built(args, result):
            self.built.append(result)

        for attr in ("replay", "replay_reversed"):
            self._patch(circuits.RecordingSink, attr, "circuits.replay_s", replayed)
        self._patch(cli, "circuit_from_text", "circuits.parse_s")
        for module in (adders, modular):
            self._patch(module, "emit_const_add", "adders.const_add_s",
                        self._count("adders.const_add_calls"))
            self._patch(module, "emit_comparator", "adders.comparator_s")
        self._patch(adders, "emit_carry", "adders.carry_s")
        self._patch(adders, "emit_ctrl_incrementer", "adders.incrementer_s")
        self._patch(modular, "emit_mod_adder", "modular.mod_adder_s",
                    self._count("modular.mod_adder_calls"))
        self._patch(shor, "ctrl_modmul_inplace", "modular.circuit_build_s", built)
        self._patch(shor, "permutation_table", "revsim.perm_table_s", table)
        for module in (cli, faultlab):
            self._patch(module, "prefix_states", "revsim.prefix_s", prefix)
        for attr in _SV_METHODS:
            self._patch(shor.Statevector, attr, "shor.statevector_s", sv)
        for attr in ("shor_period_finding", "exact_outcome_distribution"):
            self._patch(workloads, attr, "shor.loop_s")
        for attr in ("continued_fraction_order", "order_to_factors"):
            self._patch(shor, attr, "shor.postprocess_s")
        self._patch(faultlab.SegmentExecutor, "run", "faultlab.segment_s", segment)
        self._patch(cli, "fault_localize", "faultlab.bisect_s")
        self._patch(cli._COMMANDS, "faultscan", "cli.faultscan_s")

        # lowering is counted, not timed: its work lands in the sink below it
        lower = circuits.LoweringSink.mcx

        def mcx(sink, controls, t):
            if len(controls) >= 3:
                counts["circuits.lowered_mcx"] += 1
            return lower(sink, controls, t)

        circuits.LoweringSink.mcx = mcx

    def run_op(self, fn, op):
        """Run fn(op) under the root span; returns (result, wall seconds).

        The per-operation totals in self_s, counts and built start empty.
        """
        self.self_s.clear()
        self.counts.clear()
        self.built.clear()
        root = [0.0]
        self._stack.append(root)
        t0 = time.perf_counter()
        try:
            out = fn(op)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.self_s["bench.unattributed_s"] += dt - root[0]
        return out, dt
