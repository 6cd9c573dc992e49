"""Toffoli-based modular arithmetic on dirty ancillae, with a factoring driver.

Layering, bottom up: `circuits` (gate IR, sinks with whole-block
`run_ops`, lowering, `emit_gates`), `revsim` (runs on lanes), `adders`
(carry / incrementer / constant adder on borrowed qubits), `modular`
(modular adder and the 2n+2-qubit controlled multiplier), `resources`
(counts, depth, scaling fits), `shor` (statevector backend and
semiclassical factoring loop), `faultlab` (fault injection and bisection
localization), `cli`.
"""

from .adders import (
    AdderSpec,
    SynthesisError,
    carry_circuit,
    comparator,
    const_adder,
    ctrl_incrementer,
    incrementer,
    inplace_add,
    t_add_recursion,
)
from .circuits import (
    Circuit,
    CircuitError,
    CountingSink,
    Gate,
    GateKind,
    circuit_from_text,
    circuit_to_text,
)
from .faultlab import (
    FaultSpec,
    InconclusiveError,
    SegmentExecutor,
    fault_detect,
    fault_localize,
    inject,
    parse_faults,
)
from .modular import (
    ModMulSpec,
    NotCoprimeError,
    ctrl_modmul_inplace,
    mod_adder,
    mod_inverse,
    multiplier_constants,
)
from .resources import (
    ResourceReport,
    ScalingRow,
    fit_leading_coefficient,
    report,
    scaling_table,
    shor_projection,
)
from .revsim import SimulationError, permutation_table, prefix_states, run
from .shor import (
    ShorOutcome,
    ShorRun,
    Statevector,
    continued_fraction_order,
    exact_outcome_distribution,
    format_transcript,
    shor_factor,
    shor_period_finding,
)

__version__ = "0.1.0"
