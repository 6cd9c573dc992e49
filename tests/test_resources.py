"""Gate accounting, scaling rows, model fits and the whole-run projection."""

import math

import pytest

from dirtyshor import resources
from dirtyshor.adders import SynthesisError, emit_const_add, t_add_recursion
from dirtyshor.circuits import Circuit, CircuitError, CountingSink, LoweringSink
from dirtyshor.modular import ModMulSpec, emit_ctrl_modmul
from dirtyshor.resources import (
    CSV_HEADER,
    ResourceReport,
    ScalingRow,
    fit_leading_coefficient,
    report,
    rows_to_csv,
    scaling_table,
    shor_projection,
    worst_case_constant,
    worst_case_modulus,
    worst_case_multiplier,
)


# --------------------------------------------------------------------------
# report


def test_report_single_toffoli():
    circ = Circuit(3)
    circ.ccx(0, 1, 2)
    rep = report(circ)
    assert rep.toffoli_count == 1
    assert rep.t_count == 7
    assert rep.gate_count == 1
    assert rep.depth == 1
    assert rep.width == 3
    assert str(rep) == "toffoli=1 t=7 cnot=0 not=0 depth=1 width=3"


def test_report_empty_circuit():
    rep = report(Circuit(5))
    assert rep == ResourceReport(0, 0, 0, 0, 0)


def _build(width: int, *gates):
    circ = Circuit(width)
    for name, *args in gates:
        getattr(circ, name)(*args)
    return circ


def test_report_depth_layering():
    assert report(_build(2, ("x", 0), ("x", 1))).depth == 1
    assert report(_build(2, ("x", 0), ("x", 0))).depth == 2
    # CX on (0,1) blocks both qubits, the following X(2) still fits layer 1
    assert report(_build(3, ("cx", 0, 1), ("x", 2))).depth == 1


def test_report_rejects_mcx():
    circ = _build(5, ("mcx", (0, 1, 2), 3))
    with pytest.raises(CircuitError):
        report(circ)


def test_report_is_stable():
    circ = _build(4, ("ccx", 0, 1, 2), ("cx", 2, 3), ("x", 0))
    assert report(circ) == report(circ)


# --------------------------------------------------------------------------
# scaling table


def test_adder_rows_match_recursion():
    rows = scaling_table([8, 16, 32], harness="adder")
    assert [r.toffoli for r in rows] == [t_add_recursion(n) for n in (8, 16, 32)]
    assert all(r.seconds >= 0 for r in rows)


def test_modmul_rows_match_direct_count():
    rows = scaling_table([8, 16, 32], harness="modmul")
    assert [r.toffoli for r in rows] == sorted(r.toffoli for r in rows)
    assert rows[0].toffoli < rows[1].toffoli < rows[2].toffoli
    spec = ModMulSpec.standard(worst_case_multiplier(8), worst_case_modulus(8))
    counter = CountingSink(spec.width)
    emit_ctrl_modmul(counter, spec)
    assert rows[0].toffoli == counter.toffoli
    assert rows[0].depth == counter.depth


@pytest.mark.parametrize("ctrl_value", (0, 1))
def test_modmul_row_checks_both_control_values(monkeypatch, ctrl_value):
    # a mutant multiplier that flips x's low bit exactly when ctrl == ctrl_value
    def mutant(sink, spec):
        emit_ctrl_modmul(sink, spec)
        if ctrl_value == 0:
            sink.x(spec.ctrl)
        sink.cx(spec.ctrl, spec.x[0])
        if ctrl_value == 0:
            sink.x(spec.ctrl)

    monkeypatch.setattr(resources, "emit_ctrl_modmul", mutant)
    with pytest.raises(SynthesisError, match="verification mismatch"):
        scaling_table([8], harness="modmul")


def test_adder_row_checks_dirty_pool_bits(monkeypatch):
    # a mutant adder that flips x's low bit only where four dirty-pool bits are all 0,
    # which one random input misses 15 times in 16
    def mutant(sink, c, bits, pool, ctrls, mode):
        emit_const_add(sink, c, bits, pool, ctrls, mode)
        for q in pool[:4]:
            sink.x(q)
        LoweringSink(sink, bits[1:2]).mcx(pool[:4], bits[0])
        for q in pool[:4]:
            sink.x(q)

    monkeypatch.setattr(resources, "emit_const_add", mutant)
    for seed in range(4):
        with pytest.raises(SynthesisError, match="verification mismatch"):
            scaling_table([8], harness="adder", mode="parallel", seed=seed)


def test_scaling_table_memory_error_propagates(monkeypatch):
    real = resources._HARNESSES["adder"]

    def harness(n, mode, rng):
        if n == 16:
            raise MemoryError("out of memory at n=16")
        return real(n, mode, rng)

    monkeypatch.setitem(resources._HARNESSES, "adder", harness)
    with pytest.raises(MemoryError):
        scaling_table([8, 16, 32], harness="adder")


def test_scaling_table_validation():
    with pytest.raises(ValueError):
        scaling_table([16, 8], harness="adder")
    with pytest.raises(ValueError):
        scaling_table([8], harness="grover")
    for sizes in ([0, 4], [-2], [0]):
        with pytest.raises(ValueError, match="at least 1"):
            scaling_table(sizes, harness="adder")


def test_rows_to_csv_format():
    rows = [ScalingRow(n=8, toffoli=136, depth=99, seconds=0.12345)]
    assert rows_to_csv(rows) == CSV_HEADER + "\n8,136,99,0.123\n"


def test_worst_case_helpers():
    assert worst_case_constant(4) == 15
    assert worst_case_modulus(6) == 63
    # scan starts at the alternating pattern and moves to the next coprime
    assert worst_case_multiplier(4) == 7
    assert worst_case_multiplier(6) == 22
    assert worst_case_multiplier(8) == 86
    for n in (4, 6, 8, 10):
        assert math.gcd(worst_case_multiplier(n), worst_case_modulus(n)) == 1


# --------------------------------------------------------------------------
# fits


def _synthetic_rows(k: float, sizes=(64, 128, 256, 512)):
    return [
        ScalingRow(n=n, toffoli=int(k * n * n * math.log2(n)), depth=0, seconds=0.0)
        for n in sizes
    ]


def test_fit_recovers_exact_coefficient():
    # 32 n^2 log2 n is an exact integer at powers of two, so k comes back exact
    k = fit_leading_coefficient(_synthetic_rows(32), "n2logn")
    assert abs(k - 32.0) < 1e-9


def test_fit_drops_rows_below_cutoff():
    rows = [ScalingRow(n=4, toffoli=10**9, depth=0, seconds=0.0)] + _synthetic_rows(32)
    k = fit_leading_coefficient(rows, "n2logn")
    assert abs(k - 32.0) < 1e-9


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_leading_coefficient(_synthetic_rows(32, sizes=(64, 128)), "n2logn")
    with pytest.raises(ValueError):
        fit_leading_coefficient(_synthetic_rows(32), "exp")


# --------------------------------------------------------------------------
# whole-run projection and depth trend


def test_shor_projection_ratio_at_64():
    rep = shor_projection(64)
    assert rep.width == 2 * 64 + 2
    ratio = rep.toffoli_count / (64 * 64**3 * math.log2(64))
    assert 0.7 <= ratio <= 1.3
    # 2n rounds of the worst-case multiplier, summed
    spec = ModMulSpec.standard(worst_case_multiplier(64), worst_case_modulus(64))
    counter = CountingSink(spec.width)
    emit_ctrl_modmul(counter, spec)
    assert rep.toffoli_count == 2 * 64 * counter.toffoli
    assert rep.depth == 2 * 64 * counter.depth


def test_parallel_multiplier_depth_per_toffoli_decreases():
    rows = scaling_table([16, 32, 64], harness="modmul", mode="parallel")
    ratios = [r.depth / r.toffoli for r in rows]
    assert ratios[0] > ratios[1] > ratios[2]
