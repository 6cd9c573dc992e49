"""Statevector backend, semiclassical phase estimation and the factoring loop."""

import math

import numpy as np
import pytest

from dirtyshor import shor
from dirtyshor.adders import AdderSpec, const_adder
from dirtyshor.circuits import Circuit, Gate, GateKind
from dirtyshor.faultlab import FaultSpec, inject
from dirtyshor.modular import ModMulSpec, ctrl_modmul_inplace, emit_modmul_forward, mod_adder
from dirtyshor.revsim import SimulationError, permutation_table, run
from dirtyshor.shor import (
    SV_WIDTH_CAP,
    ShorRun,
    Statevector,
    continued_fraction_order,
    exact_outcome_distribution,
    format_transcript,
    order_to_factors,
    semiclassical_angle,
    shor_factor,
    shor_period_finding,
    validate_modulus,
)

SQ2 = math.sqrt(0.5)
SHOR_TV_TOL = 1e-9  # criterion 5's bound


# --------------------------------------------------------------------------
# statevector backend


def test_statevector_width_cap():
    assert Statevector(1).width == 1
    with pytest.raises(SimulationError):
        Statevector(0)
    with pytest.raises(SimulationError):
        Statevector(SV_WIDTH_CAP + 1)


def test_statevector_basis_value_range():
    sv = Statevector(3, value=5)
    assert sv.amps[5] == 1.0
    with pytest.raises(SimulationError):
        Statevector(3, value=8)


def test_hadamard_is_self_inverse():
    sv = Statevector(3, value=5)
    before = sv.amps.copy()
    sv.hadamard(1)
    sv.hadamard(1)
    assert np.allclose(sv.amps, before, atol=1e-12)


def test_phase_shift_hits_only_the_one_component():
    sv = Statevector(1)
    sv.hadamard(0)
    sv.phase_shift(math.pi / 2, 0)
    assert np.allclose(sv.amps, [SQ2, SQ2 * 1j], atol=1e-12)


def test_probability_and_forced_measure():
    sv = Statevector(2)
    sv.hadamard(0)
    assert abs(sv.probability(0) - 0.5) < 1e-12
    assert abs(sv.probability(1)) < 1e-12
    bit = sv.measure(0, forced=1)
    assert bit == 1
    assert abs(sv.norm() - 1.0) < 1e-12
    assert np.allclose(sv.amps, [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_measure_zero_probability_outcome_raises():
    sv = Statevector(1)
    with pytest.raises(SimulationError):
        sv.measure(0, forced=1)


def test_measure_needs_rng_or_forced():
    sv = Statevector(1)
    with pytest.raises(SimulationError):
        sv.measure(0)
    assert sv.measure(0, rng=np.random.default_rng(0)) == 0


def test_permutation_size_is_checked():
    sv = Statevector(2)
    with pytest.raises(SimulationError):
        sv.apply_permutation(np.arange(8))


@pytest.mark.parametrize(
    "circ",
    [
        const_adder(AdderSpec.standard(3, 5)),
        mod_adder(3, 7, (0, 1, 2), (3, 4), 5),
    ],
    ids=["const-adder", "mod-adder"],
)
def test_statevector_agrees_with_bit_simulator(circ):
    perm = permutation_table(circ)
    for v in range(1 << circ.width):
        sv = Statevector(circ.width, v)
        for g in circ.gates:
            sv.apply_controlled_x(g.controls, g.target)
        assert abs(sv.amps[perm[v]] - 1.0) < 1e-12


# --------------------------------------------------------------------------
# semiclassical angles


def test_semiclassical_angles():
    z = semiclassical_angle(0, ())
    assert z == 0.0 and math.copysign(1.0, z) == 1.0
    assert semiclassical_angle(1, (1,)) == -math.pi / 2
    assert semiclassical_angle(2, (1, 1)) == -math.pi * 0.75
    assert semiclassical_angle(3, (0, 0, 0)) == 0.0


# --------------------------------------------------------------------------
# exact outcome distributions


def test_distribution_n15_a7_uniform_on_four_peaks():
    dist = exact_outcome_distribution(15, 7)
    assert set(dist) == {0, 64, 128, 192}
    tv = 0.5 * sum(abs(p - 0.25) for p in dist.values())
    assert tv <= 1e-9


def test_distribution_n15_a4_two_peaks():
    dist = exact_outcome_distribution(15, 4)
    assert set(dist) == {0, 128}
    assert abs(dist[0] - 0.5) <= 1e-9
    assert abs(dist[128] - 0.5) <= 1e-9


def test_distribution_n21_a2_order_six():
    # order 6: only phases 0 and 1/2 are representable in 10 bits, so y=0
    # and y=512 each carry their eigenvector's exact 1/6 plus tiny tails
    # leaked by the four irrational-phase eigenvectors
    dist = exact_outcome_distribution(21, 2)
    assert abs(sum(dist.values()) - 1.0) <= 1e-9
    for y in (0, 512):
        assert dist[y] >= 1 / 6 - 1e-12
        assert abs(dist[y] - 1 / 6) <= 2e-5
    # the nearest integers to Q k/6 for k in {1,2,4,5} are the next peaks
    for y in (171, 341, 683, 853):
        assert dist[y] > 0.11


def test_distribution_survives_near_certain_measurements():
    # N=21, a=4 reaches nearly certain measurements, where 1 - p1 cannot
    # resolve the unlikely branch; renormalizing by it tripped the norm check
    dist = exact_outcome_distribution(21, 4)
    assert abs(sum(dist.values()) - 1.0) <= 1e-12


def _order(a: int, N: int) -> int:
    r, x = 1, a % N
    while x != 1:
        x = x * a % N
        r += 1
    return r


def _textbook_probability(N: int, a: int, ys) -> np.ndarray:
    """P(y) of textbook phase estimation on |1> = r^(-1/2) sum_s |u_s>:
    (1/r) sum_s sin^2(pi Q d_s) / (Q^2 sin^2(pi d_s)), d_s = s/r - y/Q,
    with a term of 1 where d_s = 0. The semiclassical loop must sample the
    same distribution (Griffiths and Niu, PRL 76, 3228, 1996)."""
    r = _order(a, N)
    Q = 1 << (2 * N.bit_length())
    ys = np.asarray(ys, dtype=np.int64)
    p = np.zeros(len(ys))
    for s in range(r):
        k = s * Q - ys * r  # r Q d_s, an exact integer
        peak = k == 0
        den = np.where(peak, 1.0, Q**2 * np.sin(np.pi * k / (r * Q)) ** 2)
        p += np.where(peak, 1.0, np.sin(np.pi * k / r) ** 2 / den)
    return p / r


def _near_peak(y: int, r: int, Q: int) -> bool:
    """|y/Q - s/r| <= 1/Q for some s; ideal phase estimation lands there
    with probability at least 8/pi^2."""
    s = (2 * y * r + Q) // (2 * Q)
    return abs(y * r - s * Q) <= r


def test_distribution_matches_textbook_oracle():
    # orders 3, 6, 10 and 18: none divides Q, so every phase correction counts
    for N, a in ((21, 2), (21, 4), (21, 5), (21, 10), (21, 11), (21, 16), (21, 17), (21, 19),
                 (33, 5), (57, 2)):
        Q = 1 << (2 * N.bit_length())
        got = np.zeros(Q)
        for y, p in exact_outcome_distribution(N, a).items():
            got[y] = p
        tv = 0.5 * np.abs(got - _textbook_probability(N, a, np.arange(Q))).sum()
        assert tv <= SHOR_TV_TOL, (N, a, tv)


def test_sampled_outcomes_land_near_textbook_peaks():
    # order 6 at 9 bits; a uniform y would land near a peak with odds 2r/Q
    N, a = 427, 13
    r, Q = _order(a, N), 1 << (2 * N.bit_length())
    ys = [shor_period_finding(N, a, seed=s).y for s in range(32)]
    assert sum(_near_peak(y, r, Q) for y in ys) / len(ys) >= 0.6


def test_distribution_rejects_shared_factor():
    with pytest.raises(ValueError):
        exact_outcome_distribution(15, 6)


# --------------------------------------------------------------------------
# classical post-processing


def test_continued_fraction_order_examples():
    assert continued_fraction_order(192, 256, 15, 7) == 4
    assert continued_fraction_order(128, 256, 15, 7) == 4  # doubled from q=2
    assert continued_fraction_order(171, 1024, 21, 2) == 6
    assert continued_fraction_order(0, 256, 15, 7) is None
    with pytest.raises(ValueError):
        continued_fraction_order(256, 256, 15, 7)
    with pytest.raises(ValueError):
        continued_fraction_order(-1, 256, 15, 7)


def test_order_to_factors():
    assert order_to_factors(7, 4, 15) == (3, 5)
    assert order_to_factors(2, 6, 21) == (3, 7)
    assert order_to_factors(7, None, 15) is None
    assert order_to_factors(7, 3, 15) is None  # odd order
    assert order_to_factors(14, 2, 15) is None  # a^(r/2) = N-1


def test_validate_modulus():
    for N in (15, 21, 33, 4095, 4097, 2097151):
        validate_modulus(N)
    for bad in (1, 16, -3):
        with pytest.raises(ValueError):
            validate_modulus(bad)
    for prime in (13, 17):
        with pytest.raises(ValueError):
            validate_modulus(prime)
    for pp in (9, 25, 27, 49):
        with pytest.raises(ValueError):
            validate_modulus(pp)
    with pytest.raises(SimulationError, match="table lanes"):
        validate_modulus(2097153)  # 3^2 * 43 * 5419: 2N is over the lane cap
    with pytest.raises(SimulationError, match="table lanes"):
        validate_modulus((1 << 61) - 1)  # a prime, refused by size before trial division


# --------------------------------------------------------------------------
# period finding and the driver


def test_period_finding_is_deterministic():
    r1 = shor_period_finding(15, 7, seed=3)
    r2 = shor_period_finding(15, 7, seed=3)
    assert r1 == r2
    assert r1.width == 10
    assert len(r1.bits) == 8
    assert r1.y == sum(b << i for i, b in enumerate(r1.bits))


@pytest.mark.parametrize("N", [1073, 4089])
def test_period_finding_past_the_exhaustive_table_cap(N):
    # 2n+2 = 24 and 26 qubits: over the width-22 cap of exhaustive tables
    n = N.bit_length()
    run_ = shor_period_finding(N, 2)
    assert run_.width == 2 * n + 2
    assert 0 <= run_.y < 1 << (2 * n)
    assert run_.r is None or pow(2, run_.r, N) == 1


def test_period_finding_factors_a_16_bit_modulus():
    # 251 * 257 with a base of order 20; every one of the six distinct
    # multipliers is checked on all 2N reachable inputs
    N, a = 64507, 1526
    run_ = shor_period_finding(N, a, seed=2)
    assert _near_peak(run_.y, _order(a, N), 1 << 32)
    assert run_.factors == (251, 257)


def test_period_finding_checks_lanes_before_synthesis(monkeypatch):
    def build(spec):
        raise AssertionError("synthesized a multiplier past the lane cap")

    monkeypatch.setattr(shor, "ctrl_modmul_inplace", build)
    with pytest.raises(SimulationError, match="table lanes"):
        shor_period_finding(2097153, 2)


def _corrupt(circ: Circuit, fault: FaultSpec) -> Circuit:
    gates = list(circ.gates)
    if fault.kind == "missing":
        del gates[fault.index]
    else:
        gates.insert(fault.index + 1, Gate(GateKind.X, (), fault.qubit))
    return Circuit(circ.width, gates)


@pytest.mark.parametrize("kind", ["missing", "bitflip"])
def test_corrupted_multiplier_is_rejected(monkeypatch, kind):
    spec = ModMulSpec.standard(7, 15)
    circ = ctrl_modmul_inplace(spec)
    if kind == "missing":  # the first Toffoli of the controlled swap
        forward = Circuit(spec.width)
        emit_modmul_forward(forward, spec)
        fault = FaultSpec("missing", len(forward.gates) + 1)
    else:  # dirties work qubit 0 after the last gate
        fault = FaultSpec("bitflip", len(circ.gates) - 1, spec.work[0])
    assert kind == "bitflip" or circ.gates[fault.index].kind == GateKind.CCX
    bad = _corrupt(circ, fault)
    ex = inject(circ, [fault])
    reachable = [x | 1 << spec.ctrl for x in range(15)]
    assert [ex.run(0, len(circ.gates), s) for s in reachable] == [run(bad, s) for s in reachable]
    assert any(run(bad, s) != run(circ, s) for s in reachable)
    monkeypatch.setattr(shor, "ctrl_modmul_inplace",
                        lambda s: bad if s.a == 7 else ctrl_modmul_inplace(s))
    with pytest.raises(SimulationError, match="reachable inputs"):
        shor_period_finding(15, 7)


def test_period_finding_rejects_shared_factor():
    with pytest.raises(ValueError):
        shor_period_finding(15, 5)


def test_shor_factor_15():
    out = shor_factor(15, seed=0)
    assert out.factors == (3, 5)
    assert out.attempts_used == 1
    assert all(run.width == 10 for run in out.runs if run.y is not None)


def test_shor_factor_21():
    out = shor_factor(21, seed=0)
    assert out.factors == (3, 7)
    assert out.attempts_used == 2
    assert all(run.width == 12 for run in out.runs if run.y is not None)


def test_shor_factor_rejects_bad_modulus():
    # the gate is validate_modulus; spot-check one input of each class
    with pytest.raises(ValueError):
        shor_factor(16)
    with pytest.raises(ValueError):
        shor_factor(13)
    with pytest.raises(ValueError):
        shor_factor(25)
    with pytest.raises(SimulationError):
        shor_factor(2097153)


def test_transcript_format():
    run = ShorRun(
        N=15, a=7, seed=0, bits=(0, 1), y=2, r=4, factors=(3, 5), width=10
    )
    text = format_transcript(run)
    lines = text.splitlines()
    assert lines[0] == "i=0 m=0 theta=0.0"
    assert lines[1].startswith("i=1 m=1 theta=")
    assert lines[-1] == "y=2 r=4 factors=3,5"
    empty = ShorRun(N=15, a=3, seed=None, bits=(), y=None, r=None, factors=None, width=10)
    assert format_transcript(empty) == "y=none r=none factors=none\n"
