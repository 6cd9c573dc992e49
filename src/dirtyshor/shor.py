"""Small-width statevector simulation and the semiclassical factoring loop.

The period-finding register is replaced by one recycled control qubit:
each of the 2n iterations Hadamards it, applies the controlled modular
multiplication by a^(2^(2n-1-i)), rotates by a phase assembled from the
bits already measured, Hadamards again and measures. The measured bits,
least significant first, form the phase-estimation outcome y, which
continued fractions turn into an order candidate and the usual
gcd(a^(r/2) +- 1, N) step turns into factors.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .modular import ModMulSpec, ctrl_modmul_inplace, multiplier_constants
from .revsim import LANE_CAP, SimulationError, permutation_table

SV_WIDTH_CAP = 26
NORM_TOL = 1e-10
_SQRT_HALF = math.sqrt(0.5)


class Statevector:
    """Dense 2^width amplitude vector, norm-checked after every operation."""

    __slots__ = ("width", "amps")

    def __init__(self, width: int, value: int = 0):
        if width < 1 or width > SV_WIDTH_CAP:
            raise SimulationError(f"width {width} outside 1..{SV_WIDTH_CAP}")
        if not 0 <= value < (1 << width):
            raise SimulationError(f"basis value {value} out of range")
        self.width = width
        self.amps = np.zeros(1 << width, dtype=np.complex128)
        self.amps[value] = 1.0

    def copy(self) -> "Statevector":
        out = Statevector.__new__(Statevector)
        out.width = self.width
        out.amps = self.amps.copy()
        return out

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def _check_norm(self) -> None:
        if abs(self.norm() - 1.0) > NORM_TOL:
            raise SimulationError(f"state norm {self.norm()} drifted past tolerance")

    def _view(self, q: int) -> np.ndarray:
        # axis 1 of the reshape is qubit q (little endian)
        return self.amps.reshape(-1, 2, 1 << q)

    def apply_controlled_x(self, controls: tuple[int, ...], target: int) -> None:
        if not controls:
            v = self._view(target)
            v[:, [0, 1], :] = v[:, [1, 0], :]
        else:
            idx = np.arange(len(self.amps), dtype=np.int64)
            cmask = sum(1 << c for c in controls)
            self.amps = self.amps[np.where(idx & cmask == cmask, idx ^ 1 << target, idx)]
        self._check_norm()

    def apply_permutation(self, perm: np.ndarray) -> None:
        """Route amplitude i to basis index perm[i]."""
        if len(perm) != len(self.amps):
            raise SimulationError("permutation size does not match state")
        out = np.empty_like(self.amps)
        out[perm] = self.amps
        self.amps = out
        self._check_norm()

    def hadamard(self, q: int) -> None:
        v = self._view(q)
        a0 = v[:, 0, :].copy()
        a1 = v[:, 1, :]
        v[:, 0, :] = (a0 + a1) * _SQRT_HALF
        v[:, 1, :] = (a0 - a1) * _SQRT_HALF
        self._check_norm()

    def phase_shift(self, theta: float, q: int) -> None:
        self._view(q)[:, 1, :] *= cmath.exp(1j * theta)
        self._check_norm()

    def probability(self, q: int, bit: int = 1) -> float:
        """P(qubit q measures bit), summed from that branch's own amplitudes."""
        v = self._view(q)[:, bit, :]
        return float(np.sum(v.real**2 + v.imag**2))

    def measure(self, q: int, rng: np.random.Generator | None = None, forced: int | None = None) -> int:
        if forced is not None:
            bit = forced
        else:
            if rng is None:
                raise SimulationError("measurement needs an rng or a forced outcome")
            bit = 1 if rng.random() < self.probability(q) else 0
        # the kept branch's own mass; 1 - p1 cancels catastrophically when p1 is near 1
        p = self.probability(q, bit)
        if p <= 0.0:
            raise SimulationError(f"outcome {bit} on qubit {q} has zero probability")
        v = self._view(q)
        v[:, 1 - bit, :] = 0.0
        self.amps *= 1.0 / math.sqrt(p)
        self._check_norm()
        return bit


# --------------------------------------------------------------------------
# semiclassical phase estimation driver


def semiclassical_angle(k: int, bits) -> float:
    """Phase correction before the k-th measurement from earlier bits:
    theta_k = -pi * sum_{j<k} m_j 2^(j-k)."""
    s = sum(bits[j] * 2.0 ** (j - k) for j in range(k))
    return -math.pi * s if s else 0.0


@dataclass(frozen=True)
class ShorRun:
    """One period-finding attempt: measured bits (m_0 least significant),
    the outcome y, the order candidate, any factors it yielded and the
    2n+2 qubits of the circuit it simulates."""

    N: int
    a: int
    seed: int | None
    bits: tuple[int, ...]
    y: int | None
    r: int | None
    factors: tuple[int, int] | None
    width: int


def _multiplier_tables(N: int, a: int, count: int) -> list[np.ndarray]:
    """Per constant c, the multiplier as a permutation of x (qubits 0..n-1)
    and ctrl (qubit n). Its circuit runs on the 2N inputs phase estimation
    can reach (x < N, work = ind = 0) and must return work and ind to 0,
    keep ctrl, and map x to c*x mod N under ctrl and to x without."""
    n = N.bit_length()
    x = np.arange(N, dtype=np.int64)
    ctrl = np.int64(1) << (2 * n + 1)
    inputs = np.concatenate([x, x | ctrl])
    half = 1 << n
    cache: dict[int, np.ndarray] = {}
    tables = []
    for c in multiplier_constants(a, N, count):
        if c not in cache:
            out = permutation_table(ctrl_modmul_inplace(ModMulSpec.standard(c, N)), inputs)
            bad = np.flatnonzero(out != np.concatenate([x, x * c % N | ctrl]))
            if len(bad):
                raise SimulationError(f"multiplier by {c} mod {N} is wrong on {len(bad)} of "
                                      f"{2 * N} reachable inputs, first {int(inputs[bad[0]]):#x}")
            table = np.arange(2 * half, dtype=np.int64)
            table[half:half + N] = half | out[N:] & (half - 1)
            cache[c] = table
        tables.append(cache[c])
    return tables


def _check_lanes(N: int) -> None:
    """The one size limit: each multiplier table runs its 2N reachable inputs as lanes."""
    if 2 * N > LANE_CAP:
        raise SimulationError(f"N={N} needs {2 * N} table lanes, over the {LANE_CAP} cap")


def _phase_estimation_setup(N: int, a: int) -> tuple[int, list[np.ndarray]]:
    """n and the 2n multiplier tables, after the gcd and lane checks."""
    if math.gcd(a, N) != 1:
        raise ValueError(f"a={a} shares a factor with N={N}")
    _check_lanes(N)
    n = N.bit_length()
    return n, _multiplier_tables(N, a, 2 * n)


def _semiclassical_step(sv: Statevector, tables: list[np.ndarray], i: int,
                        bits: list[int], ctrl: int) -> None:
    """Iteration i up to its measurement: H, multiply by a^(2^(t-1-i)), rotate, H."""
    sv.hadamard(ctrl)
    sv.apply_permutation(tables[-1 - i])
    sv.phase_shift(semiclassical_angle(i, bits), ctrl)
    sv.hadamard(ctrl)


def shor_period_finding(
    N: int,
    a: int,
    seed: int | None = 0,
    rng: np.random.Generator | None = None,
) -> ShorRun:
    """Sample one 2n-bit phase-estimation outcome of the 2n+2-qubit circuit,
    simulated on x and the recycled control (see _multiplier_tables)."""
    n, tables = _phase_estimation_setup(N, a)
    t = 2 * n
    ctrl = n
    if rng is None:
        rng = np.random.default_rng(seed)
    sv = Statevector(n + 1, value=1)  # multiplication register starts at |1>
    bits: list[int] = []
    for i in range(t):
        _semiclassical_step(sv, tables, i, bits, ctrl)
        m = sv.measure(ctrl, rng)
        if m:
            sv.apply_controlled_x((), ctrl)  # recycle: reset to |0>
        bits.append(m)
    y = sum(b << i for i, b in enumerate(bits))
    r = continued_fraction_order(y, 1 << t, N, a)
    return ShorRun(
        N=N, a=a, seed=seed, bits=tuple(bits), y=y, r=r,
        factors=order_to_factors(a, r, N), width=2 * n + 2,
    )


def exact_outcome_distribution(N: int, a: int) -> dict[int, float]:
    """Probability of every 2n-bit outcome y, by branching both results of
    each measurement instead of sampling one."""
    n, tables = _phase_estimation_setup(N, a)
    t = 2 * n
    ctrl = n
    dist: dict[int, float] = {}
    start = Statevector(n + 1, value=1)

    def branch(sv: Statevector, i: int, bits: list[int], prob: float) -> None:
        if i == t:
            y = sum(b << j for j, b in enumerate(bits))
            dist[y] = dist.get(y, 0.0) + prob
            return
        _semiclassical_step(sv, tables, i, bits, ctrl)
        for m in (0, 1):
            p = sv.probability(ctrl, m)
            if p <= 1e-18:
                continue
            nxt = sv.copy()
            nxt.measure(ctrl, forced=m)
            if m:
                nxt.apply_controlled_x((), ctrl)
            bits.append(m)
            branch(nxt, i + 1, bits, prob * p)
            bits.pop()

    branch(start, 0, [], 1.0)
    return dist


# --------------------------------------------------------------------------
# classical post-processing


def continued_fraction_order(y: int, Q: int, N: int, a: int) -> int | None:
    """Order candidate from the convergents of y/Q.

    Walks convergent denominators q < N in ascending order; each is
    refined by doubling (q, 2q, 4q, ... < N) because the measured phase
    may land on a convergent whose denominator divides the order. Returns
    the first candidate r with a^r = 1 mod N, or None.
    """
    if not 0 <= y < Q:
        raise ValueError(f"y={y} outside [0, {Q})")
    if y == 0:
        return None
    num, den = y, Q
    k_prev, k_last = 1, 0
    while den:
        term = num // den
        num, den = den, num % den
        k = term * k_last + k_prev
        k_prev, k_last = k_last, k
        if k >= N:
            break
        cand = k
        while 0 < cand < N:
            if pow(a, cand, N) == 1:
                return cand
            cand *= 2
    return None


def order_to_factors(a: int, r: int | None, N: int) -> tuple[int, int] | None:
    """gcd(a^(r/2) +- 1, N) when r is even and a^(r/2) != -1 mod N."""
    if r is None or r % 2:
        return None
    h = pow(a, r // 2, N)
    if h == N - 1:
        return None
    for d in (math.gcd(h - 1, N), math.gcd(h + 1, N)):
        if 1 < d < N:
            return tuple(sorted((d, N // d)))  # type: ignore[return-value]
    return None


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def _prime_power_root(n: int) -> int | None:
    for k in range(2, n.bit_length() + 1):
        root = round(n ** (1.0 / k))
        for cand in (root - 1, root, root + 1):
            if cand > 1 and cand**k == n:
                return cand
    return None


@dataclass(frozen=True)
class ShorOutcome:
    N: int
    seed: int
    factors: tuple[int, int] | None
    runs: tuple[ShorRun, ...] = field(default_factory=tuple)

    @property
    def attempts_used(self) -> int:
        return len(self.runs)


def validate_modulus(N: int) -> None:
    """Reject inputs the factoring loop cannot help with: even numbers,
    primes, prime powers, and anything over the table lane cap."""
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be an odd integer >= 3")
    _check_lanes(N)  # before trial division, which is slow on large N
    if _is_prime(N):
        raise ValueError(f"N={N} is prime")
    root = _prime_power_root(N)
    if root is not None:
        raise ValueError(f"N={N} is a prime power of {root}")


def shor_factor(N: int, attempts: int = 16, seed: int = 0) -> ShorOutcome:
    """Repeatedly pick a, shortcut on gcd, otherwise run period finding.

    Requires N odd, composite and not a prime power; every random draw
    comes from the one seeded generator, so outcomes are reproducible.
    """
    validate_modulus(N)
    rng = np.random.default_rng(seed)
    runs: list[ShorRun] = []
    for _ in range(attempts):
        a = int(rng.integers(2, N - 1))
        g = math.gcd(a, N)
        if g > 1:
            factors = tuple(sorted((g, N // g)))
            runs.append(ShorRun(N=N, a=a, seed=None, bits=(), y=None, r=None,
                                factors=factors, width=2 * N.bit_length() + 2))
            return ShorOutcome(N=N, seed=seed, factors=factors, runs=tuple(runs))
        run = shor_period_finding(N, a, seed=None, rng=rng)
        runs.append(run)
        if run.factors is not None:
            return ShorOutcome(N=N, seed=seed, factors=run.factors, runs=tuple(runs))
    return ShorOutcome(N=N, seed=seed, factors=None, runs=tuple(runs))


def format_transcript(run: ShorRun) -> str:
    """Line-oriented record: one `i= m= theta=` line per iteration, then
    the summary `y= r= factors=` line."""
    lines = []
    for i, m in enumerate(run.bits):
        lines.append(f"i={i} m={m} theta={semiclassical_angle(i, run.bits)}")
    y = run.y if run.y is not None else "none"
    r = run.r if run.r is not None else "none"
    f = f"{run.factors[0]},{run.factors[1]}" if run.factors else "none"
    lines.append(f"y={y} r={r} factors={f}")
    return "\n".join(lines) + "\n"
