"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports dirtyshor: every expected value is recomputed from
Python integers, the textbook phase-estimation formula or an independent
reading of the circuit text format, so a fault in the program cannot hide
behind the same fault in its own check.

Each `check_*` function returns a list of problems; an empty list means
the output is correct.
"""
from __future__ import annotations

import math

# Worst-case multiplier Toffoli counts, as a share of 32 n^2 log2 n. The
# README records the band; measured ratios are 0.912 (n=32), 0.918 (n=48)
# and 0.927 (n=64).
TOFFOLI_BAND = (0.88, 0.96)
TV_LIMIT = 1e-9


def multiplicative_order(a: int, modulus: int) -> int:
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit mod {modulus}")
    r, v = 1, a % modulus
    while v != 1:
        v = v * a % modulus
        r += 1
    return r


def distinct_multipliers(a: int, modulus: int) -> int:
    """How many different constants a^(2^i) mod N the 2n rounds multiply by."""
    seen, c = set(), a % modulus
    for _ in range(2 * modulus.bit_length()):
        seen.add(c)
        c = c * c % modulus
    return len(seen)


def is_prime_power(n: int) -> bool:
    """True for primes and their powers (and 1)."""
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return True


def worst_case_multiplier(n: int) -> int:
    """Densest a coprime to 2^n - 1, scanning up from the pattern 0101...01."""
    modulus = (1 << n) - 1
    a = sum(1 << i for i in range(0, n, 2))
    while math.gcd(a, modulus) != 1:
        a += 1
    return a


# --------------------------------------------------------------------------
# modmul


def check_modmul(n: int, modulus: int, a: int, x: int, on_state: int, off_state: int,
                 width_touched: int, toffoli: int, worst_case: bool) -> list[str]:
    """|x, work=0, ind=0, ctrl> after one controlled in-place multiplier.

    Layout is ModMulSpec.standard: x on qubits 0..n-1, work on n..2n-1,
    ind on 2n and ctrl on 2n+1.
    """
    problems = []
    mask = (1 << n) - 1
    ctrl_bit = 1 << (2 * n + 1)
    want_on = (a * x % modulus) | ctrl_bit
    if on_state != want_on:
        got_x, got_work = on_state & mask, (on_state >> n) & mask
        got_ind = (on_state >> (2 * n)) & 1
        problems.append(f"ctrl=1: x={got_x} work={got_work} ind={got_ind}, "
                        f"want x={a * x % modulus} work=0 ind=0")
    if off_state != x:
        problems.append(f"ctrl=0: state {off_state:#x} changed from {x:#x}")
    if width_touched != 2 * n + 2:
        problems.append(f"touched {width_touched} qubits, want {2 * n + 2}")
    if worst_case:
        ratio = toffoli / (32 * n * n * math.log2(n))
        if not TOFFOLI_BAND[0] <= ratio <= TOFFOLI_BAND[1]:
            problems.append(f"worst-case Toffoli ratio {ratio:.4f} outside {TOFFOLI_BAND}")
    return problems


# --------------------------------------------------------------------------
# factor


def check_factor(modulus: int, a: int, y: int | None, r: int | None,
                 factors: tuple[int, int] | None) -> list[str]:
    problems = []
    n = modulus.bit_length()
    q = 1 << (2 * n)
    order = multiplicative_order(a, modulus)
    if y is None or not 0 <= y < q:
        problems.append(f"outcome y={y} outside [0, {q})")
    elif order & (order - 1) == 0 and y % (q // order):
        problems.append(f"order {order} is a power of two but y={y} is not a multiple of {q // order}")
    if r is not None:
        if pow(a, r, modulus) != 1:
            problems.append(f"returned r={r} but {a}^{r} mod {modulus} != 1")
        if r % order:
            problems.append(f"returned r={r} is not a multiple of the order {order}")
    if factors is not None:
        p, s = factors
        if not (1 < p < modulus and 1 < s < modulus and p * s == modulus):
            problems.append(f"factors {factors} are not a non-trivial split of {modulus}")
    return problems


# --------------------------------------------------------------------------
# outcome distribution


def _fejer(num: int, r: int, q: int) -> float:
    """F_Q(delta) for delta = num / (q r): |(1/Q) sum_j e^(2 pi i j delta)|^2."""
    num %= q * r
    if num == 0:
        return 1.0
    if num % r == 0:  # Q delta is a whole number: the sum cancels exactly
        return 0.0
    s = math.sin(math.pi * num / r)
    d = math.sin(math.pi * num / (q * r))
    return (s * s) / (q * q * d * d)


def textbook_distribution(modulus: int, a: int) -> dict[int, float]:
    """P(y) = (1/r) sum_k F_Q(y/Q - k/r) over the 2n-bit outcomes y.

    Phase estimation on |1> = r^(-1/2) sum_k |u_k> with Q = 2^(2n); the
    semiclassical loop samples exactly this distribution.
    """
    r = multiplicative_order(a, modulus)
    q = 1 << (2 * modulus.bit_length())
    out = {}
    for y in range(q):
        p = sum(_fejer(y * r - k * q, r, q) for k in range(r)) / r
        if p > 0.0:
            out[y] = p
    return out


def total_variation(p: dict[int, float], q: dict[int, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def check_distribution(modulus: int, a: int, dist: dict[int, float],
                       reference: dict[int, float] | None = None) -> list[str]:
    if reference is None:
        reference = textbook_distribution(modulus, a)
    q = 1 << (2 * modulus.bit_length())
    problems = [f"outcome {y} outside [0, {q})" for y in dist if not 0 <= y < q]
    tv = total_variation(dist, reference)
    if not tv <= TV_LIMIT:
        problems.append(f"total-variation distance {tv:.3e} to the textbook distribution")
    return problems


# --------------------------------------------------------------------------
# faultscan

_ARITY = {"x": 0, "cx": 1, "ccx": 2}


def parse_circuit(text: str) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """(width, [(controls, target), ...]) from the `width <w>` text format."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0][0] != "width":
        raise ValueError("circuit text must start with `width <w>`")
    gates = []
    for parts in lines[1:]:
        qubits = tuple(int(p) for p in parts[1:])
        if parts[0] in _ARITY and len(qubits) != _ARITY[parts[0]] + 1:
            raise ValueError(f"malformed gate line {' '.join(parts)!r}")
        gates.append((qubits[:-1], qubits[-1]))
    return int(lines[0][1]), gates


def fires(controls: tuple[int, ...], state: int) -> bool:
    return all((state >> c) & 1 for c in controls)


def simulate(gates, state: int, lo: int, hi: int) -> int:
    for controls, target in gates[lo:hi]:
        if fires(controls, state):
            state ^= 1 << target
    return state


def call_bound(n_gates: int, n_vectors: int) -> int:
    """2V(ceil(log2 G) + 1): one top-level pass and two half runs per level."""
    rounds = max(1, math.ceil(math.log2(n_gates))) if n_gates > 1 else 1
    return 2 * n_vectors * (rounds + 1)


def check_faultscan(output: str, exit_code: int, n_gates: int, width: int, index: int,
                    n_vectors: int, triggered: int) -> list[str]:
    """One injected fault at gate `index` that `triggered` of the vectors expose."""
    fields = {}
    for line in output.splitlines():
        for part in line.split():
            key, _, value = part.partition("=")
            fields[key] = value
    want = {
        "gates": str(n_gates),
        "width": str(width),
        "faults": "1",
        "triggered": f"{triggered}/{n_vectors}",
        "ranges": f"{index}:{index + 1}",
        "bound": str(call_bound(n_gates, n_vectors)),
    }
    problems = [f"exit code {exit_code}"] if exit_code else []
    if triggered <= 0:
        problems.append("fault triggers on no vector")
    for key, value in want.items():
        if fields.get(key) != value:
            problems.append(f"{key}={fields.get(key)}, want {value}")
    try:
        calls = int(fields["calls"])
    except (KeyError, ValueError):
        problems.append(f"calls={fields.get('calls')} is not a count")
    else:
        if not 0 < calls <= call_bound(n_gates, n_vectors):
            problems.append(f"calls={calls} over the bound {call_bound(n_gates, n_vectors)}")
    return problems
