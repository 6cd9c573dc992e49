"""The four benchmark workloads: inputs from a seed, one operation, its check.

Each workload builds one round of operations from its seed during set-up.
A run repeats that round whole, so every run attempts the same operations
in the same proportions and a per-round count repeats exactly however long
the run lasts. The first operation of the round doubles as the untimed
warm-up.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random

from dirtyshor import cli
from dirtyshor.circuits import CountingSink, StateSink, TeeSink
from dirtyshor.faultlab import random_vectors
from dirtyshor.modular import ModMulSpec, emit_ctrl_modmul
from dirtyshor.resources import report
from dirtyshor.shor import exact_outcome_distribution, shor_period_finding

import reference as ref


def _coprime_below(rng: random.Random, modulus: int) -> int:
    while True:
        a = rng.randrange(2, modulus - 1)
        if math.gcd(a, modulus) == 1:
            return a


def _odd_composites(bits: int) -> list[int]:
    return [N for N in range(1 << (bits - 1) | 1, 1 << bits, 2) if not ref.is_prime_power(N)]


def _quiet(argv: list[str]) -> tuple[int, str]:
    """Run the dirtyshor command line in process, capturing what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _tally(circuits) -> tuple[int, int, int, int]:
    reps = [report(c) for c in circuits]
    return (sum(r.toffoli_count for r in reps), sum(r.cnot_count for r in reps),
            sum(r.not_count for r in reps), sum(r.depth for r in reps))


class Modmul:
    """Streaming synthesis of one controlled multiplier, as `dirtyshor scale` runs it.

    The gates go to a CountingSink and two StateSinks at once: one with
    ctrl=1 that must end at a*x mod N, one with ctrl=0 that must not move.
    Each size appears once with the worst-case constants (N = 2^n - 1, the
    densest a) and once with a random odd n-bit modulus and random coprime a.
    """

    SIZES = (32, 48, 64)

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"modmul/{seed}")
        self.round = []
        for n in self.SIZES:
            worst = (1 << n) - 1
            self.round.append((n, worst, ref.worst_case_multiplier(n), rng.randrange(worst), True))
            modulus = rng.getrandbits(n) | 1 << (n - 1) | 1
            self.round.append((n, modulus, _coprime_below(rng, modulus), rng.randrange(modulus), False))

    def run(self, op):
        n, modulus, a, x, _ = op
        spec = ModMulSpec.standard(a, modulus)
        counter = CountingSink(spec.width)
        on, off = StateSink(x | 1 << spec.ctrl), StateSink(x)
        emit_ctrl_modmul(TeeSink(counter, on, off), spec)
        return counter, on.state, off.state

    def check(self, op, out) -> list[str]:
        n, modulus, a, x, worst = op
        counter, on, off = out
        return ref.check_modmul(n, modulus, a, x, on, off, counter.width_touched,
                                counter.toffoli, worst)

    def tally(self, op, out, built) -> tuple[int, int, int, int]:
        c = out[0]
        return c.toffoli, c.cnot, c.not_, c.depth


class Factor:
    """One sampled period-finding run per operation.

    One 7-bit pair and three 6-bit pairs per round. Each distinct constant
    a^(2^i) mod N costs one multiplier circuit and one permutation table,
    so bases are drawn among those with the same number of distinct
    constants (two at 7 bits, four at 6 bits); that keeps the work of a
    round within a few percent across seeds. The 7-bit pair comes first and
    is the warm-up: the first 2^16-entry tables in a process run about
    twice as slow as later ones (see README), and no timed operation
    should pay that.
    """

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"factor/{seed}")

        def pairs(bits: int, distinct: int):
            return [(N, a) for N in _odd_composites(bits) for a in range(2, N - 1)
                    if math.gcd(a, N) == 1 and ref.distinct_multipliers(a, N) == distinct]

        picks = [rng.choice(pairs(7, 2))] + rng.sample(pairs(6, 4), 3)
        self.round = [(N, a, rng.randrange(1 << 31)) for N, a in picks]

    def run(self, op):
        N, a, s = op
        return shor_period_finding(N, a, seed=s)

    def check(self, op, out) -> list[str]:
        N, a, _ = op
        return ref.check_factor(N, a, out.y, out.r, out.factors)

    def tally(self, op, out, built):
        return _tally(built)


class OutcomeDist:
    """Exact outcome distribution by branching every measurement.

    All six N = 21 bases of order 6 (1024 outcomes each) in seeded order,
    then one seeded N = 15 base; every base of 15 has a power-of-two order.
    Inputs with other orders are left out: their tiny branches trip the
    statevector norm check (see README).
    """

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"outcome-dist/{seed}")
        order6 = [a for a in range(2, 20) if math.gcd(a, 21) == 1
                  and ref.multiplicative_order(a, 21) == 6]
        pow2 = [a for a in range(2, 14) if math.gcd(a, 15) == 1]
        self.round = [(21, a) for a in rng.sample(order6, len(order6))]
        self.round.append((15, rng.choice(pow2)))
        self.reference = {op: ref.textbook_distribution(*op) for op in self.round}

    def run(self, op):
        return exact_outcome_distribution(*op)

    def check(self, op, out) -> list[str]:
        return ref.check_distribution(*op, out, self.reference[op])

    def tally(self, op, out, built):
        return _tally(built)


class Faultscan:
    """One in-process `dirtyshor faultscan` with one injected fault.

    Set-up synthesizes, with `dirtyshor synth`, the worst-case controlled
    multiplier at n = 16 (N = 2^16 - 1, the densest a) and the all-ones
    constant adder at n = 512, so the circuits are the same for every seed.
    Each circuit gets one seeded bitflip (always triggers) and one missing
    gate, moved forward from a seeded index to the first gate the seeded
    vectors make act, so every fault triggers. The reference simulator
    here decides that, not the program.
    """

    VECTORS = 4

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"faultscan/{seed}")
        circuits = {
            "modmul16": ["synth", "modmul", "--N", str((1 << 16) - 1),
                         "--a", str(ref.worst_case_multiplier(16))],
            "add512": ["synth", "add", "--n", "512", "--c", str((1 << 512) - 1)],
        }
        self.circuits = {}
        self.round = []
        for key, argv in circuits.items():
            path = os.path.join(workdir, f"{key}.txt")
            code, printed = _quiet(argv + ["--out", path])
            if code:
                raise RuntimeError(f"dirtyshor {' '.join(argv)} exited {code}")
            fields = dict(part.split("=") for part in printed.split())
            with open(path) as fh:
                width, gates = ref.parse_circuit(fh.read())
            self.circuits[key] = (path, width, len(gates), tuple(
                int(fields[k]) for k in ("toffoli", "cnot", "not", "depth")))
            flip = rng.randrange(len(gates))
            self.round.append(self._fault(workdir, key, f"bitflip {flip} {rng.randrange(width)}",
                                          flip, rng.randrange(1 << 31), self.VECTORS))
            vseed = rng.randrange(1 << 31)
            index, hits = self._acting_gate(gates, width, rng.randrange(len(gates)), vseed)
            self.round.append(self._fault(workdir, key, f"missing {index}", index, vseed, hits))

    def _acting_gate(self, gates, width, start, vseed):
        """First gate at or after `start` (wrapping once) that flips its target
        on some vector; returns its index and on how many vectors it acts."""
        vectors = random_vectors(width, self.VECTORS, vseed)
        for lo in (start, 0):
            states = [ref.simulate(gates, v, 0, lo) for v in vectors]
            for i in range(lo, len(gates)):
                controls, target = gates[i]
                hits = sum(ref.fires(controls, s) for s in states)
                if hits:
                    return i, hits
                # the gate acted on no vector, so the states are unchanged
        raise RuntimeError("no gate acts on the seeded vectors")

    @staticmethod
    def _fault(workdir, key, line, index, vseed, triggered):
        path = os.path.join(workdir, f"fault-{key}-{line.split()[0]}.txt")
        with open(path, "w") as fh:
            fh.write(line + "\n")
        return key, path, index, vseed, triggered

    def run(self, op):
        key, fault_path, _, vseed, _ = op
        return _quiet(["faultscan", "--circuit", self.circuits[key][0], "--faults", fault_path,
                       "--vectors", str(self.VECTORS), "--seed", str(vseed)])

    def check(self, op, out) -> list[str]:
        key, _, index, _, triggered = op
        _, width, n_gates, _ = self.circuits[key]
        code, printed = out
        return ref.check_faultscan(printed, code, n_gates, width, index, self.VECTORS, triggered)

    def tally(self, op, out, built):
        return self.circuits[op[0]][3]


WORKLOADS = {"modmul": Modmul, "factor": Factor, "outcome-dist": OutcomeDist,
             "faultscan": Faultscan}
