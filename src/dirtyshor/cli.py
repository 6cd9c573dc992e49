"""Command-line front door: synthesize, simulate, scale, factor, fault-scan.

Every randomized code path draws from the single --seed flag, so identical
invocations print identical bytes (the one exception is the wall-time
seconds column of `scale`, which is informational).
"""
from __future__ import annotations

import argparse
import math
import sys

from .adders import AdderSpec, SynthesisError, carry_circuit, comparator, const_adder
from .circuits import Circuit, CircuitError, circuit_from_text, circuit_to_text
from .faultlab import (
    FaultError,
    InconclusiveError,
    call_bound,
    fault_localize,
    inject,
    parse_faults,
    random_vectors,
)
from .modular import ModMulSpec, NotCoprimeError, mod_adder, ctrl_modmul_inplace
from .resources import report, rows_to_csv, scaling_table
from .revsim import SimulationError, prefix_states, run as rev_run
from .shor import format_transcript, shor_factor, shor_period_finding, validate_modulus

_SYNTH_KINDS = ("carry", "add", "cadd", "cmp", "modadd", "modmul")
DEFAULT_SCALE_SIZES = (8, 16, 32, 64, 128, 256, 512)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dirtyshor",
        description="Toffoli arithmetic on dirty ancillae: synthesis, simulation, "
        "resource scaling, factoring, fault scans.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a circuit to the text format")
    p.add_argument("kind", choices=_SYNTH_KINDS, help="circuit family")
    p.add_argument("--n", type=int, help="register width in qubits (carry/add/cadd/cmp)")
    p.add_argument("--c", type=int, help="classical constant (carry/add/cadd/cmp)")
    p.add_argument("--N", type=int, help="modulus (modadd/modmul)")
    p.add_argument("--a", type=int, help="addend or multiplier (modadd/modmul)")
    p.add_argument("--ctrls", type=int, default=0, help="number of control qubits (0-2)")
    p.add_argument("--mode", choices=("serial", "parallel"), default="serial")
    p.add_argument("--pool", type=int, default=2, help="dirty pool size for add/cadd")
    p.add_argument("--out", help="write circuit text here; default stdout")

    p = sub.add_parser("sim", help="run a circuit file on a basis state")
    p.add_argument("--circuit", required=True, help="circuit text file")
    p.add_argument("--input", required=True, help="bit string, qubit 0 first")

    p = sub.add_parser("scale", help="Toffoli-count scaling table as CSV")
    p.add_argument("--harness", choices=("adder", "modmul"), required=True)
    p.add_argument("--sizes", help="comma-separated bit sizes, ascending "
                   f"(default {','.join(map(str, DEFAULT_SCALE_SIZES))})")
    p.add_argument("--mode", choices=("serial", "parallel"), default="serial")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write CSV here; default stdout")

    p = sub.add_parser("shor", help="factor N via simulated period finding")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--a", type=int, help="fixed base; omit to sample from --seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=16)

    p = sub.add_parser("faultscan", help="inject faults, test triggering, localize")
    p.add_argument("--circuit", required=True, help="circuit text file")
    p.add_argument("--faults", required=True, help="fault lines file")
    p.add_argument("--vectors", type=int, default=5, help="random test vectors")
    p.add_argument("--seed", type=int, default=0)
    return top


def _emit_circuit_output(circ: Circuit, out_path: str | None) -> None:
    text = circuit_to_text(circ)
    rep = report(circ)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(rep)
    else:
        sys.stdout.write(text)
        print(rep, file=sys.stderr)


def _require(args: argparse.Namespace, names: tuple[str, ...], kind: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"synth {kind} requires --{name}")


def _cmd_synth(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind in ("carry", "cmp"):
        _require(args, ("n", "c"), kind)
        n = args.n
        a = tuple(range(n))
        g = tuple(range(n, 2 * n - 1))
        target = 2 * n - 1
        ctrls = tuple(range(2 * n, 2 * n + args.ctrls))
        build = carry_circuit if kind == "carry" else comparator
        circ = build(args.c, a, g, target, ctrls)
    elif kind in ("add", "cadd"):
        _require(args, ("n", "c"), kind)
        n_ctrls = args.ctrls if kind == "cadd" else 0
        if kind == "cadd" and n_ctrls == 0:
            n_ctrls = 1
        spec = AdderSpec.standard(args.n, args.c, pool_size=args.pool,
                                  n_ctrls=n_ctrls, mode=args.mode)
        circ = const_adder(spec)
    elif kind == "modadd":
        _require(args, ("N", "a"), kind)
        n = args.N.bit_length()
        b = tuple(range(n))
        g = tuple(range(n, 2 * n - 1))
        ind = 2 * n - 1
        ctrls = tuple(range(2 * n, 2 * n + args.ctrls))
        circ = mod_adder(args.a, args.N, b, g, ind, ctrls, mode=args.mode)
    else:  # modmul
        _require(args, ("N", "a"), kind)
        circ = ctrl_modmul_inplace(ModMulSpec.standard(args.a, args.N, mode=args.mode))
    _emit_circuit_output(circ, args.out)
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    with open(args.circuit) as fh:
        circ = circuit_from_text(fh.read())
    bits = args.input.strip()
    if len(bits) != circ.width or set(bits) - {"0", "1"}:
        raise ValueError(f"--input must be {circ.width} chars of 0/1, qubit 0 first")
    value = sum((b == "1") << i for i, b in enumerate(bits))
    out = rev_run(circ, value)
    print("".join("1" if (out >> i) & 1 else "0" for i in range(circ.width)))
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    if args.sizes:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    else:
        sizes = list(DEFAULT_SCALE_SIZES)
    rows = scaling_table(sizes, harness=args.harness, mode=args.mode, seed=args.seed)
    csv = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_shor(args: argparse.Namespace) -> int:
    N = args.N
    validate_modulus(N)
    n = N.bit_length()
    print(f"# note: the {2 * n} semiclassical phase rotations are applied exactly; "
          "under Clifford+T each costs Theta(log(1/eps)) extra gates")
    if args.a is not None:
        g = math.gcd(args.a, N)
        if g not in (1, N):
            print(f"y=none r=none factors={min(g, N // g)},{max(g, N // g)}")
            return 0
        run = shor_period_finding(N, args.a, seed=args.seed)
        sys.stdout.write(format_transcript(run))
        return 0 if run.factors else 1
    outcome = shor_factor(N, attempts=args.attempts, seed=args.seed)
    for k, run in enumerate(outcome.runs, start=1):
        print(f"attempt={k} a={run.a}")
        sys.stdout.write(format_transcript(run))
    if outcome.factors is None:
        print(f"no factors within {args.attempts} attempts", file=sys.stderr)
        return 1
    return 0


def _cmd_faultscan(args: argparse.Namespace) -> int:
    with open(args.circuit) as fh:
        circ = circuit_from_text(fh.read())
    with open(args.faults) as fh:
        faults = parse_faults(fh.read())
    executor = inject(circ, faults)
    vectors = random_vectors(circ.width, args.vectors, args.seed)
    triggered = 0
    for v in vectors:
        golden = prefix_states(circ, v)[-1]
        if executor.run(0, executor.n_gates, v) != golden:
            triggered += 1
    print(f"gates={len(circ.gates)} width={circ.width} faults={len(faults)}")
    print(f"triggered={triggered}/{len(vectors)}")
    if triggered:
        before = executor.calls
        ranges = fault_localize(executor, circ, vectors)
        used = executor.calls - before
        print("ranges=" + ";".join(f"{lo}:{hi}" for lo, hi in ranges))
        print(f"calls={used} bound={call_bound(len(circ.gates), len(vectors))}")
    else:
        print("ranges=none")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "sim": _cmd_sim,
    "scale": _cmd_scale,
    "shor": _cmd_shor,
    "faultscan": _cmd_faultscan,
}

_KNOWN_ERRORS = (
    CircuitError,
    SynthesisError,
    SimulationError,
    NotCoprimeError,
    FaultError,
    InconclusiveError,
    ValueError,
    OSError,
    MemoryError,
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
