"""The benchmark imports program names and its tracer wraps others by name;
every one must resolve, or `perfbench/run.py` breaks."""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path[:0] = [{perfbench!r}, {src!r}]
    import tracing
    from dirtyshor import modular

    tracer = tracing.Tracer()
    tracer.install()
    n = 5
    tracer.run_op(lambda _: modular.mod_adder(2, 21, range(n), range(n, 2 * n - 1), 2 * n - 1,
                                              (2 * n, 2 * n + 1)), None)
    counts = tracer.counts
    assert counts["circuits.replayed_ops"] > 0, dict(counts)
    assert counts["circuits.lowered_mcx"] > 0, dict(counts)
    assert counts["modular.mod_adder_calls"] == 1, dict(counts)
    assert tracer.self_s["adders.comparator_s"] > 0, dict(tracer.self_s)
    print("ok")
    """
)

_FAULTSCAN_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, os, sys, tempfile
    sys.path[:0] = [{perfbench!r}, {src!r}]
    import tracing
    from dirtyshor import cli

    tracer = tracing.Tracer()
    tracer.install()
    with tempfile.TemporaryDirectory() as tmp:
        circ, faults = os.path.join(tmp, "c.txt"), os.path.join(tmp, "f.txt")
        with open(circ, "w") as fh:
            fh.write("width 4\\nx 3\\ncx 3 2\\nccx 0 1 2\\nx 3\\n")
        with open(faults, "w") as fh:
            fh.write("missing 2\\n")
        argv = ["faultscan", "--circuit", circ, "--faults", faults, "--vectors", "4"]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code, _ = tracer.run_op(lambda _: cli.main(argv), None)
    assert code == 0
    assert "triggered=2/4\\nranges=2:3\\n" in printed.getvalue(), printed.getvalue()
    assert tracer.self_s["cli.faultscan_s"] > 0, dict(tracer.self_s)
    assert tracer.self_s["faultlab.bisect_s"] > 0, dict(tracer.self_s)
    assert tracer.counts["faultlab.segment_calls"] > 0, dict(tracer.counts)
    assert tracer.counts["revsim.prefix_calls"] == 0, dict(tracer.counts)
    print("ok")
    """
)


def _run(script: str) -> None:
    script = script.format(perfbench=os.path.join(ROOT, "perfbench"), src=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_tracer_patches_resolve():
    _run(_SCRIPT)


def test_workloads_import():
    _run("import sys\nsys.path[:0] = [{perfbench!r}, {src!r}]\nimport workloads\nprint('ok')")


def test_traced_faultscan_books_its_layers():
    _run(_FAULTSCAN_SCRIPT)
