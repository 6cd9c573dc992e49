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
