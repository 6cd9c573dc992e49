"""Smoke runs of the scripts under scripts/, as a user would start them."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_factor_demo():
    out = _script("factor_demo.py", "--N", "15", "21")
    assert "N=15 = 3 * 5" in out
    assert "N=21 = 3 * 7" in out


def test_reproduce_scaling(tmp_path):
    out = _script("reproduce_scaling.py", "--max-m", "5", "--out-dir", str(tmp_path))
    for harness in ("adder", "modmul"):
        csv = (tmp_path / f"scaling_{harness}_serial.csv").read_text().splitlines()
        assert csv[0] == "n,toffoli,depth,seconds"
        assert [row.split(",")[0] for row in csv[1:]] == ["8", "16", "32"]
    assert out.count("fit: toffoli ~=") == 2


def test_time_lanes():
    out = _script("time_lanes.py", "--repeat", "1", "--table-log", "8").splitlines()
    assert [line.split(":")[0] for line in out] == [
        "run_lanes width=34 states=4", "run_lanes width=514 states=4",
        "run_lanes width=4096 states=4", "run_lanes width=4096 states=64",
        "run width=4096 state_bits=62", "permutation_table inputs=2^8 width=16"]
    assert "tracemalloc peak" in out[-1]
