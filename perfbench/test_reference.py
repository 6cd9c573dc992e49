"""Each benchmark check accepts the program's real output and rejects a wrong one.

    python3 -m pytest perfbench -q
"""
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def test_modmul_check_accepts_program_and_rejects_wrong_products():
    n, modulus, a, x = 8, 251, 7, 200
    wl = workloads.Modmul.__new__(workloads.Modmul)
    counter, on, off = wl.run((n, modulus, a, x, False))
    args = dict(n=n, modulus=modulus, a=a, x=x, off_state=off,
                width_touched=counter.width_touched, toffoli=counter.toffoli, worst_case=False)
    assert ref.check_modmul(on_state=on, **args) == []
    ctrl = 1 << (2 * n + 1)
    assert on == (a * x % modulus) | ctrl
    off_by_one = ((a * x + 1) % modulus) | ctrl
    assert ref.check_modmul(on_state=off_by_one, **args)
    identity = x | ctrl
    assert ref.check_modmul(on_state=identity, **args)
    assert ref.check_modmul(on_state=on, **{**args, "off_state": a * x % modulus})
    assert ref.check_modmul(on_state=on, **{**args, "width_touched": 2 * n + 1})


def test_modmul_worst_case_band():
    n = 32
    worst = ref.check_modmul(n, (1 << n) - 1, 1, 0, 1 << (2 * n + 1), 0, 2 * n + 2,
                             toffoli=149472, worst_case=True)
    assert worst == []
    assert ref.check_modmul(n, (1 << n) - 1, 1, 0, 1 << (2 * n + 1), 0, 2 * n + 2,
                            toffoli=100000, worst_case=True)


def test_factor_check():
    assert ref.check_factor(15, 7, 64, 4, (3, 5)) == []
    assert ref.check_factor(15, 7, 64, None, None) == []
    assert ref.check_factor(15, 7, 65, 4, (3, 5))  # not a multiple of 256/4
    assert ref.check_factor(15, 7, 64, 2, None)  # 7^2 != 1 mod 15
    assert ref.check_factor(15, 7, 64, 4, (1, 15))  # trivial split
    assert ref.check_factor(21, 2, 171, 6, (3, 5))  # 3 * 5 != 21


def test_textbook_distribution_15_7_is_uniform_on_multiples_of_64():
    dist = ref.textbook_distribution(15, 7)
    assert set(dist) == {0, 64, 128, 192}
    assert all(p == pytest.approx(0.25, abs=1e-15) for p in dist.values())


def test_textbook_distribution_sums_to_one():
    assert sum(ref.textbook_distribution(21, 2).values()) == pytest.approx(1.0, abs=1e-12)


def test_distribution_check_rejects_moved_mass():
    from dirtyshor.shor import exact_outcome_distribution

    dist = exact_outcome_distribution(15, 7)
    assert ref.check_distribution(15, 7, dist) == []
    moved = dict(dist)
    moved[0] -= 1e-6
    moved[64] += 1e-6
    assert ref.check_distribution(15, 7, moved)
    assert ref.check_distribution(15, 7, {**dist, 256: 0.0})


def test_faultscan_check_rejects_shifted_range():
    printed = ("gates=1000 width=34 faults=1\ntriggered=3/4\n"
               "ranges=500:501\ncalls=60 bound=88\n")
    assert ref.check_faultscan(printed, 0, 1000, 34, 500, 4, 3) == []
    assert ref.check_faultscan(printed.replace("500:501", "501:502"), 0, 1000, 34, 500, 4, 3)
    assert ref.check_faultscan(printed.replace("500:501", "499:500"), 0, 1000, 34, 500, 4, 3)
    assert ref.check_faultscan(printed.replace("calls=60", "calls=89"), 0, 1000, 34, 500, 4, 3)
    assert ref.check_faultscan(printed.replace("3/4", "0/4"), 0, 1000, 34, 500, 4, 3)
    assert ref.check_faultscan(printed, 1, 1000, 34, 500, 4, 3)


def test_faultscan_workload_check_accepts_program(tmp_path):
    from dirtyshor import cli

    path = tmp_path / "add8.txt"
    assert cli.main(["synth", "add", "--n", "8", "--c", "255", "--out", str(path)]) == 0
    width, gates = ref.parse_circuit(path.read_text())
    wl = workloads.Faultscan.__new__(workloads.Faultscan)
    index, hits = wl._acting_gate(gates, width, len(gates) // 2, vseed=5)
    faults = tmp_path / "f.txt"
    faults.write_text(f"missing {index}\n")
    code, printed = workloads._quiet(["faultscan", "--circuit", str(path), "--faults", str(faults),
                                      "--vectors", str(wl.VECTORS), "--seed", "5"])
    assert ref.check_faultscan(printed, code, len(gates), width, index, wl.VECTORS, hits) == []
    assert ref.check_faultscan(printed, code, len(gates), width, index + 1, wl.VECTORS, hits)
