"""End-to-end command-line behavior through in-process main()."""

import pytest

from dirtyshor import resources
from dirtyshor.adders import t_add_recursion
from dirtyshor.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# synth


def test_synth_add_prints_circuit_and_report(capsys):
    code, out, err = _run(capsys, ["synth", "add", "--n", "8", "--c", "255"])
    assert code == 0
    assert out.startswith("width 10\n")
    assert f"toffoli={t_add_recursion(8)}" in err
    assert "t=952" in err  # 7 per toffoli


def test_synth_carry_with_two_controls_is_lowered(capsys):
    code, out, err = _run(capsys, ["synth", "carry", "--n", "4", "--c", "9", "--ctrls", "2"])
    assert code == 0
    assert not any(line.startswith("mcx") for line in out.splitlines())
    assert "toffoli=" in err


def test_synth_out_file(tmp_path, capsys):
    path = tmp_path / "add.txt"
    code, out, err = _run(capsys, ["synth", "add", "--n", "4", "--c", "11", "--out", str(path)])
    assert code == 0
    assert path.read_text().startswith("width 6\n")
    assert out.startswith("toffoli=")  # report goes to stdout when circuit is filed
    assert err == ""


def test_synth_modadd_and_modmul(capsys):
    code, out, _ = _run(capsys, ["synth", "modadd", "--N", "15", "--a", "7"])
    assert code == 0
    assert out.startswith("width 8\n")
    code, out, _ = _run(capsys, ["synth", "modmul", "--N", "15", "--a", "7"])
    assert code == 0
    assert out.startswith("width 10\n")


def test_synth_missing_argument(capsys):
    code, out, err = _run(capsys, ["synth", "add", "--n", "8"])
    assert code == 1
    assert out == ""
    assert err == "error: synth add requires --c\n"


def test_synth_rejects_shared_factor(capsys):
    code, _, err = _run(capsys, ["synth", "modmul", "--N", "15", "--a", "6"])
    assert code == 1
    assert err.startswith("error:")


# --------------------------------------------------------------------------
# sim


def test_sim_round_trip(tmp_path, capsys):
    path = tmp_path / "add.txt"
    _run(capsys, ["synth", "add", "--n", "4", "--c", "11", "--out", str(path)])
    code, out, _ = _run(capsys, ["sim", "--circuit", str(path), "--input", "101000"])
    assert code == 0
    assert out == "000000\n"  # 5 + 11 wraps mod 16, dirty pool stays 00


def test_sim_validates_input(tmp_path, capsys):
    path = tmp_path / "add.txt"
    _run(capsys, ["synth", "add", "--n", "4", "--c", "11", "--out", str(path)])
    for bad in ("1010", "10100x"):
        code, _, err = _run(capsys, ["sim", "--circuit", str(path), "--input", bad])
        assert code == 1
        assert "must be 6 chars" in err


def test_sim_missing_file(capsys):
    code, _, err = _run(capsys, ["sim", "--circuit", "/no/such/file", "--input", "0"])
    assert code == 1
    assert err.startswith("error:")


# --------------------------------------------------------------------------
# scale


def test_scale_csv_matches_recursion(capsys):
    code, out, err = _run(capsys, ["scale", "--harness", "adder", "--sizes", "8,16"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,toffoli,depth,seconds"
    assert lines[1].startswith(f"8,{t_add_recursion(8)},")
    assert lines[2].startswith(f"16,{t_add_recursion(16)},")
    assert err == ""


def test_scale_deterministic_up_to_wall_time(capsys):
    argv = ["scale", "--harness", "modmul", "--sizes", "8,16", "--seed", "3"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
    assert strip(out1) == strip(out2)


def test_scale_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = _run(capsys, ["scale", "--harness", "adder", "--sizes", "8,16",
                                 "--out", str(path)])
    assert code == 0
    assert out == f"wrote 2 rows to {path}\n"
    assert path.read_text().startswith("n,toffoli,depth,seconds\n")


def test_scale_rejects_unsorted_sizes(capsys):
    code, _, err = _run(capsys, ["scale", "--harness", "adder", "--sizes", "16,8"])
    assert code == 1
    assert "ascending" in err


def test_scale_reports_memory_error(monkeypatch, capsys):
    def harness(n, mode, rng):
        raise MemoryError(f"out of memory at n={n}")

    monkeypatch.setitem(resources._HARNESSES, "adder", harness)
    code, out, err = _run(capsys, ["scale", "--harness", "adder", "--sizes", "8"])
    assert code == 1
    assert out == ""
    assert err == "error: out of memory at n=8\n"


# --------------------------------------------------------------------------
# shor


def test_shor_fixed_base_success(capsys):
    code, out, err = _run(capsys, ["shor", "--N", "15", "--a", "7", "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# note: the 8 semiclassical phase rotations")
    assert lines[1] == "i=0 m=0 theta=0.0"
    assert lines[-1] == "y=128 r=4 factors=3,5"
    assert err == ""


def test_shor_fixed_base_unlucky_outcome(capsys):
    # seed 0 measures y=0, which carries no order information
    code, out, _ = _run(capsys, ["shor", "--N", "15", "--a", "7", "--seed", "0"])
    assert code == 1
    assert out.splitlines()[-1] == "y=0 r=none factors=none"


def test_shor_gcd_shortcut(capsys):
    code, out, _ = _run(capsys, ["shor", "--N", "15", "--a", "5"])
    assert code == 0
    assert out.splitlines()[-1] == "y=none r=none factors=3,5"


def test_shor_sampled_run(capsys):
    argv = ["shor", "--N", "15", "--seed", "7"]
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert "attempt=1 a=" in out
    assert out.splitlines()[-1].endswith("factors=3,5")
    code2, out2, err2 = _run(capsys, argv)
    assert (code2, out2, err2) == (code, out, err)  # byte-identical repeat


def test_shor_factors_past_the_exhaustive_table_cap(capsys):
    # N = 1073 = 29 * 37 needs a 24-qubit multiplier, over the width-22 cap
    # of exhaustive permutation tables
    code, out, _ = _run(capsys, ["shor", "--N", "1073"])
    assert code == 0
    assert out.splitlines()[-1].endswith("factors=29,37")


def test_shor_rejects_bad_modulus(capsys):
    for N, fragment in (("16", "odd"), ("17", "prime"), ("25", "prime power")):
        code, out, err = _run(capsys, ["shor", "--N", N])
        assert code == 1
        assert out == ""  # nothing printed before validation
        assert fragment in err


# --------------------------------------------------------------------------
# faultscan


def test_faultscan_localizes_bitflip(tmp_path, capsys):
    circ_path = tmp_path / "add.txt"
    _run(capsys, ["synth", "add", "--n", "4", "--c", "11", "--out", str(circ_path)])
    fault_path = tmp_path / "faults.txt"
    fault_path.write_text("bitflip 3 0\n")
    code, out, _ = _run(capsys, ["faultscan", "--circuit", str(circ_path),
                                 "--faults", str(fault_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("gates=") and "width=6" in lines[0] and "faults=1" in lines[0]
    assert lines[1] == "triggered=5/5"
    assert lines[2] == "ranges=3:4"
    calls, bound = (int(part.split("=")[1]) for part in lines[3].split())
    assert calls <= bound


def test_faultscan_never_triggered(tmp_path, capsys):
    circ_path = tmp_path / "ccx.txt"
    circ_path.write_text("width 3\nccx 0 1 2\n")
    fault_path = tmp_path / "faults.txt"
    fault_path.write_text("missing 0\n")
    code, out, _ = _run(capsys, ["faultscan", "--circuit", str(circ_path),
                                 "--faults", str(fault_path),
                                 "--vectors", "3", "--seed", "2"])
    assert code == 0
    assert out.splitlines()[1] == "triggered=0/3"
    assert out.splitlines()[2] == "ranges=none"


def test_faultscan_bad_fault_file(tmp_path, capsys):
    circ_path = tmp_path / "ccx.txt"
    circ_path.write_text("width 3\nccx 0 1 2\n")
    fault_path = tmp_path / "faults.txt"
    fault_path.write_text("dropout 0\n")
    code, _, err = _run(capsys, ["faultscan", "--circuit", str(circ_path),
                                 "--faults", str(fault_path)])
    assert code == 1
    assert err.startswith("error:")


# --------------------------------------------------------------------------
# argparse surface


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["synth", "--help"], ["sim", "--help"], ["scale", "--help"],
     ["shor", "--help"], ["faultscan", "--help"]],
)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["scale"], ["shor"], ["teleport"]])
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
