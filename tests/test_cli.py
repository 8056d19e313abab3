"""End-to-end CLI behavior: subcommands, exit codes, deterministic output.

Most tests call cli.main in this process through the run_cli fixture. A
process is started only where the process is the subject: the entry point,
a closed stdout, and what a fresh interpreter imports.
"""

import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from blockade_lab import Axis, SweepSpec, SystemParams, cli, g2_zero_analytic, run_sweep
from blockade_lab.sweep import write_sweep_csv

FIG1_POINT = ("point", "--g", "1", "--kappa", "0.05", "--gamma", "0.05", "--eta", "0.01")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env() -> dict[str, str]:
    """This environment with the absolute src first on PYTHONPATH: a child interpreter imports this checkout."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_process(*args):
    return subprocess.run([sys.executable, "-m", "blockade_lab.cli", *args], capture_output=True, text=True,
                          env=child_env())


@pytest.fixture
def run_cli(capsys):
    """cli.main(args) in this process, as a CompletedProcess of what `python -m blockade_lab.cli` gives.

    The exit status is main's return value, or the code of the SystemExit
    that argparse raises; stdout and stderr are what main printed, and each
    warning it raised is written to stderr as the interpreter would print
    it. Any other exception propagates and fails the test, where the
    process would have printed a traceback.
    """
    def run(*args):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        out, err = capsys.readouterr()
        err += "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
        return subprocess.CompletedProcess(args, code, out, err)

    return run


def test_preset_sweep_writes_csv(tmp_path, run_cli):
    out = tmp_path / "sweep.csv"
    proc = run_cli("fig1", "--grid", "41", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "Delta,g2_analytic,g2_numeric,coh_analytic,coh_numeric,status"
    assert len(lines) == 42
    assert all(line.endswith(",ok") for line in lines[1:])


def test_preset_sweep_defaults_to_stdout(run_cli):
    proc = run_cli("fig1", "--grid", "5")
    assert proc.returncode == 0
    assert proc.stdout.startswith("Delta,")
    assert len(proc.stdout.splitlines()) == 6


@pytest.mark.parametrize("name, spec", [("fig1", cli.fig1_spec), ("fig3", cli.fig3_spec),
                                        ("fig4", cli.fig4_spec)])
def test_each_preset_runs_its_own_spec(tmp_path, name, spec):
    out = tmp_path / f"{name}.csv"
    assert cli.main([name, "--grid", "5", "--out", str(out)]) == 0
    want = io.StringIO()
    write_sweep_csv(run_sweep(spec(4, 5)), want)
    assert out.read_bytes() == want.getvalue().encode()


def test_output_is_byte_deterministic(tmp_path, run_cli):
    # a fresh process through the entry point, and this process, warm
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_process("fig1", "--grid", "41", "--out", str(a)).returncode == 0
    assert run_cli("fig1", "--grid", "41", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_point_reports_both_branches(run_cli):
    proc = run_cli("point", "--g", "1", "--kappa", "0.05", "--gamma", "0.05",
                   "--eta", "0.01", "--delta", "1")
    assert proc.returncode == 0
    values = dict(line.split(" = ") for line in proc.stdout.splitlines())
    p = SystemParams(g=1.0, kappa=0.05, gamma=0.05, eta=0.01, delta_a=1.0, delta=1.0)
    assert float(values["g2_analytic"]) == g2_zero_analytic(p)
    assert float(values["g2_numeric"]) == pytest.approx(0.0258125, rel=1e-4)
    assert float(values["mean_photon"]) > 0


def test_delay_curve_preset(tmp_path, run_cli):
    out = tmp_path / "curve.csv"
    proc = run_cli("fig2", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,g2_tau,status"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) < 1.0  # antibunched at zero delay
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1.0, abs=0.01)


def test_sweep_from_config(tmp_path, run_cli):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("g = 1.0\nkappa = 0.05\ngamma = 0.05\neta = 0.01\n"
                   "axis1 = Delta -2 2 21\noutputs = g2_analytic coh_analytic\n")
    out = tmp_path / "scan.csv"
    proc = run_cli("sweep", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "Delta,g2_analytic,coh_analytic,status"
    assert len(lines) == 22


def test_nmax_override(tmp_path, run_cli):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("g = 1.0\nkappa = 0.05\ngamma = 0.05\neta = 0.01\n"
                   "axis1 = Delta -1 1 5\n")
    a = run_cli("sweep", "--config", str(cfg), "--nmax", "6")
    assert a.returncode == 0
    b = run_cli("sweep", "--config", str(cfg))
    # a larger photon space shifts the numeric values only marginally
    val_a = float(a.stdout.splitlines()[1].split(",")[2])
    val_b = float(b.stdout.splitlines()[1].split(",")[2])
    assert val_a != val_b
    assert val_a == pytest.approx(val_b, rel=1e-3)


def test_check_passes_on_blockade_sweep(tmp_path, run_cli):
    out = tmp_path / "sweep.csv"
    assert run_cli("fig1", "--grid", "81", "--out", str(out)).returncode == 0
    proc = run_cli("check", str(out))
    assert proc.returncode == 0
    assert "correspondence: PASS" in proc.stdout
    assert "dark-point coherence ratio" in proc.stdout


def write_csv(path, deltas, g2, coh):
    lines = ["Delta,g2_analytic,g2_numeric,coh_analytic,coh_numeric,status"]
    for d, a, c in zip(deltas, g2, coh):
        lines.append(f"{float(d)!r},{float(a)!r},{float(a)!r},{float(c)!r},{float(c)!r},ok")
    path.write_text("\n".join(lines) + "\n")


def test_check_fails_on_displaced_extrema(tmp_path, run_cli):
    deltas = np.linspace(-2, 2, 21)
    csv = tmp_path / "displaced.csv"
    write_csv(csv, deltas, 0.01 + (deltas - 0.5) ** 2, 1.0 / (1.0 + (deltas - 1.0) ** 2))
    proc = run_cli("check", str(csv))
    assert proc.returncode == 4
    assert "correspondence: FAIL" in proc.stdout


def test_check_monotone_data_is_a_solver_failure(tmp_path, run_cli):
    deltas = np.linspace(-2, 2, 21)
    csv = tmp_path / "monotone.csv"
    write_csv(csv, deltas, deltas + 3.0, -deltas)
    proc = run_cli("check", str(csv))
    assert proc.returncode == 3
    assert "solver failure" in proc.stderr


def test_check_refuses_a_gap_threshold_that_is_negative_or_not_finite(tmp_path, run_cli):
    deltas = np.linspace(-2, 2, 21)
    csv = tmp_path / "blockade.csv"
    write_csv(csv, deltas, 0.01 + (deltas - 0.4) ** 2, 1.0 / (1.0 + (deltas - 0.4) ** 2))
    assert run_cli("check", str(csv)).returncode == 0
    for threshold in ("nan", "-1", "inf"):
        proc = run_cli("check", str(csv), "--gap-threshold", threshold)
        assert proc.returncode == 2, threshold
        assert proc.stderr.startswith("config error: gap threshold"), threshold


def test_point_raises_the_first_failure_of_its_sweep_row(run_cli):
    # kappa = gamma = 0: the numeric branch has no dissipation, and at
    # Delta = g the closed forms hit a lossless resonance; the sweep row
    # reports the analytic branch's failure, and point raises the same one
    base = SystemParams(g=1.0, kappa=0.0, gamma=0.0, eta=0.001, delta_a=0.0, delta=0.0)
    row = run_sweep(SweepSpec(base=base, axis1=Axis("Delta", 1.0, 2.0, 2)))
    assert row.status[0] == "SingularDenominatorError"
    proc = run_cli("point", "--g", "1", "--kappa", "0", "--gamma", "0", "--eta", "0.001",
                   "--delta", "1")
    assert proc.returncode == 3
    assert proc.stderr.startswith("solver failure: |D1|=")
    assert proc.stderr.rstrip().endswith("lossless parameters")


def test_bad_config_exits_2(tmp_path, run_cli):
    cfg = tmp_path / "bad.cfg"
    # the second config's Delta axis would also set delta_a, overriding axis1
    for text in ("axis1 = Delta -2 2 21\nbogus = 1\n",
                 "axis1 = delta_a 5 6 2\naxis2 = Delta -1 1 3\n"):
        cfg.write_text(text)
        proc = run_cli("sweep", "--config", str(cfg))
        assert proc.returncode == 2
        assert "config error" in proc.stderr


def test_check_on_a_header_only_csv_exits_2(tmp_path, run_cli):
    path = tmp_path / "empty.csv"
    path.write_text("Delta,g2_numeric,status\n")
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_missing_file_exits_2(tmp_path, run_cli):
    proc = run_cli("check", str(tmp_path / "never_written.csv"))
    assert proc.returncode == 2
    proc = run_cli("sweep", "--config", str(tmp_path / "nope.cfg"))
    assert proc.returncode == 2
    # an --out that cannot be opened stays a config problem, unlike a closed stdout
    proc = run_cli("fig1", "--grid", "5", "--out", str(tmp_path / "no_such_dir" / "out.csv"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")


@pytest.mark.parametrize("args", [
    ("fig1", "--nmax", "0"),
    ("fig2", "--grid", "2"),
    ("point", "--g", "1", "--kappa", "0.05", "--gamma", "0.05", "--eta", "0"),
    ("point", "--g", "nan", "--kappa", "0.05", "--gamma", "0.05", "--eta", "0.01"),
    ("point", "--g", "inf", "--kappa", "0.05", "--gamma", "0.05", "--eta", "0.01"),
    ("fig3", "--grid", "3", "--nmax", "1"),
    ("fig1", "--grid", "0"),
    ("fig2", "--grid", "0"),
], ids=["nmax_0", "tau_grid_2", "empty_cavity", "g_nan", "g_inf", "g2_at_nmax_1",
        "fig1_grid_0", "fig2_grid_0"])
def test_out_of_range_input_exits_2(args, run_cli):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert "Traceback" not in proc.stderr


def test_a_detuning_that_dwarfs_the_rates_is_refused_as_uncertified_not_lossless(run_cli):
    # the rates are 1e-13 of the largest entry of L, far below what the
    # certificate can resolve, but L is still dissipative: only a unitary
    # generator is exactly antisymmetric
    proc = run_cli(*FIG1_POINT, "--delta", "1e11")
    assert proc.returncode == 3
    assert proc.stderr.startswith("solver failure: null-space gap not certified: ")
    assert "no dissipative part" not in proc.stderr


@pytest.mark.parametrize("axis", ["Delta -inf 0 3", "Delta -1e308 1e308 3"],
                         ids=["infinite_bound", "infinite_span"])
def test_non_finite_axis_exits_2(tmp_path, axis, run_cli):
    cfg = tmp_path / "axis.cfg"
    cfg.write_text(f"g = 1\nkappa = 0.05\ngamma = 0.05\neta = 0.01\naxis1 = {axis}\n")
    proc = run_cli("sweep", "--config", str(cfg))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_overflowing_closed_forms_finish_the_sweep_quietly(tmp_path, run_cli):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("g = 1\nkappa = 0.05\ngamma = 0.05\neta = 0.01\naxis1 = Delta 0 1e308 3\n")
    proc = run_cli("sweep", "--config", str(cfg))
    assert proc.returncode == 0
    assert proc.stderr == ""
    header, *rows = [line.split(",") for line in proc.stdout.splitlines()]
    assert [row[-1] for row in rows] == ["ok", "OverflowError", "OverflowError"]
    for row in rows[1:]:
        cells = dict(zip(header, row))
        assert cells["g2_analytic"] == cells["coh_analytic"] == "nan"


def test_point_prints_the_bits_of_its_fig1_row(tmp_path):
    csv, point = tmp_path / "fig1.csv", tmp_path / "point.txt"
    assert cli.main(["fig1", "--grid", "41", "--out", str(csv)]) == 0
    header, *rows = csv.read_text().splitlines()
    for line in rows:
        row = dict(zip(header.split(","), line.split(",")))
        assert cli.main([*FIG1_POINT, "--delta", row["Delta"], "--out", str(point)]) == 0
        values = dict(line.split(" = ") for line in point.read_text().splitlines())
        for name in ("g2_analytic", "g2_numeric", "coh_analytic", "coh_numeric"):
            assert values[name] == row[name], (row["Delta"], name)


def _moved_and_mirrors(axis):
    """Where axis differs from np.linspace, all in the upper half, and where the mirrors of those values sit."""
    moved = np.flatnonzero(axis.values() != np.linspace(axis.start, axis.stop, axis.count))
    assert moved.size and np.all(moved > axis.count // 2)
    return np.concatenate([moved, axis.count - 1 - moved])


def _assert_point_prints_row(args, row, point, names):
    assert cli.main([*args, "--out", str(point)]) == 0
    values = dict(line.split(" = ") for line in point.read_text().splitlines())
    for name in names:
        assert values[name] == row[name], (args, name)


def test_point_prints_the_bits_of_the_rows_whose_delta_the_symmetric_axis_moved(tmp_path):
    # a moved Delta value is the exact mirror of a lower-half value, so a
    # sweep solves the two rows once, as the positive one, where a point
    # query solves each as given
    csv, point = tmp_path / "fig1.csv", tmp_path / "point.txt"
    assert cli.main(["fig1", "--out", str(csv)]) == 0
    header, *lines = csv.read_text().splitlines()
    rows = _moved_and_mirrors(cli.fig1_spec().axis1)
    assert rows.size == 2 * 86
    for i in rows.tolist():
        row = dict(zip(header.split(","), lines[i].split(",")))
        _assert_point_prints_row([*FIG1_POINT, "--delta", row["Delta"]], row, point,
                                 ("g2_analytic", "g2_numeric", "coh_analytic", "coh_numeric"))

    # and on a cutoff_map-style 5 x 5 g x Delta map at n_max 10
    config, csv = tmp_path / "map.cfg", tmp_path / "map.csv"
    config.write_text("kappa = 1.0\ngamma = 0.5\neta = 0.1\naxis1 = g 5.0 30.0 5\n"
                      "axis2 = Delta -38.123456 38.123456 5\nnmax = 10\n"
                      "outputs = g2_analytic g2_numeric coh_analytic coh_numeric mean_photon\n")
    assert cli.main(["sweep", "--config", str(config), "--out", str(csv)]) == 0
    header, *lines = csv.read_text().splitlines()
    for i in _moved_and_mirrors(Axis("Delta", -38.123456, 38.123456, 5)).tolist():
        row = dict(zip(header.split(","), lines[2 * 5 + i].split(",")))
        assert row["g"] == "17.5"
        _assert_point_prints_row(["point", "--g", row["g"], "--kappa", "1.0", "--gamma", "0.5", "--eta", "0.1",
                                  "--delta", row["Delta"], "--nmax", "10"], row, point, cli.OUTPUT_COLUMNS)


def test_point_output_is_unchanged_by_earlier_calls_in_the_process(tmp_path, capsys):
    out = tmp_path / "point.txt"

    def point_bytes():
        assert cli.main([*FIG1_POINT, "--delta", "0.7", "--out", str(out)]) == 0
        return out.read_bytes()

    first = point_bytes()
    assert cli.main(["fig1", "--grid", "41", "--out", str(tmp_path / "fig1.csv")]) == 0
    assert point_bytes() == first
    assert cli.main([*FIG1_POINT, "--nmax", "0"]) == 2
    assert point_bytes() == first
    with pytest.raises(SystemExit):
        cli.main(["point", "--g", "1"])
    assert point_bytes() == first


def test_a_closed_stdout_ends_quietly():
    # the reader goes away before anything is written, as `| head -1` does
    # once it has its line
    proc = subprocess.Popen([sys.executable, "-m", "blockade_lab.cli", "fig1", "--grid", "41"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""


def test_check_in_a_fresh_process_does_not_import_numpy_ma(tmp_path):
    csv = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--grid", "41", "--out", str(csv)]) == 0
    # and neither does a sweep after it, whose rows are deduplicated
    config = tmp_path / "sweep.cfg"
    config.write_text("g = 1\nkappa = 0.05\ngamma = 0.05\neta = 0.01\naxis1 = Delta -2 2 41\n")
    script = ("import sys\n"
              "from blockade_lab import cli\n"
              f"status = cli.main(['check', {str(csv)!r}, '--out', {str(tmp_path / 'report')!r}])\n"
              "print(status, 'numpy.ma' in sys.modules)\n"
              f"status = cli.main(['sweep', '--config', {str(config)!r}, '--out', {str(tmp_path / 'sweep.csv')!r}])\n"
              "print(status, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
    assert proc.stdout.split() == ["0", "False", "0", "False"], proc.stderr


def test_importing_the_cli_imports_neither_logging_nor_concurrent_futures():
    # each costs a fresh process milliseconds of setup
    script = ("import sys\n"
              "import blockade_lab.cli\n"
              "print(sorted(m for m in ('logging', 'concurrent.futures') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
    assert proc.stdout.split() == ["[]"], proc.stderr
