"""Sweep execution, extremum location, correspondence check, CSV and config I/O."""

import io
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockade_lab import (
    Axis,
    HilbertConfig,
    SweepSpec,
    SystemParams,
    check_correspondence,
    g2_zero_analytic,
    run_sweep,
)
from blockade_lab import cli, sweep
from blockade_lab.cli import fig1_spec
from blockade_lab.errors import ConfigError, NoInteriorExtremumError
from blockade_lab.sweep import (
    OUTPUT_COLUMNS,
    _grid_rows,
    _mesh,
    csv_columns,
    locate_extrema,
    parse_sweep_config,
    read_sweep_csv,
    write_sweep_csv,
)

BASE = SystemParams(g=1.0, kappa=0.05, gamma=0.05, eta=0.01, delta_a=0.0, delta=0.0)


def small_detuning_sweep(count=81):
    return run_sweep(SweepSpec(base=BASE, axis1=Axis("Delta", -2.0, 2.0, count)))


def synthetic_result(rows):
    """Build a SweepResult by round-tripping handwritten CSV rows."""
    header = "Delta,g2_analytic,g2_numeric,coh_analytic,coh_numeric,status"
    return read_sweep_csv(io.StringIO("\n".join([header] + rows) + "\n"))


@pytest.fixture(scope="module")
def fig1_result():
    return run_sweep(fig1_spec())


def rows_from_curves(deltas, g2, coh):
    return [f"{float(d)!r},{float(a)!r},{float(a)!r},{float(c)!r},{float(c)!r},ok"
            for d, a, c in zip(deltas, g2, coh)]


# --- axes and parameter plumbing


def test_axis_values_and_step():
    ax = Axis("Delta", -2.0, 2.0, 41)
    vals = ax.values()
    assert vals[0] == -2.0 and vals[-1] == 2.0 and len(vals) == 41
    assert ax.step == pytest.approx(0.1)


def test_axis_validation():
    with pytest.raises(ConfigError):
        Axis("phi", 0.0, 1.0, 11)  # unknown parameter
    with pytest.raises(ConfigError):
        Axis("Delta", 0.0, 1.0, 1)  # too few points
    with pytest.raises(ConfigError):
        Axis("Delta", 1.0, 0.0, 11)  # reversed
    with pytest.raises(ConfigError):
        Axis("kappa", -0.5, 1.0, 11)  # negative rate


@pytest.mark.parametrize("start, stop", [(-np.inf, 0.0), (0.0, np.inf), (-1e308, 1e308),
                                         (np.nan, 1.0), (0.0, np.nan)])
def test_axis_rejects_non_finite_bounds_and_spans(start, stop):
    # -1e308 to 1e308 has finite ends but an infinite span, so its linspace
    # would hold inf and nan
    with pytest.raises(ConfigError, match="must be finite"):
        Axis("Delta", start, stop, 3)


def test_set_param_links_detunings():
    spec = SweepSpec(base=BASE, axis1=Axis("Delta", 1.0, 1.3, 2), axis2=Axis("kappa", 0.1, 0.2, 2))
    rows = [SystemParams(*row) for row in _grid_rows(spec, _mesh(spec.axes))]
    assert [(p.delta_a, p.delta, p.kappa) for p in rows] == [
        (1.0, 1.0, 0.1), (1.0, 1.0, 0.2), (1.3, 1.3, 0.1), (1.3, 1.3, 0.2)]
    assert all(replace(p, delta_a=0.0, delta=0.0, kappa=BASE.kappa) == BASE for p in rows)


def test_spec_validation():
    ax = Axis("Delta", -1.0, 1.0, 11)
    with pytest.raises(ConfigError):
        SweepSpec(base=BASE, axis1=ax, outputs=("g2_numeric", "bogus"))
    with pytest.raises(ConfigError):
        SweepSpec(base=BASE, axis1=ax, axis2=Axis("Delta", 0.0, 1.0, 5))


def test_numeric_g2_needs_n_max_2_but_the_other_numeric_columns_do_not():
    ax = Axis("Delta", -1.0, 1.0, 3)
    with pytest.raises(ConfigError, match="n_max >= 2"):
        SweepSpec(base=BASE, axis1=ax, hilbert=HilbertConfig(1))
    spec = SweepSpec(base=BASE, axis1=ax, hilbert=HilbertConfig(1),
                     outputs=("coh_numeric", "mean_photon"))
    res = run_sweep(spec)
    assert res.status == ["ok"] * 3
    assert np.all(res.column("coh_numeric") > 0)
    assert np.all(res.column("mean_photon") > 0)


# --- sweep execution


def test_sweep_matches_point_evaluations():
    res = run_sweep(SweepSpec(base=BASE, axis1=Axis("Delta", 0.5, 1.5, 5),
                              outputs=("g2_analytic",)))
    assert res.status == ["ok"] * 5
    for d, got in zip(res.coords["Delta"], res.column("g2_analytic")):
        p = replace(BASE, delta_a=float(d), delta=float(d))
        assert got == g2_zero_analytic(p)


def test_sweep_is_deterministic():
    spec = SweepSpec(base=BASE, axis1=Axis("Delta", -1.0, 1.0, 9))
    a, b = run_sweep(spec), run_sweep(spec)
    for name in a.columns:
        assert np.array_equal(a.column(name), b.column(name))


def test_sweep_records_failures_and_continues():
    # with no dissipation the numeric branch fails at every point while the
    # analytic branch is singular only on resonance (D1 = g^2 - Delta^2 = 0);
    # each row carries whichever failure was hit first, and the sweep finishes
    base = SystemParams(g=1.0, kappa=0.0, gamma=0.0, eta=0.001, delta_a=0.0, delta=0.0)
    res = run_sweep(SweepSpec(base=base, axis1=Axis("Delta", 0.5, 1.5, 3)))
    assert res.status == ["NoDissipationError", "SingularDenominatorError",
                          "NoDissipationError"]
    assert np.all(np.isnan(res.column("g2_numeric")))
    assert np.isnan(res.column("g2_analytic")[1])
    assert np.all(np.isfinite(res.column("g2_analytic")[[0, 2]]))
    assert np.all(np.isfinite(res.column("coh_analytic")[[0, 2]]))


def _point_values(args, nmax, out):
    status = cli.main(["point", *args, "--nmax", str(nmax), "--out", str(out)])
    if status != 0:
        return status, None
    return status, dict(line.split(" = ") for line in out.read_text().splitlines())


# The three failing kinds of row: kappa = gamma = 0 (no dissipation, and at
# Delta = +-g a lossless resonance that makes the closed forms singular), and
# g = gamma = 0 with kappa > 0, whose bordered matrix is exactly singular, so
# a chunk holding it makes the stacked inverse raise LinAlgError.
@settings(max_examples=25, deadline=None)
@given(g=st.sampled_from([0.0, 1.0]), gamma=st.sampled_from([0.0, 0.05]),
       eta=st.floats(0.001, 0.05), kappa_max=st.floats(0.01, 0.5),
       n_kappa=st.integers(2, 4), n_delta=st.sampled_from([3, 4, 5]), nmax=st.sampled_from([2, 4]))
@example(g=1.0, gamma=0.0, eta=0.01, kappa_max=0.1, n_kappa=2, n_delta=3, nmax=4)
@example(g=0.0, gamma=0.0, eta=0.01, kappa_max=0.1, n_kappa=3, n_delta=4, nmax=4)
@example(g=0.0, gamma=0.0, eta=0.02, kappa_max=0.3, n_kappa=4, n_delta=5, nmax=2)
def test_a_grid_evaluated_whole_equals_chunks_of_one_and_point_queries(
        g, gamma, eta, kappa_max, n_kappa, n_delta, nmax):
    spec = SweepSpec(base=SystemParams(g=g, kappa=0.0, gamma=gamma, eta=eta, delta_a=0.0, delta=0.0),
                     axis1=Axis("kappa", 0.0, kappa_max, n_kappa),
                     axis2=Axis("Delta", -1.0, 1.0, n_delta),
                     hilbert=HilbertConfig(nmax), outputs=OUTPUT_COLUMNS)
    assert sweep._chunk_size(spec.hilbert) > 1
    whole = run_sweep(spec)
    with mock.patch.object(sweep, "_CHUNK_BYTES", 1):
        assert sweep._chunk_size(spec.hilbert) == 1
        ones = run_sweep(spec)
    assert ones.status == whole.status
    for name in OUTPUT_COLUMNS:
        assert [repr(float(v)) for v in ones.column(name)] == \
               [repr(float(v)) for v in whole.column(name)], name

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "point.txt"
        for row, status in enumerate(whole.status):
            args = ["--g", repr(g), "--kappa", repr(float(whole.coords["kappa"][row])),
                    "--gamma", repr(gamma), "--eta", repr(eta),
                    "--delta", repr(float(whole.coords["Delta"][row]))]
            code, values = _point_values(args, nmax, out)
            assert (code == 0) == (status == "ok"), (row, status, code)
            if values is not None:
                for name in OUTPUT_COLUMNS:
                    assert values[name] == repr(float(whole.column(name)[row])), (row, name)


def test_two_axis_sweep_layout():
    res = run_sweep(SweepSpec(base=BASE,
                              axis1=Axis("kappa", 0.05, 0.1, 2),
                              axis2=Axis("Delta", -1.0, 1.0, 3),
                              outputs=("g2_analytic",)))
    assert res.n_rows == 6
    # first axis is the outer loop
    assert np.array_equal(res.coords["kappa"], [0.05, 0.05, 0.05, 0.1, 0.1, 0.1])
    assert np.array_equal(res.coords["Delta"], [-1.0, 0.0, 1.0, -1.0, 0.0, 1.0])
    assert csv_columns(res) == ["kappa", "Delta", "g2_analytic", "log10_g2_analytic", "status"]


# --- extremum location


def test_locate_extrema_exact_on_parabola():
    # the three-point refinement reproduces a parabola's vertex exactly
    deltas = np.linspace(-2.0, 2.0, 21)
    g2 = 2.0 + (deltas - 0.83) ** 2
    coh = np.ones_like(deltas)
    res = synthetic_result(rows_from_curves(deltas, g2, coh))
    found = locate_extrema(res, "g2_analytic")
    assert len(found) == 1
    assert found[0].kind == "min"
    assert found[0].coordinate == pytest.approx(0.83, abs=1e-12)
    assert found[0].value == pytest.approx(2.0, abs=1e-12)


def test_locate_extrema_excludes_endpoints():
    deltas = np.linspace(-2.0, 2.0, 21)
    res = synthetic_result(rows_from_curves(deltas, deltas + 3.0, np.ones_like(deltas)))
    with pytest.raises(NoInteriorExtremumError):
        locate_extrema(res, "g2_analytic")


def test_locate_extrema_row_selection():
    res = run_sweep(SweepSpec(base=BASE,
                              axis1=Axis("kappa", 0.05, 0.1, 2),
                              axis2=Axis("Delta", -2.0, 2.0, 41),
                              outputs=("coh_analytic",)))
    found = locate_extrema(res, "coh_analytic", row=0)
    peaks = sorted(e.coordinate for e in found if e.kind == "max")
    assert len(peaks) == 2
    assert peaks[0] == pytest.approx(-1.0, abs=0.1)
    assert peaks[1] == pytest.approx(+1.0, abs=0.1)
    with pytest.raises(ConfigError):
        locate_extrema(res, "coh_analytic")  # 2d needs a row
    with pytest.raises(ConfigError):
        locate_extrema(res, "coh_analytic", row=7)


# --- the correspondence check


def test_correspondence_passes_on_blockade_sweep():
    report = check_correspondence(small_detuning_sweep())
    assert report.passed
    for branch in report.branches:
        assert branch.max_gap_steps <= 1.0
        assert len(branch.pairs) == 2  # one pair per sign of the detuning
        signs = sorted(np.sign(pair[0].coordinate) for pair in branch.pairs)
        assert signs == [-1.0, 1.0]
    ratios = {b.branch: b.dark_ratio for b in report.branches}
    assert ratios["analytic"] < 0.05


def test_correspondence_fails_on_displaced_extrema():
    deltas = np.linspace(-2.0, 2.0, 21)
    g2 = 0.01 + (deltas - 0.5) ** 2  # sub-unity minimum at +0.5
    coh = 1.0 / (1.0 + (deltas - 1.0) ** 2)  # peak at +1.0
    res = synthetic_result(rows_from_curves(deltas, g2, coh))
    report = check_correspondence(res)
    assert not report.passed
    assert any("FAIL" in line for line in report.format_lines())


def test_correspondence_requires_extrema():
    deltas = np.linspace(-2.0, 2.0, 21)
    res = synthetic_result(rows_from_curves(deltas, deltas + 3.0, -deltas))
    with pytest.raises(NoInteriorExtremumError):
        check_correspondence(res)


def test_correspondence_falls_back_to_shallow_minima():
    # with no sub-unity minimum anywhere, the nearest minima still get paired
    # so that degraded systems produce a report instead of an error
    deltas = np.linspace(-2.0, 2.0, 41)
    g2 = 5.0 + (deltas**2 - 1.0) ** 2  # minima at +-1, all values > 1
    coh = 1.0 / (1.0 + 20 * (deltas**2 - 1.0) ** 2)  # peaks at +-1
    res = synthetic_result(rows_from_curves(deltas, g2, coh))
    report = check_correspondence(res)
    assert report.passed
    assert all(len(b.pairs) == 2 for b in report.branches)


def test_correspondence_fails_on_a_missing_point(fig1_result):
    complete = check_correspondence(fig1_result)
    assert complete.passed
    assert not any("missing" in line for line in complete.format_lines())

    g2 = fig1_result.column("g2_numeric").copy()
    deltas = fig1_result.coords["Delta"]
    left = np.flatnonzero(deltas < 0)
    i_min = left[np.argmin(g2[left])]  # the blockade minimum near Delta = -1
    g2[i_min + 1] = np.nan
    broken = replace(fig1_result, columns={**fig1_result.columns, "g2_numeric": g2})
    # the gap hides that minimum from the extremum scan ...
    minima = [e for e in locate_extrema(broken, "g2_numeric") if e.kind == "min" and e.value < 1]
    assert all(e.coordinate > 0 for e in minima)
    # ... so the branch must fail on the missing point itself
    report = check_correspondence(broken)
    numeric = {b.branch: b for b in report.branches}["numeric"]
    assert numeric.missing == 1 and not numeric.passed
    assert {b.branch: b for b in report.branches}["analytic"].passed
    lines = report.format_lines()
    summary = [line for line in lines if line.startswith("numeric: dark-point")]
    assert len(summary) == 1
    assert "FAIL" in summary[0] and "missing points: 1" in summary[0]
    assert lines[-1] == "correspondence: FAIL"


# --- CSV round trip


def test_csv_round_trip_is_byte_identical():
    res = small_detuning_sweep(count=21)
    first = io.StringIO()
    write_sweep_csv(res, first)
    back = read_sweep_csv(io.StringIO(first.getvalue()))
    second = io.StringIO()
    write_sweep_csv(back, second)
    assert first.getvalue() == second.getvalue()
    assert "\r" not in first.getvalue()


def test_csv_floats_round_trip_exactly():
    res = small_detuning_sweep(count=21)
    back = read_sweep_csv(io.StringIO(_dump(res)))
    for name in res.columns:
        assert np.array_equal(back.column(name), res.column(name))
    assert back.status == res.status


def _dump(res):
    buf = io.StringIO()
    write_sweep_csv(res, buf)
    return buf.getvalue()


def test_csv_reader_rejects_malformed_input():
    with pytest.raises(ConfigError):
        read_sweep_csv(io.StringIO(""))
    with pytest.raises(ConfigError):
        read_sweep_csv(io.StringIO("Delta,g2_numeric\n0.0,1.0\n"))  # no status
    header = "Delta,g2_numeric,status"
    with pytest.raises(ConfigError):
        read_sweep_csv(io.StringIO(header + "\n0.0,abc,ok\n"))
    with pytest.raises(ConfigError):
        read_sweep_csv(io.StringIO(header + "\n0.0,1.0\n"))  # ragged row


def test_csv_reader_rejects_a_header_without_rows():
    with pytest.raises(ConfigError):
        read_sweep_csv(io.StringIO("Delta,g2_numeric,status\n"))


def test_csv_reader_rejects_a_partial_grid(fig1_result):
    lines = _dump(fig1_result).splitlines(keepends=True)
    assert read_sweep_csv(io.StringIO("".join(lines))).axes[0] == Axis("Delta", -2.0, 2.0, 401)
    partial = lines[:101] + lines[111:]  # ten rows gone from the middle
    with pytest.raises(ConfigError):
        read_sweep_csv(io.StringIO("".join(partial)))


def test_two_axis_csv_round_trip():
    res = run_sweep(SweepSpec(base=BASE,
                              axis1=Axis("kappa", 0.05, 0.1, 2),
                              axis2=Axis("Delta", -1.0, 1.0, 5),
                              outputs=("g2_analytic", "g2_numeric")))
    text = _dump(res)
    assert text.splitlines()[0] == ("kappa,Delta,g2_analytic,g2_numeric,"
                                    "log10_g2_analytic,log10_g2_numeric,status")
    back = read_sweep_csv(io.StringIO(text))
    assert [ax.name for ax in back.axes] == ["kappa", "Delta"]
    assert back.axes[0].count == 2 and back.axes[1].count == 5
    assert np.array_equal(back.column("g2_numeric"), res.column("g2_numeric"))
    # log10 columns are derived on write and not stored as data
    assert "log10_g2_numeric" not in back.columns


# --- config files


CONFIG = """
# blockade scan around the coupling resonance
g       = 1.0
kappa   = 0.05
gamma   = 0.05   # same loss for the atom
eta     = 0.01
axis1   = Delta -2 2 81
nmax    = 4
outputs = g2_analytic g2_numeric
"""


def test_parse_config_happy_path():
    spec = parse_sweep_config(CONFIG)
    assert spec.base.g == 1.0 and spec.base.kappa == 0.05
    assert spec.base.delta_a == 0.0  # unset scalars default to zero
    assert spec.axis1.name == "Delta" and spec.axis1.count == 81
    assert spec.axis2 is None
    assert spec.hilbert.n_max == 4
    assert spec.outputs == ("g2_analytic", "g2_numeric")


def test_parse_config_two_axes():
    text = "eta = 0.001\ngamma = 0.01\naxis1 = g 5 30 6\naxis2 = Delta -40 40 101\n"
    spec = parse_sweep_config(text)
    assert spec.axis2 is not None and spec.axis2.count == 101


@pytest.mark.parametrize("text", [
    "g = 1.0\n",                                   # missing axis1
    "axis1 = Delta -2 2 81\nbogus = 1\n",          # unknown key
    "axis1 = Delta -2 2 81\naxis1 = Delta 0 1 5\n",  # duplicate
    "axis1 = Delta -2 2\n",                        # malformed axis
    "axis1 = Delta -2 2 81\nnmax = four\n",        # bad integer
    "axis1 = Delta -2 2 81\ng = soup\n",           # bad float
    "axis1 = Delta -2 2 81\nkappa = -1\n",         # negative rate
    "axis1 = Delta -2 2 81\noutputs = g2_numeric wat\n",  # unknown output
    "just some words\n",                           # no key = value shape
])
def test_parse_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_sweep_config(text)
