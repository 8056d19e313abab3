"""Sweep execution, extremum location, correspondence check, CSV and config I/O."""

import io
import sys
import tempfile
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
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
from blockade_lab import cli, lindblad, sweep
from blockade_lab.cli import fig1_spec
from blockade_lab.errors import ConfigError, NoInteriorExtremumError, SingularDenominatorError
from blockade_lab.quantum_core import PARAM_FIELDS
from blockade_lab.sweep import (
    OUTPUT_COLUMNS,
    _grid_rows,
    _mesh,
    csv_columns,
    evaluate,
    locate_extrema,
    parse_sweep_config,
    read_sweep_csv,
    write_sweep_csv,
)
from conftest import MIXED_ROWS

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


def _ulps_from_linspace(ax):
    """How far each value of ax is from np.linspace's, in ulps of |stop|."""
    return np.abs(ax.values() - np.linspace(ax.start, ax.stop, ax.count)) / np.spacing(abs(ax.stop))


@settings(max_examples=300, deadline=None)
@given(r=st.floats(1e-3, 100.0).map(lambda r: round(r, 6)) | st.floats(1e-9, 1e9), count=st.integers(2, 2001),
       name=st.sampled_from(["Delta", "delta_a", "delta"]))
@example(r=2.0, count=401, name="Delta")  # fig1's axis
@example(r=2.0, count=101, name="Delta")  # fig4's
@example(r=40.0, count=101, name="Delta")  # fig3's
@example(r=2.0, count=400, name="Delta")
@example(r=38.123456, count=5, name="Delta")  # cutoff_map's +-reach, one value moved
@example(r=61.837281, count=35, name="Delta")  # linspace's centre is -7e-15
@example(r=54.723463, count=39, name="delta")  # and here +7e-15
@example(r=0.885536, count=15, name="Delta")  # a value moved by 3 ulps
def test_an_axis_from_minus_to_plus_r_is_exactly_antisymmetric(r, count, name):
    ax = Axis(name, -r, r, count)
    v = ax.values()
    assert len(v) == count and v[0] == -r and v[-1] == r
    half = count // 2
    assert v[:half].tobytes() == (-v[::-1][:half]).tobytes()
    if count % 2:
        assert v[half] == 0.0 and not np.signbit(v[half])
    assert np.all(np.diff(v) > 0)
    # the lower half is linspace's; an upper value moves by |linspace[i] +
    # linspace[n-1-i]|: (n-1)*step misses 2r by under 2 ulps of r, and the
    # roundings of the two values add under 2.5 more
    assert v[:half].tobytes() == np.linspace(-r, r, count)[:half].tobytes()
    assert np.all(_ulps_from_linspace(ax) < 4.5)


@settings(max_examples=300, deadline=None)
@given(start=st.floats(-1e3, 1e3), span=st.floats(1e-6, 2e3), count=st.integers(2, 2001))
@example(start=-2.0, span=4.000000000000001, count=401)  # a hair from symmetric
@example(start=-1.0, span=3.0, count=7)
@example(start=-40.0, span=40.0, count=101)
def test_any_other_axis_is_linspace_bit_for_bit(start, span, count):
    stop = start + span
    if start == -stop or not start < stop:
        return
    ax = Axis("Delta", start, stop, count)
    assert ax.values().tobytes() == np.linspace(start, stop, count).tobytes()


@pytest.mark.parametrize("spec, moved", [
    (fig1_spec(), [86]), (cli.fig3_spec(), [0, 34]), (cli.fig4_spec(), [22, 0]), (cli.fig3_spec(10, 7), [0, 2]),
], ids=["fig1", "fig3", "fig4", "fig3_nmax_10_grid_7"])
def test_the_presets_axes_move_by_at_most_2_ulps(spec, moved):
    assert [int(np.count_nonzero(_ulps_from_linspace(ax))) for ax in spec.axes] == moved
    assert max(_ulps_from_linspace(ax).max() for ax in spec.axes) <= 2


@pytest.mark.parametrize("axes", [
    (Axis("Delta", -2.0, 2.0, 401),),
    (Axis("Delta", -61.837281, 61.837281, 35),),
    (Axis("delta_a", -0.885536, 0.885536, 15),),
    (Axis("Delta", -2.0, 2.0, 400),),
    (Axis("g", 5.0, 30.0, 5), Axis("Delta", -38.123456, 38.123456, 5)),
    (Axis("Delta", -40.0, 40.0, 7), Axis("kappa", 0.01, 0.5, 3)),
], ids=["fig1", "nonzero_linspace_centre", "three_ulps", "even", "cutoff_map", "Delta_outer"])
def test_a_symmetric_sweeps_csv_reads_back_its_axes_and_coordinates(axes):
    spec = SweepSpec(base=BASE, axis1=axes[0], axis2=axes[1] if len(axes) > 1 else None,
                     outputs=("g2_analytic", "coh_analytic"))
    res = run_sweep(spec)
    back = read_sweep_csv(io.StringIO(_dump(res)))  # its full-grid check passes
    assert back.axes == axes
    for ax in axes:
        assert back.coords[ax.name].tobytes() == res.coords[ax.name].tobytes()


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
    # two axes may not set a common field, and Delta sets delta_a and delta
    for first, second in [("Delta", "Delta"), ("Delta", "delta_a"), ("delta_a", "Delta"),
                          ("Delta", "delta"), ("delta", "Delta")]:
        with pytest.raises(ConfigError, match="different parameters"):
            SweepSpec(base=BASE, axis1=Axis(first, -1.0, 1.0, 3), axis2=Axis(second, 0.0, 1.0, 3))
    SweepSpec(base=BASE, axis1=Axis("delta_a", -1.0, 1.0, 3), axis2=Axis("delta", 0.0, 1.0, 3))


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
    spec = SweepSpec(base=base, axis1=Axis("Delta", 0.5, 1.5, 3))
    res = run_sweep(spec)
    assert res.status == ["NoDissipationError", "SingularDenominatorError",
                          "NoDissipationError"]
    assert np.all(np.isnan(res.column("g2_numeric")))
    assert np.isnan(res.column("g2_analytic")[1])
    assert np.all(np.isfinite(res.column("g2_analytic")[[0, 2]]))
    assert np.all(np.isfinite(res.column("coh_analytic")[[0, 2]]))

    # evaluate owns that policy: on the analytic branch only the lossless
    # resonance fails, and its coherence is NaN with its g2
    rows = _grid_rows(spec, _mesh(spec.axes))
    values, failed = evaluate(rows, spec.hilbert, ("g2_analytic", "coh_analytic"))
    assert list(failed) == [1] and type(failed[1]) is SingularDenominatorError
    assert np.isnan(values["coh_analytic"][1])
    assert np.all(np.isfinite(values["coh_analytic"][[0, 2]]))
    # at alpha = 0 only g2 fails; the coherence after it is NaN only if g2 was asked for
    row = SystemParams(g=1.0, kappa=0.05, gamma=0.0, eta=0.01, delta_a=0.0, delta=0.0).row()
    values, failed = evaluate(row, HilbertConfig(4), ("coh_analytic",))
    assert failed == {} and values["coh_analytic"][0] == 0.02
    values, failed = evaluate(row, HilbertConfig(4), ("g2_analytic", "coh_analytic"))
    assert type(failed[0]) is SingularDenominatorError and np.isnan(values["coh_analytic"][0])


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


def test_fig1_in_its_chunks_and_a_one_row_remainder_equals_chunks_of_one():
    # 321 rows have 161 distinct canonical rows, 2 chunks of 80 and one row;
    # 197 rows have 99, a chunk of 80 and one of 19. Every chunk, the one-row
    # remainder too, goes to steady_states_at, and none to steady_state.
    for grid, distinct, remainder in ((321, 161, 1), (197, 99, 19)):
        spec = replace(fig1_spec(grid=grid), outputs=OUTPUT_COLUMNS)
        solved = len(sweep._distinct_canonical(_grid_rows(spec, _mesh(spec.axes)))[0])
        assert sweep._chunk_size(spec.hilbert) == 80 and solved == distinct and solved % 80 == remainder
        with mock.patch.object(sweep, "steady_state", wraps=lindblad.steady_state) as single:
            whole = run_sweep(spec)
        assert single.call_count == 0, grid
        with mock.patch.object(sweep, "_CHUNK_BYTES", 1):
            ones = run_sweep(spec)
        assert ones.status == whole.status
        for name in OUTPUT_COLUMNS:
            assert np.array_equal(ones.column(name).view(np.int64),
                                  whole.column(name).view(np.int64)), (grid, name)


def test_a_chunk_is_one_point_or_fits_the_budget_with_the_kernel_buffers():
    held = {}

    def solve_one_chunk(h):
        # a new thread has new kernel buffers, so they are those of this call alone
        size = sweep._chunk_size(h)
        rows = np.repeat(BASE.row(), size, axis=0)
        lindblad.steady_states_at(rows, h)
        kernel = lindblad._block_kernel(h.dim)
        mine = kernel._local  # read on this thread: its own buffers
        buffers = (mine.factors, mine.work, mine.state, mine.sums)
        # A_0, U_0 and B_0 real, each block of q >= 1 complex at half its
        # real size, and F_k^T the size of B_k^T
        s = kernel.sizes
        assert mine.factors.shape[1] == s[0] * (s[0] + s[1]) + 2 * s[0] * s[1] + sum(
            s[k] ** 2 + 3 * s[k] * s[k + 1] for k in range(1, len(s) - 1)) // 2 + s[-1] ** 2 // 2
        # one sum for each row of F_k^T, S_k^-T and G_k^T (realify(G_0)^T for
        # k = 0), and the constants 1 and 0; none for a row of U_0
        assert mine.sums.shape[1] == 2 * s[0] + s[1] + (sum(s[1:-1]) + sum(s[1:]) + sum(s[2:])) // 2 + 2
        # the chunk's nonzero values, and no L stack
        nbytes = lindblad._basis(h).assemble(rows).nbytes + sum(b.nbytes for b in buffers)
        assert nbytes == size * lindblad.steady_state_bytes(h)
        held[h.n_max] = size, {len(b) for b in buffers}, nbytes

    for nmax in range(1, 11):
        worker = threading.Thread(target=solve_one_chunk, args=(HilbertConfig(nmax),))
        worker.start()
        worker.join()
        size, lengths, nbytes = held[nmax]
        assert lengths == {size}, nmax
        assert size == 1 or nbytes <= sweep._CHUNK_BYTES, nmax
        # and one more point would not fit
        assert nbytes // size * (size + 1) > sweep._CHUNK_BYTES, nmax
    assert [held[nmax][0] for nmax in (4, 5, 6, 7, 8, 10)] == [80, 47, 30, 20, 14, 8]
    assert [sweep._chunk_size(HilbertConfig(nmax)) for nmax in (13, 14)] == [4, 3]
    assert [held[nmax][2] // held[nmax][0] for nmax in (4, 10)] == [53_216, 520_416]


_NUMERIC = ("g2_numeric", "coh_numeric", "mean_photon")


def _n_max_10_rows_with_failures():
    """Nine n_max-10 rows, a chunk of 8 and one row: fine ones, a lossless one and an overflowing one."""
    rows = _grid_rows(cli.fig3_spec(nmax=10, grid=3), _mesh(cli.fig3_spec(nmax=10, grid=3).axes))
    lossless = replace(BASE, kappa=0.0, gamma=0.0, delta_a=1.0, delta=1.0).row()
    overflowing = replace(BASE, delta_a=1.7e308, delta=1.7e308).row()
    return np.concatenate([rows[:2], lossless, rows[2:5], overflowing, rows[5:7]])


def _called_from(workers, call, *args):
    """call(*args) on this thread for 1 worker, or for 2 on a fresh thread, whose kernel buffers start cold."""
    if workers == 1:
        return call(*args)
    with ThreadPoolExecutor(1) as fresh:
        return fresh.submit(call, *args).result()


def _noting_threads(solve, seen):
    """solve, appending the thread of each call to seen."""
    def call(*args, **kwargs):
        seen.append(threading.get_ident())
        return solve(*args, **kwargs)

    return call


@pytest.mark.parametrize("rows, h, outputs, chunk_rows", [
    (_grid_rows(fig1_spec(), _mesh(fig1_spec().axes)), HilbertConfig(), OUTPUT_COLUMNS, None),
    # 27 distinct rows: one chunk at the default budget, so a budget of 26
    # rows makes a chunk and a one-row remainder
    (_grid_rows(fig1_spec(grid=53), _mesh(fig1_spec(grid=53).axes)), HilbertConfig(), OUTPUT_COLUMNS, 26),
    (_grid_rows(fig1_spec(grid=81), _mesh(fig1_spec(grid=81).axes)), HilbertConfig(), OUTPUT_COLUMNS, None),
    (_n_max_10_rows_with_failures(), HilbertConfig(10), OUTPUT_COLUMNS, None),
    (_n_max_10_rows_with_failures(), HilbertConfig(10), _NUMERIC, None),
], ids=["fig1_401", "fig1_53", "fig1_81", "n_max_10_mixed", "n_max_10_mixed_numeric"])
def test_evaluate_on_two_workers_equals_evaluate_on_one(rows, h, outputs, chunk_rows):
    # the "2" side is the same evaluate called from a fresh thread, whose
    # kernel buffers start cold
    outcomes, threads = {}, {}
    budget = sweep._CHUNK_BYTES if chunk_rows is None else chunk_rows * lindblad.steady_state_bytes(h)

    def called(seen):
        seen["caller"] = threading.get_ident()
        values, failed = evaluate(rows, h, outputs)
        return ({name: column.tobytes() for name, column in values.items()},
                [(r, type(e), str(e)) for r, e in failed.items()])

    for workers in (1, 2):
        threads[workers] = seen = {"chunks": [], "rows": []}
        with mock.patch.object(sweep, "_CHUNK_BYTES", budget), \
                mock.patch.object(sweep, "steady_states_at",
                                  _noting_threads(lindblad.steady_states_at, seen["chunks"])), \
                mock.patch.object(sweep, "steady_state", _noting_threads(lindblad.steady_state, seen["rows"])):
            outcomes[workers] = _called_from(workers, called, seen)
    assert outcomes[2] == outcomes[1]
    # every chunk of the distinct canonical rows, a one-row remainder too,
    # went to steady_states_at on the thread that called evaluate, and none
    # to steady_state
    assert threads[1]["caller"] == threading.get_ident() != threads[2]["caller"]
    for workers in (1, 2):
        seen = threads[workers]
        assert set(seen["chunks"]) == {seen["caller"]}
        assert seen["rows"] == []
    if h.n_max == 10:
        # the lossless and the overflowing row fail
        errors = [(r, error.__name__) for r, error, _ in outcomes[1][1]]
        assert errors == ([(2, "NoDissipationError"), (6, "ValueError")] if outputs == _NUMERIC
                          else [(2, "SingularDenominatorError"), (6, "OverflowError")])


@pytest.mark.parametrize("chunk_bytes", [sweep._CHUNK_BYTES, 1])
def test_an_evaluate_of_one_row_or_of_more_starts_no_thread(chunk_bytes):
    # no evaluate starts a thread: of one row, and of three rows, whose two
    # distinct canonical rows (delta -1 is the mirror of 1) are one chunk at
    # the default budget, or two chunks of one row at a budget of 1 byte
    rows = np.repeat(BASE.row(), 3, axis=0)
    rows[:, PARAM_FIELDS.index("delta")] = (-1.0, 0.0, 1.0)
    with mock.patch.object(sweep, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(threading.Thread, "start", side_effect=AssertionError("work handed over")):
        for some in (rows[:1], rows):
            values, failed = evaluate(some, HilbertConfig(), OUTPUT_COLUMNS)
            assert not failed and np.isfinite(values["g2_numeric"]).all()


def _evaluate_with_a_failing_second_chunk_then_without():
    """Evaluate fig1 at 81 rows in chunks of 16 with an error in the second chunk, then again without one.

    Returns the second evaluate's values and failures, the values of an
    evaluate before the two, and the threads alive before and after each
    evaluate.
    """
    rows = _grid_rows(fig1_spec(grid=81), _mesh(fig1_spec(grid=81).axes))
    h, solve_chunk, calls = HilbertConfig(), lindblad.steady_states_at, []

    def chunk(rows, h):
        calls.append(len(rows))
        if len(calls) == 2:
            raise RuntimeError("second chunk failed")
        return solve_chunk(rows, h)

    alive = [threading.enumerate()]
    with mock.patch.object(sweep, "_CHUNK_BYTES", 16 * lindblad.steady_state_bytes(h)):
        want = evaluate(rows, h, OUTPUT_COLUMNS)[0]
        alive.append(threading.enumerate())
        with mock.patch.object(sweep, "steady_states_at", chunk), pytest.raises(RuntimeError, match="second"):
            evaluate(rows, h, OUTPUT_COLUMNS)
        alive.append(threading.enumerate())
        # the 41 distinct rows are chunks of 16, 16 and 9: the error stopped the solve
        assert calls == [16, 16]
        values, failed = evaluate(rows, h, OUTPUT_COLUMNS)
        alive.append(threading.enumerate())
    return values, failed, want, alive


def test_an_error_in_a_later_chunk_is_raised_by_evaluate():
    # an error in the second chunk is raised by evaluate, and the next
    # evaluate gives the usual bits
    values, failed, want, _ = _evaluate_with_a_failing_second_chunk_then_without()
    assert not failed and np.isfinite(values["g2_numeric"]).all()
    assert {name: column.tobytes() for name, column in values.items()} == \
           {name: column.tobytes() for name, column in want.items()}


def test_evaluate_leaves_no_sweep_thread_running():
    started, start = [], threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    with mock.patch.object(threading.Thread, "start", counted):
        _, _, _, alive = _evaluate_with_a_failing_second_chunk_then_without()
    # no evaluate started a thread, and the threads alive stayed the same
    assert started == []
    assert all(threads == alive[0] for threads in alive)


def test_evaluate_from_more_threads_than_cores_gives_each_caller_its_own_bits():
    grids = (81, 85, 89, 93)
    rows = {grid: _grid_rows(fig1_spec(grid=grid), _mesh(fig1_spec(grid=grid).axes)) for grid in grids}
    want = {grid: evaluate(rows[grid], HilbertConfig(), OUTPUT_COLUMNS)[0] for grid in grids}
    got = {grid: [] for grid in grids}

    def caller(grid):
        for _ in range(3):
            got[grid].append(evaluate(rows[grid], HilbertConfig(), OUTPUT_COLUMNS)[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(grid,)) for grid in grids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for grid in grids:
        assert len(got[grid]) == 3, grid
        for values in got[grid]:
            assert all(values[name].tobytes() == want[grid][name].tobytes() for name in OUTPUT_COLUMNS), grid


def test_a_warm_evaluate_at_n_max_10_allocates_less_than_one_dense_liouvillian():
    h = HilbertConfig(10)
    # four rows, none the mirror of another, so they stay one chunk of four
    rows = np.repeat(BASE.row(), 4, axis=0)
    rows[:, PARAM_FIELDS.index("delta")] = (-1.0, 2.0, 0.5, 3.0)
    rows[:, PARAM_FIELDS.index("delta_a")] = (-1.0, 2.0, 0.5, 3.0)
    assert sweep._chunk_size(h) >= 4 and len(sweep._distinct_canonical(rows)[0]) == 4
    evaluate(rows, h, OUTPUT_COLUMNS)
    tracemalloc.start()
    try:
        values, failed = evaluate(rows, h, OUTPUT_COLUMNS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not failed and np.isfinite(values["g2_numeric"]).all()
    assert peak < 8 * h.dim ** 4, peak


# --- the Delta -> -Delta mirror

_DETUNINGS = sweep._DETUNINGS


def _detuned(delta_a, delta):
    return replace(BASE, delta_a=delta_a, delta=delta).row()


# The kinds of row of MIXED_ROWS at detunings of each sign, and fine rows on
# the lines where a detuning is zero
_SIGNED_ROWS = np.concatenate([MIXED_ROWS, MIXED_ROWS * [1, 1, 1, 1, 1, -1], MIXED_ROWS * [1, 1, 1, 1, -1, 1],
                               _detuned(0.0, 0.7), _detuned(0.0, -0.7), _detuned(0.7, 0.0), _detuned(0.0, 0.0)])


def _mirrored(rows):
    """rows with both detunings negated."""
    mirror = rows.copy()
    mirror[:, _DETUNINGS] = -rows[:, _DETUNINGS]
    return mirror


def _as_given(rows):
    """_distinct_canonical that leaves each row as it is, its own distinct row."""
    return np.array(rows, dtype=float), np.arange(len(rows))


def _outcome(values, failed):
    """The value bits of an evaluate, and each failed row's error class and message."""
    return ({name: column.tobytes() for name, column in values.items()},
            {row: (type(exc), str(exc)) for row, exc in failed.items()})


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("nmax", range(1, 11))
def test_a_row_and_its_mirror_give_the_same_bits_and_failures(nmax, workers):
    # evaluate solves a row's canonical row in its place, so the solve of a
    # row as given and of its mirror must agree to the bit; chunks of three
    # rows mix the failing rows with fine ones; on 2 workers every evaluate
    # is called from a fresh thread
    h = HilbertConfig(nmax)
    zeros = _SIGNED_ROWS[(_SIGNED_ROWS[:, _DETUNINGS] == 0).any(axis=1)]
    negative_zeros = zeros.copy()
    negative_zeros[:, _DETUNINGS] = np.where(zeros[:, _DETUNINGS] == 0, -0.0, zeros[:, _DETUNINGS])
    assert len(zeros) == 4

    def outcome(rows):
        return _called_from(workers, lambda: _outcome(*evaluate(rows, h, OUTPUT_COLUMNS)))

    with mock.patch.object(sweep, "_CHUNK_BYTES", 3 * lindblad.steady_state_bytes(h)):
        want = outcome(_SIGNED_ROWS)
        assert outcome(_mirrored(_SIGNED_ROWS)) == want
        with mock.patch.object(sweep, "_distinct_canonical", _as_given):
            assert outcome(_SIGNED_ROWS) == want
            assert outcome(_mirrored(_SIGNED_ROWS)) == want
            # and a detuning of -0.0 gives the bits of +0.0
            assert outcome(negative_zeros) == outcome(zeros)
    # the lossless, the overflowing and the singular row of MIXED_ROWS fail at each sign
    assert {1, 2, 3, 8, 9, 10, 15, 16, 17} <= set(want[1])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("nmax", [1, 4, 10])
def test_a_grid_of_mirrors_and_copies_equals_its_rows_one_at_a_time(nmax, workers):
    h = HilbertConfig(nmax)
    grid = np.concatenate([_SIGNED_ROWS, _mirrored(_SIGNED_ROWS), _SIGNED_ROWS])
    values, failed = _called_from(workers, evaluate, grid, h, OUTPUT_COLUMNS)
    for r in range(len(grid)):
        one, one_failed = evaluate(grid[r:r + 1], h, OUTPUT_COLUMNS)
        assert _outcome(one, one_failed) == _outcome({name: column[r:r + 1] for name, column in values.items()},
                                                     {0: failed[r]} if r in failed else {}), r


@pytest.mark.parametrize("spec, distinct", [
    (fig1_spec(), 201), (cli.fig3_spec(), 5_151), (cli.fig4_spec(), 5_151),
    # an exactly symmetric grid: every row but (0, 0) pairs with its mirror,
    # and (0, -x) goes to (+0.0, x)
    (SweepSpec(base=BASE, axis1=Axis("delta_a", -1.0, 1.0, 9), axis2=Axis("delta", -1.0, 1.0, 9)), 41),
], ids=["fig1", "fig3", "fig4", "delta_a_x_delta"])
def test_each_distinct_canonical_row_of_a_grid_is_solved_once(spec, distinct):
    # a solve that returns zeros, so that only the rows it receives count;
    # the one-row solve of a point query must not be reached from a sweep
    solved = []

    def chunk(rows, h):
        solved.append(rows)
        return np.zeros((len(rows), h.dim ** 2)), {}

    with mock.patch.object(sweep, "steady_states_at", chunk), \
            mock.patch.object(sweep, "liouvillians", side_effect=AssertionError("a one-row solve in a sweep")), \
            mock.patch.object(sweep, "steady_state", side_effect=AssertionError("a one-row solve in a sweep")):
        evaluate(_grid_rows(spec, _mesh(spec.axes)), spec.hilbert, OUTPUT_COLUMNS)
    got = np.concatenate(solved)
    assert len(got) == distinct
    # each one canonical, with no -0.0, and no two the same
    delta_a, delta = got[:, _DETUNINGS].T
    assert np.all((delta_a > 0) | ((delta_a == 0) & (delta >= 0)))
    assert not np.signbit(got[:, _DETUNINGS][got[:, _DETUNINGS] == 0]).any()
    assert len({row.tobytes() for row in got}) == distinct


def test_the_distinct_rows_come_sorted_in_field_order_so_each_delta_line_is_one_run():
    spec = cli.fig3_spec(grid=11)
    distinct, index = sweep._distinct_canonical(_grid_rows(spec, _mesh(spec.axes)))
    # g first, the detunings last, all of them nonnegative here
    assert np.array_equal(np.lexsort(distinct.T[::-1]), np.arange(len(distinct)))
    g = distinct[:, 0]
    assert np.count_nonzero(np.diff(g)) == 10 and len(distinct) == 11 * 6


# Delta lines of 4 distinct rows at n_max 4: fine rows, lossless rows and
# rows with g = gamma = 0, whose M is exactly singular
_LINE_DELTAS = [0.25, 0.5, 1.0, 2.0]
_LINES = np.concatenate([np.repeat(row, 4, axis=0) for row in (
    BASE.row(), replace(BASE, kappa=0.0, gamma=0.0).row(), replace(BASE, g=0.0, gamma=0.0).row())])
_LINES[:, _DETUNINGS] = np.tile(_LINE_DELTAS, 3)[:, None]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("nmax", [1, 4, 10])
@pytest.mark.parametrize("mixed", [False, True], ids=["lines", "lines_and_mixed_rows"])
def test_chunks_that_share_step_0_equal_their_rows_one_at_a_time(mixed, nmax, workers):
    # in chunks of 4 rows each Delta line and its mirror is one chunk, whose
    # rows load the same step-0 blocks; MIXED_ROWS adds rows that fall
    # between the lines
    h = HilbertConfig(nmax)
    grid = np.concatenate([_LINES, _mirrored(_LINES)] + [MIXED_ROWS] * mixed)
    with mock.patch.object(sweep, "_CHUNK_BYTES", 4 * lindblad.steady_state_bytes(h)):
        values, failed = _called_from(workers, evaluate, grid, h, OUTPUT_COLUMNS)
    assert {type(exc).__name__ for exc in failed.values()} >= {"NoDissipationError", "DegenerateSteadyStateError"}
    for r in range(len(grid)):
        one, one_failed = evaluate(grid[r:r + 1], h, OUTPUT_COLUMNS)
        assert _outcome(one, one_failed) == _outcome({name: column[r:r + 1] for name, column in values.items()},
                                                     {0: failed[r]} if r in failed else {}), r


def test_a_one_row_evaluate_solves_its_row_as_given():
    row, h = _detuned(-1.0, -0.5), HilbertConfig()
    with mock.patch.object(sweep, "_distinct_canonical", side_effect=AssertionError("canonicalised")), \
            mock.patch.object(sweep, "steady_states_at", side_effect=AssertionError("solved as a chunk")), \
            mock.patch.object(sweep, "steady_state", wraps=lindblad.steady_state) as single:
        values, failed = evaluate(row, h, OUTPUT_COLUMNS)
    assert not failed and single.call_count == 1
    assert single.call_args.args[0].tobytes() == lindblad.liouvillians(row, h)[0].tobytes()
    assert single.call_args.args[0].tobytes() != lindblad.liouvillians(_mirrored(row), h)[0].tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_only_a_one_row_evaluate_calls_steady_state_and_on_the_calling_thread(workers):
    # a tracer of sweep.steady_state sees one call for each point query and
    # none for a sweep: fig1's 401 rows solve 201, 2 chunks of 80 and one of
    # 41, and with _CHUNK_BYTES at 1 every chunk has one row; on 2 workers
    # the evaluates are called from a fresh thread
    fig1_rows, h, callers = _grid_rows(fig1_spec(), _mesh(fig1_spec().axes)), HilbertConfig(), []

    def evaluates():
        for one in (fig1_rows[:1], MIXED_ROWS[1:2]):  # a fine row and a lossless one
            callers.clear()
            evaluate(one, h, OUTPUT_COLUMNS)
            assert callers == [threading.get_ident()]
        callers.clear()
        evaluate(fig1_rows, h, OUTPUT_COLUMNS)
        evaluate(MIXED_ROWS, h, OUTPUT_COLUMNS)
        with mock.patch.object(sweep, "_CHUNK_BYTES", 1):
            evaluate(MIXED_ROWS, h, OUTPUT_COLUMNS)
            evaluate(fig1_rows[:2], h, OUTPUT_COLUMNS)

    with mock.patch.object(sweep, "steady_state", _noting_threads(lindblad.steady_state, callers)):
        _called_from(workers, evaluates)
    assert callers == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_grid_at_n_max_11_in_one_row_chunks_equals_its_rows_one_at_a_time(workers):
    # a budget of one row's bytes, which from n_max 17 is _CHUNK_BYTES
    # itself; MIXED_ROWS has a lossless row, an overflowing one and two the
    # certificate refuses
    h = HilbertConfig(11)
    solvers = []

    def called():
        return threading.get_ident(), evaluate(MIXED_ROWS, h, _NUMERIC)

    with mock.patch.object(sweep, "_CHUNK_BYTES", lindblad.steady_state_bytes(h)), \
            mock.patch.object(sweep, "steady_states_at", _noting_threads(lindblad.steady_states_at, solvers)):
        caller, (values, failed) = _called_from(workers, called)
    # seven one-row chunks, all solved on the thread that called evaluate,
    # a fresh one on 2 workers
    assert (caller == threading.get_ident()) == (workers == 1)
    assert solvers == [caller] * len(MIXED_ROWS)
    assert {r: type(exc).__name__ for r, exc in failed.items()} == {
        1: "NoDissipationError", 2: "ValueError", 3: "DegenerateSteadyStateError",
        5: "DegenerateSteadyStateError"}
    for r in range(len(MIXED_ROWS)):
        one, one_failed = evaluate(MIXED_ROWS[r:r + 1], h, _NUMERIC)
        assert _outcome(one, one_failed) == _outcome({name: column[r:r + 1] for name, column in values.items()},
                                                     {0: failed[r]} if r in failed else {}), r


def test_two_axis_sweep_layout():
    res = run_sweep(SweepSpec(base=BASE,
                              axis1=Axis("kappa", 0.05, 0.1, 2),
                              axis2=Axis("Delta", -1.0, 1.0, 3),
                              outputs=("g2_analytic",)))
    assert len(res.status) == 6
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


def test_locate_extrema_passes_over_a_nan_and_its_neighbours():
    # cos(3x) on [-2, 2]: a minimum at -pi/3, a maximum at 0 and a minimum at
    # pi/3, whose grid point (x = 1.0) has a NaN right neighbour; a
    # comparison with NaN is false, so that minimum and the NaN drop out
    deltas = np.linspace(-2.0, 2.0, 41)
    curve = np.cos(3.0 * deltas)
    curve[31] = np.nan
    found = locate_extrema(synthetic_result(rows_from_curves(deltas, curve, curve)), "g2_analytic")
    assert [e.kind for e in found] == ["min", "max"]
    assert found[0].coordinate == pytest.approx(-np.pi / 3, abs=0.01)
    assert found[1].coordinate == pytest.approx(0.0, abs=1e-12) and found[1].value == 1.0


def test_locate_extrema_finds_what_the_loop_over_points_found():
    # the reference: the per-point loop that the array comparisons replaced;
    # small integers make ties, and a tenth of the points are NaN
    rng = np.random.default_rng(3)
    deltas = np.linspace(-2.0, 2.0, 31)
    for _ in range(50):
        y = rng.integers(0, 4, deltas.size).astype(float)
        y[rng.random(deltas.size) < 0.1] = np.nan
        want = []
        for i in range(1, len(y) - 1):
            if y[i] > y[i - 1] and y[i] > y[i + 1]:
                want.append(sweep.Extremum(*sweep._refine(deltas, y, i), "max"))
            elif y[i] < y[i - 1] and y[i] < y[i + 1]:
                want.append(sweep.Extremum(*sweep._refine(deltas, y, i), "min"))
        res = synthetic_result(rows_from_curves(deltas, y, y))
        if want:
            assert locate_extrema(res, "g2_numeric") == want
        else:
            with pytest.raises(NoInteriorExtremumError):
                locate_extrema(res, "g2_numeric")


def test_locate_extrema_row_selection():
    # extrema are located along a 1d sweep; a 2d result has no one curve to scan
    res = run_sweep(SweepSpec(base=BASE,
                              axis1=Axis("kappa", 0.05, 0.1, 2),
                              axis2=Axis("Delta", -2.0, 2.0, 41),
                              outputs=("coh_analytic",)))
    with pytest.raises(ConfigError, match="1d sweeps only"):
        locate_extrema(res, "coh_analytic")


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


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_zero_coherence_maximum_gives_a_nan_dark_ratio(zero):
    deltas = np.linspace(-2.0, 2.0, 9)
    g2 = 0.5 + (deltas**2 - 1.0) ** 2  # minima of 0.5 at +-1
    coh = -((deltas**2 - 1.0) ** 2)  # -1 at Delta = 0, peaks of 0 at +-1
    coh[np.abs(deltas) == 1.0] = zero
    res = synthetic_result(rows_from_curves(deltas, g2, coh))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_correspondence(res)
    assert report.passed
    assert all(np.isnan(b.dark_ratio) for b in report.branches)
    assert "numeric: dark-point coherence ratio nan; " in "\n".join(report.format_lines())


@pytest.mark.parametrize("threshold", [float("nan"), -1.0, float("inf")])
def test_correspondence_refuses_a_threshold_that_is_negative_or_not_finite(threshold):
    deltas = np.linspace(-2.0, 2.0, 21)
    res = synthetic_result(rows_from_curves(deltas, 0.01 + deltas**2, 1.0 / (1.0 + deltas**2)))
    assert check_correspondence(res).passed
    with pytest.raises(ConfigError, match="gap threshold"):
        check_correspondence(res, gap_threshold=threshold)


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


def test_csv_text_and_table_are_those_of_the_loop_over_rows():
    # the references: the per-row writer and the per-cell reader that the
    # one-write text and the one float table replaced, on a grid with
    # failed rows (NaN cells, log10 of NaN) at kappa = 0
    res = run_sweep(SweepSpec(base=replace(BASE, gamma=0.0), axis1=Axis("kappa", 0.0, 0.3, 4),
                              axis2=Axis("Delta", -2.0, 2.0, 5)))
    assert set(res.status) > {"ok"}
    header = csv_columns(res)
    cells = [res.coords[ax.name] for ax in res.axes] + list(res.columns.values())
    with np.errstate(divide="ignore", invalid="ignore"):
        cells += [np.log10(res.column(name[len("log10_"):])) for name in header if name.startswith("log10_")]
    want = ",".join(header) + "\n"
    for row, status in zip(np.column_stack(cells).tolist(), res.status):
        want += ",".join(map(repr, row)) + "," + status + "\n"
    text = _dump(res)
    assert text == want
    back = read_sweep_csv(io.StringIO(text))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    for j, name in enumerate(header[:-1]):
        if not name.startswith("log10_"):
            column = back.coords[name] if name in back.coords else back.column(name)
            assert column.tobytes() == np.array([float(r[j]) for r in rows]).tobytes(), name
    assert back.status == [r[-1] for r in rows]


def test_csv_reader_rejects_malformed_input():
    with pytest.raises(ConfigError):
        read_sweep_csv(io.StringIO(""))
    with pytest.raises(ConfigError):
        read_sweep_csv(io.StringIO("Delta,g2_numeric\n0.0,1.0\n"))  # no status
    header = "Delta,g2_numeric,status"
    # of two bad cells the first in row-major order is named, not the first column's
    with pytest.raises(ConfigError, match=r"^bad float 'abc' in column g2_numeric$"):
        read_sweep_csv(io.StringIO(header + "\n0.0,abc,ok\nxyz,1.0,ok\n"))
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


def test_every_default_cutoff_is_hilbert_configs():
    n_max = HilbertConfig().n_max
    assert parse_sweep_config("axis1 = Delta -2 2 81\n").hilbert.n_max == n_max
    assert SweepSpec(base=BASE, axis1=Axis("Delta", -1.0, 1.0, 3)).hilbert.n_max == n_max
    assert all(spec().hilbert.n_max == n_max
               for spec in (cli.fig1_spec, cli.fig3_spec, cli.fig4_spec))
    parser = cli._parser()
    assert parser.parse_args(["fig1"]).nmax == n_max
    assert parser.parse_args(["point", "--g", "1", "--kappa", "1", "--gamma", "1",
                              "--eta", "1"]).nmax == n_max


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
