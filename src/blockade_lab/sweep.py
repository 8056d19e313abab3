"""Parameter sweeps over both solver branches, extremum location, and CSV I/O.

A sweep walks one or two linear parameter axes, evaluates the requested
outputs at every grid point, and never aborts on a single bad point; failures
are recorded in a per-row status column. The grid is laid out in a fixed
row-major order (first axis outer) as a matrix of parameter rows, and
evaluate computes every row through one kernel: the closed forms as arrays
over the whole grid, and the numeric branch in chunks of rows, as many as a
fixed memory budget holds, whose Liouvillians go into the steady-state
solve as their nonzeros, with no dense stack formed (the one row of a point
query is solved as given, by steady_state on its dense L). The rows are
solved in the order of their bits, g first and the detunings last, the
order in which their copies are found, one chunk after another on the
calling thread.
H, a and sigma- are real, so the state at (-delta_a, -delta) is the
photon-parity image of the conjugate state at (delta_a, delta), and the
solve is sign-equivariant: negating both detunings changes no output bit
and no failure message. So evaluate solves the numeric branch of a grid
once for each distinct canonical row, one of each mirror pair, and copies
the results to every row that maps to it; an axis from -r to r is exactly
antisymmetric (Axis), so each of its rows has its mirror on the grid.
evaluate alone decides what a failure does to a row: its branch's later
outputs become NaN, and its first error is what a sweep's status column
and a point query report. A row's bits do not depend on the rows evaluated
with it, which rests on that sign-equivariance too (a property test of
tests/test_sweep.py guards it), so a point query prints the bits of its
sweep row and identical specs produce byte-identical CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .analytic import closed_forms
from .correlations import steady_observables
from .errors import ConfigError, NoInteriorExtremumError, SolverError
from .lindblad import liouvillians, steady_state, steady_state_bytes, steady_states_at
from .quantum_core import PARAM_FIELDS, HilbertConfig, SystemParams

# Axis names: the six physical parameters plus the linked detuning "Delta"
# which sets delta_a and delta together.
RATE_PARAMS = ("g", "kappa", "gamma", "eta")
AXIS_NAMES = RATE_PARAMS + ("delta_a", "delta", "Delta")

# Canonical output column order for results and CSV.
OUTPUT_COLUMNS = ("g2_analytic", "g2_numeric", "coh_analytic", "coh_numeric", "mean_photon")
# The steps of each branch in the order a point takes them; a step that fails
# leaves the later steps of its branch undone (NaN).
_ANALYTIC_STEPS = ("g2_analytic", "coh_analytic")
_NUMERIC_STEPS = ("steady_state", "g2_numeric", "coh_numeric", "mean_photon")
STATUS_OK = "ok"

# The memory a numeric chunk may hold, in the nonzero values of its
# Liouvillians and the block kernel's buffers (steady_state_bytes a point):
# 80 rows at n_max 4 and 8 at n_max 10. At half this budget (x1), at this
# one (x2) and at twice it (x4), a cutoff_map pass took 0.92, 0.85 and 0.83
# of the time that two threads took at x1, and a detuning_scan pass 0.93,
# 0.90 and 0.95; x4 adds about 4 MB of peak RSS (BENCH_one_thread.json).
_CHUNK_BYTES = 4200 * 1024

# The columns of a parameter row that the Delta -> -Delta mirror negates.
_DETUNINGS = [PARAM_FIELDS.index("delta_a"), PARAM_FIELDS.index("delta")]


@dataclass(frozen=True)
class Axis:
    """A linear grid over one parameter.

    Its values are np.linspace(start, stop, count), except on an axis with
    start == -stop, which is made exactly antisymmetric: the upper half is
    the negated lower half of linspace, reversed, and an odd count's middle
    value is +0.0. So each value's mirror is on the axis bit for bit, and a
    sweep solves each Delta-mirror pair of rows once; a value moves from
    linspace's by less than 4.5 ulps of stop.
    """

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ConfigError(f"unknown axis parameter {self.name!r}")
        if not all(math.isfinite(v) for v in (self.start, self.stop, self.stop - self.start)):
            raise ConfigError(f"axis {self.name}: start, stop and stop - start must be "
                              f"finite, got {self.start!r} to {self.stop!r}")
        if self.count < 2:
            raise ConfigError(f"axis {self.name}: count must be >= 2")
        if not self.start < self.stop:
            raise ConfigError(f"axis {self.name}: start must be < stop")
        if self.name in RATE_PARAMS and self.start < 0:
            raise ConfigError(f"axis {self.name}: rates cannot go negative")

    def values(self) -> np.ndarray:
        values = np.linspace(self.start, self.stop, self.count)
        if self.start == -self.stop:
            half = self.count // 2
            values[self.count - half:] = -values[half - 1::-1]
            if self.count % 2:
                values[half] = 0.0
        return values

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.count - 1)


def _fields_of(axis_name: str) -> tuple[str, ...]:
    """The SystemParams fields an axis sets; Delta sets both detunings."""
    return ("delta_a", "delta") if axis_name == "Delta" else (axis_name,)


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters, one or two axes setting disjoint fields, truncation, and outputs."""

    base: SystemParams
    axis1: Axis
    axis2: Axis | None = None
    hilbert: HilbertConfig = HilbertConfig()
    outputs: tuple[str, ...] = ("g2_analytic", "g2_numeric", "coh_analytic", "coh_numeric")

    def __post_init__(self):
        bad = [name for name in self.outputs if name not in OUTPUT_COLUMNS]
        if bad:
            raise ConfigError(f"unknown outputs {bad}; choose from {OUTPUT_COLUMNS}")
        if not self.outputs:
            raise ConfigError("at least one output column is required")
        fields = [name for ax in self.axes for name in _fields_of(ax.name)]
        if len(set(fields)) < len(fields):
            raise ConfigError("the two axes must sweep different parameters")
        if "g2_numeric" in self.outputs and self.hilbert.n_max < 2:
            raise ConfigError(f"g2_numeric needs n_max >= 2, got {self.hilbert.n_max}: "
                              f"a'a'aa is the zero operator below it")

    @property
    def axes(self) -> tuple[Axis, ...]:
        return (self.axis1,) if self.axis2 is None else (self.axis1, self.axis2)


@dataclass
class SweepResult:
    """Row-major grid results. Row count is the product of the axis counts."""

    axes: tuple[Axis, ...]
    coords: dict[str, np.ndarray]
    columns: dict[str, np.ndarray]
    status: list[str]

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ConfigError(f"result has no column {name!r}")
        return self.columns[name]


def _mesh(axes: tuple[Axis, ...]) -> list[np.ndarray]:
    """Per-row coordinates of the row-major grid, first axis outer."""
    values = [ax.values() for ax in axes]
    if len(axes) == 1:
        return [values[0]]
    return [np.repeat(values[0], axes[1].count), np.tile(values[1], axes[0].count)]


def _chunk_size(h: HilbertConfig) -> int:
    """Points per numeric chunk: as many of steady_state_bytes as fit _CHUNK_BYTES, at least 1."""
    return max(1, _CHUNK_BYTES // steady_state_bytes(h))


def _distinct_canonical(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct canonical rows of (N, 6) parameter rows, and the index of each row's one among them.

    A row's canonical row has (delta_a, delta) negated when delta_a < 0, or
    when delta_a == 0 and delta < 0, and a detuning of -0.0 made +0.0. Rows
    are distinct when their bits differ; the distinct rows come sorted by
    their bits in field order, g first and the detunings last, where equal
    rows sit next to each other, and distinct[index[r]] is row r's canonical
    row.
    """
    canonical = np.array(rows, dtype=float)
    detunings = canonical[:, _DETUNINGS]
    flip = (detunings[:, 0] < 0) | ((detunings[:, 0] == 0) & (detunings[:, 1] < 0))
    np.negative(detunings, out=detunings, where=flip[:, None])
    canonical[:, _DETUNINGS] = detunings + 0.0  # -0.0 + 0.0 is +0.0
    # Sorting the bits and comparing neighbours, where np.unique would
    # import numpy.ma (about 15 ms) on a fresh `sweep`.
    bits = canonical.view(np.int64)
    order = np.lexsort(bits.T[::-1])  # lexsort's last key is its first
    ordered = bits[order]
    opens = np.empty(len(rows), dtype=bool)  # where a run of equal rows opens
    opens[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=opens[1:])
    index = np.empty(len(rows), dtype=np.intp)
    index[order] = np.cumsum(opens) - 1
    return canonical[order[opens]], index


def _scatter(failures: dict, index: np.ndarray) -> dict:
    """failures, keyed by distinct row, keyed instead by each row that index maps to a failed one."""
    if not failures:
        return {}
    failing = np.zeros(len(index), dtype=bool)
    failing[list(failures)] = True
    hit = np.flatnonzero(failing[index])
    return {row: failures[at] for row, at in zip(hit.tolist(), index[hit].tolist())}


def _numeric(rows: np.ndarray, h: HilbertConfig, numeric: list[str]) -> tuple[dict, dict, dict]:
    """The numeric outputs of each row, solved in chunks, each row's solve failure and its g2 failure."""
    values = {name: np.empty(len(rows)) for name in numeric}
    size = _chunk_size(h)
    solve_failed, g2_failed = {}, {}
    for start in range(0, len(rows), size):
        chunk = rows[start:start + size]
        vecs, failures = steady_states_at(chunk, h)
        observed, undefined = steady_observables(vecs, h)
        for name in numeric:
            values[name][start:start + len(chunk)] = observed[name]
        solve_failed.update((start + r, e) for r, e in failures.items())
        g2_failed.update((start + r, e) for r, e in undefined.items())
    return values, solve_failed, g2_failed


def evaluate(rows: np.ndarray, h: HilbertConfig,
             outputs: tuple[str, ...]) -> tuple[dict[str, np.ndarray], dict[int, Exception]]:
    """The requested outputs at each (N, 6) parameter row, and each failed row's first error.

    Returns values, one array per requested output, and failed, a dict from
    each failed row to its first error: the analytic branch's first failed
    step, else the numeric branch's. Within a branch a failed step leaves
    its own output and the later ones NaN at that row, in the order g2,
    coherence for the analytic branch and steady state, g2, coherence, mean
    photon number for the numeric one. Only the steps whose output was
    requested count, and the steady state when any numeric output is.

    The closed forms are evaluated as arrays over all rows at once. One row
    (a point query) is solved as given, by one steady_state call on its
    dense L. Of any other number of rows, the numeric branch solves only the
    distinct canonical rows (_distinct_canonical), and each row takes the
    values and failures of its canonical row. Those run in chunks of
    _chunk_size rows: one stacked assembly of the nonzeros of their
    Liouvillians and one stacked solve from them, with the gates of
    steady_state applied per row (steady_states_at, which gives the bits and
    messages of steady_state), and one elementwise product with the
    observable functionals. No step mixes rows, so a row's bits do not
    depend on N or on the chunk it falls in; and the solve is
    sign-equivariant, so they do not depend on whether the row or its mirror
    was solved.
    """
    values, step_failed = {}, {}
    if any(name in outputs for name in _ANALYTIC_STEPS):
        g2, coh, g2_failed, coh_failed = closed_forms(rows)
        for name, column, failures in (("g2_analytic", g2, g2_failed),
                                       ("coh_analytic", coh, coh_failed)):
            if name in outputs:
                values[name], step_failed[name] = column, failures
    numeric = [name for name in _NUMERIC_STEPS[1:] if name in outputs]
    if numeric:
        if len(rows) == 1:
            try:
                vecs, solve_failed = steady_state(liouvillians(rows, h)[0], coordinates=True)[None], {}
            except (ValueError, SolverError) as exc:
                vecs, solve_failed = np.full((1, h.dim ** 2), np.nan), {0: exc}
            observed, g2_failed = steady_observables(vecs, h)
        else:
            distinct, index = _distinct_canonical(rows)
            observed, solve_failed, g2_failed = _numeric(distinct, h, numeric)
            observed = {name: column[index] for name, column in observed.items()}
            solve_failed, g2_failed = _scatter(solve_failed, index), _scatter(g2_failed, index)
        values.update((name, observed[name]) for name in numeric)
        step_failed["steady_state"] = solve_failed
        if "g2_numeric" in outputs:
            step_failed["g2_numeric"] = g2_failed

    failed: dict[int, Exception] = {}
    for steps in (_ANALYTIC_STEPS, _NUMERIC_STEPS):
        earlier: set[int] = set()
        for name in steps:
            for row, exc in step_failed.get(name, {}).items():
                failed.setdefault(row, exc)
                earlier.add(row)
            if name in values:
                values[name][list(earlier)] = np.nan
    return values, failed


def _grid_rows(spec: SweepSpec, mesh: list[np.ndarray]) -> np.ndarray:
    """The (rows, 6) parameter rows of the grid: the base, with each axis's fields set."""
    rows = np.repeat(spec.base.row(), mesh[0].size, axis=0)
    for ax, grid in zip(spec.axes, mesh):
        for name in _fields_of(ax.name):
            rows[:, PARAM_FIELDS.index(name)] = grid
    return rows


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point through the requested branches.

    The grid's parameter rows go through evaluate in one call, so each row
    carries the same bits as a point query at its parameters. A failed
    point keeps the NaN that evaluate leaves in its columns and gets the
    class name of its first error in the status column; the sweep continues.
    """
    axes = spec.axes
    mesh = _mesh(axes)
    values, failed = evaluate(_grid_rows(spec, mesh), spec.hilbert, spec.outputs)
    status = [STATUS_OK] * mesh[0].size
    for row, exc in failed.items():
        status[row] = type(exc).__name__

    coords = {ax.name: np.asarray(grid, dtype=float) for ax, grid in zip(axes, mesh)}
    ordered = {name: values[name] for name in OUTPUT_COLUMNS if name in values}
    return SweepResult(axes=axes, coords=coords, columns=ordered, status=status)


@dataclass(frozen=True)
class Extremum:
    """An interior local extremum after parabolic refinement."""

    coordinate: float
    value: float
    kind: str  # "min" or "max"


def _refine(x: np.ndarray, y: np.ndarray, idx: int) -> tuple[float, float]:
    """Three-point parabolic refinement around an interior grid extremum."""
    h = x[idx + 1] - x[idx]
    denom = y[idx - 1] - 2.0 * y[idx] + y[idx + 1]
    if denom == 0.0:
        return float(x[idx]), float(y[idx])
    shift = 0.5 * (y[idx - 1] - y[idx + 1]) / denom
    coord = x[idx] + shift * h
    value = y[idx] - 0.25 * (y[idx - 1] - y[idx + 1]) * shift
    return float(coord), float(value)


def locate_extrema(result: SweepResult, column: str) -> list[Extremum]:
    """Interior local extrema of one output column of a 1d sweep, endpoints excluded.

    Raises ConfigError for a 2d sweep, and NoInteriorExtremumError when the
    curve is monotone (or too short to have an interior point).
    """
    y = result.column(column)
    if len(result.axes) != 1:
        raise ConfigError("extrema are located on 1d sweeps only")
    x = result.coords[result.axes[0].name]
    # a comparison with NaN is false: a NaN point, or one next to NaN, is no extremum
    middle, before, after = y[1:-1], y[:-2], y[2:]
    peaks = (middle > before) & (middle > after)
    dips = (middle < before) & (middle < after)
    found = [Extremum(*_refine(x, y, i), "max" if peaks[i - 1] else "min")
             for i in (np.flatnonzero(peaks | dips) + 1).tolist()]
    if not found:
        raise NoInteriorExtremumError(f"column {column!r} has no interior extremum")
    return found


@dataclass(frozen=True)
class BranchReport:
    """Correspondence data for one solver branch."""

    branch: str
    pairs: tuple[tuple[Extremum, Extremum, float], ...]  # (g2 min, coh max, gap in steps)
    max_gap_steps: float
    dark_ratio: float
    passed: bool
    missing: int  # rows with a non-finite g2 or coherence value


@dataclass(frozen=True)
class CorrespondenceReport:
    """Pairing of photon-statistics minima with coherence maxima."""

    branches: tuple[BranchReport, ...]
    gap_threshold: float

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.branches)

    def format_lines(self) -> list[str]:
        lines = []
        for rep in self.branches:
            for g2_min, coh_max, gap in rep.pairs:
                lines.append(
                    f"{rep.branch}: g2 min at {g2_min.coordinate:+.6g} "
                    f"(value {g2_min.value:.6g}) vs coherence max at "
                    f"{coh_max.coordinate:+.6g} (value {coh_max.value:.6g}); "
                    f"gap {gap:.3g} steps"
                )
            summary = (
                f"{rep.branch}: dark-point coherence ratio {rep.dark_ratio:.6g}; "
                f"max gap {rep.max_gap_steps:.3g} steps; "
                f"{'PASS' if rep.passed else 'FAIL'} at threshold {self.gap_threshold:g}"
            )
            if rep.missing:
                summary += f"; missing points: {rep.missing} (non-finite g2 or coherence)"
            lines.append(summary)
        lines.append(f"correspondence: {'PASS' if self.passed else 'FAIL'}")
        return lines


def check_correspondence(result: SweepResult, gap_threshold: float = 1.0) -> CorrespondenceReport:
    """Pair each blockade minimum with the nearest coherence maximum.

    Needs a 1d sweep over Delta. Evaluated separately for every branch whose
    two columns are both present. Only sub-Poissonian minima (g2 < 1) are
    paired when any exist: the detuning curve also has shallow local minima
    between its bunching peaks, and those say nothing about blockade. If no
    minimum dips below 1 every minimum is paired, so degraded parameter sets
    still produce a report. A branch passes when every pairing gap is at most
    gap_threshold grid steps and none of its g2 or coherence values is
    missing (non-finite): a failed point can hide an extremum, so it fails the
    branch and its summary line counts the missing points. The dark-point
    ratio (coherence at Delta = 0 over the coherence grid maximum, NaN where
    that maximum is zero) is reported, not gated. A negative or non-finite
    gap_threshold is a ConfigError.
    """
    if not 0.0 <= gap_threshold < math.inf:
        raise ConfigError(f"gap threshold must be finite and >= 0, got {gap_threshold!r}")
    if len(result.axes) != 1 or result.axes[0].name != "Delta":
        raise ConfigError("correspondence check needs a 1d sweep over Delta")
    step = result.axes[0].step
    x = result.coords["Delta"]

    reports = []
    for branch in ("analytic", "numeric"):
        g2_name, coh_name = f"g2_{branch}", f"coh_{branch}"
        if g2_name not in result.columns or coh_name not in result.columns:
            continue
        g2_minima = [e for e in locate_extrema(result, g2_name) if e.kind == "min"]
        coh_maxima = [e for e in locate_extrema(result, coh_name) if e.kind == "max"]
        blockade = [e for e in g2_minima if e.value < 1.0]
        if blockade:
            g2_minima = blockade
        if not g2_minima or not coh_maxima:
            raise NoInteriorExtremumError(f"{branch}: missing minima or maxima to pair")
        pairs = []
        for minimum in g2_minima:
            nearest = min(coh_maxima, key=lambda e: abs(e.coordinate - minimum.coordinate))
            gap = abs(nearest.coordinate - minimum.coordinate) / step
            pairs.append((minimum, nearest, gap))
        max_gap = max(gap for _, _, gap in pairs)
        coh_vals = result.column(coh_name)
        dark = float(coh_vals[np.argmin(np.abs(x))])
        peak = float(np.max(coh_vals))
        ratio = dark / peak if peak != 0.0 else math.nan
        finite = np.isfinite(result.column(g2_name)) & np.isfinite(coh_vals)
        missing = int(np.count_nonzero(~finite))
        reports.append(BranchReport(
            branch=branch,
            pairs=tuple(pairs),
            max_gap_steps=max_gap,
            dark_ratio=ratio,
            passed=bool(max_gap <= gap_threshold and missing == 0),
            missing=missing,
        ))
    if not reports:
        raise ConfigError("result has no complete (g2, coherence) column pair")
    return CorrespondenceReport(branches=tuple(reports), gap_threshold=gap_threshold)


# ---------------------------------------------------------------------------
# CSV

def csv_columns(result: SweepResult) -> list[str]:
    """Column layout: coordinates, outputs, log10 of g2 columns (2d only), status."""
    names = [ax.name for ax in result.axes]
    names += list(result.columns.keys())
    if len(result.axes) == 2:
        names += [f"log10_{c}" for c in result.columns if c.startswith("g2_")]
    names.append("status")
    return names


def write_sweep_csv(result: SweepResult, stream: TextIO) -> None:
    """Emit the result as CSV: LF endings, shortest round-trip floats.

    Each numeric column of the csv_columns layout is taken as float64 and
    written as the repr of its Python floats, a row at a time and then the
    status; the whole text is formed first and written once.
    """
    header = csv_columns(result)
    cells = [result.coords[ax.name] for ax in result.axes]
    cells += list(result.columns.values())
    with np.errstate(divide="ignore", invalid="ignore"):
        cells += [np.log10(result.column(name[len("log10_"):]))
                  for name in header if name.startswith("log10_")]
    columns = [map(repr, np.asarray(column, dtype=float).tolist()) for column in cells]
    ends = [status + "\n" for status in result.status]
    stream.write(",".join(header) + "\n" + "".join(map(",".join, zip(*columns, ends))))


def read_sweep_csv(stream: Iterable[str]) -> SweepResult:
    """Parse a file produced by write_sweep_csv back into a SweepResult.

    Axes are reconstructed from the coordinate columns; values round-trip
    exactly since they were written in shortest round-trip form. The
    coordinates must form the full row-major grid of Axis.values that
    run_sweep writes, to within 1e-9 of a step; anything else raises
    ConfigError.
    """
    lines = [line.rstrip("\n") for line in stream if line.strip()]
    if not lines:
        raise ConfigError("empty CSV input")
    header = lines[0].split(",")
    if header[-1] != "status":
        raise ConfigError("expected a trailing status column")
    coord_names = [name for name in header if name in AXIS_NAMES]
    data_names = [name for name in header[:-1] if name not in coord_names]

    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        raise ConfigError("CSV has a header but no data rows")
    if any(len(r) != len(header) for r in rows):
        raise ConfigError("ragged CSV row")
    cells = [cell for r in rows for cell in r[:-1]]
    try:
        numbers = list(map(float, cells))
    except ValueError:
        for at, cell in enumerate(cells):  # name the first bad cell, row by row
            try:
                float(cell)
            except ValueError as exc:
                raise ConfigError(f"bad float {cell!r} in column {header[at % (len(header) - 1)]}") from exc
    # one column a row of the transposed table
    table = dict(zip(header[:-1], np.array(numbers).reshape(len(rows), len(header) - 1).T.copy()))
    status = [r[-1] for r in rows]

    axes = []
    for name in coord_names:
        # Sorting and dropping repeats, where np.unique would import numpy.ma
        # (about 15 ms) on a fresh `check`.
        vals = np.sort(table[name])
        uniq = vals[np.diff(vals, prepend=-np.inf) != 0]
        axes.append(Axis(name, float(uniq[0]), float(uniq[-1]), len(uniq)))
    if not axes:
        raise ConfigError("no coordinate column found")
    coords = {name: table[name] for name in coord_names}
    # Only the full grid gives each axis its true step; a file with rows
    # missing would otherwise pass as a coarser axis and mis-scale every gap.
    for ax, want in zip(axes, _mesh(tuple(axes))):
        got = coords[ax.name]
        if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-9 * ax.step:
            raise ConfigError(
                f"coordinates do not form the full row-major grid of axis "
                f"{ax.name} ({ax.count} values from {ax.start!r} to {ax.stop!r})"
            )
    columns = {name: table[name] for name in data_names if not name.startswith("log10_")}
    return SweepResult(axes=tuple(axes), coords=coords, columns=columns, status=status)


# ---------------------------------------------------------------------------
# Config files

def parse_sweep_config(text: str) -> SweepSpec:
    """Build a SweepSpec from flat `key = value` text.

    Recognized keys: the six base parameters, nmax, outputs (comma separated
    column names), and axis1 / axis2 with value "name start stop count".
    `#` starts a comment; blank lines are ignored.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    base_kwargs = {name: 0.0 for name in PARAM_FIELDS}
    axes: dict[str, Axis] = {}
    nmax = HilbertConfig.n_max
    outputs = None
    for key, value in entries.items():
        if key in PARAM_FIELDS:
            try:
                base_kwargs[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"{key}: bad number {value!r}") from exc
        elif key == "nmax":
            try:
                nmax = int(value)
            except ValueError as exc:
                raise ConfigError(f"nmax: bad integer {value!r}") from exc
        elif key in ("axis1", "axis2"):
            parts = value.replace(",", " ").split()
            if len(parts) != 4:
                raise ConfigError(f"{key}: expected 'name start stop count', got {value!r}")
            try:
                axes[key] = Axis(parts[0], float(parts[1]), float(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        elif key == "outputs":
            outputs = tuple(p for p in value.replace(",", " ").split())
        else:
            raise ConfigError(f"unknown key {key!r}")

    if "axis1" not in axes:
        raise ConfigError("config needs an axis1 line")
    try:
        base = SystemParams(**base_kwargs)
        hilbert = HilbertConfig(nmax)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    kwargs = {"base": base, "axis1": axes["axis1"], "axis2": axes.get("axis2"), "hilbert": hilbert}
    if outputs is not None:
        kwargs["outputs"] = outputs
    return SweepSpec(**kwargs)
