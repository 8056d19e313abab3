"""Parameter sweeps over both solver branches, extremum location, and CSV I/O.

A sweep walks one or two linear parameter axes, evaluates the requested
outputs at every grid point, and never aborts on a single bad point; failures
are recorded in a per-row status column. The grid is laid out in a fixed
row-major order (first axis outer) as a matrix of parameter rows, and
evaluate computes every row through one kernel: the closed forms as arrays
over the whole grid, and the numeric branch in chunks of stacked
Liouvillians sized to stay in cache. A row's bits do not depend on the rows
evaluated with it, so a point query prints the bits of its sweep row and
identical specs produce byte-identical CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np

from .analytic import closed_forms
from .correlations import steady_observables
from .errors import ConfigError, NoInteriorExtremumError, SolverError
from .lindblad import liouvillians, steady_state, steady_states
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

# Bytes of one stacked Liouvillian chunk, which set its points per chunk:
# 4 at n_max 4 and 1 from n_max 5 up. Measured on a 2-core Intel Xeon
# (numpy 2.4.6, OpenBLAS on one thread, 2 MiB of L2 per core), the fig1
# sweep at n_max 4 takes 0.80x the time of one point at a time with 4
# points a chunk, 0.79x with 8 and 0.76x with 16, while its peak RSS grows
# by about 0.6 MB at each doubling. 4 points keep that growth under 3%.
_CHUNK_BYTES = 320 * 1024


@dataclass(frozen=True)
class Axis:
    """A linear grid over one parameter."""

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
        return np.linspace(self.start, self.stop, self.count)

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.count - 1)


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters, one or two axes, truncation, and requested outputs."""

    base: SystemParams
    axis1: Axis
    axis2: Axis | None = None
    hilbert: HilbertConfig = HilbertConfig(4)
    outputs: tuple[str, ...] = ("g2_analytic", "g2_numeric", "coh_analytic", "coh_numeric")

    def __post_init__(self):
        bad = [name for name in self.outputs if name not in OUTPUT_COLUMNS]
        if bad:
            raise ConfigError(f"unknown outputs {bad}; choose from {OUTPUT_COLUMNS}")
        if not self.outputs:
            raise ConfigError("at least one output column is required")
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
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
    status: list[str] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return int(np.prod([ax.count for ax in self.axes]))

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ConfigError(f"result has no column {name!r}")
        return self.columns[name]


def _fields_of(axis_name: str) -> tuple[str, ...]:
    """The SystemParams fields an axis sets; Delta sets both detunings."""
    return ("delta_a", "delta") if axis_name == "Delta" else (axis_name,)


def _mesh(axes: tuple[Axis, ...]) -> list[np.ndarray]:
    """Per-row coordinates of the row-major grid, first axis outer."""
    values = [ax.values() for ax in axes]
    if len(axes) == 1:
        return [values[0]]
    return [np.repeat(values[0], axes[1].count), np.tile(values[1], axes[0].count)]


def _chunk_size(h: HilbertConfig) -> int:
    """Points per numeric chunk: as many n x n stacks of doubles as fit _CHUNK_BYTES, at least 1."""
    n = h.dim * h.dim
    return max(1, _CHUNK_BYTES // (8 * n * n))


def _solve(stack: np.ndarray) -> tuple[np.ndarray, dict]:
    """steady_states of a chunk; a chunk of one matrix is solved by steady_state.

    steady_state is steady_states on a stack of one, so the bits and the
    gates are the same either way. A point query and every chunk of one, at
    n_max 5 and up, thus make one steady_state call per point, where the
    solve of a point shows to a profiler or tracer.
    """
    if len(stack) > 1:
        return steady_states(stack)
    try:
        return steady_state(stack[0], coordinates=True)[None], {}
    except (ValueError, SolverError) as exc:
        return np.full(stack.shape[:2], np.nan), {0: exc}


def evaluate(rows: np.ndarray, h: HilbertConfig,
             outputs: tuple[str, ...]) -> tuple[dict[str, np.ndarray], dict[str, dict]]:
    """The requested outputs at each (N, 6) parameter row, and what failed where.

    Returns values, one array per requested output, and failures, a dict
    from row to exception for each requested output and, when a numeric
    output is requested, for "steady_state". An output whose own step failed
    at a row has no value there. The closed forms are evaluated as arrays
    over all rows at once. The numeric branch runs in chunks of _chunk_size
    rows: one stacked Liouvillian assembly, one stacked solve with the gates
    of steady_state applied per row, and one elementwise product with the
    observable functionals. No step mixes rows, so a row's bits do not
    depend on N or on the chunk it falls in.
    """
    values, failures = {}, {}
    if any(name in outputs for name in _ANALYTIC_STEPS):
        g2, coh, g2_failed, coh_failed = closed_forms(rows)
        for name, column, failed in (("g2_analytic", g2, g2_failed),
                                     ("coh_analytic", coh, coh_failed)):
            if name in outputs:
                values[name], failures[name] = column, failed
    numeric = [name for name in _NUMERIC_STEPS[1:] if name in outputs]
    if numeric:
        values.update((name, np.empty(len(rows))) for name in numeric)
        solve_failed, g2_failed = {}, {}
        size = min(_chunk_size(h), max(len(rows), 1))
        # One stack serves every chunk: a fresh stack-sized array in each
        # chunk would cost page faults.
        liou = np.empty((size, h.dim**2, h.dim**2))
        for start in range(0, len(rows), size):
            chunk = rows[start:start + size]
            vecs, failed = _solve(liouvillians(chunk, h, liou[:len(chunk)]))
            observed, undefined = steady_observables(vecs, h)
            for name in numeric:
                values[name][start:start + len(chunk)] = observed[name]
            solve_failed.update((start + r, e) for r, e in failed.items())
            g2_failed.update((start + r, e) for r, e in undefined.items())
        failures["steady_state"] = solve_failed
        failures.update((name, g2_failed if name == "g2_numeric" else {}) for name in numeric)
    return values, failures


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
    point gets NaN in the affected columns and the error class name in the
    status column; the sweep continues. Within a branch a failed step leaves
    the later ones NaN, in the order steady state, g2, coherence, mean photon
    number for the numeric branch and g2, coherence for the analytic one.
    The status is the analytic branch's first failure, else the numeric
    branch's.
    """
    axes = spec.axes
    mesh = _mesh(axes)
    values, failures = evaluate(_grid_rows(spec, mesh), spec.hilbert, spec.outputs)

    status = [STATUS_OK] * mesh[0].size
    for steps in (_ANALYTIC_STEPS, _NUMERIC_STEPS):
        first: dict[int, Exception] = {}
        for name in steps:
            for row, exc in failures.get(name, {}).items():
                first.setdefault(row, exc)
            if name in values:
                values[name][list(first)] = np.nan
        for row, exc in first.items():
            if status[row] == STATUS_OK:
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


def _curve_for(result: SweepResult, column: str, row: int | None) -> tuple[np.ndarray, np.ndarray]:
    vals = result.column(column)
    if len(result.axes) == 1:
        if row is not None:
            raise ConfigError("row selection only applies to 2d sweeps")
        return result.coords[result.axes[0].name], vals
    if row is None:
        raise ConfigError("2d sweep: pass row to select a slice along the first axis")
    n2 = result.axes[1].count
    if not 0 <= row < result.axes[0].count:
        raise ConfigError(f"row {row} outside axis1 range")
    sl = slice(row * n2, (row + 1) * n2)
    return result.coords[result.axes[1].name][sl], vals[sl]


def locate_extrema(result: SweepResult, column: str, row: int | None = None) -> list[Extremum]:
    """Interior local extrema of one output column, endpoints excluded.

    For a 2d sweep, `row` picks an index along the first axis and the scan
    runs along the second. Raises NoInteriorExtremumError when the curve is
    monotone (or too short to have an interior point).
    """
    x, y = _curve_for(result, column, row)
    found: list[Extremum] = []
    for i in range(1, len(y) - 1):
        if y[i] > y[i - 1] and y[i] > y[i + 1]:
            coord, value = _refine(x, y, i)
            found.append(Extremum(coord, value, "max"))
        elif y[i] < y[i - 1] and y[i] < y[i + 1]:
            coord, value = _refine(x, y, i)
            found.append(Extremum(coord, value, "min"))
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
    ratio (coherence at Delta = 0 over the coherence grid maximum) is
    reported, not gated.
    """
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
        ratio = dark / float(np.max(coh_vals))
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

def _format_value(v: float) -> str:
    return repr(float(v))


def csv_columns(result: SweepResult) -> list[str]:
    """Column layout: coordinates, outputs, log10 of g2 columns (2d only), status."""
    names = [ax.name for ax in result.axes]
    names += list(result.columns.keys())
    if len(result.axes) == 2:
        names += [f"log10_{c}" for c in result.columns if c.startswith("g2_")]
    names.append("status")
    return names


def write_sweep_csv(result: SweepResult, stream: TextIO) -> None:
    """Emit the result as CSV: LF endings, shortest round-trip floats."""
    header = csv_columns(result)
    log_cols = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for name in header:
            if name.startswith("log10_"):
                log_cols[name] = np.log10(result.column(name[len("log10_"):]))
    stream.write(",".join(header) + "\n")
    for row in range(result.n_rows):
        cells = [_format_value(result.coords[ax.name][row]) for ax in result.axes]
        cells += [_format_value(col[row]) for col in result.columns.values()]
        cells += [_format_value(log_cols[name][row]) for name in header if name in log_cols]
        cells.append(result.status[row])
        stream.write(",".join(cells) + "\n")


def read_sweep_csv(stream: Iterable[str]) -> SweepResult:
    """Parse a file produced by write_sweep_csv back into a SweepResult.

    Axes are reconstructed from the coordinate columns; values round-trip
    exactly since they were written in shortest round-trip form. The
    coordinates must form the full row-major linspace grid that run_sweep
    writes, to within 1e-9 of a step; anything else raises ConfigError.
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
    table = {name: [] for name in header[:-1]}
    status = []
    for r in rows:
        for name, cell in zip(header[:-1], r[:-1]):
            try:
                table[name].append(float(cell))
            except ValueError as exc:
                raise ConfigError(f"bad float {cell!r} in column {name}") from exc
        status.append(r[-1])

    axes = []
    for name in coord_names:
        # Sorting and dropping repeats, where np.unique would import numpy.ma
        # (about 15 ms) on a fresh `check`.
        vals = np.sort(table[name])
        uniq = vals[np.diff(vals, prepend=-np.inf) != 0]
        axes.append(Axis(name, float(uniq[0]), float(uniq[-1]), len(uniq)))
    if not axes:
        raise ConfigError("no coordinate column found")
    coords = {name: np.array(table[name]) for name in coord_names}
    # Only the full grid gives each axis its true step; a file with rows
    # missing would otherwise pass as a coarser axis and mis-scale every gap.
    for ax, want in zip(axes, _mesh(tuple(axes))):
        got = coords[ax.name]
        if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-9 * ax.step:
            raise ConfigError(
                f"coordinates do not form the full row-major grid of axis "
                f"{ax.name} ({ax.count} values from {ax.start!r} to {ax.stop!r})"
            )
    columns = {
        name: np.array(table[name])
        for name in data_names
        if not name.startswith("log10_")
    }
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
    nmax = 4
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
