"""The four benchmark workloads over the blockade_lab command line and API.

Each workload draws its parameters from a seed, in weak-drive ranges around
the preset it stands for, and hands the program only CLI arguments, config
text or ``SystemParams``. A pass is one full user job; passes of one run
repeat the same inputs, so their outputs must be byte-identical. Load comes
from one caller in a closed loop: the next request is sent when the previous
one has returned.

``run_pass`` is the timed part. ``check_pass`` runs the cheap checks on
every pass and ``check_oracle`` the scipy comparisons once per run; both run
outside the timed region and return how many units (grid points, delays or
queries) failed.
"""

from __future__ import annotations

import io
import math
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
from blockade_lab import analytic, cli
from blockade_lab.quantum_core import SystemParams
from blockade_lab.sweep import read_sweep_csv, write_sweep_csv

import oracle

# Relative tolerance against the oracle steady state, and absolute tolerance
# on g2(tau) against expm propagation, as in the library's own oracle test.
STEADY_RTOL = 1e-8
G2_TAU_ATOL = 1e-9
# The amplitude ODE is integrated to convergence and compared with the
# closed-form amplitudes, which drop terms of higher order in the drive.
AMPLITUDE_RTOL = 0.01


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _config_text(params: dict, axes: list[str], nmax: int, outputs: str) -> str:
    lines = [f"{key} = {value!r}" for key, value in params.items()]
    lines += [f"axis{i} = {axis}" for i, axis in enumerate(axes, start=1)]
    lines += [f"nmax = {nmax}", f"outputs = {outputs}"]
    return "\n".join(lines) + "\n"


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _bad_rows(text: str) -> set[int]:
    _, rows = _csv_rows(text)
    return {i for i, row in enumerate(rows) if row[-1] != "ok"}


def _oracle_rows(text: str, rows: list[int], n_max: int, base: dict) -> int:
    """Rows whose numeric columns disagree with the oracle steady state."""
    header, table = _csv_rows(text)
    failed = 0
    for i in rows:
        cells = dict(zip(header, table[i]))
        p = dict(base)
        for name in ("g", "kappa", "gamma", "eta", "delta_a", "delta"):
            if name in cells:
                p[name] = float(cells[name])
        if "Delta" in cells:
            p["delta_a"] = p["delta"] = float(cells["Delta"])
        want = oracle.point_values(p, n_max)
        for column in ("g2_numeric", "coh_numeric", "mean_photon"):
            if column in cells and oracle.relative_error(float(cells[column]), want[column]) > STEADY_RTOL:
                failed += 1
                break
    return failed


class _SweepWorkload:
    """A sweep from a config file; subclasses add what a pass does besides."""

    name = ""
    min_passes = 3

    def __init__(self, seed: int, workdir: Path):
        self.rng = _rng(self.name, seed)
        self.config = workdir / f"{self.name}.cfg"
        self.csv = workdir / f"{self.name}.csv"
        self.reference: str | None = None

    def _sweep(self) -> int:
        return cli.main(["sweep", "--config", str(self.config), "--out", str(self.csv)])

    def _check_csv(self, ok: bool) -> int:
        """Failed rows; all of them when the pass failed or its bytes differ from the first pass."""
        text = self.csv.read_text(encoding="utf-8")
        if self.reference is None:
            self.reference = text
        if not ok or text != self.reference:
            return self.points
        return len(_bad_rows(text))


class DetuningScan(_SweepWorkload):
    """fig1: a 401-point 1-D Delta sweep at n_max 4, both branches, then `check`.

    At d^2 = 100 per-point Python overhead and the SVD gap check inside
    steady_state dominate; this is where batched grids and a cheaper
    uniqueness certificate act. No RK4 runs here.
    """

    name = "detuning_scan"
    calibration = "steady_state_100"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        super().__init__(seed, workdir)
        rng = self.rng
        self.base = {"g": 1.0, "kappa": _draw(rng, 0.04, 0.06), "gamma": _draw(rng, 0.04, 0.06),
                     "eta": _draw(rng, 0.005, 0.015), "delta_a": 0.0, "delta": 0.0}
        self.points = self.units = 41 if smoke else 401
        self.config.write_text(_config_text(
            {k: v for k, v in self.base.items() if not k.startswith("delta")},
            [f"Delta -2 2 {self.points}"], 4,
            "g2_analytic g2_numeric coh_analytic coh_numeric"), encoding="utf-8")
        self.report = self.csv.with_suffix(".check")
        self.oracle_rows = sorted(rng.sample(range(self.points), 8))

    def run_pass(self):
        rc_sweep = self._sweep()
        rc_check = cli.main(["check", str(self.csv), "--out", str(self.report)])
        return (rc_sweep, rc_check), []

    def check_pass(self, out) -> int:
        rc_sweep, rc_check = out
        lines = self.report.read_text(encoding="utf-8").splitlines()
        passed = rc_check == 0 and "correspondence: PASS" in lines and all(
            any(line.startswith(f"{branch}:") and "PASS at threshold" in line for line in lines)
            for branch in ("analytic", "numeric"))
        return self._check_csv(rc_sweep == 0 and passed)

    def check_oracle(self) -> int:
        text = self.reference
        # The CSV read back equals what was written: an independent parse
        # agrees with read_sweep_csv cell for cell, and writing the parsed
        # result again reproduces the bytes.
        result = read_sweep_csv(io.StringIO(text))
        again = io.StringIO()
        write_sweep_csv(result, again)
        header, rows = _csv_rows(text)
        same = again.getvalue() == text and result.status == [r[-1] for r in rows]
        for j, name in enumerate(header[:-1]):
            column = result.coords[name] if name == "Delta" else result.columns[name]
            same = same and np.array_equal(column, [float(r[j]) for r in rows])
        axis = result.axes[0]
        same = same and (axis.name, axis.start, axis.stop, axis.count) == ("Delta", -2.0, 2.0, self.points)
        if not same:
            return self.points
        return _oracle_rows(text, self.oracle_rows, 4, self.base)


class CutoffMap(_SweepWorkload):
    """fig3-like 2-D g x Delta map from `sweep --config` at n_max 10, all five outputs.

    At d^2 = 484 dense linear algebra on large matrices dominates and
    per-point overhead is a few percent; each Liouvillian takes 3.7 MB. A
    batching change that helps detuning_scan but costs memory or loses on
    large matrices shows up here.
    """

    name = "cutoff_map"
    calibration = "steady_state_484"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        super().__init__(seed, workdir)
        rng = self.rng
        self.nmax = 6 if smoke else 10
        side = 3 if smoke else 5
        self.points = self.units = side * side
        self.base = {"g": 1.0, "kappa": _draw(rng, 0.8, 1.2), "gamma": _draw(rng, 0.4, 0.6),
                     "eta": _draw(rng, 0.05, 0.15), "delta_a": 0.0, "delta": 0.0}
        g_axis = f"g {_draw(rng, 4.0, 6.0)!r} {_draw(rng, 25.0, 30.0)!r} {side}"
        reach = _draw(rng, 35.0, 40.0)
        delta_axis = f"Delta {-reach!r} {reach!r} {side}"
        self.config.write_text(_config_text(
            {k: v for k, v in self.base.items() if k in ("kappa", "gamma", "eta")},
            [g_axis, delta_axis], self.nmax,
            "g2_analytic g2_numeric coh_analytic coh_numeric mean_photon"), encoding="utf-8")
        self.oracle_rows = sorted(rng.sample(range(self.points), 2 if smoke else 6))

    def run_pass(self):
        return self._sweep(), []

    def check_pass(self, out) -> int:
        return self._check_csv(out == 0)

    def check_oracle(self) -> int:
        return _oracle_rows(self.reference, self.oracle_rows, self.nmax, self.base)


class DelayDynamics:
    """fig2 (about 40k RK4 steps on d^2 = 100) plus seeded amplitude-ODE points.

    The only workload where both RK4 copies, lindblad._rk4_span and
    analytic._rk4_amplitudes, do most of the work; the sweep layer is idle.
    The ODE points share one fixed total step count whatever the seed.
    """

    name = "delay_dynamics"
    calibration = "rk4"
    min_passes = 3

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = _rng(self.name, seed)
        self.nmax = 2 if smoke else 4
        self.grid = 20 if smoke else 200
        self.csv = workdir / f"{self.name}.csv"
        self.argv = ["fig2", "--out", str(self.csv), "--nmax", str(self.nmax), "--grid", str(self.grid)]
        n_points, steps = (2, 3000) if smoke else (4, 12000)
        self.ode = []
        for _ in range(n_points):
            detuning = -_draw(rng, 15.0, 25.0)
            p = SystemParams(g=_draw(rng, 15.0, 25.0), kappa=_draw(rng, 0.8, 1.2),
                             gamma=_draw(rng, 0.8, 1.2), eta=_draw(rng, 0.01, 0.03),
                             delta_a=detuning, delta=detuning)
            # long enough that the slowest mode has decayed far below the
            # 1e-6 convergence gate over the final tenth of the run
            t_final = 60.0 / min(p.kappa, p.gamma)
            self.ode.append((p, t_final, t_final / steps))
        self.points = 1
        self.units = self.grid + len(self.ode)
        self.oracle_rows = sorted(rng.sample(range(self.grid), 6))
        self.reference = None

    def run_pass(self):
        rc = cli.main(self.argv)
        amps = [analytic.integrate_amplitude_odes(p, t, dt) for p, t, dt in self.ode]
        return (rc, amps), []

    def check_pass(self, out) -> int:
        rc, amps = out
        text = self.csv.read_text(encoding="utf-8")
        if self.reference is None:
            self.reference = (text, amps)
        rows = text.splitlines()[1:]
        if rc != 0 or len(rows) != self.grid or text != self.reference[0]:
            failed = self.grid
        else:
            failed = sum(1 for row in rows if not row.endswith(",ok"))
        for (p, _, _), got, first in zip(self.ode, amps, self.reference[1]):
            want = analytic.steady_amplitudes(p)
            names = ("c1g", "c0e", "c2g", "c1e")
            err = max(abs(getattr(got, n) - getattr(want, n)) / abs(getattr(want, n)) for n in names)
            failed += got != first or not err <= AMPLITUDE_RTOL
        return failed

    def check_oracle(self) -> int:
        rows = [row.split(",") for row in self.reference[0].splitlines()[1:]]
        taus = [float(rows[i][0]) for i in self.oracle_rows]
        p = vars(cli.fig2_params())
        want = oracle.g2_tau_values(p, self.nmax, taus)
        return sum(1 for i, w in zip(self.oracle_rows, want)
                   if not abs(float(rows[i][1]) - w) <= G2_TAU_ATOL)


class PointQueries:
    """Sequential `point` queries at n_max 4 with seeded parameters.

    The only path that builds a Liouvillian per call through
    build_liouvillian(model_for(...)), and the only source of a latency
    distribution. Each pass sends the same queries; a run sends at least
    four passes' worth, so at least 1000 queries.
    """

    name = "point_queries"
    calibration = "steady_state_100"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = _rng(self.name, seed)
        self.min_passes = 1 if smoke else 4
        self.points = self.units = 10 if smoke else 250
        self.queries = []
        for _ in range(self.points):
            p = {"g": _draw(rng, 0.5, 2.0), "kappa": _draw(rng, 0.02, 0.2),
                 "gamma": _draw(rng, 0.02, 0.2), "eta": _draw(rng, 0.001, 0.02),
                 "delta": _draw(rng, -2.5, 2.5)}
            argv = ["point"]
            for key, value in p.items():
                argv += [f"--{key}", repr(value)]
            self.queries.append((p, argv + ["--nmax", "4"]))
        self.oracle_rows = sorted(rng.sample(range(self.points), min(self.points, 40)))
        self.reference = None

    def run_pass(self):
        outputs, latencies = [], []
        for _, argv in self.queries:
            buf = io.StringIO()
            with redirect_stdout(buf):
                start = time.perf_counter()
                rc = cli.main(argv)
                latencies.append(time.perf_counter() - start)
            outputs.append((rc, buf.getvalue()))
        return outputs, latencies

    @staticmethod
    def _parse(text: str) -> dict[str, float]:
        values = {}
        for line in text.splitlines():
            key, _, value = line.partition(" = ")
            values[key] = float(value)
        return values

    def check_pass(self, out) -> int:
        if self.reference is None:
            self.reference = out
        failed = 0
        keys = {"g2_analytic", "g2_numeric", "coh_analytic", "coh_numeric", "mean_photon"}
        for (rc, text), first in zip(out, self.reference):
            try:
                values = self._parse(text)
            except ValueError:
                values = {}
            good = (rc == 0 and (rc, text) == first and set(values) == keys
                    and all(math.isfinite(v) for v in values.values()))
            failed += not good
        return failed

    def check_oracle(self) -> int:
        failed = 0
        for i in self.oracle_rows:
            p, _ = self.queries[i]
            p = {"g": p["g"], "kappa": p["kappa"], "gamma": p["gamma"], "eta": p["eta"],
                 "delta_a": p["delta"], "delta": p["delta"]}
            got = self._parse(self.reference[i][1])
            want = oracle.point_values(p, 4)
            failed += any(oracle.relative_error(got[c], want[c]) > STEADY_RTOL
                          for c in ("g2_numeric", "coh_numeric", "mean_photon"))
        return failed


WORKLOADS = {w.name: w for w in (DetuningScan, CutoffMap, DelayDynamics, PointQueries)}
