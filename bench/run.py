"""Benchmark of blockade_lab: four workloads over its CLI presets and API.

Run from the root of a checkout, one workload at a time:

    for w in detuning_scan cutoff_map delay_dynamics point_queries; do
        python3 bench/run.py --workload $w --seed 1 --seconds 15 --trace 0
    done

The package is imported from ``src/`` of that checkout, never from an
installed copy. With ``--trace 0`` the run reports the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it give the environment, every metric with its unit, the
pass times and failed_frac, the share of grid points, delays or queries
that failed or failed a check.

wall_s is the median time of one pass; setup_s the median time of fresh
processes that import the package and generate the inputs, run between
passes so that they see the same machine. Both are given in reference
seconds: each pass is bracketed by a fixed calibration kernel of the
workload's kind of work, and each set-up by a bare interpreter that imports
numpy, and its time is scaled by how much slower than its reference the kernel ran
(see calibration.py). The raw seconds and the calibration times are
printed on the lines before the result. point_queries also prints the
median and 99th percentile of its query latency, query_ms_p50 and
query_ms_p99, with the number of queries. They are not in BENCHMARK.json:
the batch workloads have no stream of requests to take them from.

BLAS is pinned to one thread here, before numpy is first imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# A set-up is mostly process start and module loading, which the host slows
# down unlike any in-process kernel.
SETUP_CALIBRATION = "import"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(args, workdir: Path):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, workdir, args.smoke)


def setup_probe(args) -> None:
    """Run a fresh process that imports the package and generates the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, cwd=ROOT)


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form of the build config
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def run(args, workdir: Path):
    import calibration
    import spans

    workload = make_workload(args, workdir)
    tracer = spans.Tracer()
    attempted = failed = 0

    def one_pass(traced: bool):
        tracer.reset()
        if traced:
            with tracer.patched():
                return workload.run_pass()
        return workload.run_pass()

    def check(out):
        nonlocal attempted, failed
        attempted += workload.units
        failed += workload.check_pass(out)

    check(one_pass(traced=False)[0])  # warm-up: lazy set-up and caches, not timed
    clock = calibration.ReferenceClock(workload.calibration)
    setup_clock = calibration.ReferenceClock(SETUP_CALIBRATION)
    walls = {False: [], True: []}
    ref_walls: list[float] = []
    latencies: list[float] = []
    per_pass: list[dict] = []
    setups: list[tuple[float, float]] = []

    def probe():
        setups.append(setup_clock.time(lambda: setup_probe(args))[1:])

    # Set-up probes run between passes, spread over the measured window, so
    # that their median sees the same machine as the passes do.
    probes = 0 if args.trace else (2 if args.smoke else SETUP_REPEATS)
    start = time.perf_counter()
    min_passes = max(workload.min_passes, 2 if args.trace else 1)
    n = 0
    while n < min_passes or time.perf_counter() < start + args.seconds:
        traced = bool(args.trace) and n % 2 == 1
        if traced:
            start_pass = time.perf_counter()
            out, lat = one_pass(traced)
            wall = time.perf_counter() - start_pass
        else:
            (out, lat), wall, ref_wall = clock.time(lambda: one_pass(traced))
        check(out)
        walls[traced].append(wall)
        if traced:
            per_pass.append(spans.layer_totals(tracer.spans))
        else:
            ref_walls.append(ref_wall)
            latencies += lat
        n += 1
        due = (time.perf_counter() - start) / args.seconds * probes if args.seconds else probes
        while len(setups) < min(probes, due):
            probe()
    while len(setups) < probes:
        probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed += workload.check_oracle()
    if tracer.missing:
        print(f"not traced (absent): {', '.join(sorted(tracer.missing))}", file=sys.stderr)
    return {
        "workload": workload, "walls": walls, "ref_walls": ref_walls, "latencies": latencies,
        "per_pass": per_pass, "peak_rss_mb": peak_rss_mb, "attempted": attempted,
        "failed": failed, "setups": setups,
        "calibrations": clock.calibrations, "setup_calibrations": setup_clock.calibrations,
    }


def end_to_end(res) -> dict[str, float]:
    return {
        "setup_s": statistics.median(ref for _, ref in res["setups"]),
        "wall_s": statistics.median(res["ref_walls"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res, names: list[str]) -> dict[str, float]:
    points = res["workload"].points
    passes = res["per_pass"]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(res["walls"][True])
                            - statistics.median(res["walls"][False]))
            continue
        layer, _, key = name.rpartition(".")
        if key == "calls_per_point":
            samples = [p.get(layer, {}).get("calls", 0.0) / points for p in passes]
        else:
            samples = [p.get(layer, {}).get(key, 0.0) for p in passes]
        if key != "self_s" and len(set(samples)) > 1:
            print(f"warning: {name} differs between passes: {samples}", file=sys.stderr)
        values[name] = statistics.median(samples)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockade_lab" / "__init__.py").is_file():
        print(f"blockade_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            make_workload(args, Path(workdir))
        return 0

    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        res = run(args, Path(workdir))
    print("environment: " + json.dumps(environment(args), sort_keys=True))

    if args.trace:
        metrics_spec = spec["per_layer"]
        values = per_layer(res, [m["name"] for m in metrics_spec])
    else:
        metrics_spec = spec["end_to_end"]
        values = end_to_end(res)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    walls = res["walls"]
    for traced, label in ((False, "untraced"), (True, "traced")):
        if walls[traced]:
            print(f"{label} pass walls (s): " + " ".join(f"{w:.4f}" for w in walls[traced]))
    if res["ref_walls"]:
        print("pass walls in reference seconds: "
              + " ".join(f"{w:.4f}" for w in res["ref_walls"]))
    if res["setups"]:
        print("setup runs (s): " + " ".join(f"{t:.4f}" for t, _ in res["setups"]))
    print("calibration per pass (s): "
          + " ".join(f"{t:.5f}" for t in res["calibrations"]))
    if res["setup_calibrations"]:
        print("calibration per set-up (s): "
              + " ".join(f"{t:.5f}" for t in res["setup_calibrations"]))
    if res["ref_walls"]:
        print(f"raw medians: wall_s = {statistics.median(res['walls'][False]):.6g} s"
              + (f", setup_s = {statistics.median(t for t, _ in res['setups']):.6g} s"
                 if res["setups"] else ""))
    if len(res["latencies"]) >= 2:
        cuts = statistics.quantiles([t * 1e3 for t in res["latencies"]], n=100, method="inclusive")
        print(f"query_ms_p50 = {cuts[49]:.6g} ms; query_ms_p99 = {cuts[98]:.6g} ms "
              f"over {len(res['latencies'])} queries")
    print(f"failed_frac = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']})")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
