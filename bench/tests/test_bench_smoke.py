"""The benchmark's own tests: every workload at tiny sizes, and exact traced counts.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
The repository's test suite collects only ``tests/`` and never runs these.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".calls_per_point", ".rk4_steps", ".bytes_computed",
                  ".failed", ".points", ".failed_points", ".bytes")


def run_bench(workload, trace, cwd=ROOT, seed=7):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    proc = run_bench(workload, trace=0)
    result = result_of(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_frac = 0 " in proc.stdout
    assert '"seed": 7' in proc.stdout and '"nproc":' in proc.stdout
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert ("query_ms_p99 = " in proc.stdout) == (workload == "point_queries")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    procs = [run_bench(workload, trace=1) for _ in range(2)]
    # within a run, too, every traced pass must count the same work
    assert not any("differs between passes" in p.stderr for p in procs)
    first, second = (result_of(p) for p in procs)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert first["correct"] and second["correct"]
    counts = [name for name in first["metrics"] if name.endswith(COUNT_SUFFIXES)]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    # cli.main is the entry point of every workload, so it is always traced
    assert first["metrics"]["cli.main.self_s"]["value"] > 0


def test_tracing_patches_where_callers_look_and_restores(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans
    from blockade_lab import cli, lindblad, sweep

    original = lindblad.steady_state
    assemble = lindblad.LiouvillianBasis.assemble
    tracer = spans.Tracer()
    with tracer.patched():
        assert sweep.steady_state is cli.steady_state is lindblad.steady_state
        assert sweep.steady_state is not original
        assert lindblad.LiouvillianBasis.assemble is not assemble
        assert cli.main(["point", "--g", "1", "--kappa", "0.1", "--gamma", "0.1",
                         "--eta", "0.01", "--out", str(tmp_path / "point.txt")]) == 0
    assert sweep.steady_state is cli.steady_state is original
    assert lindblad.LiouvillianBasis.assemble is assemble
    assert not tracer.missing
    totals = spans.layer_totals(tracer.spans)
    assert totals["lindblad.steady_state"]["calls"] == 1
    assert totals["cli.main"]["calls"] == 1
    # self times partition the root span: they add up to its duration
    root = tracer.spans[0]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root.end - root.start)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
