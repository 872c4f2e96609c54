"""Smoke test of the benchmark: every workload at tiny size, both modes.

Kept out of the default test run (the file name does not match test_*.py);
run it with

    python3 -m pytest -q perfbench/tests/smoke.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


CASES = [(w, t) for w in WORKLOADS for t in (0, 1)]


@functools.lru_cache(maxsize=None)
def tiny_run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload, trace", CASES)
def test_prints_every_metric_with_its_unit(workload, trace):
    lines, result = tiny_run(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("failed_ratio = ") for line in lines)
    assert lines[0].startswith("env ")


@pytest.mark.parametrize("workload, trace", CASES)
def test_every_check_passes(workload, trace):
    lines, result = tiny_run(workload, trace)
    assert [line for line in lines if line.startswith("FAILED CHECK")] == []
    assert result["correct"] is True and result["failed"] == 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracer_restores_names_and_reports_absent_ones(monkeypatch):
    import nbzeta.census
    import nbzeta.rng
    import tracing

    monkeypatch.setattr(tracing, "NAMES", tracing.NAMES + (
        ("nbzeta.census", "no_such_function", "census"),
        ("nbzeta.no_such_module", "f", "census"),
    ))
    before_census = dict(vars(nbzeta.census))
    before_stream = dict(vars(nbzeta.rng.SeedStream))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert nbzeta.census.run_census is not before_census["run_census"]
        with tracer.span("bench.op", "op") as op:
            nbzeta.rng.SeedStream(5).permutation(10)
    assert dict(vars(nbzeta.census)) == before_census
    assert dict(vars(nbzeta.rng.SeedStream)) == before_stream
    assert tracer.absent == ["nbzeta.census.no_such_function", "nbzeta.no_such_module.f"]
    metrics = tracing.layer_metrics(tracer, {op: 1})
    assert metrics["rng.draw.calls"] == 1
    assert metrics["rng.draw.self_ms"] > 0
