"""The benchmark's own tests. They are kept out of the package's test run
(the file name does not match test_*.py); run them with

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import results  # noqa: E402
import speed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import ROOT, import_lungsound, traced  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


@pytest.fixture(scope="module")
def ls():
    return import_lungsound()


def _attributes():
    """Every attribute of every lungsound module and of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "lungsound" or name.startswith("lungsound."):
            for owner in [mod] + [v for v in vars(mod).values()
                                  if isinstance(v, type)]:
                for attr, value in vars(owner).items():
                    out[(id(owner), attr)] = value
    return out


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_toy_smoke_run_of_all_workloads():
    t0 = time.monotonic()
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    assert len(lines) == 3
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert list(line["metrics"]) == names
        assert all(m["value"] > 0 for m in line["metrics"].values())
    assert time.monotonic() - t0 < 60


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_restores_every_attribute(ls, tmp_path, name):
    before = _attributes()
    workload = workloads.make(name, ls, 4, str(tmp_path), toy=True)
    reps, metrics = traced(workload, ls, str(tmp_path / "spans.jsonl"))
    after = _attributes()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed
    assert all(not r.problems for r in reps)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert metrics["trace.self_share"] == pytest.approx(1.0, abs=0.02)
    with open(tmp_path / "spans.jsonl") as fh:
        span = json.loads(fh.readline())
    assert set(span) == {"id", "name", "start_ns", "end_ns", "parent",
                         "workload", "rep"}


def test_traced_and_untraced_train_small_checkpoints_are_identical(ls,
                                                                   tmp_path):
    blobs = []
    for mode in ("plain", "traced"):
        work = tmp_path / mode
        workload = workloads.make("train_small", ls, 5, str(work))
        if mode == "traced":
            with Tracer(ls, "train_small"):
                rep = workload.rep(0)
        else:
            rep = workload.rep(0)
        assert not rep.problems
        blobs.append((work / "checkpoints" / "rep0.lsck").read_bytes())
    assert blobs[0] == blobs[1]


def test_results_schema_round_trips():
    result = results.Result(
        workload="extract", seed=1, seconds=30.0, trace=0,
        env={"nproc": 2, "blas_threads": 1}, correct=True, attempted=12,
        failed=0, metrics={"setup_s": {"value": 1.25, "unit": "s"}},
        report={"setup_s": 1.25}, problems=[])
    again = results.Result.from_dict(json.loads(json.dumps(result.to_dict())))
    assert again == result
    assert json.loads(result.line()) == {
        "correct": True, "attempted": 12, "failed": 0,
        "metrics": {"setup_s": {"value": 1.25, "unit": "s"}}}
    broken = result.to_dict()
    del broken["env"]
    with pytest.raises(ValueError):
        results.Result.from_dict(broken)


def test_compare_flags_environment_differences():
    def result(threads, value):
        return results.Result(
            workload="train_small", seed=1, seconds=30.0, trace=0,
            env={"blas_threads": threads, "git_commit": "a"}, correct=True,
            attempted=1, failed=0,
            metrics={"primary_ms": {"value": value, "unit": "ms"}})
    lines = results.compare(result(1, 100.0), result(2, 130.0), BENCHMARK)
    assert any(line.startswith("ENVIRONMENT DIFFERS: blas_threads")
               for line in lines)
    assert any("REGRESSION" in line for line in lines)


def test_benchmark_json_names_every_per_layer_metric_with_its_unit():
    emitted = Tracer({}, "").layer_metrics(1.0, 0.0)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(emitted)
    units = (("calls", "count"), ("tape_nodes", "count"), ("bytes", "bytes"),
             ("flops", "flop"), ("share", "ratio"), ("frac", "ratio"),
             ("ms", "ms"))
    for m in BENCHMARK["per_layer"]:
        last = m["name"].rsplit(".", 1)[-1]
        assert m["unit"] == next(u for s, u in units if last.endswith(s))


def test_reference_gate_tolerates_rounding_and_rejects_a_change():
    with open(workloads.REFERENCE_PATH) as fh:
        entry = json.load(fh)["samples"]["B_000_e0"]
    values = np.full(entry["shape"], -300.0, dtype=np.float32)
    values[entry["rows"], entry["cols"]] = (
        np.asarray(entry["values"]) + 0.5 * np.asarray(entry["tol"]))
    assert workloads.reference_excess(entry, values) <= 0
    values[entry["rows"][0], entry["cols"][0]] += 0.5
    assert workloads.reference_excess(entry, values) > 0


def test_extract_refuses_a_directory_that_already_holds_features(ls,
                                                                 tmp_path):
    workload = workloads.make("extract", ls, 6, str(tmp_path), toy=True)
    os.makedirs(tmp_path / "features" / "rep0" / "event" / "0")
    with pytest.raises(RuntimeError, match="exists before extraction"):
        workload.rep(0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "extract", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_speed_kernel_stays_out_of_timed_spans():
    probe = speed.Speed()
    _, dt = probe.call(time.sleep, 0.02)
    assert 0.02 <= dt < 0.03 and len(probe.probes) == 2  # before, after
    # inner kernel runs (well over 0.1 s) are taken out of an enclosing span
    _, dt = probe.enclosing(lambda: [probe.call(time.sleep, 0.01)
                                     for _ in range(3)])
    assert 0.03 <= dt < 0.06
    off = speed.Speed(enabled=False)
    _, dt = off.call(time.sleep, 0.01)
    assert dt >= 0.01 and off.probes == [] and off.probe_s == 0.0


def test_scaled_metrics_are_measured_medians_times_the_speed_factor():
    probes = [[0.02, 0.01, 0.01, 0.01]] * 3 + [[0.04, 0.02, 0.02, 0.02]]
    factor = speed.factor(probes)
    assert factor == pytest.approx(speed.REFERENCE_S / 0.05)
    reps = [{"samples": {"train_step_ms": [900.0, 100.0, 300.0, 200.0],
                         "train_samples_per_s": [7.0],
                         "infer_ms_per_sample": [10.0, 30.0]}}]
    report = run.report_for("train_small", reps, factor)
    assert report["train_step_ms_p50_measured"] == 200.0  # first step dropped
    assert report["train_step_ms_p50"] == pytest.approx(200.0 * factor)
    assert report["train_samples_per_s"] == pytest.approx(7.0 / factor)
    assert report["infer_ms_per_sample"] == pytest.approx(20.0 * factor)
