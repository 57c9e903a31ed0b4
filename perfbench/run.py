"""Benchmark of the lungsound pipeline.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 30 --trace 0

--workload is extract, train_small, train_paper or all (each in turn). Every
workload runs in its own child process (worker.py) with at most two BLAS
threads (BLAS_THREADS) and an address-space limit, one after another; calls are made in a
closed loop, each starting when the previous one returned. The run prints
the per-workload metrics, one per line, and last one JSON line with the keys
correct, attempted, failed and metrics: BENCHMARK.json's end_to_end metrics
with --trace 0, its per_layer metrics with --trace 1. Times and rates are
scaled by the machine's speed during the run (speed.py) and also reported
as measured. The full result goes to .perfbench/results/ and the traced
spans to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import results
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("extract", "train_small", "train_paper")
LEVELS = ("event", "record")
# Two BLAS threads pay off only on train_paper's large products; on the
# small matrices of train_small a second thread made steps slower and their
# run-to-run spread wider (p50 355-437 ms at two threads, 316-354 ms at one),
# and extract does no BLAS work.
BLAS_THREADS = {"extract": 1, "train_small": 1,
                "train_paper": max(1, min(2, os.cpu_count() or 1))}
# train_paper peaks near 4.5 GB of address space at batch 1
MEM_LIMIT_BYTES = 6 * 1024 ** 3
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# end_to_end metric -> the per-workload report entry it stands for
END_TO_END = {
    "extract": {"primary_ms": "extract_event_ms_per_clip",
                "secondary_ms": "extract_record_ms_per_clip",
                "throughput_per_s": "extract_clips_per_s"},
    "train": {"primary_ms": "train_step_ms_p50",
              "secondary_ms": "infer_ms_per_sample",
              "throughput_per_s": "train_samples_per_s"},
}
REPORT_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_failed_frac": "ratio",
                "extract_event_ms_per_clip": "ms",
                "extract_record_ms_per_clip": "ms",
                "extract_clips_per_s": "1/s", "train_step_ms_p50": "ms",
                "train_step_ms_tail": "ms", "train_step_tail_percentile": "%",
                "train_steps_timed": "count", "train_samples_per_s": "1/s",
                "infer_ms_per_sample": "ms", "trace_overhead_frac": "ratio"}
REPORT_UNITS.update({k + "_measured": u for k, u in REPORT_UNITS.items()})
REPORT_UNITS["speed_factor"] = "ratio"
REPORT_UNITS.update({f"speed_probe_{p}_ms": "ms" for p in speed.PARTS})


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """(percentile, value) at the highest ladder percentile with at least
    ten samples beyond it, or None when there are too few samples."""
    import numpy as np
    best = None
    for pct in TAIL_LADDER:
        if len(values) * (1.0 - pct / 100.0) >= 10.0:
            best = (pct, float(np.percentile(values, pct)))
    return best


def report_for(name, reps, scale):
    """Per-workload metrics of one workload from the samples of all its
    repetitions, times multiplied and rates divided by the run's speed
    factor `scale` (speed.py); each also as measured, under its name +
    "_measured"."""
    def pooled(key):
        return [v for r in reps for v in r["samples"].get(key, [])]

    def ratio(num, den):
        return [num / den] if den else []

    # The process's first call of a kind pays once for growing the heap and
    # for FFT plans, which a long extraction or training amortises; it is
    # left out.
    if name == "extract":
        # totals over the run: the extract calls are few and long, and the
        # ratio of sums spread less from run to run than medians over them
        clips = {lv: sum(pooled(f"{lv}_clips")[1:]) for lv in LEVELS}
        secs = {lv: sum(pooled(f"{lv}_s")[1:]) for lv in LEVELS}
        measured = {
            "extract_event_ms_per_clip": ratio(1000.0 * secs["event"],
                                               clips["event"]),
            "extract_record_ms_per_clip": ratio(1000.0 * secs["record"],
                                                clips["record"]),
            "extract_clips_per_s": ratio(sum(clips.values()),
                                         sum(secs.values()))}
    else:
        measured = {"train_step_ms_p50": pooled("train_step_ms")[1:],
                    "train_samples_per_s": pooled("train_samples_per_s"),
                    "infer_ms_per_sample": pooled("infer_ms_per_sample")}
    report = {}
    for metric, values in measured.items():
        value = report[metric + "_measured"] = median(values)
        if value is not None:
            value = value / scale if metric.endswith("_per_s") else (
                value * scale)
        report[metric] = value
    if name != "extract":
        steps = measured["train_step_ms_p50"]
        report["train_steps_timed"] = len(steps)
        if tail(steps):
            pct, value = tail(steps)
            report["train_step_tail_percentile"] = pct
            report["train_step_ms_tail"] = value * scale
    return report


def child_env(workload):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS[workload])
    return env


def run_child(args, work, deadline, setup_only=False):
    """Start worker.py, wait for it, and return (spawn time, its JSON)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--mem-limit", str(MEM_LIMIT_BYTES),
           "--spans", os.path.join(OUT, "spans",
                                   f"{args.workload}-seed{args.seed}.jsonl")]
    cmd += ["--setup-only"] * setup_only + ["--toy"] * args.toy
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(args.workload), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - spawned))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} worker exited with "
                           f"{proc.returncode}")
    return spawned, json.loads(lines[-1])


def run_workload(args, benchmark):
    """All child processes of one workload; returns a results.Result."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        spawned, child = run_child(args, os.path.join(work, "0"), deadline)
        # every sample and probe time of the run, for looking into noise
        with open(os.path.join(OUT, "results", f"{args.workload}-seed"
                               f"{args.seed}-trace{args.trace}.samples.json"),
                  "w") as fh:
            json.dump(child, fh)
        setups = [(spawned, child)]
        if not args.trace:
            for i in range(1, SETUP_SAMPLES):
                setups.append(run_child(args, os.path.join(work, str(i)),
                                        deadline, setup_only=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = child["reps"]
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    if args.trace:
        source, metric_specs = child["layers"], benchmark["per_layer"]
        report = {"trace_overhead_frac": source["trace.overhead_frac"]}
    else:
        factor = speed.factor(child["probes_s"])
        report = report_for(args.workload, reps, factor)
        report["speed_factor"] = factor
        report.update(speed.part_medians_ms(child["probes_s"]))
        # as measured: imports and file writes slow down unlike the kernel,
        # and scaling made the set-up times spread more, not less
        report["setup_s"] = median([c["ready"] - t for t, c in setups])
        report["peak_rss_mb"] = child["peak_rss_mb"]
        kind = "extract" if args.workload == "extract" else "train"
        source = dict(report, **{m: report.get(r)
                                 for m, r in END_TO_END[kind].items()})
        metric_specs = benchmark["end_to_end"]
    report["ops_failed_frac"] = failed / attempted if attempted else 1.0
    metrics = {m["name"]: {"value": source.get(m["name"]), "unit": m["unit"]}
               for m in metric_specs}
    env = dict(child["env"], git_commit=results.git_commit(ROOT),
               source_sha256=results.source_digest(ROOT),
               blas_threads_limit=BLAS_THREADS[args.workload],
               setup_samples=len(setups))
    return results.Result(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, env=env,
        correct=not problems and failed == 0 and attempted > 0,
        attempted=max(attempted, 1), failed=failed, metrics=metrics,
        report=report, problems=problems)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--toy", action="store_true",
                   help="tiny inputs and models, for the benchmark's own tests")
    args = p.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "lungsound", "__init__.py")):
        print(f"error: no lungsound sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        benchmark = json.load(fh)
    for sub in ("results", "spans"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        one = argparse.Namespace(**dict(vars(args), workload=name))
        try:
            result = run_workload(one, benchmark)
        except (RuntimeError, subprocess.TimeoutExpired, KeyError,
                ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        result.save(os.path.join(
            OUT, "results", f"{name}-seed{args.seed}-trace{args.trace}.json"))
        for key, value in result.report.items():
            print(f"{name}: {key} = {value} {REPORT_UNITS.get(key, '')}")
        for problem in result.problems[:10]:
            print(f"{name}: FAILED CHECK: {problem}")
        print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
