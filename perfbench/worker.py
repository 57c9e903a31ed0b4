"""One workload in its own process; started by run.py, not by hand.

The process applies its own address-space limit before importing numpy, so
that running out of memory raises MemoryError inside the workload, where it
counts as a failed operation, instead of ending the benchmark. It prints one
JSON object: the moment set-up finished and, unless --setup-only, the
repetitions (plain runs) or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_lungsound():
    """The lungsound modules from this checkout's src/, by short name."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = ("autodiff", "dsp", "data", "cli", "augment", "model",
             "training", "evaluation")
    ls = {n: importlib.import_module(f"lungsound.{n}") for n in names}
    where = os.path.dirname(os.path.realpath(ls["cli"].__file__))
    if where != os.path.realpath(os.path.join(ROOT, "src", "lungsound")):
        raise ImportError(f"lungsound imported from {where}, not this checkout")
    return ls


def measure(workload, seconds):
    """Repetitions until the next one would end past `seconds` (at least one)."""
    reps, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(workload.rep(len(reps)))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return reps


def traced(workload, ls, spans_path):
    """One unit of untimed full-size work, then a traced repetition and an
    untraced one to compare against; returns both repetitions and the
    per-layer metrics."""
    from speed import Speed
    from tracer import Tracer

    workload.speed = Speed(enabled=False)
    workload.warm_up()
    with Tracer(ls, workload.name) as tracer:
        rep = workload.rep(0)
    plain = workload.rep(1)  # the tracer has restored every attribute
    tracer.write_jsonl(spans_path)
    traced_s, plain_s = sum(rep.timed.values()), sum(plain.timed.values())
    overhead = (traced_s - plain_s) / plain_s if plain_s else 0.0
    return [rep, plain], tracer.layer_metrics(1000.0 * traced_s, overhead)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="directory for corpora, features and checkpoints")
    p.add_argument("--spans", help="JSONL path for the traced spans")
    p.add_argument("--mem-limit", type=int, required=True, help="bytes")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--toy", action="store_true")
    args = p.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (args.mem_limit, args.mem_limit))

    ls = import_lungsound()
    import results
    import workloads
    workload = workloads.make(args.workload, ls, args.seed, args.work, args.toy)
    out = {"ready": time.monotonic()}
    if not args.setup_only:
        if args.trace:
            reps, out["layers"] = traced(workload, ls, args.spans)
        else:
            reps = measure(workload, args.seconds)
        out["reps"] = [asdict(r) for r in reps]
        out["probes_s"] = workload.speed.probes
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        out["env"] = results.environment(args.mem_limit)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
