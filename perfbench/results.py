"""Result records: schema, environment and comparison of two results.

Each run writes one `Result` as JSON under .perfbench/results/. Compare two
with

    python3 perfbench/results.py OLD.json NEW.json

which prints each metric's change against its bound in BENCHMARK.json and
flags any difference in the environment the two were measured in.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass, field, fields

SCHEMA = "perfbench-result/1"
# keys that identify the code under test, not the machine it ran on
CODE_KEYS = ("git_commit", "source_sha256")


@dataclass
class Result:
    workload: str
    seed: int
    seconds: float
    trace: int
    env: dict
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> {"value": number, "unit": str}
    report: dict = field(default_factory=dict)  # per-workload metric names -> value
    problems: list = field(default_factory=list)
    schema: str = SCHEMA

    def line(self):
        """The one-line summary the benchmark prints last."""
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": self.metrics})

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        names = {f.name for f in fields(cls)}
        if set(d) != names:
            raise ValueError(f"result keys {sorted(set(d) ^ names)} do not "
                             f"match the schema")
        if d["schema"] != SCHEMA:
            raise ValueError(f"unknown result schema {d['schema']!r}")
        for name, m in d["metrics"].items():
            if set(m) != {"value", "unit"}:
                raise ValueError(f"metric {name} needs exactly value and unit")
        return cls(**d)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def source_digest(root):
    """sha256 over the lungsound sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "lungsound")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
        libs = [p for p in paths
                if "openblas" in os.path.basename(p) and ".so" in p]
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(mem_limit_bytes):
    """What the child process ran on; call after numpy is imported."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "mem_limit_bytes": mem_limit_bytes,
    }


def env_differences(a, b):
    """Environment keys, other than the code's identity, that differ."""
    keys = sorted((set(a.env) | set(b.env)) - set(CODE_KEYS))
    return [k for k in keys if a.env.get(k) != b.env.get(k)]


def compare(old, new, benchmark):
    """Lines describing each metric's change and any environment change."""
    specs = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    lines = []
    if old.workload != new.workload:
        lines.append(f"WARNING: workloads differ ({old.workload} vs "
                     f"{new.workload})")
    for key in env_differences(old, new):
        lines.append(f"ENVIRONMENT DIFFERS: {key}: {old.env.get(key)!r} vs "
                     f"{new.env.get(key)!r}")
    for name in sorted(set(old.metrics) & set(new.metrics)):
        a, b = old.metrics[name]["value"], new.metrics[name]["value"]
        spec = specs.get(name, {})
        if a is None or b is None or a == 0:
            lines.append(f"{name}: {a} -> {b}")
            continue
        change = (b - a) / abs(a)
        worse = -change if spec.get("better") == "higher" else change
        verdict = ""
        if "bound" in spec:
            verdict = "  REGRESSION" if worse > spec["bound"] else "  ok"
        lines.append(f"{name}: {a:.6g} -> {b:.6g} {new.metrics[name]['unit']} "
                     f"({change:+.1%}){verdict}")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    old, new = (Result.load(p) for p in argv)
    print("\n".join(compare(old, new, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
