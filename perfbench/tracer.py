"""Per-layer tracing of lungsound from outside the package.

`Patches` swaps a callable for a wrapper at every lungsound module global or
class attribute that binds it (``training.make_batch`` and
``augment.make_batch`` are one function bound twice), and puts the originals
back on exit, checking each by identity. The package calls its own
functions through those module globals and class attributes, so a wrapper
sees internal calls as well as the benchmark's.

`Tracer` uses `Patches` to record one span per call of each traced callable:
name, start, end and parent span, kept in memory and written out as JSONL
when the run ends. Autodiff nodes are counted by wrapping
``autodiff._node``; each node's backprop closure is replaced by a timed one,
so per-op backward time is measured where the work happens.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# The ops named in the per-layer table, and the other autodiff functions that
# record tape nodes; tracing all of them gives every node an owning op.
AUTODIFF_OPS = ("conv2d", "matmul", "pool2d", "add", "mul", "mul_scalar",
                "tmean", "tmax", "power", "exp", "div", "transpose", "concat",
                "relu")
OTHER_OPS = ("log", "clip_min", "reshape", "tsum")
COMPOSITES = ("batch_norm", "instance_norm_freq", "softmax",
              "multi_head_attention")
DSP_STAGES = ("resample", "tile_to_duration", "bandpass", "make_scale_grid",
              "cwt", "log_magnitude", "resize", "save_spectrogram")
MODEL_BLOCKS = ("doub_inc", "inc_res1", "inc_res2", "pooling_maps", "head")
MODULES = ("cli", "data", "dsp", "augment", "autodiff", "model", "training",
           "evaluation")


def _bindings(obj):
    """Every (owner, attribute) in loaded lungsound modules and their
    classes whose value is `obj`."""
    found, seen = [], set()
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "lungsound"
                               or mod_name.startswith("lungsound.")):
            continue
        for owner in [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type)]:
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            found += [(owner, k) for k, v in vars(owner).items() if v is obj]
    return found


class Patches:
    """Scoped replacement of lungsound callables; see the module docstring."""

    def __init__(self):
        self._saved = []  # (owner, attribute, original)

    def wrap(self, owner, attr, make_wrapper):
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        for where, name in _bindings(original):
            self._saved.append((where, name, original))
            setattr(where, name, wrapper)

    def restore(self):
        """Put every original back and check each binding by identity."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        stale = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._saved
                 if vars(o)[a] is not orig]
        self._saved = []
        if stale:
            raise RuntimeError(f"attributes left patched: {stale}")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer(Patches):
    """Span recorder over the lungsound layers; use as a context manager.

    `ls` maps module names ("autodiff", "dsp", ...) to the imported modules.
    """

    def __init__(self, ls, workload):
        super().__init__()
        self.ls = ls
        self.workload = workload
        self.rep = 0
        self.spans = []  # [name, start_ns, end_ns, parent, rep, tape_bytes]
        self._stack = []  # open span ids
        self._ops = []  # names of the autodiff ops being executed
        self._blocks = {}  # id(model block) -> span name
        self.counts = defaultdict(int)
        self._t0 = time.perf_counter_ns()

    # -- span bookkeeping --------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.rep, 0])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    def _span(self, name, after=None):
        """Wrapper factory: one span per call named `name` (or
        `name(args)`); `after(args, result)` runs inside the span."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = self._open(name if isinstance(name, str) else name(args))
                try:
                    out = fn(*args, **kwargs)
                    if after is not None:
                        after(args, out)
                    return out
                finally:
                    self._close(sid)
            return wrapper
        return make

    def _op(self, op):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = self._open(f"autodiff.{op}")
                self._ops.append(op)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._ops.pop()
                    self._close(sid)
                if op == "conv2d":
                    n, c = args[0].shape[:2]
                    o, _, kh, kw = args[1].shape
                    ho, wo = out.shape[2:]
                    taps = n * c * kh * kw * ho * wo
                    self.counts["conv2d.flops"] += 2 * o * taps
                    self.counts["conv2d.cols_bytes"] += (
                        taps * args[0].data.dtype.itemsize)
                return out
            return wrapper
        return make

    def _node(self, fn):
        @functools.wraps(fn)
        def wrapper(data, parents, backprop):
            out = fn(data, parents, backprop)
            nbytes = out.data.nbytes
            self.counts["fwd_bytes"] += nbytes
            if out.data.dtype == np.float64:
                self.counts["f64_bytes"] += nbytes
            if out._backprop is not None:
                # nested ops (tsum inside tmean) belong to the outermost op
                op = self._ops[0] if self._ops else "other"
                self.counts["tape_nodes"] += 1
                self.counts["tape_bytes"] += nbytes
                self.counts[f"{op}.tape_bytes"] += nbytes
                for sid in self._stack:
                    self.spans[sid][5] += nbytes
                out._backprop = self._timed_backprop(op, out._backprop)
            return out
        return wrapper

    def _timed_backprop(self, op, backprop):
        def timed(g):
            sid = self._open(f"autodiff.{op}.bwd")
            try:
                return backprop(g)
            finally:
                self._close(sid)
        return timed

    def _file_bytes(self, key):
        def after(args, _out):
            self.counts[key] += os.path.getsize(args[0])
        return after

    def _register_blocks(self, model):
        for block in ("doub_inc", "inc_res1", "inc_res2", "head"):
            self._blocks[id(getattr(model, block))] = f"model.{block}"

    # -- installation ----------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self):
        ls = self.ls
        ad, dsp, data, tr, model = (ls["autodiff"], ls["dsp"], ls["data"],
                                    ls["training"], ls["model"])
        span = self._span
        self.wrap(ls["cli"], "extract_features", span("cli.extract_features"))
        self.wrap(data, "load_wav", span("data.load_wav"))
        self.wrap(data.DatasetManifest, "load_annotation",
                  span("data.load_annotation"))
        self.wrap(data, "segment_events", span("data.segment_events"))
        self.wrap(dsp, "extract_spectrogram", span("dsp.extract_spectrogram"))
        for stage in DSP_STAGES:
            after = (self._file_bytes("save_spectrogram.bytes")
                     if stage == "save_spectrogram" else None)
            self.wrap(dsp, stage, span(f"dsp.{stage}", after))
        self.wrap(dsp.WaveletSpec, "freq_response", span("dsp.freq_response"))
        self.wrap(ls["augment"], "make_batch", span("augment.make_batch"))
        self.wrap(ad, "_node", self._node)
        for op in AUTODIFF_OPS + OTHER_OPS:
            self.wrap(ad, op, self._op(op))
        for comp in COMPOSITES:
            self.wrap(ad, comp, span(f"autodiff.{comp}"))
        self.wrap(ad.Tensor, "backward", span("autodiff.backward"))

        def forward(fn):
            def register(*args, **kwargs):
                self._register_blocks(args[0])
                return fn(*args, **kwargs)
            return span("model.forward")(functools.wraps(fn)(register))

        self.wrap(model.RespiratoryClassifier, "forward", forward)
        block = lambda args: self._blocks.get(id(args[0]), "model.block")
        self.wrap(model.DoubIncBlock, "__call__", span(block))
        self.wrap(model.IncResBlock, "__call__", span(block))
        self.wrap(model, "pooling_maps", span("model.pooling_maps"))
        self.wrap(model.AttentionHead, "__call__", span(block))
        self.wrap(tr, "fit", span("training.fit"))
        self.wrap(tr, "train_step", span("training.train_step"))
        self.wrap(tr, "kl_loss", span("training.kl_loss"))
        self.wrap(tr.Adam, "step", span("training.adam_step"))
        self.wrap(tr, "evaluate_model", span("training.evaluate_model"))
        self.wrap(tr, "save_checkpoint",
                  span("training.save_checkpoint",
                       self._file_bytes("save_checkpoint.bytes")))
        self.wrap(ls["evaluation"], "evaluate_predictions",
                  span("evaluation.evaluate_predictions"))

    # -- results -----------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, rep, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start - self._t0,
                    "end_ns": end - self._t0, "parent": parent,
                    "workload": self.workload, "rep": rep}) + "\n")

    def layer_metrics(self, timed_wall_ms, overhead_frac):
        """BENCHMARK.json's per-layer metrics from the recorded spans."""
        calls, ms, self_ms = defaultdict(int), defaultdict(float), defaultdict(float)
        in_step, tape = defaultdict(float), defaultdict(int)
        child_ns = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        for sid, (name, start, end, parent, _, tape_bytes) in enumerate(self.spans):
            dur = (end - start) / 1e6
            calls[name] += 1
            ms[name] += dur
            self_ms[name] += dur - child_ns[sid] / 1e6
            tape[name] += tape_bytes
            if parent is not None and self.spans[parent][0] == "training.train_step":
                in_step[name] += dur
        c = self.counts
        m = {"cli.extract_features.ms": ms["cli.extract_features"],
             "data.load_wav.calls": calls["data.load_wav"],
             "data.load_wav.ms": ms["data.load_wav"],
             "data.load_annotation.calls": calls["data.load_annotation"],
             "data.segment_events.ms": ms["data.segment_events"]}
        for stage in DSP_STAGES:
            m[f"dsp.{stage}.ms"] = ms[f"dsp.{stage}"]
            m[f"dsp.{stage}.self_ms"] = self_ms[f"dsp.{stage}"]
        m["dsp.freq_response.calls"] = calls["dsp.freq_response"]
        m["dsp.freq_response.ms"] = ms["dsp.freq_response"]
        m["dsp.save_spectrogram.bytes"] = c["save_spectrogram.bytes"]
        m["augment.make_batch.calls"] = calls["augment.make_batch"]
        m["augment.make_batch.ms"] = ms["augment.make_batch"]
        for op in AUTODIFF_OPS:
            m[f"autodiff.{op}.calls"] = calls[f"autodiff.{op}"]
            m[f"autodiff.{op}.fwd_ms"] = ms[f"autodiff.{op}"]
            m[f"autodiff.{op}.bwd_ms"] = ms[f"autodiff.{op}.bwd"]
            m[f"autodiff.{op}.tape_bytes"] = c[f"{op}.tape_bytes"]
        for comp in COMPOSITES:
            m[f"autodiff.{comp}.fwd_ms"] = ms[f"autodiff.{comp}"]
            m[f"autodiff.{comp}.self_ms"] = self_ms[f"autodiff.{comp}"]
        m["autodiff.tape_nodes"] = c["tape_nodes"]
        m["autodiff.tape_bytes"] = c["tape_bytes"]
        m["autodiff.f64_bytes_share"] = (
            c["f64_bytes"] / c["fwd_bytes"] if c["fwd_bytes"] else 0.0)
        m["autodiff.backward.ms"] = ms["autodiff.backward"]
        m["autodiff.backward.overhead_ms"] = self_ms["autodiff.backward"]
        m["autodiff.conv2d.flops"] = c["conv2d.flops"]
        m["autodiff.conv2d.cols_bytes"] = c["conv2d.cols_bytes"]
        for block in MODEL_BLOCKS:
            m[f"model.{block}.fwd_ms"] = ms[f"model.{block}"]
            m[f"model.{block}.tape_bytes"] = tape[f"model.{block}"]
        m["training.train_step.calls"] = calls["training.train_step"]
        m["training.forward.ms"] = in_step["model.forward"]
        m["training.kl_loss.ms"] = ms["training.kl_loss"]
        m["training.backward.ms"] = in_step["autodiff.backward"]
        m["training.adam_step.ms"] = ms["training.adam_step"]
        m["training.evaluate_model.ms"] = ms["training.evaluate_model"]
        m["training.save_checkpoint.calls"] = calls["training.save_checkpoint"]
        m["training.save_checkpoint.ms"] = ms["training.save_checkpoint"]
        m["training.save_checkpoint.bytes"] = c["save_checkpoint.bytes"]
        m["evaluation.evaluate_predictions.calls"] = calls[
            "evaluation.evaluate_predictions"]
        m["evaluation.evaluate_predictions.ms"] = ms[
            "evaluation.evaluate_predictions"]
        module_self = defaultdict(float)
        for name, value in self_ms.items():
            module_self[name.split(".")[0]] += value
        for module in MODULES:
            m[f"{module}.self_ms"] = module_self[module]
        m["trace.self_share"] = sum(module_self.values()) / timed_wall_ms
        m["trace.overhead_frac"] = overhead_frac
        return m
