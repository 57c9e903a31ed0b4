"""The benchmark's workloads: extract, train_small and train_paper.

Constructing a workload is its set-up (inputs, model, warm-up); `rep(r)`
runs one repetition of the timed work and returns a `Rep`. Inputs come only
from the seed. Every repetition checks its own outputs; a clip or train step
whose output fails a check counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from speed import Speed
from tracer import Patches

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 2306
REFERENCE_CLASS = "B"
# seeded recordings use the other classes, so sample ids never collide
SEEDED_CLASSES = ("N", "Rho", "W", "Str", "CC", "FC")
LEVELS = ("event", "record")
SOFTMAX_TOL = 1e-5


@dataclass
class Rep:
    """One repetition: measured seconds spent in each timed entry call,
    operations and their failures, and the per-call samples the metrics are
    made from. Timed calls go through the workload's speed probe
    (speed.py), which runs its kernel next to them."""
    timed: dict = field(default_factory=dict)
    ops: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # name -> list of values

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)


# -- extract -------------------------------------------------------------------


def make_corpus(ls, root, seed, classes):
    """A one-recording-per-class synthetic corpus under `root`."""
    return ls["data"].generate_synthetic_dataset(
        root, seed, 1, event_classes=classes, include_poor_quality=False)


class Extract:
    """`cli.extract_features` with the bump wavelet over a small corpus, at
    event level (128x512, clips tiled to 10 s) and then record level
    (140x1024, tiled to 30 s). The corpus is one seeded recording plus a
    fixed reference recording whose spectrograms are compared with values
    recorded from the seed commit."""

    name = "extract"

    def __init__(self, ls, seed, work, toy=False):
        self.ls, self.work = ls, work
        self.speed = Speed()
        data, dsp = ls["data"], ls["dsp"]
        self.sizes = ({"event": (8, 16), "record": (8, 16)} if toy else
                      {"event": (128, 512), "record": (140, 1024)})
        self.wavelet = dsp.WaveletSpec(family="bump")
        entries = []
        for sub, corpus_seed, cls in (
                ("ref", REFERENCE_SEED, REFERENCE_CLASS),
                ("seeded", seed, SEEDED_CLASSES[seed % len(SEEDED_CLASSES)])):
            corpus = make_corpus(ls, os.path.join(work, sub), corpus_seed, (cls,))
            entries += [data.ManifestEntry(os.path.join(sub, e.audio),
                                           os.path.join(sub, e.annotation),
                                           e.split) for e in corpus.entries]
        # One extract_features call per recording and level, so that the
        # speed kernel (speed.py) runs every few seconds between them.
        self.recordings = []  # (one-recording manifest, {level: sample ids})
        for entry in entries:
            manifest = data.DatasetManifest(root=work, entries=(entry,))
            ann = manifest.load_annotation(entry)
            self.recordings.append((manifest, {
                "record": [ann.recording_id],
                "event": [f"{ann.recording_id}_e{k}"
                          for k in range(len(ann.events))]}))
        self.reference = None
        if not toy:
            with open(REFERENCE_PATH) as fh:
                self.reference = json.load(fh)
            check_reference_audio(self.reference, work)
        # warm-up: the whole DSP chain once on a short clip
        manifest = self.recordings[0][0]
        clip = manifest.load_audio(manifest.entries[0])
        short = dsp.AudioClip(clip.samples[: clip.sample_rate // 2],
                              clip.sample_rate)
        dsp.extract_spectrogram(short, self.wavelet, 8, 16, 1.0)

    def warm_up(self):
        """One untimed extraction per level at full size, so that the FFT
        lengths of both levels have been used once."""
        manifest = self.recordings[0][0]
        for level in LEVELS:
            self.ls["cli"].extract_features(
                manifest, self.wavelet, self.sizes[level], level,
                os.path.join(self.work, "warm-up", level))
        shutil.rmtree(os.path.join(self.work, "warm-up"))

    def rep(self, r):
        out = Rep()
        root = os.path.join(self.work, "features", f"rep{r}")
        for level in LEVELS:
            out.timed[level] = 0.0
            for i, (manifest, expected) in enumerate(self.recordings):
                ids = expected[level]
                fdir = os.path.join(root, level, str(i))
                out.ops += len(ids)
                # extract_features skips any .lssg already present: start
                # empty so that every sample is computed in the timed call
                if os.path.exists(fdir):
                    raise RuntimeError(f"{fdir} exists before extraction")
                try:
                    index, dt = self.speed.call(
                        self.ls["cli"].extract_features, manifest,
                        self.wavelet, self.sizes[level], level, fdir)
                except Exception as exc:  # counted as failed clips
                    out.failed += len(ids)
                    out.problems.append(f"{level}: {exc!r}")
                    continue
                out.timed[level] += dt
                out.sample(f"{level}_s", dt)
                out.sample(f"{level}_clips", len(ids))
                bad = self._check(index, fdir, level, ids)
                out.failed += len(bad)
                out.problems += bad
        shutil.rmtree(root, ignore_errors=True)
        return out

    def _check(self, index, fdir, level, expected):
        """One problem string per clip that was not computed here, has the
        wrong shape, is not finite or departs from the reference."""
        ids = [s["id"] for s in index["samples"]]
        written = sorted(f for f in os.listdir(fdir) if f.endswith(".lssg"))
        if sorted(ids) != sorted(expected) or len(written) != len(expected):
            return [f"{level}: computed {len(written)} of {len(expected)} "
                    f"clips"] * len(expected)
        problems = []
        for sample in index["samples"]:
            sid = sample["id"]
            try:
                spec = self.ls["dsp"].load_spectrogram(
                    os.path.join(fdir, sample["cache"]))
            except Exception as exc:  # includes non-finite values
                problems.append(f"{level} {sid}: {exc!r}")
                continue
            values = spec.values
            if values.shape != tuple(self.sizes[level]):
                problems.append(f"{level} {sid}: shape {values.shape}")
            elif not np.all(np.isfinite(values)):
                problems.append(f"{level} {sid}: non-finite values")
            elif self.reference and sid in self.reference["samples"]:
                excess = reference_excess(self.reference["samples"][sid], values)
                if excess > 0:
                    problems.append(f"{level} {sid}: departs from the "
                                    f"reference by {excess:.3g} dB beyond "
                                    f"tolerance")
        return problems


# -- reference spectrograms ------------------------------------------------------

# Criterion 2 bounds the FFT CWT by max|fast - slow| < 1e-6 * max|slow|. In
# dB, 20*log10|c| moves by at most (20/ln 10) * 1e-6 * max|c| / |c|, which is
# 8.686e-6 * 10**((v_max - v) / 20) dB at a point of v dB; bilinear resize
# averages such errors, and values are stored as float32.
CWT_REL_BOUND = 1e-6
DB_PER_REL = 20.0 / math.log(10.0)
# the resize reads native columns that are not in the stored grid; the
# nearest stored neighbours stand in for them, with a factor of 10 to spare
TOL_MARGIN = 10.0
N_REFERENCE_POINTS = 512


def reference_tolerance(values):
    """Per-point tolerance in dB derived from the criterion-2 CWT bound."""
    v = values.astype(np.float64)
    padded = np.pad(v, 1, mode="edge")
    low = np.min([padded[i: i + v.shape[0], j: j + v.shape[1]]
                  for i in range(3) for j in range(3)], axis=0)
    cwt = DB_PER_REL * CWT_REL_BOUND * 10.0 ** ((v.max() - low) / 20.0)
    rounding = 2.0 * np.abs(v) * np.finfo(np.float32).eps
    return TOL_MARGIN * cwt + rounding


def reference_entry(values, rng):
    """Sampled points, values and tolerances of one reference spectrogram."""
    rows = rng.integers(0, values.shape[0], N_REFERENCE_POINTS)
    cols = rng.integers(0, values.shape[1], N_REFERENCE_POINTS)
    tol = reference_tolerance(values)
    return {"shape": list(values.shape), "rows": rows.tolist(),
            "cols": cols.tolist(),
            "values": [float(x) for x in values[rows, cols]],
            "tol": [float(x) for x in tol[rows, cols]]}


def reference_excess(entry, values):
    """Largest amount by which a sampled point exceeds its tolerance (<= 0
    when every point is within it)."""
    if list(values.shape) != entry["shape"]:
        return math.inf
    got = values[entry["rows"], entry["cols"]].astype(np.float64)
    err = np.abs(got - np.asarray(entry["values"])) - np.asarray(entry["tol"])
    return float(err.max())


def audio_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_reference_audio(reference, work):
    """The reference recording must be the one the values were taken from;
    otherwise a mismatch would blame the DSP for a changed input."""
    for name, digest in reference["audio_sha256"].items():
        if audio_digest(os.path.join(work, "ref", name)) != digest:
            raise RuntimeError(f"reference recording {name} changed; the "
                               f"synthetic corpus generator is not the one "
                               f"reference.json was recorded with")


# -- training ---------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSpec:
    spec_dims: tuple  # (F, T) before the 10-bin crop
    model: dict  # ModelConfig fields besides input_dims and n_classes
    batch_size: int
    oversample: bool
    n_train: int
    n_val: int
    epochs: int
    # evaluate_model calls on the validation split after fit; each is a
    # sample of infer_ms_per_sample besides the validation passes in fit
    final_evals: int = 1


TINY_MODEL = dict(doub_inc_channels=2, inc_res_channels=(2, 2), attn_heads=1,
                  attn_key_dim=2, fc_hidden=4, dropout=0.0)
# criterion 6 of the acceptance suite
SMALL = TrainSpec((128, 128), dict(doub_inc_channels=8,
                                   inc_res_channels=(12, 16), attn_heads=2,
                                   attn_key_dim=8, fc_hidden=64, dropout=0.0),
                  batch_size=7, oversample=True, n_train=28, n_val=14, epochs=3)
# the paper's geometry at batch 1: batch 2 does not fit in 7 GB
PAPER = TrainSpec((128, 512), {}, batch_size=1, oversample=False, n_train=5,
                  n_val=2, epochs=1, final_evals=3)
TOY = {"train_small": TrainSpec((26, 26), TINY_MODEL, 7, True, 14, 7, 1),
       "train_paper": TrainSpec((26, 26), TINY_MODEL, 1, False, 2, 1, 1)}
CROP = 10
N_CLASSES = 7


def spectrogram_arrays(seed, n, dims):
    """`n` seeded dB-scaled arrays; class k = i % 7 carries a louder band of
    rows, so the labels are learnable."""
    rng = np.random.default_rng(seed)
    f, t = dims
    out = []
    for i in range(n):
        values = rng.normal(-60.0, 6.0, (f, t))
        k = i % N_CLASSES
        values[k * f // N_CLASSES: (k + 1) * f // N_CLASSES] += 20.0
        out.append((values.astype(np.float32), k))
    return out


class Train:
    """`training.fit` for a fixed number of epochs with validation every
    epoch and a best-checkpoint write, then `load_checkpoint` and
    `evaluate_model` on the validation split, as `lungsound train` and
    `lungsound evaluate` do."""

    def __init__(self, ls, seed, work, name, toy=False):
        self.ls, self.work, self.name, self.seed = ls, work, name, seed
        self.speed = Speed()
        tr, aug, dsp = ls["training"], ls["augment"], ls["dsp"]
        spec = TOY[name] if toy else {"train_small": SMALL,
                                      "train_paper": PAPER}[name]
        self.spec = spec
        self.items = []
        for values, k in spectrogram_arrays(seed, spec.n_train + spec.n_val,
                                            spec.spec_dims):
            label = np.zeros(N_CLASSES)
            label[k] = 1.0
            self.items.append(aug.LabeledSpectrogram(
                spec=dsp.Spectrogram(values=values), label=label))
        self.train_idx = list(range(spec.n_train))
        self.val_idx = list(range(spec.n_train, spec.n_train + spec.n_val))
        self.task = ls["evaluation"].TASKS["1-2"]
        self.train_config = tr.TrainConfig(
            epochs=spec.epochs, batch_size=spec.batch_size,
            learning_rate=1e-3, l2_lambda=1e-4, seed=seed,
            early_stop_evals=spec.epochs + 1)
        self.augment_config = aug.AugmentConfig(crop_bins=CROP,
                                                oversample=spec.oversample)
        f, t = spec.spec_dims
        self.model_config = ls["model"].ModelConfig(
            input_dims=(f - CROP, t - CROP), n_classes=N_CLASSES, **spec.model)
        self.model = self._new_model()
        self._warm_up()

    def _new_model(self):
        return self.ls["model"].RespiratoryClassifier(self.model_config,
                                                      seed=self.seed)

    def _warm_up(self):
        """One train step of a tiny model: runs every code path once."""
        ls = self.ls
        cfg = ls["model"].ModelConfig(input_dims=(16, 16), n_classes=N_CLASSES,
                                      **TINY_MODEL)
        model = ls["model"].RespiratoryClassifier(cfg, seed=self.seed)
        batch = np.random.default_rng(self.seed).standard_normal((7, 1, 16, 16))
        optimizer = ls["training"].Adam(model.parameters())
        ls["training"].train_step(model, batch, np.eye(N_CLASSES), optimizer,
                                  1e-4)

    def warm_up(self):
        """One untimed train step at full size on a throwaway model: a
        process's first step pays for growing the heap."""
        tr, aug = self.ls["training"], self.ls["augment"]
        model = self._new_model()
        rng = np.random.default_rng(self.seed)
        model._dropout_rng = rng
        indices = self.train_idx[: self.spec.batch_size]
        batch, labels = aug.make_batch(self.items, indices,
                                       self.augment_config, rng)
        tr.train_step(model, batch, labels, tr.Adam(model.parameters()),
                      self.train_config.l2_lambda)

    def rep(self, r):
        tr = self.ls["training"]
        out = Rep()
        model, self.model = self.model, None
        model = model or self._new_model()
        ckpt_dir = os.path.join(self.work, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
        ckpt = os.path.join(ckpt_dir, f"rep{r}.lsck")
        saved = {}
        speed = self.speed
        with Patches() as hooks:
            hooks.wrap(tr, "train_step",
                       lambda fn: self._step_hook(fn, out, speed))
            hooks.wrap(tr, "evaluate_model",
                       lambda fn: self._evaluate_hook(fn, out, speed))
            hooks.wrap(tr, "evaluate_predictions",
                       lambda fn: self._softmax_hook(fn, out))
            hooks.wrap(tr, "save_checkpoint",
                       lambda fn: self._snapshot_hook(fn, saved))
            try:
                result, fit_s = speed.enclosing(
                    tr.fit, model, self.items, self.train_idx, self.val_idx,
                    self.task, self.train_config, self.augment_config, ckpt)
                best = tr.load_checkpoint(ckpt)[0]
                reports, eval_s = speed.enclosing(
                    lambda: [tr.evaluate_model(best, self.items, self.val_idx,
                                               self.task, CROP)
                             for _ in range(self.spec.final_evals)])
            except Exception as exc:  # the rep's steps count as failed
                out.problems.append(f"{exc!r}")
            else:
                out.timed.update(fit=fit_s, evaluate=eval_s)
                out.sample("train_samples_per_s",
                           out.ops * self.spec.batch_size / fit_s)
                out.problems += self._check(result, reports, best,
                                             saved.get(ckpt, {}))
        out.ops = max(out.ops, 1)
        if out.problems:
            out.failed = out.ops
        return out

    @staticmethod
    def _step_hook(fn, out, speed):
        def step(*args, **kwargs):
            out.ops += 1
            loss, dt = speed.call(fn, *args, **kwargs)
            out.sample("train_step_ms", 1000.0 * dt)
            if not math.isfinite(loss):
                out.problems.append(f"non-finite loss {loss}")
            return loss
        return step

    @staticmethod
    def _evaluate_hook(fn, out, speed):
        """Times every evaluate_model call: the validation passes inside
        fit and the final scoring alike."""
        def evaluate_model(model, dataset, indices, *args, **kwargs):
            report, dt = speed.call(fn, model, dataset, indices, *args,
                                    **kwargs)
            out.sample("infer_ms_per_sample", 1000.0 * dt / len(indices))
            return report
        return evaluate_model

    @staticmethod
    def _softmax_hook(fn, out):
        def evaluate_predictions(truth, probabilities, task):
            p = np.asarray(probabilities, dtype=np.float64)
            if (not np.all(np.isfinite(p)) or np.any(p < 0) or
                    np.max(np.abs(p.sum(axis=1) - 1.0)) > SOFTMAX_TOL):
                out.problems.append("softmax rows do not sum to 1")
            return fn(truth, probabilities, task)
        return evaluate_predictions

    @staticmethod
    def _snapshot_hook(fn, saved):
        def save_checkpoint(path, model, *args, **kwargs):
            fn(path, model, *args, **kwargs)
            saved[path] = {name: p.data.astype(np.float32)
                           for name, p in model.parameters().items()}
        return save_checkpoint

    @staticmethod
    def _check(result, reports, best, snapshot):
        problems = []
        rows = [(f"epoch {h['epoch']}", h) for h in result.history]
        rows += [("evaluate", {"SE": report.se, "SP": report.sp,
                               "Score": report.score, "loss": 0.0})
                 for report in reports]
        for where, row in rows:
            if not math.isfinite(row["loss"]):
                problems.append(f"{where}: non-finite loss")
            for key in ("SE", "SP", "Score"):
                if not 0.0 <= row[key] <= 1.0:
                    problems.append(f"{where}: {key} = {row[key]} outside [0, 1]")
        params = best.parameters()
        if set(params) != set(snapshot) or not all(
                np.array_equal(params[k].data, v) for k, v in snapshot.items()):
            problems.append("best checkpoint does not reload with the saved "
                            "parameters")
        return problems


def make(name, ls, seed, work, toy=False):
    if name == "extract":
        return Extract(ls, seed, work, toy)
    return Train(ls, seed, work, name, toy)

