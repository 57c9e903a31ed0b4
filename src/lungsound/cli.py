"""Command-line entry points: synth, extract, train, evaluate, report.

Spectrogram caches live under OUT/features/<family>_<FxT>_<level>/. Every
command that needs features (extract, train, evaluate) builds the feature
index from the manifest it is given, reusing each cached spectrogram that
loads at the run's size and computing any other, so a run's samples and
splits always come from its manifest and the commands also work standalone.
The index.json written next to the caches is a record for readers; nothing
reads it back. Run settings come only from the --config file.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import data, dsp
from .augment import LabeledSpectrogram
from .config import load_run_config
from .errors import FormatError, InvalidConfigError, LungsoundError
from .evaluation import SCORE_NAMES, TASKS, evaluate_predictions
from .model import RespiratoryClassifier
from .training import fit, load_checkpoint, predict, write_history_csv


def _feature_dir(out, family, size, level):
    return os.path.join(out, "features", f"{family}_{size[0]}x{size[1]}_{level}")


# clips of each level are tiled to one duration before the CWT
_LEVEL_SECONDS = {"event": dsp.EVENT_SECONDS, "record": dsp.RECORD_SECONDS}


def _sample_ids(ann, level):
    """(sample_id, raw_label) per event, or for the whole recording."""
    if level == "record":
        return [(ann.recording_id, ann.record_label)]
    return [(f"{ann.recording_id}_e{k}", label)
            for k, (_, _, label) in enumerate(ann.events)]


def _clips(manifest, entry, ann, level):
    """The clips of one recording, in `_sample_ids` order."""
    audio = manifest.load_audio(entry)
    if level == "record":
        return [audio]
    return [clip for clip, _ in data.segment_events(audio, ann)]


def _reusable(cache, size):
    """Whether `cache` is a spectrogram file that this version loads and
    that holds `size`."""
    try:
        return dsp.load_spectrogram(cache).values.shape == tuple(size)
    except (FileNotFoundError, FormatError):
        return False


def extract_features(manifest, wavelet, size, level, feature_dir):
    """Compute (or reuse) one cache file per sample; returns the index.
    A cache is recomputed and overwritten unless `_reusable`. Each
    recording and its annotation are read at most once."""
    if level not in _LEVEL_SECONDS:
        raise InvalidConfigError(
            f"unknown extraction level {level!r}; expected one of "
            f"{', '.join(_LEVEL_SECONDS)}")
    os.makedirs(feature_dir, exist_ok=True)
    index = {"wavelet": wavelet.family, "size": list(size), "level": level,
             "samples": []}
    for entry in manifest.entries:
        ann = manifest.load_annotation(entry)
        clips = None  # decoded when the first missing cache needs it
        for k, (sample_id, raw_label) in enumerate(_sample_ids(ann, level)):
            cache = os.path.join(feature_dir, f"{sample_id}.lssg")
            if not _reusable(cache, size):
                if clips is None:
                    clips = _clips(manifest, entry, ann, level)
                spec = dsp.extract_spectrogram(clips[k], wavelet, size[0],
                                               size[1], _LEVEL_SECONDS[level])
                dsp.save_spectrogram(cache, spec)
            index["samples"].append(
                {"id": sample_id, "cache": os.path.basename(cache),
                 "label": raw_label, "split": entry.split}
            )
    index["samples"].sort(key=lambda s: s["id"])
    with open(os.path.join(feature_dir, "index.json"), "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
    return index


def _dataset_for_task(index, feature_dir, task):
    """LabeledSpectrogram list plus train/validation index lists."""
    items, train_idx, val_idx = [], [], []
    n_cls = len(task.class_names)
    for sample in index["samples"]:
        cls = task.map_label(sample["label"])
        label = np.zeros(n_cls)
        label[cls] = 1.0
        spec = dsp.load_spectrogram(os.path.join(feature_dir, sample["cache"]))
        (train_idx if sample["split"] == "train" else val_idx).append(len(items))
        items.append((sample["id"], LabeledSpectrogram(spec=spec, label=label)))
    ids = [sid for sid, _ in items]
    return ids, [it for _, it in items], train_idx, val_idx


def _run_config(args):
    """The command's --config file; the defaults when extract has none."""
    return load_run_config(args.config,
                           text="" if args.config is None else None)


def _input_dims(cfg):
    """The model's input dims: the spectrogram size less the crop."""
    crop = cfg.augment.crop_bins
    return cfg.size[0] - crop, cfg.size[1] - crop


def _features(args, cfg, level):
    """(feature directory, feature index) of the manifest's samples at
    `level`."""
    manifest = data.DatasetManifest.load(args.manifest)
    fdir = _feature_dir(args.out, cfg.wavelet.family, cfg.size, level)
    return fdir, extract_features(manifest, cfg.wavelet, cfg.size, level,
                                  fdir)


def cmd_synth(args):
    data.generate_synthetic_dataset(
        args.out, args.seed, args.n_per_class,
        include_poor_quality=not args.no_poor_quality,
        validation_every=args.validation_every,
    )
    print(f"synthetic dataset written to {args.out}")
    return 0


def cmd_extract(args):
    cfg = _run_config(args)
    for level in args.levels.split(","):
        fdir, index = _features(args, cfg, level)
        print(f"{len(index['samples'])} {level} spectrograms in {fdir}")
    return 0


def cmd_train(args):
    task = TASKS[args.task]
    cfg = _run_config(args)
    # a geometry the model cannot take fails before any extraction
    model_config = replace(cfg.model, input_dims=_input_dims(cfg),
                           n_classes=len(task.class_names))
    fdir, index = _features(args, cfg, task.level)
    _, items, train_idx, val_idx = _dataset_for_task(index, fdir, task)
    model = RespiratoryClassifier(model_config, seed=cfg.seed)
    os.makedirs(os.path.join(args.out, "checkpoints"), exist_ok=True)
    ckpt = args.checkpoint or os.path.join(
        args.out, "checkpoints", f"task_{args.task}.lsck"
    )
    result = fit(model, items, train_idx, val_idx, task, cfg.train,
                 cfg.augment, checkpoint_path=ckpt)
    write_history_csv(
        os.path.join(args.out, f"history_task_{args.task}.csv"), result.history
    )
    if result.best_score is None:
        why = ("no validation split" if not val_idx else
               f"no evaluation in {cfg.train.epochs} epochs")
        print(f"task {args.task}: {why}; kept the final checkpoint "
              f"(epoch {result.best_epoch}) -> {ckpt}")
    else:
        print(
            f"task {args.task}: best validation Score {result.best_score:.4f} "
            f"at epoch {result.best_epoch} -> {ckpt}"
        )
    return 0


def cmd_evaluate(args):
    task = TASKS[args.task]
    # a missing or mismatched checkpoint fails before any extraction
    model, _, _, _ = load_checkpoint(args.checkpoint)
    n_model, n_task = model.config.n_classes, len(task.class_names)
    if n_model != n_task:
        raise InvalidConfigError(
            f"{args.checkpoint}: the checkpoint predicts {n_model} classes, "
            f"task {args.task} has {n_task}")
    cfg = _run_config(args)
    have, want = model.config.input_dims, _input_dims(cfg)
    if have != want:
        raise InvalidConfigError(
            f"{args.checkpoint}: the checkpoint takes {have[0]}x{have[1]} "
            f"inputs; spectrogram.size less augment.crop_bins is "
            f"{want[0]}x{want[1]}")
    fdir, index = _features(args, cfg, task.level)
    ids, items, train_idx, val_idx = _dataset_for_task(index, fdir, task)
    eval_idx = val_idx if val_idx else train_idx
    truth, probs = predict(model, items, eval_idx, cfg.augment.crop_bins)
    report = evaluate_predictions(truth, probs, task)
    if not val_idx:
        report = replace(report, flags=(*report.flags, "scored_training_split"))
        print(f"task {args.task}: no validation split; scoring the training "
              "split")

    os.makedirs(os.path.join(args.out, "reports"), exist_ok=True)
    report_path = os.path.join(args.out, "reports", f"task_{args.task}.json")
    with open(report_path, "w") as fh:
        fh.write(report.to_json() + "\n")
    _write_predictions(
        os.path.join(args.out, "reports", f"task_{args.task}_predictions.csv"),
        [ids[i] for i in eval_idx], truth, probs, task,
    )
    print(f"task {args.task}: Score {report.score:.4f} -> {report_path}")
    return 0


def _write_predictions(path, ids, truth, probs, task):
    names = task.class_names
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "truth", "prediction"]
                        + [f"p_{c}" for c in names])
        for sample_id, true_class, p in zip(ids, truth, probs):
            writer.writerow(
                [sample_id, names[true_class], names[int(np.argmax(p))]]
                + [f"{x:.6f}" for x in p]
            )


def _write_pgm(path, values):
    lo, hi = float(values.min()), float(values.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    gray = np.round((values - lo) * scale).astype(np.uint8)
    header = f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + gray.tobytes())


def cmd_report(args):
    out_dir = os.path.join(args.out, "reports")
    img_dir = os.path.join(out_dir, "img")
    os.makedirs(img_dir, exist_ok=True)
    feature_root = os.path.join(args.out, "features")
    n_images = n_skipped = 0
    if os.path.isdir(feature_root):
        for sub in sorted(os.listdir(feature_root)):
            subdir = os.path.join(feature_root, sub)
            for name in sorted(os.listdir(subdir)):
                if name.endswith(".lssg"):
                    # a cache no command re-extracts, such as one an older
                    # version wrote, is named and left out
                    try:
                        spec = dsp.load_spectrogram(os.path.join(subdir, name))
                    except FormatError as exc:
                        print(f"skipped: {exc}", file=sys.stderr)
                        n_skipped += 1
                        continue
                    _write_pgm(
                        os.path.join(img_dir, f"{sub}__{name[:-5]}.pgm"),
                        spec.values,
                    )
                    n_images += 1
    lines = [f"rendered {n_images} spectrogram images to {img_dir}",
             f"skipped {n_skipped} unreadable spectrogram caches", ""]
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        if name.startswith("task_") and name.endswith(".json"):
            path = os.path.join(out_dir, name)
            with open(path) as fh:
                try:
                    rep = json.load(fh)
                    values = " ".join(f"{s}={rep[s]:.3f}" for s in SCORE_NAMES)
                    lines.append(f"task {rep['task']}: {values}")
                except (KeyError, TypeError, ValueError) as exc:
                    raise FormatError(
                        f"{path}: not a score report ({exc!r})") from exc
    summary = os.path.join(out_dir, "summary.txt")
    with open(summary, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lungsound",
        description="Respiratory-anomaly detection pipeline "
                    "(CWT features + inception-residual attention classifier)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-per-class", type=int, default=5)
    p.add_argument("--validation-every", type=int, default=4)
    p.add_argument("--no-poor-quality", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="write spectrogram caches")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config")
    p.add_argument("--levels", default="event",
                   help="comma list of event,record")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model for one task")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--task", required=True, choices=sorted(TASKS))
    p.add_argument("--checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on one task")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--task", required=True, choices=sorted(TASKS))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="render spectrogram images and a "
                                      "plain-text score summary")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LungsoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
