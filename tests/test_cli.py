import csv
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import lungsound
from lungsound import cli, data
from lungsound.cli import main
from lungsound.dsp import (Spectrogram, WaveletSpec, load_spectrogram,
                           save_spectrogram)
from lungsound.errors import InvalidConfigError
from lungsound.model import RespiratoryClassifier
from lungsound.training import Adam, load_checkpoint, save_checkpoint

TINY_CONFIG = """
seed = 0
wavelet.family = bump
spectrogram.size = 48x48
spectrogram.allow_custom_size = true
augment.crop_bins = 4
augment.mixup = false
train.epochs = 2
train.batch_size = 2
train.learning_rate = 1e-3
train.eval_every = 1
model.doub_inc_channels = 2
model.inc_res_channels = 3,4
model.attn_heads = 1
model.attn_key_dim = 2
model.fc_hidden = 8
model.dropout = 0.0
"""


def _train_only_manifest(path, tmp_path):
    """A copy of the manifest at `path` with every entry in the training
    split; returns the copy's path."""
    manifest = data.DatasetManifest.load(path)
    train_only = replace(manifest, entries=tuple(
        replace(e, split="train") for e in manifest.entries))
    copy = str(tmp_path / "manifest.json")
    train_only.save(copy)
    return copy


def _out_with_features(workspace, tmp_path):
    """A new out dir holding a copy of the workspace's feature caches."""
    out = tmp_path / "out"
    shutil.copytree(os.path.join(workspace["out"], "features"),
                    out / "features")
    return out


@pytest.fixture(scope="module")
def workspace(synth_dataset, tmp_path_factory):
    """One extract/train/evaluate/report pass over the shared corpus."""
    ws = tmp_path_factory.mktemp("cli_run")
    config = ws / "run.cfg"
    config.write_text(TINY_CONFIG)
    manifest = os.path.join(synth_dataset.root, "manifest.json")
    out = str(ws / "out")
    base = ["--manifest", manifest, "--config", str(config), "--out", out]
    assert main(["extract"] + base + ["--levels", "event"]) == 0
    assert main(["train"] + base + ["--task", "1-1"]) == 0
    ckpt = os.path.join(out, "checkpoints", "task_1-1.lsck")
    assert main(["evaluate"] + base + ["--task", "1-1",
                                       "--checkpoint", ckpt]) == 0
    assert main(["report", "--out", out]) == 0
    return {"out": out, "manifest": manifest, "config": str(config),
            "checkpoint": ckpt}


class TestSynthCommand:
    def test_writes_manifest_and_audio(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = main(["synth", "--out", str(out), "--seed", "3",
                     "--n-per-class", "1"])
        assert code == 0
        assert (out / "manifest.json").exists()
        wavs = [f for f in os.listdir(out) if f.endswith(".wav")]
        assert len(wavs) == 8  # 7 event classes + 1 poor quality
        assert "synthetic dataset" in capsys.readouterr().out

    def test_no_poor_quality_flag(self, tmp_path):
        out = tmp_path / "corpus"
        main(["synth", "--out", str(out), "--n-per-class", "1",
              "--no-poor-quality"])
        wavs = [f for f in os.listdir(out) if f.endswith(".wav")]
        assert len(wavs) == 7


class TestExtractCommand:
    def test_cache_layout(self, workspace):
        fdir = os.path.join(workspace["out"], "features", "bump_48x48_event")
        caches = [f for f in os.listdir(fdir) if f.endswith(".lssg")]
        assert len(caches) == 42  # 21 recordings x 2 events
        spec = load_spectrogram(os.path.join(fdir, caches[0]))
        assert spec.values.shape == (48, 48)

    def test_index_lists_every_sample(self, workspace):
        fdir = os.path.join(workspace["out"], "features", "bump_48x48_event")
        with open(os.path.join(fdir, "index.json")) as fh:
            index = json.load(fh)
        assert index["level"] == "event"
        assert index["size"] == [48, 48]
        assert len(index["samples"]) == 42
        ids = [s["id"] for s in index["samples"]]
        assert ids == sorted(ids)

    def test_rerun_reuses_existing_caches(self, workspace, capsys):
        fdir = os.path.join(workspace["out"], "features", "bump_48x48_event")
        sample = next(f for f in os.listdir(fdir) if f.endswith(".lssg"))
        before = os.path.getmtime(os.path.join(fdir, sample))
        code = main(["extract", "--manifest", workspace["manifest"],
                     "--config", workspace["config"],
                     "--out", workspace["out"], "--levels", "event"])
        assert code == 0
        assert os.path.getmtime(os.path.join(fdir, sample)) == before

    def test_two_recordings_of_one_name_fail_before_extraction(
            self, synth_dataset, tmp_path, capsys):
        """One recording copied to a/rec.wav and b/rec.wav, in different
        splits: both would be cached as rec.lssg, so extract stops with
        exit status 1 before it makes any feature directory."""
        entry = synth_dataset.entries[0]
        for sub, split in (("a", "train"), ("b", "validation")):
            os.makedirs(tmp_path / sub)
            for src, name in ((entry.audio, "rec.wav"),
                              (entry.annotation, "rec.json")):
                shutil.copy(os.path.join(synth_dataset.root, src),
                            tmp_path / sub / name)
        manifest = tmp_path / "manifest.json"
        data.DatasetManifest(root=str(tmp_path), entries=tuple(
            data.ManifestEntry(f"{sub}/rec.wav", f"{sub}/rec.json", split)
            for sub, split in (("a", "train"), ("b", "validation"))
        )).save(manifest)
        out = tmp_path / "out"
        code = main(["extract", "--manifest", str(manifest),
                     "--out", str(out)])
        assert code == 1
        assert "share the recording id 'rec'" in capsys.readouterr().err
        assert not (out / "features").exists()

    def test_stale_caches_are_recomputed(self, workspace, tmp_path):
        """A cache of another version or size is rewritten as a fresh
        extraction writes it; every other cache is left alone."""
        out = _out_with_features(workspace, tmp_path)
        fdir = out / "features" / "bump_48x48_event"
        names = sorted(f for f in os.listdir(fdir) if f.endswith(".lssg"))
        stale = names[:2]
        blob = bytearray((fdir / stale[0]).read_bytes())
        blob[4:8] = struct.pack("<I", 1)  # the version field
        (fdir / stale[0]).write_bytes(bytes(blob))
        save_spectrogram(fdir / stale[1], Spectrogram(np.zeros((8, 8))))
        for name in names:
            os.utime(fdir / name, (1e9, 1e9))
        base = ["--manifest", workspace["manifest"],
                "--config", workspace["config"], "--out", str(out)]
        assert main(["extract"] + base + ["--levels", "event"]) == 0
        reference = os.path.join(workspace["out"], "features",
                                 "bump_48x48_event")
        for name in names:
            assert (os.path.getmtime(fdir / name) != 1e9) == (name in stale)
            with open(os.path.join(reference, name), "rb") as fh:
                assert (fdir / name).read_bytes() == fh.read(), name
        assert main(["train"] + base + ["--task", "1-1"]) == 0

    def test_unknown_level_fails(self, workspace, capsys):
        code = main(["extract", "--manifest", workspace["manifest"],
                     "--config", workspace["config"],
                     "--out", workspace["out"], "--levels", "bogus"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExtractFeatures:
    def manifest(self, synth_dataset, n=3):
        return data.DatasetManifest(root=synth_dataset.root,
                                    entries=synth_dataset.entries[:n])

    def test_each_recording_decoded_once(self, synth_dataset, tmp_path,
                                         monkeypatch):
        calls = {"wav": 0, "annotation": 0}
        load_wav = data.load_wav
        load_annotation = data.DatasetManifest.load_annotation

        def counted_wav(path):
            calls["wav"] += 1
            return load_wav(path)

        def counted_annotation(self, entry):
            calls["annotation"] += 1
            return load_annotation(self, entry)

        monkeypatch.setattr(data, "load_wav", counted_wav)
        monkeypatch.setattr(data.DatasetManifest, "load_annotation",
                            counted_annotation)
        manifest = self.manifest(synth_dataset)
        fdir = str(tmp_path / "f")
        index = cli.extract_features(manifest, WaveletSpec(), (8, 16),
                                     "event", fdir)
        assert len(index["samples"]) == 6  # 3 recordings x 2 events
        assert calls == {"wav": 3, "annotation": 3}
        # a rerun finds every cache and decodes no audio
        cli.extract_features(manifest, WaveletSpec(), (8, 16), "event", fdir)
        assert calls == {"wav": 3, "annotation": 6}

    @pytest.mark.parametrize("level", ["Event", "records", ""])
    def test_unknown_level_rejected(self, synth_dataset, tmp_path, level):
        fdir = tmp_path / "f"
        with pytest.raises(InvalidConfigError, match=repr(level)):
            cli.extract_features(self.manifest(synth_dataset), WaveletSpec(),
                                 (8, 16), level, str(fdir))
        assert not fdir.exists()


class TestTrainCommand:
    def test_artifacts_exist(self, workspace):
        assert os.path.exists(workspace["checkpoint"])
        history = os.path.join(workspace["out"], "history_task_1-1.csv")
        lines = open(history).read().splitlines()
        assert lines[0].startswith("epoch,split,loss")
        assert len(lines) == 3  # header + one row per epoch

    @staticmethod
    def train_without_evaluation(workspace, tmp_path, capsys, manifest,
                                 config, why):
        out = _out_with_features(workspace, tmp_path)
        ckpt = str(tmp_path / "final.lsck")
        assert main(["train", "--manifest", manifest, "--config", config,
                     "--out", str(out), "--task", "1-1",
                     "--checkpoint", ckpt]) == 0
        assert (f"task 1-1: {why}; kept the final checkpoint "
                f"(epoch 2) -> {ckpt}") in capsys.readouterr().out
        assert load_checkpoint(ckpt)[3] == 2
        history = (out / "history_task_1-1.csv").read_text()
        assert history.splitlines()[1:] == []

    def test_without_validation_split_keeps_final_checkpoint(
            self, workspace, tmp_path, capsys):
        self.train_without_evaluation(
            workspace, tmp_path, capsys,
            _train_only_manifest(workspace["manifest"], tmp_path),
            workspace["config"], "no validation split")

    def test_eval_every_past_last_epoch_keeps_final_checkpoint(
            self, workspace, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFIG + "train.eval_every = 3\n")
        self.train_without_evaluation(
            workspace, tmp_path, capsys, workspace["manifest"], str(config),
            "no evaluation in 2 epochs")

    def test_cached_features_decode_no_audio(self, workspace, tmp_path,
                                             monkeypatch):
        out = _out_with_features(workspace, tmp_path)

        def no_decoding(path):
            raise AssertionError(f"decoded {path}")

        monkeypatch.setattr(data, "load_wav", no_decoding)
        assert main(["train", "--manifest", workspace["manifest"],
                     "--config", workspace["config"], "--out", str(out),
                     "--task", "1-1"]) == 0

    def test_collapsing_geometry_fails_before_extraction(self, workspace,
                                                         tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFIG + "spectrogram.size = 16x16\n"
                          "augment.crop_bins = 10\n")
        out = tmp_path / "fresh"
        argv = ["train", "--manifest", workspace["manifest"],
                "--config", str(config), "--out", str(out), "--task", "1-1"]
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(InvalidConfigError, match="6x6 collapse"):
            args.func(args)
        assert main(argv) == 1
        assert "collapse before pooling" in capsys.readouterr().err
        assert not (out / "features").exists()

    def test_indivisible_batch_fails_before_extraction(self, workspace,
                                                       tmp_path, capsys):
        """The balanced stream splits a batch evenly over the task's
        classes; task 1-2 has 7, so the default batch of 16 fails before
        any spectrogram is extracted."""
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFIG + "train.batch_size = 16\n")
        out = tmp_path / "fresh"
        argv = ["train", "--manifest", workspace["manifest"],
                "--config", str(config), "--out", str(out), "--task", "1-2"]
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(InvalidConfigError,
                           match=r"train.batch_size = 16 .* 7 classes of "
                                 r"task 1-2"):
            args.func(args)
        assert main(argv) == 1
        assert "train.batch_size = 16" in capsys.readouterr().err
        assert not (out / "features").exists()

    def test_checkpoint_in_a_new_directory(self, workspace, tmp_path):
        out = _out_with_features(workspace, tmp_path)
        ckpt = tmp_path / "new" / "nested" / "m.lsck"
        assert main(["train", "--manifest", workspace["manifest"],
                     "--config", workspace["config"], "--out", str(out),
                     "--task", "1-1", "--checkpoint", str(ckpt)]) == 0
        assert load_checkpoint(str(ckpt))[3] >= 1
        assert not (out / "checkpoints").exists()

    @pytest.mark.parametrize("text", ["{", '{"samples": []}'],
                             ids=["corrupt", "stale"])
    def test_feature_index_is_rebuilt_from_the_manifest(self, workspace,
                                                        tmp_path, text):
        out = _out_with_features(workspace, tmp_path)
        index = out / "features" / "bump_48x48_event" / "index.json"
        index.write_text(text)
        assert main(["train", "--manifest", workspace["manifest"],
                     "--config", workspace["config"], "--out", str(out),
                     "--task", "1-1"]) == 0
        reference = os.path.join(workspace["out"], "features",
                                 "bump_48x48_event", "index.json")
        assert index.read_text() == open(reference).read()


class TestEvaluateCommand:
    def test_report_json_contents(self, workspace):
        path = os.path.join(workspace["out"], "reports", "task_1-1.json")
        with open(path) as fh:
            rep = json.load(fh)
        assert rep["task"] == "1-1"
        assert rep["classes"] == ["Normal", "Adventitious"]
        cm = np.array(rep["confusion_matrix"])
        assert cm.shape == (2, 2)
        assert cm.sum() == 14  # 7 classes x 1 validation recording x 2 events
        assert 0.0 <= rep["Score"] <= 1.0

    def test_predictions_csv(self, workspace):
        path = os.path.join(workspace["out"], "reports",
                            "task_1-1_predictions.csv")
        lines = open(path).read().splitlines()
        assert lines[0] == "id,truth,prediction,p_Normal,p_Adventitious"
        assert len(lines) == 15
        for line in lines[1:]:
            probs = [float(x) for x in line.split(",")[3:]]
            assert sum(probs) == pytest.approx(1.0, abs=1e-4)

    def test_one_inference_pass_feeds_report_and_csv(self, workspace,
                                                      tmp_path, monkeypatch):
        out = _out_with_features(workspace, tmp_path)
        seen = []
        forward = RespiratoryClassifier.forward

        def counting_forward(self, batch, *args, **kwargs):
            seen.append(len(batch))
            return forward(self, batch, *args, **kwargs)

        monkeypatch.setattr(RespiratoryClassifier, "forward", counting_forward)
        assert main(["evaluate", "--manifest", workspace["manifest"],
                     "--config", workspace["config"], "--out", str(out),
                     "--task", "1-1",
                     "--checkpoint", workspace["checkpoint"]]) == 0
        with open(out / "reports" / "task_1-1.json") as fh:
            rep = json.load(fh)
        with open(out / "reports" / "task_1-1_predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(seen) == len(rows) == len({r["id"] for r in rows}) == 14
        names = rep["classes"]
        cm = np.zeros((len(names), len(names)), dtype=int)
        for row in rows:
            cm[names.index(row["truth"]), names.index(row["prediction"])] += 1
        assert cm.tolist() == rep["confusion_matrix"]

    def test_evaluation_is_deterministic(self, workspace, tmp_path):
        out2 = str(tmp_path / "out2")
        base = ["--manifest", workspace["manifest"], "--config",
                workspace["config"], "--out", out2]
        # features are re-extracted into the new tree, then scored twice
        assert main(["evaluate"] + base + ["--task", "1-1",
                                           "--checkpoint",
                                           workspace["checkpoint"]]) == 0
        first = open(os.path.join(out2, "reports", "task_1-1.json")).read()
        reference = open(
            os.path.join(workspace["out"], "reports", "task_1-1.json")
        ).read()
        assert first == reference

    @staticmethod
    def evaluate_train_only(workspace, tmp_path, capsys, out):
        manifest = _train_only_manifest(workspace["manifest"], tmp_path)
        assert main(["evaluate", "--manifest", manifest,
                     "--config", workspace["config"], "--out", str(out),
                     "--task", "1-1",
                     "--checkpoint", workspace["checkpoint"]]) == 0
        assert "scoring the training split" in capsys.readouterr().out
        with open(out / "reports" / "task_1-1.json") as fh:
            rep = json.load(fh)
        assert "scored_training_split" in rep["flags"]
        # every sample is scored, not the 14 of the validation split
        with open(out / "reports" / "task_1-1_predictions.csv") as fh:
            assert len(list(csv.DictReader(fh))) == np.sum(
                rep["confusion_matrix"]) == 42

    def test_without_validation_split_flags_training_scores(
            self, workspace, tmp_path, capsys):
        self.evaluate_train_only(workspace, tmp_path, capsys,
                                 tmp_path / "out")
        # a run with a validation split carries no such flag
        with open(os.path.join(workspace["out"], "reports",
                               "task_1-1.json")) as fh:
            assert "scored_training_split" not in json.load(fh)["flags"]

    def test_train_only_manifest_rescores_after_split_extract(
            self, workspace, tmp_path, capsys):
        """The splits come from the manifest given, not from the index an
        extract with another manifest left in the same out dir."""
        out = _out_with_features(workspace, tmp_path)
        self.evaluate_train_only(workspace, tmp_path, capsys, out)

    def test_missing_checkpoint_fails_cleanly(self, workspace, tmp_path,
                                              capsys):
        # on a fresh out dir: the checkpoint is read before any spectrogram
        # is extracted
        out = tmp_path / "fresh"
        code = main(["evaluate", "--manifest", workspace["manifest"],
                     "--config", workspace["config"], "--out", str(out),
                     "--task", "1-1", "--checkpoint",
                     str(tmp_path / "nonexistent.lsck")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert list(out.rglob("*.lssg")) == []

    def test_checkpoint_of_another_geometry_fails_before_extraction(
            self, workspace, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFIG + "augment.crop_bins = 6\n")
        out = tmp_path / "fresh"
        code = main(["evaluate", "--manifest", workspace["manifest"],
                     "--config", str(config), "--out", str(out),
                     "--task", "1-1", "--checkpoint", workspace["checkpoint"]])
        assert code == 1
        err = capsys.readouterr().err
        assert "44x44" in err and "42x42" in err
        assert not (out / "features").exists()

    @staticmethod
    def seven_class_checkpoint(workspace, tmp_path):
        """A task-1-2 (7-class) checkpoint on the workspace's geometry."""
        model = load_checkpoint(workspace["checkpoint"])[0]
        config = replace(model.config, n_classes=7)
        model = RespiratoryClassifier(config, seed=0)
        path = str(tmp_path / "seven.lsck")
        save_checkpoint(path, model, Adam(model.parameters()))
        return path

    @pytest.mark.parametrize("task, n_model, n_task", [("1-2", 2, 7),
                                                       ("1-1", 7, 2)])
    def test_checkpoint_of_another_task_fails_cleanly(
            self, workspace, tmp_path, capsys, task, n_model, n_task):
        ckpt = (workspace["checkpoint"] if n_model == 2
                else self.seven_class_checkpoint(workspace, tmp_path))
        out = _out_with_features(workspace, tmp_path)
        code = main(["evaluate", "--manifest", workspace["manifest"],
                     "--config", workspace["config"], "--out", str(out),
                     "--task", task, "--checkpoint", ckpt])
        assert code == 1
        err = capsys.readouterr().err
        assert ckpt in err and f"task {task}" in err
        assert f"{n_model} classes" in err and f"has {n_task}" in err
        assert not (out / "reports").exists()


class TestReportCommand:
    def test_summary_and_images(self, workspace):
        reports = os.path.join(workspace["out"], "reports")
        summary = open(os.path.join(reports, "summary.txt")).read()
        assert "task 1-1:" in summary
        assert "Score=" in summary
        img_dir = os.path.join(reports, "img")
        images = [f for f in os.listdir(img_dir) if f.endswith(".pgm")]
        assert len(images) == 42
        blob = open(os.path.join(img_dir, images[0]), "rb").read()
        assert blob.startswith(b"P5\n48 48\n255\n")
        assert len(blob) == len(b"P5\n48 48\n255\n") + 48 * 48

    def test_summary_line_lists_the_five_scores(self, workspace):
        reports = os.path.join(workspace["out"], "reports")
        with open(os.path.join(reports, "task_1-1.json")) as fh:
            rep = json.load(fh)
        summary = open(os.path.join(reports, "summary.txt")).read()
        assert (f"task 1-1: SE={rep['SE']:.3f} SP={rep['SP']:.3f} "
                f"AS={rep['AS']:.3f} HS={rep['HS']:.3f} "
                f"Score={rep['Score']:.3f}") in summary.splitlines()

    def test_unreadable_cache_is_skipped_and_named(self, workspace, tmp_path,
                                                   capsys):
        """A version-1 cache in a directory no command re-extracts is
        named on stderr and counted, and every other cache is rendered."""
        out = _out_with_features(workspace, tmp_path)
        fdir = out / "features" / os.listdir(out / "features")[0]
        stale = fdir / sorted(f for f in os.listdir(fdir)
                              if f.endswith(".lssg"))[0]
        blob = bytearray(stale.read_bytes())
        blob[4:8] = struct.pack("<I", 1)  # the version field
        stale.write_bytes(bytes(blob))
        assert main(["report", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert f"{stale}: unsupported cache version 1" in err
        summary = (out / "reports" / "summary.txt").read_text().splitlines()
        assert summary[0].startswith("rendered 41 spectrogram images")
        assert summary[1] == "skipped 1 unreadable spectrogram caches"
        assert len(os.listdir(out / "reports" / "img")) == 41

    def test_stray_file_under_features_is_skipped(self, workspace,
                                                  tmp_path):
        out = _out_with_features(workspace, tmp_path)
        (out / "features" / "notes.txt").write_text("not a feature dir\n")
        assert main(["report", "--out", str(out)]) == 0
        summary = (out / "reports" / "summary.txt").read_text().splitlines()
        assert summary[0].startswith("rendered 42 spectrogram images")
        assert summary[1] == "skipped 0 unreadable spectrogram caches"

    @pytest.mark.parametrize("mangle", [
        lambda text: text[: len(text) // 2],  # truncated
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "HS"}),  # a score missing
    ], ids=["truncated", "missing_key"])
    def test_malformed_report_fails_cleanly(self, workspace, tmp_path, capsys,
                                            mangle):
        reports = tmp_path / "reports"
        reports.mkdir()
        with open(os.path.join(workspace["out"], "reports",
                               "task_1-1.json")) as fh:
            text = fh.read()
        (reports / "task_1-1.json").write_text(mangle(text))
        assert main(["report", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(reports / "task_1-1.json") in err


NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from lungsound.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


class TestCachedFeaturesNeedOnlyNumpy:
    def test_train_evaluate_report_without_scipy(self, workspace, tmp_path):
        """On cached features, train, evaluate and report run in a process
        where scipy cannot be imported, and write what they write with it."""
        out = _out_with_features(workspace, tmp_path)
        ckpt = str(out / "checkpoints" / "task_1-1.lsck")
        base = ["--manifest", workspace["manifest"],
                "--config", workspace["config"], "--out", str(out),
                "--task", "1-1"]
        commands = [["train"] + base,
                    ["evaluate"] + base + ["--checkpoint", ckpt],
                    ["report", "--out", str(out)]]
        src = os.path.dirname(os.path.dirname(lungsound.__file__))
        run = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_RUN, json.dumps(commands)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1]) == [0, 0, 0]
        for name in ["checkpoints/task_1-1.lsck", "history_task_1-1.csv",
                     "reports/task_1-1.json",
                     "reports/task_1-1_predictions.csv"]:
            with open(os.path.join(workspace["out"], name), "rb") as fh:
                assert (out / name).read_bytes() == fh.read(), name
        # the summary's first line names the out dir
        summary = (out / "reports" / "summary.txt").read_text().splitlines()
        with open(os.path.join(workspace["out"], "reports",
                               "summary.txt")) as fh:
            expected = fh.read().splitlines()
        assert summary[0].startswith("rendered 42 spectrogram images")
        assert summary[1:] == expected[1:]


class TestErrorHandling:
    def test_missing_manifest_fails_cleanly(self, tmp_path, capsys):
        code = main(["extract", "--manifest", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def one_recording(synth_dataset, tmp_path, wav=lambda b: b,
                      annotation=lambda t: t):
        """A one-recording manifest under `tmp_path` whose WAV bytes and
        annotation text are the corpus's first, passed through `wav` and
        `annotation`; returns the manifest's path."""
        entry = synth_dataset.entries[0]
        with open(os.path.join(synth_dataset.root, entry.audio), "rb") as fh:
            (tmp_path / "a.wav").write_bytes(wav(fh.read()))
        with open(os.path.join(synth_dataset.root, entry.annotation)) as fh:
            (tmp_path / "a.json").write_text(annotation(fh.read()))
        manifest = data.DatasetManifest(
            root=str(tmp_path),
            entries=(data.ManifestEntry("a.wav", "a.json", "train"),))
        manifest.save(str(tmp_path / "manifest.json"))
        return str(tmp_path / "manifest.json")

    @pytest.mark.parametrize("wav", [
        lambda b: b"",
        lambda b: b"RIFF",
        lambda b: b[:16] + b"\xff" + b[17:],  # fmt chunk size past the end
    ], ids=["empty", "riff_only", "fmt_size_past_end"])
    def test_truncated_wav_fails_cleanly(self, synth_dataset, tmp_path,
                                         capsys, wav):
        manifest = self.one_recording(synth_dataset, tmp_path, wav=wav)
        code = main(["extract", "--manifest", manifest,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "a.wav: not a valid WAV file" in capsys.readouterr().err

    def test_infinite_event_time_fails_cleanly(self, synth_dataset, tmp_path,
                                               capsys):
        def infinite_onset(text):
            ann = json.loads(text)
            ann["event_annotation"][0]["start_ms"] = "@"
            return json.dumps(ann).replace('"@"', "1e400")

        manifest = self.one_recording(synth_dataset, tmp_path,
                                      annotation=infinite_onset)
        code = main(["extract", "--manifest", manifest,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert (f"error: {tmp_path / 'a.json'}: a: malformed annotation"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_no_sample_at_the_task_level_fails_cleanly(
            self, workspace, tmp_path, capsys, command):
        # only the event-free Poor Quality recordings: task 1-1, an event
        # task, has no sample to train on or to score
        manifest = data.DatasetManifest.load(workspace["manifest"])
        poor = replace(manifest, entries=tuple(
            e for e in manifest.entries
            if not manifest.load_annotation(e).events))
        assert poor.entries
        path = str(tmp_path / "manifest.json")
        poor.save(path)
        argv = [command, "--manifest", path, "--config", workspace["config"],
                "--out", str(tmp_path / "out"), "--task", "1-1"]
        if command == "evaluate":
            argv += ["--checkpoint", workspace["checkpoint"]]
        assert main(argv) == 1
        assert (f"error: {path}: no event-level sample for task 1-1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("text", [
        "not json",
        '{"root": ".", "entries": [{"audio": "a.wav", "split": "train"}]}',
    ], ids=["not_json", "entry_without_annotation"])
    def test_malformed_manifest_fails_cleanly(self, tmp_path, capsys, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        code = main(["extract", "--manifest", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"error: {path}: malformed manifest" in capsys.readouterr().err
