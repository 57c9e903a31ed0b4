"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line (written past pytest's capture so the lines show in any run)."""

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from lungsound import autodiff as ad
from lungsound import dsp
from lungsound import training as tr
from lungsound.augment import (AugmentConfig, LabeledSpectrogram,
                               balanced_oversample, center_crop, make_batch,
                               mixup, random_crop)
from lungsound.autodiff import Tensor
from lungsound.cli import main
from lungsound.data import generate_synthetic_dataset, segment_events
from lungsound.dsp import AudioClip, Spectrogram, WaveletSpec
from lungsound.evaluation import TASKS, scores
from lungsound.model import ModelConfig, RespiratoryClassifier
from oracles import cwt_direct, grad_check


def _announce(line):
    print(line)
    print(line, file=sys.__stdout__)  # also bypass pytest capture


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        _announce(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    _announce(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_metric_arithmetic():
    with criterion(1, "metric arithmetic matches published rows"):
        as_, hs, score = scores(0.81, 0.91)
        assert as_ == pytest.approx(0.86, abs=0.005)
        assert hs == pytest.approx(0.86, abs=0.005)
        assert score == pytest.approx(0.86, abs=0.005)
        as_, hs, score = scores(0.66, 0.59)
        # 0.625 sits exactly on the +/-0.005 boundary; allow float slack
        assert as_ == pytest.approx(0.63, abs=0.005 + 1e-12)
        assert hs == pytest.approx(0.62, abs=0.005)


def test_criterion_2_cwt_direct_convolution_oracle():
    with criterion(2, "FFT CWT matches direct convolution"):
        rng = np.random.default_rng(20)
        families = WaveletSpec.FAMILIES
        for i in range(20):
            spec = WaveletSpec(family=families[i % len(families)])
            n = int(rng.integers(64, 1025))
            n_scales = int(rng.integers(4, 17))
            clip = AudioClip(rng.standard_normal(n), 4000)
            # keep the slowest wavelet's support inside the padded signal
            grid = dsp.make_scale_grid(spec, n_scales, 4000, f_lo=250.0)
            fast = dsp.cwt(clip, spec, grid)
            slow = cwt_direct(clip, spec, grid)
            rel = np.max(np.abs(fast - slow)) / np.max(np.abs(slow))
            assert rel < 1e-6, (spec.family, n, n_scales, rel)


def test_criterion_3_gradient_suite():
    with criterion(3, "central-difference checks on all primitives"):
        tol = 1e-4
        checks = [
            ("add", lambda a, b: ad.tsum((a + b) ** 2), [(3, 4), (3, 4)]),
            ("mul", lambda a, b: ad.tsum((a * b) ** 2), [(3, 4), (3, 4)]),
            ("div", lambda a, b: ad.tsum((a / (b * b + 1.0)) ** 2),
             [(3, 4), (3, 4)]),
            ("power", lambda a: ad.tsum((a * a) ** 3), [(6,)]),
            ("exp", lambda a: ad.tsum(ad.exp(a)), [(3, 4)]),
            ("log", lambda a: ad.tsum(ad.log(a * a + 1.0)), [(3, 4)]),
            ("relu", lambda a: ad.tsum(ad.relu(a + 0.05) ** 2), [(5, 5)]),
            ("clip_min", lambda a: ad.tsum(ad.clip_min(a, 0.3) ** 2), [(17,)]),
            ("reshape", lambda a: ad.tsum(ad.reshape(a, (6, 2)) ** 2),
             [(3, 4)]),
            ("transpose", lambda a: ad.tsum(ad.transpose(a, (1, 0)) ** 2),
             [(3, 4)]),
            ("concat", lambda a, b: ad.tsum(ad.concat([a, b], axis=1) ** 2),
             [(2, 3), (2, 4)]),
            ("sum_axis", lambda a: ad.tsum(ad.tsum(a, axis=0) ** 2), [(3, 4)]),
            ("mean", lambda a: ad.tsum(ad.tmean(a, axis=1) ** 2), [(3, 4)]),
            ("max", lambda a: ad.tsum(ad.tmax(a, axis=1) ** 2), [(3, 4)]),
            ("matmul", lambda a, b: ad.tsum((a @ b) ** 2), [(3, 4), (4, 2)]),
            ("dense", lambda x, w, b: ad.tsum(ad.dense(x, w, b) ** 2),
             [(3, 4), (4, 2), (2,)]),
            ("softmax", lambda a: ad.tsum(ad.softmax(a, axis=-1) ** 3),
             [(3, 4)]),
            ("log_softmax",
             lambda a: ad.tsum(ad.log_softmax(a, axis=-1) ** 3), [(3, 4)]),
            ("conv2d_same",
             lambda x, w, b: ad.tsum(ad.conv2d(x, w, b) ** 2),
             [(2, 2, 5, 5), (3, 2, 3, 3), (3,)]),
            ("conv2d_even",
             lambda x, w, b: ad.tsum(ad.conv2d(x, w, b) ** 2),
             [(1, 1, 6, 5), (2, 1, 4, 1), (2,)]),
            ("pool_avg", lambda x: ad.tsum(ad.pool2d(x, "avg") ** 2),
             [(2, 2, 4, 6)]),
            ("pool_max", lambda x: ad.tsum(ad.pool2d(x, "max") ** 2),
             [(2, 2, 4, 6)]),
            ("global_avg_c",
             lambda x: ad.tsum(ad.tmean(x, 1) ** 2),
             [(2, 3, 4, 5)]),
            ("global_max_t",
             lambda x: ad.tsum(ad.tmax(x, 3) ** 2),
             [(2, 3, 4, 5)]),
            ("global_avg_f",
             lambda x: ad.tsum(ad.tmean(x, 2) ** 2),
             [(2, 3, 4, 5)]),
            ("instance_norm",
             lambda x: ad.tsum(ad.instance_norm_freq(x) ** 3), [(1, 2, 2, 6)]),
            ("residual_norm",
             lambda x: ad.tsum(ad.residual_norm(x, 0.4) ** 3), [(1, 2, 2, 6)]),
            ("conv2d_sum",
             lambda x, w1, w2, w3, b: ad.tsum(
                 ad.conv2d_sum(x, [w1, w2, w3], [b]) ** 2),
             [(1, 2, 6, 5), (2, 2, 3, 3), (2, 2, 1, 1), (2, 2, 4, 1), (2,)]),
            ("attention",
             lambda x, q, k, v, o: ad.tsum(
                 ad.multi_head_attention(x, q, k, v, o, heads=1) ** 2),
             [(1, 3, 4), (4, 2), (4, 2), (4, 2), (2, 4)]),
        ]
        for name, fn, shapes in checks:
            err = grad_check(fn, shapes, seed=3)
            assert err < tol, (name, err)

        coef = Tensor(np.random.default_rng(33).standard_normal((3, 2, 4, 4)))

        def bn(x, g, b):
            out = ad.batch_norm(x, g, b, np.zeros(2), np.ones(2))
            return ad.tsum(coef * out + (coef * out) ** 2)

        assert grad_check(bn, [(3, 2, 4, 4), (2,), (2,)], seed=3) < tol

        # kl_loss on logits
        y = np.random.default_rng(34).dirichlet(np.ones(4), size=3)

        def composite(logits):
            return tr.kl_loss(y, logits)

        assert grad_check(composite, [(3, 4)], seed=4) < tol

        # tiny end-to-end model at F=16, T=32
        cfg = ModelConfig(
            input_dims=(16, 32), n_classes=3, doub_inc_channels=2,
            inc_res_channels=(3, 4), attn_heads=1, attn_key_dim=2,
            fc_hidden=6, dropout=0.0,
        )
        model = RespiratoryClassifier(cfg, seed=0, dtype=np.float64)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 1, 16, 32))
        y = rng.dirichlet(np.ones(3), size=2)

        def loss_value():
            with ad.no_grad():
                return tr.kl_loss(y, model(x)).item()

        model.zero_grad()
        tr.kl_loss(y, model(x)).backward()
        params = model.parameters()
        h = 1e-5
        worst = 0.0
        for name in sorted(params):
            p = params[name]
            flat = p.data.reshape(-1)
            for idx in rng.choice(flat.size, size=min(2, flat.size),
                                  replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                fp = loss_value()
                flat[idx] = orig - h
                fm = loss_value()
                flat[idx] = orig
                numeric = (fp - fm) / (2 * h)
                analytic = p.grad.reshape(-1)[idx]
                rel = abs(analytic - numeric) / max(abs(numeric), 1e-4)
                worst = max(worst, rel)
        assert worst < tol, worst


def test_criterion_4_shape_schedule():
    with criterion(4, "documented dims at every block boundary"):
        expected = {
            (118, 502): [(1, 118, 502), (128, 59, 251), (128, 29, 125),
                         (256, 14, 62)],
            (130, 1014): [(1, 130, 1014), (128, 65, 507), (128, 32, 253),
                          (256, 16, 126)],
        }
        for dims, schedule in expected.items():
            cfg = ModelConfig(input_dims=dims, n_classes=7)
            assert cfg.block_dims() == schedule
            model = RespiratoryClassifier(cfg, seed=0)
            x = np.random.default_rng(0).standard_normal((1, 1) + dims)
            with ad.no_grad():
                t = Tensor(x.astype(np.float32))
                t = model.doub_inc(t, False, None)
                assert t.shape[1:] == schedule[1]
                t = model.inc_res1(t, False, None)
                assert t.shape[1:] == schedule[2]
                t = model.inc_res2(t, False, None)
                assert t.shape[1:] == schedule[3]
                probs = ad.softmax(model(x)).data
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-6


def test_criterion_5_augmentation_suite():
    with criterion(5, "oversample counts, verbatim crops, mixup simplex"):
        # exact per-class counts in every oversampled batch
        class_of = {i: i % 3 for i in range(10)}
        stream = balanced_oversample(class_of, 9, rng_seed=0)
        for batch in (next(stream) for _ in range(25)):
            counts = np.bincount([class_of[i] for i in batch], minlength=3)
            assert counts.tolist() == [3, 3, 3]

        # crops are verbatim sub-windows
        rng = np.random.default_rng(1)
        spec = Spectrogram(rng.standard_normal((40, 60)))
        for _ in range(25):
            crop = random_crop(spec, 8, rng).values
            assert crop.shape == (32, 52)
            found = any(
                np.array_equal(crop, spec.values[df:df + 32, dt:dt + 52])
                for df in range(9) for dt in range(9)
            )
            assert found

        # mixup keeps labels on the simplex; empirical E[lambda] ~ 0.5
        a = LabeledSpectrogram(Spectrogram(np.zeros((4, 4))),
                               np.array([1.0, 0.0]))
        b = LabeledSpectrogram(Spectrogram(np.ones((4, 4))),
                               np.array([0.0, 1.0]))
        lams = []
        for _ in range(10000):
            mixed = mixup(a, b, rng)
            assert np.all(mixed.label >= 0)
            assert mixed.label.sum() == pytest.approx(1.0, abs=1e-9)
            lams.append(mixed.label[0])
        assert abs(np.mean(lams) - 0.5) < 0.02


def test_criterion_6_learning_capability(tmp_path):
    with criterion(6, "fits the synthetic 7-class event task"):
        root = tmp_path / "learn_corpus"
        manifest = generate_synthetic_dataset(str(root), seed=7,
                                              n_per_class=5,
                                              validation_every=5)
        task = TASKS["1-2"]
        wavelet = WaveletSpec(family="bump")
        items, train_idx, val_idx = [], [], []
        for entry in manifest.entries:
            if entry.audio.startswith("PQ_"):
                continue
            clip = manifest.load_audio(entry)
            ann = manifest.load_annotation(entry)
            for seg, lab in segment_events(clip, ann):
                spec = dsp.extract_spectrogram(seg, wavelet, 128, 128,
                                               dsp.EVENT_SECONDS)
                label = np.zeros(7)
                label[task.map_label(lab)] = 1.0
                split = train_idx if entry.split == "train" else val_idx
                split.append(len(items))
                items.append(LabeledSpectrogram(spec=spec, label=label))
        assert len(train_idx) == 56  # 7 classes x 4 recordings x 2 events

        cfg = ModelConfig(
            input_dims=(118, 118), n_classes=7, doub_inc_channels=8,
            inc_res_channels=(12, 16), attn_heads=2, attn_key_dim=8,
            fc_hidden=64, dropout=0.0,
        )
        model = RespiratoryClassifier(cfg, seed=0)
        aug = AugmentConfig(crop_bins=10, mixup=False)
        score_epoch0 = tr.evaluate_model(model, items, val_idx, task, 10).score

        classes = {i: int(np.argmax(items[i].label)) for i in train_idx}
        stream = balanced_oversample(classes, 7, 1)
        rng = np.random.default_rng(0)
        model._dropout_rng = rng
        optimizer = tr.Adam(model.parameters(), lr=1e-3)
        steps = -(-len(train_idx) // 7)
        train_acc = 0.0
        for epoch in range(200):
            for _ in range(steps):
                batch, labels = make_batch(items, next(stream), aug, rng)
                tr.train_step(model, batch, labels, optimizer, 1e-5)
            if (epoch + 1) % 5 == 0:
                rep = tr.evaluate_model(model, items, train_idx, task, 10)
                cm = rep.confusion_matrix
                train_acc = np.trace(cm) / cm.sum()
                if train_acc >= 0.95:
                    break
        assert train_acc >= 0.95, train_acc
        score_final = tr.evaluate_model(model, items, val_idx, task, 10).score
        assert score_final > score_epoch0


SMOKE_CONFIG = """
seed = 0
wavelet.family = bump
spectrogram.size = 48x48
spectrogram.allow_custom_size = true
augment.crop_bins = 4
augment.mixup = false
train.epochs = 2
train.batch_size = {batch}
train.learning_rate = 1e-3
train.eval_every = 1
model.doub_inc_channels = 2
model.inc_res_channels = 3,4
model.attn_heads = 1
model.attn_key_dim = 2
model.fc_hidden = 8
model.dropout = 0.0
"""

TASK_BATCH = {"1-1": 2, "1-2": 7, "2-1": 3, "2-2": 5}


def _run_smoke(synth_dataset, workdir):
    """extract -> train -> evaluate for all four tasks in one output tree."""
    manifest = os.path.join(synth_dataset.root, "manifest.json")
    out = os.path.join(workdir, "out")
    configs = {}
    for task_id, batch in TASK_BATCH.items():
        path = os.path.join(workdir, f"task_{task_id}.cfg")
        with open(path, "w") as fh:
            fh.write(SMOKE_CONFIG.format(batch=batch))
        configs[task_id] = path
    assert main(["extract", "--manifest", manifest, "--config",
                 configs["1-1"], "--out", out,
                 "--levels", "event,record"]) == 0
    reports = {}
    for task_id, config in configs.items():
        base = ["--manifest", manifest, "--config", config, "--out", out,
                "--task", task_id]
        assert main(["train"] + base) == 0
        ckpt = os.path.join(out, "checkpoints", f"task_{task_id}.lsck")
        assert main(["evaluate"] + base + ["--checkpoint", ckpt]) == 0
        with open(os.path.join(out, "reports", f"task_{task_id}.json")) as fh:
            reports[task_id] = json.load(fh)
    return out, reports


@pytest.fixture(scope="module")
def smoke_runs(synth_dataset, tmp_path_factory):
    runs = []
    for name in ("smoke_a", "smoke_b"):
        workdir = tmp_path_factory.mktemp(name)
        runs.append(_run_smoke(synth_dataset, str(workdir)))
    return runs


def test_criterion_7_end_to_end_smoke(smoke_runs):
    with criterion(7, "extract/train/evaluate smoke on all four tasks"):
        _, reports = smoke_runs[0]
        assert set(reports) == {"1-1", "1-2", "2-1", "2-2"}
        for task_id, rep in reports.items():
            for key in ("SE", "SP", "AS", "HS", "Score"):
                assert 0.0 <= rep[key] <= 1.0, (task_id, key)
            se, sp = rep["SE"], rep["SP"]
            assert rep["AS"] == pytest.approx((se + sp) / 2, abs=1e-9)
            hs = 0.0 if se + sp == 0 else 2 * se * sp / (se + sp)
            assert rep["HS"] == pytest.approx(hs, abs=1e-9)
            assert rep["Score"] == pytest.approx(
                (rep["AS"] + rep["HS"]) / 2, abs=1e-9
            )


def test_criterion_8_determinism(smoke_runs):
    with criterion(8, "repeated smoke runs are byte-identical"):
        (out_a, _), (out_b, _) = smoke_runs
        for task_id in TASK_BATCH:
            ckpt_a = Path(out_a, "checkpoints",
                          f"task_{task_id}.lsck").read_bytes()
            ckpt_b = Path(out_b, "checkpoints",
                          f"task_{task_id}.lsck").read_bytes()
            assert ckpt_a == ckpt_b, task_id
            for suffix in (".json", "_predictions.csv"):
                rep_a = Path(out_a, "reports",
                             f"task_{task_id}{suffix}").read_text()
                rep_b = Path(out_b, "reports",
                             f"task_{task_id}{suffix}").read_text()
                assert rep_a == rep_b, (task_id, suffix)


def test_criterion_9_loss_identities():
    with criterion(9, "loss identities and exact L2 gradient"):
        y = np.array([[0.25, 0.75], [0.6, 0.4]])
        assert abs(tr.kl_loss(y, Tensor(np.log(y))).item()) <= 1e-12
        loss = tr.kl_loss(np.array([[1.0, 0.0]]),
                          Tensor(np.log(np.array([[0.5, 0.5]]))))
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-9)
        p = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
        lam = 0.01
        match = tr.kl_loss(y, Tensor(np.log(y)), [p], lam)
        p.zero_grad()
        match.backward()
        assert np.array_equal(p.grad, lam * p.data)
