import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from lungsound import artifact
from lungsound import autodiff as ad
from lungsound import training as tr
from lungsound.augment import AugmentConfig, LabeledSpectrogram
from lungsound.autodiff import Tensor
from lungsound.dsp import Spectrogram
from lungsound.errors import (DataError, FormatError, InvalidConfigError,
                              InvalidInputError)
from lungsound.evaluation import TASKS
from lungsound.model import ModelConfig, RespiratoryClassifier
from oracles import array_entries, write_container


def tiny_model(n_classes=3, seed=0, dtype=np.float32):
    cfg = ModelConfig(
        input_dims=(12, 20), n_classes=n_classes, doub_inc_channels=2,
        inc_res_channels=(3, 4), attn_heads=1, attn_key_dim=2, fc_hidden=6,
        dropout=0.0,
    )
    return RespiratoryClassifier(cfg, seed=seed, dtype=dtype)


def toy_dataset(n_classes=3, per_class=4, f=16, t=24, seed=0):
    """Class k gets a spectrogram concentrated in its own frequency band, so
    even a tiny model can separate them."""
    rng = np.random.default_rng(seed)
    items = []
    for cls in range(n_classes):
        for _ in range(per_class):
            values = rng.standard_normal((f, t)) * 0.1
            rows = slice(cls * f // n_classes, (cls + 1) * f // n_classes)
            values[rows] += 3.0
            label = np.zeros(n_classes)
            label[cls] = 1.0
            items.append(LabeledSpectrogram(Spectrogram(values), label))
    return items


class TestKLLoss:
    """`kl_loss` takes logits: the log of a probability matrix is a logit
    matrix whose softmax is that matrix."""

    def test_zero_when_prediction_matches_labels(self):
        y = np.array([[0.25, 0.75], [0.6, 0.4]])
        assert tr.kl_loss(y, Tensor(np.log(y))).item() == pytest.approx(0.0)

    def test_one_hot_against_uniform_is_ln2(self):
        y = np.array([[1.0, 0.0]])
        logits = Tensor(np.log(np.array([[0.5, 0.5]])))
        assert tr.kl_loss(y, logits).item() == pytest.approx(np.log(2.0))

    def test_zero_label_entries_contribute_nothing(self):
        # 0·log 0 convention: a zero label coordinate is ignored even when
        # the prediction there is tiny
        y = np.array([[1.0, 0.0]])
        logits = Tensor(np.log(np.array([[1.0, 1e-300]])))
        assert np.isfinite(tr.kl_loss(y, logits).item())
        assert tr.kl_loss(y, logits).item() == pytest.approx(0.0)

    def test_sums_over_batch_rows(self):
        y = np.array([[1.0, 0.0], [1.0, 0.0]])
        logits = Tensor(np.log(np.array([[0.5, 0.5], [0.25, 0.75]])))
        expected = np.log(2.0) + np.log(4.0)
        assert tr.kl_loss(y, logits).item() == pytest.approx(expected)

    def test_prediction_floor_keeps_loss_finite(self):
        # no floor: the true class's log-probability is its logit minus the
        # row's log-sum-exp, finite however far below the maximum it lies
        y = np.array([[1.0, 0.0]])
        logits = Tensor(np.array([[-1e4, 0.0]]))
        loss = tr.kl_loss(y, logits).item()
        assert np.isfinite(loss)
        assert loss == pytest.approx(1e4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_sample_gets_logit_gradient(self, dtype):
        """A true class 40 below its row's maximum (p ≈ 4e-18, under the
        old 1e-8 floor) still gets the gradient softmax(z) − y, whose
        true-class entry is ≈ −1."""
        y = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        z = np.array([[0.0, -40.0, -2.0], [0.5, -0.5, 0.0]], dtype=dtype)
        logits = Tensor(z.copy(), requires_grad=True)
        tr.kl_loss(y, logits).backward()
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        assert p[0, 1] < 1e-17
        assert logits.grad.dtype == dtype
        assert np.allclose(logits.grad, p - y, rtol=1e-5, atol=1e-7)
        assert logits.grad[0, 1] == pytest.approx(-1.0, abs=1e-6)

    def test_l2_term_value_and_gradient(self):
        y = np.array([[0.5, 0.5]])
        y_hat = Tensor(np.array([[0.5, 0.5]]))
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        lam = 0.1
        loss = tr.kl_loss(y, y_hat, [p], lam)
        assert loss.item() == pytest.approx(lam / 2 * 14.0)
        p.zero_grad()
        loss.backward()
        assert np.allclose(p.grad, lam * p.data)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        y = rng.dirichlet(np.ones(4), size=3)
        raw = rng.dirichlet(np.ones(4), size=3)

        t = Tensor(raw.copy(), requires_grad=True)
        t.zero_grad()
        tr.kl_loss(y, t).backward()
        h = 1e-7
        for i in range(3):
            for j in range(4):
                up, dn = raw.copy(), raw.copy()
                up[i, j] += h
                dn[i, j] -= h
                numeric = (
                    tr.kl_loss(y, Tensor(up)).item()
                    - tr.kl_loss(y, Tensor(dn)).item()
                ) / (2 * h)
                assert t.grad[i, j] == pytest.approx(numeric, abs=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            tr.kl_loss(np.ones((1, 2)) / 2, Tensor(np.ones((2, 2)) / 2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_and_seed_follow_prediction_dtype(self, dtype):
        y = np.array([[0.2, 0.8], [1.0, 0.0]])  # float64 labels
        y_hat = Tensor(np.array([[0.5, 0.5], [0.9, 0.1]], dtype=dtype),
                       requires_grad=True)
        loss = tr.kl_loss(y, y_hat)
        loss.backward()
        assert loss.data.dtype == y_hat.grad.dtype == dtype


class TestRegularizedParameters:
    def test_selects_weights_not_biases_or_norms(self):
        model = tiny_model()
        reg = tr.regularized_parameters(model)
        params = model.parameters()
        assert set(reg) == {n for n, p in params.items() if p.ndim >= 2}
        for name in reg:
            assert name.split(".")[-1] in ("weight", "wq", "wk", "wv", "wo")
        for name in params:
            if name.endswith(("bias", "gamma", "beta")):
                assert name not in reg


class TestAdam:
    def test_zero_learning_rate_leaves_parameters_bitwise_unchanged(self):
        model = tiny_model()
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        opt = tr.Adam(model.parameters(), lr=0.0)
        batch = np.random.default_rng(0).standard_normal((2, 1, 12, 20))
        labels = np.eye(3)[:2]
        tr.train_step(model, batch, labels, opt, l2_lambda=0.0)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, before[name]), name

    def test_first_step_moves_by_lr_in_sign_direction(self):
        p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        p.grad = np.array([0.3, -0.7])
        opt = tr.Adam({"p": p}, lr=0.01)
        opt.step()
        # bias-corrected first step is lr·g/(|g|+eps) ~ lr·sign(g)
        assert np.allclose(p.data, [1.0 - 0.01, 1.0 + 0.01], atol=1e-6)

    def test_loss_decreases_over_fifty_steps(self):
        model = tiny_model()
        model._dropout_rng = np.random.default_rng(0)
        opt = tr.Adam(model.parameters(), lr=3e-3)
        rng = np.random.default_rng(1)
        batch = rng.standard_normal((3, 1, 12, 20))
        labels = np.eye(3)
        losses = [
            tr.train_step(model, batch, labels, opt, l2_lambda=0.0)
            for _ in range(50)
        ]
        assert losses[-1] < 0.2 * losses[0]

    def test_training_is_seed_deterministic(self):
        traces = []
        for _ in range(2):
            model = tiny_model(seed=3)
            model._dropout_rng = np.random.default_rng(5)
            opt = tr.Adam(model.parameters(), lr=1e-3)
            rng = np.random.default_rng(7)
            batch = rng.standard_normal((3, 1, 12, 20))
            trace = [
                tr.train_step(model, batch, np.eye(3), opt, 1e-4)
                for _ in range(5)
            ]
            traces.append(trace)
        assert traces[0] == traces[1]


class TestDtypeDiscipline:
    """One training step (dropout, float64 labels, L2) and one eval forward
    at the criterion-6 geometry compute, tape and differentiate in the
    model's dtype."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_array_leaves_the_model_dtype(self, dtype, monkeypatch):
        outputs = []
        node = ad._node

        def recording_node(data, parents, backprop):
            outputs.append(np.asarray(data).dtype)
            return node(data, parents, backprop)

        monkeypatch.setattr(ad, "_node", recording_node)
        cfg = ModelConfig(
            input_dims=(118, 118), n_classes=7, doub_inc_channels=8,
            inc_res_channels=(12, 16), attn_heads=2, attn_key_dim=8,
            fc_hidden=64, dropout=0.2,
        )
        model = RespiratoryClassifier(cfg, seed=0, dtype=dtype)
        model._dropout_rng = np.random.default_rng(0)
        opt = tr.Adam(model.parameters(), lr=1e-3)
        batch = np.random.default_rng(1).standard_normal((3, 1, 118, 118))
        tr.train_step(model, batch, np.eye(7)[:3], opt, l2_lambda=1e-4)
        with ad.no_grad():
            model.forward(batch, training=False)

        assert outputs and set(outputs) == {np.dtype(dtype)}
        for name, p in model.parameters().items():
            assert p.data.dtype == p.grad.dtype == dtype, name
            assert opt.m[name].dtype == opt.v[name].dtype == dtype, name
        for name, b in model.named_buffers():
            assert b.dtype == np.float64, name


class TestTapeSize:
    def test_one_training_step_records_239_nodes(self, monkeypatch):
        """One training forward plus `kl_loss` (dropout, L2) at the
        criterion-6 geometry records 225 tape nodes: each Inc block's
        convolution, 2x2 pooling, batch norm and residual norm, each
        attention softmax and the loss's log-softmax is one node. The test
        id keeps the 239 counted before softmax and the loss's log became
        single nodes."""
        recorded = []
        node = ad._node

        def counting_node(data, parents, backprop):
            out = node(data, parents, backprop)
            recorded.append(out._backprop is not None)
            return out

        monkeypatch.setattr(ad, "_node", counting_node)
        cfg = ModelConfig(
            input_dims=(118, 118), n_classes=7, doub_inc_channels=8,
            inc_res_channels=(12, 16), attn_heads=2, attn_key_dim=8,
            fc_hidden=64, dropout=0.2,
        )
        model = RespiratoryClassifier(cfg, seed=0)
        batch = np.random.default_rng(1).standard_normal((7, 1, 118, 118))
        logits = model.forward(batch, training=True,
                               rng=np.random.default_rng(0))
        tr.kl_loss(np.eye(7), logits,
                   tr.regularized_parameters(model).values(), 1e-4)
        assert sum(recorded) == 225


def closure_contents(fn):
    """Every object the function `fn` refers to through its closure cells
    and defaults, following the functions, lists, tuples and dicts found
    there."""
    found, todo, seen = [], [fn], set()
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        found.append(item)
        if isinstance(item, (list, tuple)):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif callable(item) and hasattr(item, "__closure__"):
            todo.extend(cell.cell_contents for cell in item.__closure__ or ())
            todo.extend(item.__defaults__ or ())
    return found


class TestTapeHoldsOnlyWhatBackwardReads:
    """A training forward plus `kl_loss` (dropout, L2) at the criterion-6
    geometry: the tape's closures hold arrays and shapes, never a Tensor, so
    an activation that no backward reads is freed during the forward."""

    @staticmethod
    def loss():
        cfg = ModelConfig(
            input_dims=(118, 118), n_classes=7, doub_inc_channels=8,
            inc_res_channels=(12, 16), attn_heads=2, attn_key_dim=8,
            fc_hidden=64, dropout=0.2,
        )
        model = RespiratoryClassifier(cfg, seed=0)
        batch = np.random.default_rng(1).standard_normal((7, 1, 118, 118))
        logits = model.forward(batch, training=True,
                               rng=np.random.default_rng(0))
        return tr.kl_loss(np.eye(7), logits,
                          tr.regularized_parameters(model).values(), 1e-4)

    def test_no_backward_closure_holds_a_tensor(self):
        handles = ad._toposort(self.loss()._handle)
        interior = [h for h in handles if h.backprop is not None]
        assert len(interior) > 200
        for h in interior:
            held = [type(item).__name__ for item in closure_contents(h.backprop)
                    if isinstance(item, Tensor)]
            assert held == [], h.backprop.__qualname__

    def test_unread_activations_are_freed_before_backward(self, monkeypatch):
        # no backward reads a convolution's output or a training batch
        # norm's output: batch norm keeps xhat, ReLU its own output and max
        # pooling the index of each window's maximum
        refs = []

        def recorded(op):
            def wrapper(*args, **kwargs):
                out = op(*args, **kwargs)
                refs.append((op.__name__, weakref.ref(out),
                             weakref.ref(out.data)))
                return out
            return wrapper

        monkeypatch.setattr(ad, "conv2d_sum", recorded(ad.conv2d_sum))
        monkeypatch.setattr(ad, "batch_norm", recorded(ad.batch_norm))
        loss = self.loss()
        names = [name for name, _, _ in refs]
        assert (names.count("conv2d_sum"), names.count("batch_norm")) == (8, 4)
        alive = [name for name, tensor, data in refs
                 if tensor() is not None or data() is not None]
        assert alive == []
        loss.backward()


class TestNonFiniteInput:
    def test_nan_reaches_the_loss_guard(self):
        """A NaN in the batch survives ReLU and the log-softmax's max
        shift, so the step stops before any parameter moves."""
        model = tiny_model()
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        batch = np.random.default_rng(0).standard_normal((2, 1, 12, 20))
        batch[0, 0, 3, 5] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            tr.train_step(model, batch, np.eye(3)[:2],
                          tr.Adam(model.parameters()), 1e-4)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, before[name]), name

    def test_nonfinite_gradient_named_before_adam_moves(self, monkeypatch):
        """A finite loss whose backward leaves a NaN in one gradient stops
        the step with that parameter's name; no parameter, Adam moment or
        step count moves."""
        model = tiny_model()
        batch = np.random.default_rng(0).standard_normal((2, 1, 12, 20))
        opt = tr.Adam(model.parameters(), lr=1e-3)
        tr.train_step(model, batch, np.eye(3)[:2], opt, 1e-4)
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        moments = {k: (opt.m[k].copy(), opt.v[k].copy()) for k in opt.m}
        target = sorted(model.parameters())[len(model.parameters()) // 2]
        backward = Tensor.backward

        def poisoned(self, *args, **kwargs):
            backward(self, *args, **kwargs)
            param = model.parameters()[target]
            param.grad = param.grad.copy()
            param.grad.flat[0] = np.nan

        monkeypatch.setattr(Tensor, "backward", poisoned)
        with pytest.raises(InvalidInputError,
                           match=f"non-finite gradient in {target}$"):
            tr.train_step(model, batch, np.eye(3)[:2], opt, 1e-4)
        assert opt.step_count == 1
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, before[name]), name
            assert np.array_equal(opt.m[name], moments[name][0]), name
            assert np.array_equal(opt.v[name], moments[name][1]), name


class TestFit:
    def make_dataset(self):
        return toy_dataset(n_classes=3, per_class=4, f=16, t=24)

    def cfgs(self, epochs, eval_every=1):
        train = tr.TrainConfig(
            epochs=epochs, batch_size=3, learning_rate=3e-3, l2_lambda=1e-5,
            seed=0, eval_every=eval_every, early_stop_evals=50,
        )
        aug = AugmentConfig(crop_bins=4, mixup=False)
        return train, aug

    def fit_without_evaluation(self, tmp_path, epochs, eval_every):
        """fit with a validation split that is never scored keeps the final
        checkpoint and reports no best Score."""
        train, aug = self.cfgs(epochs, eval_every)
        path = tmp_path / "final.lsck"
        result = tr.fit(tiny_model(), self.make_dataset(), list(range(9)),
                        list(range(9, 12)), TASKS["2-1"], train, aug,
                        checkpoint_path=path)
        assert result.history == []
        assert result.best_score is None
        assert result.best_epoch == epochs
        assert tr.load_checkpoint(path)[3] == epochs

    def test_zero_epochs_records_nothing(self, tmp_path):
        self.fit_without_evaluation(tmp_path, epochs=0, eval_every=1)

    def test_eval_every_past_last_epoch_records_nothing(self, tmp_path):
        self.fit_without_evaluation(tmp_path, epochs=2, eval_every=3)

    def test_without_validation_split_keeps_final_checkpoint(self, tmp_path):
        train, aug = self.cfgs(2)
        path = tmp_path / "final.lsck"
        result = tr.fit(tiny_model(), self.make_dataset(), list(range(12)),
                        [], TASKS["2-1"], train, aug, checkpoint_path=path)
        assert result.history == []
        assert result.best_score is None
        assert result.best_epoch == 2
        assert tr.load_checkpoint(path)[3] == 2

    def test_history_rows_have_expected_columns(self):
        model = tiny_model()
        train, aug = self.cfgs(2)
        result = tr.fit(model, self.make_dataset(), list(range(9)),
                        list(range(9, 12)), TASKS["2-1"], train, aug)
        assert len(result.history) == 2
        for row in result.history:
            assert set(row) == set(tr.HISTORY_COLUMNS)
            assert row["split"] == "validation"

    def test_empty_training_split_rejected(self):
        train, aug = self.cfgs(1)
        with pytest.raises(InvalidInputError):
            tr.fit(tiny_model(), self.make_dataset(), [], [0], TASKS["2-1"],
                   train, aug)

    @pytest.mark.parametrize("batch_size", [3, 6])
    def test_oversampling_needs_every_class_in_training(self, batch_size):
        """Class 2 (Poor Quality) only in validation: oversampling stops,
        naming the task and the class, whether or not the batch divides
        among the classes that are present."""
        train, aug = self.cfgs(1)
        train = replace(train, batch_size=batch_size)
        dataset, train_idx, val_idx = self.make_dataset(), range(8), [8, 9]
        with pytest.raises(DataError, match="task 2-1: no training sample "
                                            "of class Poor Quality"):
            tr.fit(tiny_model(), dataset, list(train_idx), val_idx,
                   TASKS["2-1"], train, aug)
        tr.fit(tiny_model(), dataset, list(train_idx), val_idx,
               TASKS["2-1"], train, replace(aug, oversample=False))

    def test_learns_separable_toy_data(self):
        model = tiny_model()
        dataset = toy_dataset(n_classes=3, per_class=6, f=16, t=24)
        train_idx = [i for i in range(18) if i % 6 < 4]
        val_idx = [i for i in range(18) if i % 6 >= 4]
        train, aug = self.cfgs(30)
        result = tr.fit(model, dataset, train_idx, val_idx, TASKS["2-1"],
                        train, aug)
        assert result.best_score > 0.9


class TestHistoryCsv:
    def test_round_trips_through_text(self, tmp_path):
        rows = [
            {"epoch": 1, "split": "validation", "loss": 0.5, "SE": 0.1,
             "SP": 0.9, "AS": 0.5, "HS": 0.18, "Score": 0.34},
        ]
        path = tmp_path / "history.csv"
        tr.write_history_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(tr.HISTORY_COLUMNS)
        fields = lines[1].split(",")
        assert fields[0] == "1"
        assert fields[1] == "validation"
        assert float(fields[2]) == pytest.approx(0.5)
        assert float(fields[-1]) == pytest.approx(0.34)


class TestCheckpoint:
    def test_roundtrip_is_bitwise_for_float32_models(self, tmp_path):
        model = tiny_model(seed=11)
        opt = tr.Adam(model.parameters(), lr=1e-3)
        batch = np.random.default_rng(0).standard_normal((3, 1, 12, 20))
        model._dropout_rng = np.random.default_rng(1)
        tr.train_step(model, batch, np.eye(3), opt, 1e-4)
        path = tmp_path / "model.lsck"
        tr.save_checkpoint(path, model, opt, seed=11, epoch=1)

        loaded, opt2, seed, epoch = tr.load_checkpoint(path)
        assert (seed, epoch) == (11, 1)
        params, params2 = model.parameters(), loaded.parameters()
        assert set(params) == set(params2)
        for name in params:
            assert np.array_equal(params[name].data, params2[name].data), name
            assert np.array_equal(opt.m[name], opt2.m[name])
            assert np.array_equal(opt.v[name], opt2.v[name])
        for (na, ba), (nb, bb) in zip(model.named_buffers(),
                                      loaded.named_buffers()):
            assert na == nb
            assert np.array_equal(ba, bb)
        assert (opt2.step_count, opt2.lr) == (opt.step_count, opt.lr)

    def test_resumed_training_continues_identically(self, tmp_path):
        rng_batch = np.random.default_rng(0)
        batch = rng_batch.standard_normal((3, 1, 12, 20))

        model = tiny_model(seed=2)
        model._dropout_rng = np.random.default_rng(9)
        opt = tr.Adam(model.parameters(), lr=1e-3)
        for _ in range(3):
            tr.train_step(model, batch, np.eye(3), opt, 0.0)
        path = tmp_path / "mid.lsck"
        tr.save_checkpoint(path, model, opt, seed=2, epoch=3)
        reference = [tr.train_step(model, batch, np.eye(3), opt, 0.0)
                     for _ in range(3)]

        resumed, opt2, _, _ = tr.load_checkpoint(path)
        resumed._dropout_rng = np.random.default_rng(9)
        resumed_trace = [tr.train_step(resumed, batch, np.eye(3), opt2, 0.0)
                         for _ in range(3)]
        assert resumed_trace == reference
        params = model.parameters()
        for name, p in resumed.parameters().items():
            assert np.array_equal(p.data, params[name].data), name

    def test_float64_model_rejected(self, tmp_path):
        model = tiny_model(dtype=np.float64)
        path = tmp_path / "model.lsck"
        with pytest.raises(InvalidInputError, match="float64"):
            tr.save_checkpoint(path, model, tr.Adam(model.parameters()))
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.lsck"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            tr.load_checkpoint(path)

    @staticmethod
    def rejected_unbuilt(path, resize, monkeypatch):
        """Saves a checkpoint, passes its bytes through `resize`, and checks
        that loading them fails on the length before any model is built."""
        model = tiny_model()
        tr.save_checkpoint(path, model, tr.Adam(model.parameters()))
        path.write_bytes(resize(path.read_bytes()))

        def unbuilt(*args, **kwargs):
            raise AssertionError("model built before the length check")

        monkeypatch.setattr(tr, "RespiratoryClassifier", unbuilt)
        with pytest.raises(FormatError, match="arrays list implies"):
            tr.load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path, monkeypatch):
        self.rejected_unbuilt(tmp_path / "model.lsck",
                              lambda blob: blob[: len(blob) - 16], monkeypatch)

    def test_trailing_bytes_rejected(self, tmp_path, monkeypatch):
        self.rejected_unbuilt(tmp_path / "model.lsck",
                              lambda blob: blob + b"\x00\x00", monkeypatch)

    @staticmethod
    def saved_pairs(path):
        """A fresh checkpoint saved at `path`: its header and its (name,
        array) pairs in file order."""
        model = tiny_model()
        tr.save_checkpoint(path, model, tr.Adam(model.parameters()))
        header, arrays = artifact.load(path, tr.CHECKPOINT_MAGIC,
                                       tr.CHECKPOINT_VERSION, "checkpoint")
        return model, header, list(arrays.items())

    @classmethod
    def edited_checkpoint(cls, path, edit, version=tr.CHECKPOINT_VERSION):
        """A saved checkpoint written again at `version` with its header,
        "arrays" list included, passed through `edit`."""
        model, header, pairs = cls.saved_pairs(path)
        header["arrays"] = array_entries(pairs)
        edit(header)
        write_container(path, tr.CHECKPOINT_MAGIC, version, header,
                        b"".join(a.tobytes() for _, a in pairs))
        return model

    @classmethod
    def edited_index(cls, path, edit):
        """A saved checkpoint written again with its (name, array) pairs
        passed through `edit`, each listed as it is."""
        model, header, pairs = cls.saved_pairs(path)
        pairs = edit(pairs)
        write_container(path, tr.CHECKPOINT_MAGIC, tr.CHECKPOINT_VERSION,
                        {**header, "arrays": array_entries(pairs)},
                        b"".join(a.tobytes() for _, a in pairs))
        return model

    def test_rewritten_header_still_loads(self, tmp_path):
        path = tmp_path / "model.lsck"
        model = self.edited_checkpoint(path, lambda header: None)
        assert tr.load_checkpoint(path)[0].config == model.config

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_unsupported_version_rejected(self, tmp_path, version):
        path = tmp_path / "model.lsck"
        self.edited_checkpoint(path, lambda header: None, version=version)
        with pytest.raises(FormatError, match="unsupported checkpoint "
                                              f"version {version}"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda h: h.pop("epoch"), "corrupt"),
        (lambda h: h["optimizer"].pop("step"), "corrupt"),
        (lambda h: h["arrays"][0].pop("shape"), "corrupt"),
        (lambda h: h["config"].pop("fc_hidden"), "corrupt"),
        (lambda h: h["config"].update(inct_kernels=[[5, 7], [7, 9]]),
         "corrupt"),
        (lambda h: h["config"].update(n_classes="3"), "corrupt"),
        (lambda h: h["config"].update(input_dims=12), "corrupt"),
        (lambda h: h["config"].update(inc_res_channels=[3.0, 4.0]),
         "corrupt"),
        (lambda h: h.update(seed="0"), "corrupt"),
        (lambda h: h.update(config=[]), "corrupt"),
        (lambda h: h["arrays"][-1].update(shape="4"), "array entry"),
        (lambda h: h["arrays"][0].update(name=7), "array entry 7"),
        (lambda h: h["optimizer"].pop("lr"), "corrupt"),
        (lambda h: h["optimizer"].update(lr="0.001"), "corrupt"),
        (lambda h: h["optimizer"].update(step=-2), "optimizer step"),
        (lambda h: h["optimizer"].update(lr=-1e-4), "optimizer lr"),
        (lambda h: h["optimizer"].update(lr=float("nan")), "optimizer lr"),
        (lambda h: h["optimizer"].update(lr=float("inf")), "optimizer lr"),
        (lambda h: h["arrays"][0].update(shape=[-2, 1, 3, 3]),
         "array entry"),
        (lambda h: h.update(seed=-1), "seed"),
        (lambda h: h.update(epoch=-1), "epoch"),
    ], ids=["no-epoch", "no-step", "no-shape", "config-missing",
            "config-unknown", "config-str", "config-int-for-tuple",
            "config-floats-for-ints", "seed-str", "config-list",
            "shape-str", "name-int", "no-lr", "lr-str", "step-negative",
            "lr-negative", "lr-nan", "lr-inf", "dim-negative",
            "seed-negative", "epoch-negative"])
    def test_malformed_header_is_a_format_error(self, tmp_path, edit, named):
        path = tmp_path / "model.lsck"
        self.edited_checkpoint(path, edit)
        with pytest.raises(FormatError, match=named):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda ps: [p for p in ps if p[0] != "param/head.fc2.bias"],
         "param/head.fc2.bias"),
        (lambda ps: ps + ps[:1], "param/doub_inc.inc_a.branches.0.weight"),
        (lambda ps: [p for p in ps
                     if p[0] != "buffer/doub_inc.bn_a.running_mean"],
         "buffer/doub_inc.bn_a.running_mean"),
        (lambda ps: ps + [p for p in ps
                          if p[0] == "buffer/doub_inc.bn_a.running_mean"],
         "buffer/doub_inc.bn_a.running_mean"),
        (lambda ps: ps[1::-1] + ps[2:],
         "param/doub_inc.inc_a.branches.0.weight"),
        (lambda ps: [("param/bogus", ps[0][1])] + ps[1:], "param/bogus"),
        (lambda ps: [(ps[0][0], ps[0][1].astype("<f8"))] + ps[1:], "<f8"),
        (lambda ps: [p for p in ps if p[0] != "v/head.fc2.bias"],
         "v/head.fc2.bias"),
    ], ids=["param-missing", "param-twice", "buffer-missing", "buffer-twice",
            "param-order", "param-unknown", "param-f8", "moment-missing"])
    def test_incomplete_index_is_a_format_error(self, tmp_path, edit, named):
        path = tmp_path / "model.lsck"
        self.edited_index(path, edit)
        with pytest.raises(FormatError, match=re.escape(named)):
            tr.load_checkpoint(path)


class TestTrainConfig:
    def test_rejects_nonpositive_batch(self):
        with pytest.raises(InvalidConfigError):
            tr.TrainConfig(batch_size=0)

    def test_rejects_negative_rates(self):
        with pytest.raises(InvalidConfigError):
            tr.TrainConfig(learning_rate=-1.0)
