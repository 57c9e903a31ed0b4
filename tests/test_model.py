import tracemalloc

import numpy as np
import pytest

from lungsound import autodiff as ad
from lungsound import model as md
from lungsound.autodiff import Tensor
from lungsound.errors import InvalidConfigError, InvalidInputError, UsageError


def tiny_config(**kw):
    defaults = dict(
        input_dims=(16, 32),
        n_classes=4,
        doub_inc_channels=4,
        inc_res_channels=(6, 8),
        attn_heads=2,
        attn_key_dim=3,
        fc_hidden=10,
        dropout=0.0,
    )
    defaults.update(kw)
    return md.ModelConfig(**defaults)


class TestModelConfig:
    def test_block_dims_halve_three_times(self):
        dims = md.ModelConfig(input_dims=(128, 512)).block_dims()
        assert dims == [
            (1, 128, 512),
            (128, 64, 256),
            (128, 32, 128),
            (256, 16, 64),
        ]

    def test_block_dims_floor_odd_sizes(self):
        dims = md.ModelConfig(input_dims=(118, 502)).block_dims()
        assert dims[-1] == (256, 14, 62)

    def test_roundtrip_through_dict(self):
        cfg = tiny_config()
        assert md.ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfigError):
            md.ModelConfig(n_classes=1)
        with pytest.raises(InvalidConfigError):
            md.ModelConfig(rn_lambda=-0.1)
        with pytest.raises(InvalidConfigError):
            md.ModelConfig(inc_res_channels=(32,))


class TestInc01:
    def test_sums_three_branch_convolutions(self):
        rng = np.random.default_rng(0)
        block = md.inc01(1, 2, rng, np.float64)
        assert [b.weight.shape[2:] for b in block.branches] == [
            (3, 3), (1, 1), (4, 1),
        ]
        x = Tensor(rng.standard_normal((1, 1, 6, 6)))
        out = block(x).data
        expected = sum(
            ad.conv2d(x, b.weight, None).data for b in block.branches
        )
        assert np.allclose(out, expected)

    def test_branches_have_no_bias(self):
        # a BatchNorm follows every inc01 block
        block = md.inc01(2, 3, np.random.default_rng(0), np.float64)
        assert [name for name, _ in block.named_parameters()] == [
            f"branches.{i}.weight" for i in range(3)]

    def test_rejects_nonpositive_channels(self):
        with pytest.raises(InvalidConfigError):
            md.inc01(1, 0, np.random.default_rng(0), np.float64)


class TestResidualNorm:
    def test_matches_formula(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 4, 8)))
        out = md.residual_norm(x, 0.4).data
        expected = 0.4 * x.data + ad.instance_norm_freq(x).data
        assert np.allclose(out, expected)

    def test_lambda_zero_is_pure_normalization(self):
        x = Tensor(np.random.default_rng(1).standard_normal((1, 1, 2, 16)))
        out = md.residual_norm(x, 0.0).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)


class TestTemporalBranchLocality:
    def test_1xk_kernels_do_not_mix_frequency_rows(self):
        """The temporal branch uses 1xK kernels: changing one frequency row
        of the input must leave every other output row untouched."""
        rng = np.random.default_rng(0)
        branch = md.IncBranches(1, 3, [(1, 5), (1, 7)], rng, np.float64)
        x = rng.standard_normal((1, 1, 6, 20))
        base = branch(Tensor(x)).data
        bumped = x.copy()
        bumped[0, 0, 2] += 1.0
        out = branch(Tensor(bumped)).data
        changed = np.any(out != base, axis=(0, 1, 3))
        assert changed[2]
        assert not np.any(changed[[0, 1, 3, 4, 5]])


class TestPoolingMaps:
    def test_shapes_and_values(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 4, 5))
        m1, m2, m3 = md.pooling_maps(Tensor(x))
        assert m1.shape == (2, 4, 5)  # N, F, T
        assert m2.shape == (2, 4, 3)  # N, F, C
        assert m3.shape == (2, 5, 3)  # N, T, C
        assert np.allclose(m1.data, x.mean(axis=1))
        assert np.allclose(m2.data, x.max(axis=3).transpose(0, 2, 1))
        assert np.allclose(m3.data, x.mean(axis=2).transpose(0, 2, 1))


class TestForward:
    def test_output_rows_are_distributions(self):
        model = md.RespiratoryClassifier(tiny_config(), seed=0)
        x = np.random.default_rng(0).standard_normal((3, 1, 16, 32))
        out = ad.softmax(model(x)).data
        assert out.shape == (3, 4)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-5)

    def test_batch_permutation_equivariance(self):
        model = md.RespiratoryClassifier(tiny_config(), seed=1)
        x = np.random.default_rng(1).standard_normal((4, 1, 16, 32))
        perm = [2, 0, 3, 1]
        with ad.no_grad():
            out = model(x).data
            out_perm = model(x[perm]).data
        assert np.allclose(out[perm], out_perm, atol=1e-5)

    def test_wrong_input_shape_rejected(self):
        model = md.RespiratoryClassifier(tiny_config(), seed=0)
        with pytest.raises(InvalidInputError):
            model(np.zeros((2, 1, 16, 31)))
        with pytest.raises(InvalidInputError):
            model(np.zeros((2, 2, 16, 32)))

    def test_seeded_construction_is_deterministic(self):
        a = md.RespiratoryClassifier(tiny_config(), seed=7)
        b = md.RespiratoryClassifier(tiny_config(), seed=7)
        for (na, pa), (nb, pb) in zip(
            sorted(a.parameters().items()), sorted(b.parameters().items())
        ):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_too_small_input_dims_rejected(self):
        # the config itself, so also a checkpoint header, rejects them
        for dims in [(4, 4), (16, 7), (0, 32)]:
            with pytest.raises(InvalidConfigError, match="collapse"):
                tiny_config(input_dims=dims)
        header = dict(tiny_config().to_dict(), input_dims=[16, 4])
        with pytest.raises(InvalidConfigError, match="16x4"):
            md.ModelConfig.from_dict(header)


class TestParameterAccounting:
    @staticmethod
    def expected_count(cfg):
        def conv(ci, co, kh, kw, bias=True):
            return co * ci * kh * kw + (co if bias else 0)

        def mha(d):
            h, k = cfg.attn_heads, cfg.attn_key_dim
            return 3 * h * d * k + h * k * d

        c = cfg.doub_inc_channels
        c1, c2 = cfg.inc_res_channels
        total = 0
        # Doub-Inc: two bias-free inception triples plus two batch norms
        for ci, co in [(1, c), (c, c)]:
            total += sum(conv(ci, co, kh, kw, bias=False)
                         for kh, kw in [(3, 3), (1, 1), (4, 1)])
            total += 2 * co
        # Two Inc-Res blocks: FT and T branches plus a bias-free 1x1
        # shortcut with BN
        for (ci, co), fts, ts in [
            ((c, c1), md.INCFT_KERNELS[0], md.INCT_KERNELS[0]),
            ((c1, c2), md.INCFT_KERNELS[1], md.INCT_KERNELS[1]),
        ]:
            total += sum(conv(ci, co, k, k) for k in fts)
            total += sum(conv(ci, co, 1, k) for k in ts)
            total += conv(ci, co, 1, 1, bias=False) + 2 * co
        # Attention head: three MHAs over (t_feat, c_feat, c_feat), two FCs
        _, f_out, t_out = cfg.block_dims()[-1]
        total += mha(t_out) + 2 * mha(c2)
        d_cat = t_out + 2 * c2
        total += d_cat * cfg.fc_hidden + cfg.fc_hidden
        total += cfg.fc_hidden * cfg.n_classes + cfg.n_classes
        return total

    def test_n_parameters_matches_architecture_formula(self):
        cfg = tiny_config()
        model = md.RespiratoryClassifier(cfg, seed=0)
        assert model.n_parameters() == self.expected_count(cfg)

    def test_parameter_names_are_unique(self):
        model = md.RespiratoryClassifier(tiny_config(), seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))

    def test_zero_grad_resets_all(self):
        model = md.RespiratoryClassifier(tiny_config(), seed=0)
        x = np.random.default_rng(0).standard_normal((2, 1, 16, 32))
        loss = ad.tsum(model(x))
        model.zero_grad()
        loss.backward()
        model.zero_grad()
        for p in model.parameters().values():
            assert not np.any(p.grad)


class TestTapeRelease:
    def test_backward_frees_every_interior_node(self):
        model = md.RespiratoryClassifier(tiny_config(dropout=0.5), seed=0)
        x = np.random.default_rng(0).standard_normal((2, 1, 16, 32))
        loss = ad.tsum(model(x, training=True, rng=np.random.default_rng(1)))
        interior = [h for h in ad._toposort(loss._handle) if h.parents]
        assert len(interior) > 100
        loss.backward()
        for handle in interior:
            assert handle.parents == ()
            assert handle.backprop is ad._unwound
        with pytest.raises(UsageError):
            loss.backward()


class TestEvalMemory:
    def test_doub_inc_eval_holds_two_activations(self, monkeypatch):
        """An eval forward of the Doub-Inc block holds at most two
        full-size activations at once, besides one band of columns and the
        merged weights: no padded copy of a convolution's input, and no
        layer's input kept alive past the layer."""
        monkeypatch.setattr(ad, "_BAND_BYTES", 1)  # one-row bands
        c, n, h, w = 16, 2, 40, 64
        block = md.DoubIncBlock(c, 0.4, 0.2, np.random.default_rng(0),
                                np.float32)
        x = Tensor(np.random.default_rng(1).standard_normal(
            (n, 1, h, w)).astype(np.float32))
        activation = n * c * h * w * 4
        band = c * 10 * w * 4  # one row of inc_b's columns over 10 taps
        merged = c * c * 10 * 4
        with ad.no_grad():
            block(x, False, None)  # first-call caches stay out of the count
            tracemalloc.start()
            try:
                block(x, False, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * activation + band + merged + activation // 10


class TestEndToEndGradient:
    def test_sampled_coordinates_match_central_differences(self):
        cfg = tiny_config(
            input_dims=(8, 16), doub_inc_channels=2, inc_res_channels=(3, 4),
            attn_heads=1, attn_key_dim=2, fc_hidden=6, n_classes=3,
        )
        model = md.RespiratoryClassifier(cfg, seed=0, dtype=np.float64)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 1, 8, 16))
        y = rng.dirichlet(np.ones(3), size=2)

        def loss_value():
            with ad.no_grad():
                out = ad.softmax(model(x)).data
            return -float(np.sum(y * np.log(out + 1e-12)))

        out = ad.softmax(model(x))
        loss = -ad.tsum(Tensor(y) * ad.log(out + 1e-12))
        model.zero_grad()
        loss.backward()

        params = model.parameters()
        h = 1e-5
        checked = 0
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
                assert analytic == pytest.approx(numeric, abs=2e-4), name
                checked += 1
        assert checked >= 40
