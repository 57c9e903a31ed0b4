import numpy as np
import pytest

from lungsound import autodiff as ad
from lungsound.autodiff import Tensor
from lungsound.errors import (InvalidConfigError, InvalidInputError,
                              UsageError)
from oracles import (batch_norm_composite, batch_norm_eval_composite,
                     conv2d_im2col, conv2d_loop, conv2d_loop_grads,
                     grad_check, pool2d_windows, residual_norm_composite)


class TestConv2d:
    def test_identity_1x1(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 4, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = ad.conv2d(x, w, Tensor(np.zeros(1)))
        assert np.allclose(out.data, x.data)

    def test_zero_input_broadcasts_bias(self):
        x = Tensor(np.zeros((1, 2, 3, 3)))
        w = Tensor(np.random.default_rng(1).standard_normal((4, 2, 3, 3)))
        b = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
        out = ad.conv2d(x, w, b)
        for oi in range(4):
            assert np.allclose(out.data[0, oi], b.data[oi])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 5, 5))
        w = rng.standard_normal((2, 1, 3, 3))
        b = rng.standard_normal(2)
        out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.allclose(out, conv2d_loop(x, w, b), atol=1e-6)

    def test_even_kernel_pads_high_side(self):
        # 4x1 kernel, impulse at frequency row 1 of 4: "same" output places
        # the extra tap beyond the high side
        x = np.zeros((1, 1, 4, 1))
        x[0, 0, 1, 0] = 1.0
        w = np.arange(4.0).reshape(1, 1, 4, 1)
        out = ad.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1))).data
        oracle = conv2d_loop(x, w, np.zeros(1))
        assert out.shape == (1, 1, 4, 1)
        assert np.allclose(out, oracle)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            ad.conv2d(Tensor(np.zeros((1, 2, 3, 3))),
                      Tensor(np.zeros((1, 3, 1, 1))), Tensor(np.zeros(1)))


class TestConv2dSum:
    """The merged-branch node against the sum of per-kernel oracle
    convolutions, in float64."""

    KERNELS = {
        "inc01": [(3, 3), (1, 1), (4, 1)],
        "inct_5_7": [(1, 5), (1, 7)],
        "inct_7_9": [(1, 7), (1, 9)],
    }

    @staticmethod
    def branch_params(rng, kernels, c_in=3, c_out=4):
        weights = [Tensor(rng.standard_normal((c_out, c_in, kh, kw)),
                          requires_grad=True) for kh, kw in kernels]
        biases = [Tensor(rng.standard_normal(c_out), requires_grad=True)
                  for _ in kernels]
        return weights, biases

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_matches_sum_of_branch_oracles(self, name):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 7, 11))
        coef = rng.standard_normal((2, 4, 7, 11))
        weights, biases = self.branch_params(rng, self.KERNELS[name])

        def run(conv_sum):
            xt = Tensor(x, requires_grad=True)
            for p in weights + biases:
                p.grad = None
            out = conv_sum(xt)
            ad.tsum(out * coef).backward()
            return [out.data, xt.grad] + [p.grad for p in weights + biases]

        merged = run(lambda xt: ad.conv2d_sum(xt, weights, biases))

        def oracle_sum(xt):
            outs = [conv2d_im2col(xt, w, b) for w, b in zip(weights, biases)]
            total = outs[0]
            for out in outs[1:]:
                total = total + out
            return total

        reference = run(oracle_sum)
        for got, want in zip(merged, reference):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        loops = sum(conv2d_loop(x, w.data, b.data)
                    for w, b in zip(weights, biases))
        assert np.allclose(merged[0], loops, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_grad_check(self, name):
        kernels = self.KERNELS[name]

        def fn(x, *params):
            weights, biases = params[: len(kernels)], params[len(kernels):]
            return ad.tsum(ad.conv2d_sum(x, weights, biases) ** 2)

        shapes = ([(2, 2, 5, 9)] + [(3, 2, kh, kw) for kh, kw in kernels]
                  + [(3,)] * len(kernels))
        assert grad_check(fn, shapes, seed=10) < 1e-4

    def test_without_biases(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 2, 6, 5)))
        weights, _ = self.branch_params(rng, self.KERNELS["inc01"], c_in=2)
        out = ad.conv2d_sum(x, weights, []).data
        expected = sum(conv2d_loop(x.data, w.data, np.zeros(4))
                       for w in weights)
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_input_gradient_skipped_for_a_constant_input(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
        out = ad.conv2d_sum(Tensor(rng.standard_normal((1, 1, 4, 4))), [w], [])
        assert out._backprop(np.ones(out.shape))[0] is None

    def test_mismatched_kernels_rejected(self):
        x = Tensor(np.zeros((1, 2, 5, 5)))
        with pytest.raises(InvalidInputError):
            ad.conv2d_sum(x, [Tensor(np.zeros((3, 2, 3, 3))),
                              Tensor(np.zeros((4, 2, 1, 1)))], [])
        with pytest.raises(InvalidInputError):
            ad.conv2d_sum(x, [], [])
        with pytest.raises(InvalidInputError):
            ad.conv2d_sum(Tensor(np.zeros((1, 2, 0, 5))),
                          [Tensor(np.zeros((3, 2, 3, 3)))], [])


def _closure_arrays(node):
    """Every array a node's backward closure holds, through nested
    closures and lists."""
    found, todo = [], [node._backprop]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
        elif callable(item) and getattr(item, "__closure__", None):
            todo.extend(cell.cell_contents for cell in item.__closure__)
    return found


class TestConv2dBands:
    """The band loop, with the band budget shrunk so that one convolution
    runs as many bands, against the oracles in float64."""

    # kernels, number of taps in their union, input H×W; the border cases
    # have taps that lie wholly outside the input
    CASES = {
        "inc01": ([(3, 3), (1, 1), (4, 1)], 10, (7, 11)),
        "inct_5_7": ([(1, 5), (1, 7)], 7, (7, 11)),
        "border_inc01_h1": ([(3, 3), (1, 1), (4, 1)], 10, (1, 11)),
        "border_inc01_h2": ([(3, 3), (1, 1), (4, 1)], 10, (2, 11)),
        "border_1x9_w3": ([(1, 9)], 9, (7, 3)),
    }
    N, C_IN = 3, 3

    @staticmethod
    def budget(layout, n_taps, ho, wo, c_in=3):
        """Band bytes for one band per sample, one-row bands, three-row
        bands (the last one ragged) or a budget that fits two whole samples,
        which still gives one band per sample."""
        row = c_in * n_taps * wo * 8
        return {"one": ad._BAND_BYTES, "rows1": row, "rows3": 3 * row,
                "samples2": 2 * ho * row}[layout]

    @pytest.mark.parametrize("layout", ["one", "rows1", "rows3", "samples2"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_oracles(self, monkeypatch, name, layout):
        kernels, n_taps, (h, w) = self.CASES[name]
        rng = np.random.default_rng(11)
        x = rng.standard_normal((self.N, self.C_IN, h, w))
        weights, biases = TestConv2dSum.branch_params(rng, kernels)

        def run(conv_sum):
            xt = Tensor(x, requires_grad=True)
            for p in weights + biases:
                p.grad = None
            out = conv_sum(xt)
            coef = np.random.default_rng(12).standard_normal(out.shape)
            ad.tsum(out * coef).backward()
            return [out.data, xt.grad] + [p.grad for p in weights + biases]

        def oracle_sum(xt):
            outs = [conv2d_im2col(xt, w, b) for w, b in zip(weights, biases)]
            total = outs[0]
            for out in outs[1:]:
                total = total + out
            return total

        reference = run(oracle_sum)
        monkeypatch.setattr(ad, "_BAND_BYTES",
                            self.budget(layout, n_taps, h, w))
        banded = run(lambda xt: ad.conv2d_sum(xt, weights, biases))
        for got, want in zip(banded, reference):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        loops = sum(conv2d_loop(x, w.data, b.data)
                    for w, b in zip(weights, biases))
        assert np.allclose(banded[0], loops, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, ho, rows", [
        (1, 7, 0), (1, 7, 1), (3, 7, 3), (3, 7, 7), (3, 7, 14), (3, 7, 100)])
    def test_bands_tile_the_output_once_within_budget(self, monkeypatch, n,
                                                      ho, rows):
        monkeypatch.setattr(ad, "_BAND_BYTES", rows * 10)
        covered = np.zeros((n, ho), dtype=int)
        for i, r0, r1 in ad._bands(n, ho, 10):
            # a band is a run of one sample's rows, never two samples
            assert 0 <= i < n and 0 <= r0 < r1 <= ho
            covered[i, r0:r1] += 1
            assert r1 - r0 <= max(rows, 1)
        assert (covered == 1).all()

    def test_columns_hold_one_sample(self, monkeypatch):
        """A budget that fits several whole samples still gives a column
        buffer of one sample's columns, filled once per sample."""
        n, c, h, w = 4, 3, 7, 11
        taps = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        one_sample = c * len(taps) * h * w * 8
        monkeypatch.setattr(ad, "_BAND_BYTES", 3 * one_sample)
        src = np.random.default_rng(22).standard_normal((n, c, h, w))
        seen = []
        for band, cols in ad._band_columns(src, taps, h, w):
            buf = cols
            while buf.base is not None:
                buf = buf.base
            assert buf.nbytes <= one_sample
            i, r0, r1 = band
            assert cols.shape == (c * len(taps), (r1 - r0) * w)
            seen.append(i)
        assert seen == list(range(n))

    def test_grad_check_multi_band(self, monkeypatch):
        monkeypatch.setattr(ad, "_BAND_BYTES", 1)  # one-row bands
        kernels = self.CASES["inc01"][0]

        def fn(x, *params):
            weights, biases = params[: len(kernels)], params[len(kernels):]
            return ad.tsum(ad.conv2d_sum(x, weights, biases) ** 2)

        shapes = ([(2, 2, 5, 9)] + [(3, 2, kh, kw) for kh, kw in kernels]
                  + [(3,)] * len(kernels))
        assert grad_check(fn, shapes, seed=13) < 1e-4

    def test_no_node_keeps_columns(self, monkeypatch):
        rng = np.random.default_rng(14)
        data = rng.standard_normal((2, 3, 7, 11))
        weights, biases = TestConv2dSum.branch_params(
            rng, self.CASES["inc01"][0])
        own = [data] + [p.data for p in weights + biases]
        merged_bytes = 4 * 3 * 10 * 8
        for layout in [None, "rows1", "rows3", "samples2"]:
            if layout is not None:
                monkeypatch.setattr(ad, "_BAND_BYTES",
                                    self.budget(layout, 10, 7, 11))
            # an input with a gradient, and a constant input
            for x in [Tensor(data, requires_grad=True), Tensor(data)]:
                saved = _closure_arrays(ad.conv2d_sum(x, weights, biases))
                # beyond its operands' data, only the merged weight
                assert [a.nbytes for a in saved if a.nbytes > merged_bytes
                        and not any(a is b for b in own)] == [], (
                            layout, x.requires_grad)
                assert any(a is data for a in saved)

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_subnormal_output_gradient_is_flushed(self, monkeypatch, dtype,
                                                  budget):
        if budget is not None:
            monkeypatch.setattr(ad, "_BAND_BYTES", budget)
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((2, 3, 7, 11)).astype(dtype),
                   requires_grad=True)
        weights = [Tensor(w.data.astype(dtype), requires_grad=True)
                   for w in TestConv2dSum.branch_params(
                       rng, self.CASES["inc01"][0])[0]]
        out = ad.conv2d_sum(x, weights, [])
        g = np.full(out.shape, np.finfo(dtype).tiny / 4, dtype=dtype)
        g[:, ::2] *= -1
        gx, *gws = out._backprop(g)
        assert gx.dtype == dtype
        assert not gx.any() and not any(gw.any() for gw in gws)


class TestConv2dBackward:
    """The backward from output-gradient columns, with the band budget set
    so that its bands over the input rows are one band per sample, one-row
    bands or three-row bands, against the oracles in float64."""

    # the band loop's cases, plus a 1×1 and an even kernel
    CASES = {
        **TestConv2dBands.CASES,
        "one_by_one": ([(1, 1)], 1, (7, 11)),
        "even_2x4": ([(2, 4)], 8, (7, 11)),
    }
    N, C_IN, C_OUT = 3, 3, 4

    @classmethod
    def budget(cls, layout, n_taps, h, w):
        """Band bytes for the backward's bands over the h×w input's rows:
        one band per sample, one-row bands, three-row bands (the last one
        ragged) or a budget that fits two whole samples, which still gives
        one band per sample."""
        row = cls.C_OUT * n_taps * w * 8
        return {"one": ad._BAND_BYTES, "rows1": row, "rows3": 3 * row,
                "samples2": 2 * h * row}[layout]

    @pytest.mark.parametrize("layout", ["one", "rows1", "rows3", "samples2"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_oracles(self, monkeypatch, name, layout):
        kernels, n_taps, (h, w) = self.CASES[name]
        rng = np.random.default_rng(16)
        x = rng.standard_normal((self.N, self.C_IN, h, w))
        weights, biases = TestConv2dSum.branch_params(rng, kernels)
        monkeypatch.setattr(ad, "_BAND_BYTES",
                            self.budget(layout, n_taps, h, w))
        xt = Tensor(x, requires_grad=True)
        out = ad.conv2d_sum(xt, weights, biases)
        g = np.random.default_rng(17).standard_normal(out.shape)
        gx, *grads = out._backprop(g)

        loops = [conv2d_loop_grads(x, w.data, g) for w in weights]
        assert np.allclose(gx, sum(gxw for gxw, _ in loops), rtol=0, atol=1e-12)
        for got, (_, want) in zip(grads, loops):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        for got in grads[len(weights):]:
            assert np.allclose(got, g.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)

        xo = Tensor(x, requires_grad=True)
        outs = [conv2d_im2col(xo, w, b) for w, b in zip(weights, biases)]
        want = [o._backprop(g) for o in outs]
        assert np.allclose(gx, sum(w[0] for w in want), rtol=0, atol=1e-12)
        for got, w in zip(grads, [w[1] for w in want] + [w[2] for w in want]):
            assert np.allclose(got, w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["even_2x4", "inct_5_7"])
    def test_grad_check_multi_band(self, monkeypatch, name):
        monkeypatch.setattr(ad, "_BAND_BYTES", 1)  # one-row bands
        kernels = self.CASES[name][0]

        def fn(x, *params):
            weights, biases = params[: len(kernels)], params[len(kernels):]
            return ad.tsum(ad.conv2d_sum(x, weights, biases) ** 2)

        shapes = ([(2, 2, 5, 9)] + [(3, 2, kh, kw) for kh, kw in kernels]
                  + [(3,)] * len(kernels))
        assert grad_check(fn, shapes, seed=18) < 1e-4

    @pytest.mark.parametrize("layout", ["one", "rows1"])
    def test_constant_input_weight_gradient(self, monkeypatch, layout):
        for name in ["inc01", "border_inc01_h1", "border_inc01_h2",
                     "border_1x9_w3"]:
            kernels, n_taps, (h, w) = self.CASES[name]
            rng = np.random.default_rng(19)
            x = rng.standard_normal((self.N, self.C_IN, h, w))
            weights, _ = TestConv2dSum.branch_params(rng, kernels)
            if layout == "rows1":  # output-row bands, as in the forward
                monkeypatch.setattr(ad, "_BAND_BYTES",
                                    self.C_IN * n_taps * w * 8)
            out = ad.conv2d_sum(Tensor(x), weights, [])
            g = np.random.default_rng(20).standard_normal(out.shape)
            gx, *gws = out._backprop(g)
            assert gx is None
            for got, wt in zip(gws, weights):
                want = conv2d_loop_grads(x, wt.data, g)[1]
                assert np.allclose(got, want, rtol=0, atol=1e-12), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_input_flushes_subnormal_gradient(self, dtype):
        rng = np.random.default_rng(21)
        weights = [Tensor(w.data.astype(dtype), requires_grad=True)
                   for w in TestConv2dSum.branch_params(
                       rng, self.CASES["inc01"][0])[0]]
        x = Tensor(rng.standard_normal((2, 3, 7, 11)).astype(dtype))
        out = ad.conv2d_sum(x, weights, [])
        g = np.full(out.shape, -np.finfo(dtype).tiny / 4, dtype=dtype)
        gx, *gws = out._backprop(g)
        assert gx is None and not any(gw.any() for gw in gws)


class TestPooling:
    def test_avg_2x2(self):
        x = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2))
        assert ad.pool2d(x, "avg").data[0, 0, 0, 0] == 4.0

    def test_max_2x2(self):
        x = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2))
        assert ad.pool2d(x, "max").data[0, 0, 0, 0] == 7.0

    def test_floor_division_drops_remainder(self):
        x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 5, 7)))
        out = ad.pool2d(x, "avg")
        assert out.shape == (1, 1, 2, 3)

    def test_kernel_too_large_rejected(self):
        for shape in [(1, 1, 1, 2), (1, 1, 2, 1)]:
            with pytest.raises(InvalidConfigError):
                ad.pool2d(Tensor(np.zeros(shape)), "avg")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["avg", "max"])
    @pytest.mark.parametrize("shape", [(2, 3, 8, 10), (1, 2, 7, 9),
                                       (2, 1, 5, 2)])
    def test_bitwise_equal_to_window_oracle(self, shape, mode, dtype):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(shape).astype(dtype)
        x[0, 0, :2, :2] = -0.0  # an all-negative-zero window
        x[-1, -1, :2, 2:] = 1.5  # ties: the first in row-major order wins
        x[0, -1, 2:4, :2] = [[-1.0, 2.0], [2.0, 2.0]]
        x[-1, 0, 2:4, :2] = [[-0.0, 0.0], [-1.0, 0.0]]  # a ±0 tie
        x[-1, -1, :2, :2] = [[1.0, -np.nan], [np.nan, 2.0]]  # the first NaN
        g = rng.standard_normal(
            shape[:2] + (shape[2] // 2, shape[3] // 2)).astype(dtype)
        got = ad.pool2d(Tensor(x, requires_grad=True), mode)
        want = pool2d_windows(Tensor(x, requires_grad=True), mode, (2, 2))
        assert got.data.dtype == dtype
        assert got.data.tobytes() == want.data.tobytes()
        assert got._backprop(g)[0].tobytes() == want._backprop(g)[0].tobytes()

    def test_max_routes_ties_to_first_element(self):
        x = Tensor(np.array([[2.0, 1.0], [2.0, 2.0]]).reshape(1, 1, 2, 2),
                   requires_grad=True)
        ad.tsum(ad.pool2d(x, "max")).backward()
        assert np.array_equal(x.grad.reshape(2, 2), [[1.0, 0.0], [0.0, 0.0]])

    def test_global_variants_match_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4, 5))
        avg_c = ad.tmean(Tensor(x), 1).data
        max_t = ad.tmax(Tensor(x), 3).data
        avg_f = ad.tmean(Tensor(x), 2).data
        for n in range(2):
            for f in range(4):
                for t in range(5):
                    assert avg_c[n, f, t] == pytest.approx(
                        sum(x[n, c, f, t] for c in range(3)) / 3
                    )
            for c in range(3):
                for f in range(4):
                    assert max_t[n, c, f] == pytest.approx(
                        max(x[n, c, f, t] for t in range(5))
                    )
                for t in range(5):
                    assert avg_f[n, c, t] == pytest.approx(
                        sum(x[n, c, f, t] for f in range(4)) / 4
                    )


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((8, 3, 4, 4)) * 5 + 2)
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        rm, rv = np.zeros(3), np.ones(3)
        out = ad.batch_norm(x, gamma, beta, rm, rv, training=True).data
        for c in range(3):
            assert abs(out[:, c].mean()) < 1e-4
            assert abs(out[:, c].var() - 1.0) < 1e-3

    def test_identity_on_standardized_input(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((64, 2, 8, 8))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(
            axis=(0, 2, 3), keepdims=True
        )
        out = ad.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                            np.zeros(2), np.ones(2), training=True).data
        assert np.allclose(out, x, atol=1e-4)

    def test_eval_uses_running_stats(self):
        x = np.array([3.0, 5.0]).reshape(2, 1, 1, 1)
        gamma, beta = np.array([2.0]), np.array([1.0])
        rm, rv = np.array([4.0]), np.array([          4.0])
        out = ad.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv,
                            training=False).data
        expected = (x - 4.0) / np.sqrt(4.0 + 1e-5) * 2.0 + 1.0
        assert np.allclose(out, expected)


class TestFusedNorms:
    """Single-node batch norm, in both modes, and residual norm against the
    composites they replace."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_batch_norm_matches_composite_bitwise(self, dtype):
        rng = np.random.default_rng(24)
        x = (rng.standard_normal((3, 4, 5, 6)) * 3 + 1).astype(dtype)
        gamma, beta = (rng.standard_normal(4).astype(dtype) for _ in "gb")
        stats = [rng.standard_normal(4), rng.random(4) + 0.5]
        coef = rng.standard_normal(x.shape).astype(dtype)
        results = []
        for norm in (ad.batch_norm, batch_norm_eval_composite):
            leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
            kwargs = {"training": False} if norm is ad.batch_norm else {}
            out = norm(*leaves, *stats, **kwargs)
            ad.tsum(out * coef).backward()
            results.append([out.data] + [leaf.grad for leaf in leaves])
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_norm_forward_and_running_stats_bitwise(self, dtype):
        rng = np.random.default_rng(7)
        x = (rng.standard_normal((3, 4, 5, 6)) * 3 + 1).astype(dtype)
        gamma = rng.standard_normal(4).astype(dtype)
        beta = rng.standard_normal(4).astype(dtype)
        stats = [rng.standard_normal(4), rng.random(4) + 0.5]
        fused_stats = [s.copy() for s in stats]
        want = batch_norm_composite(Tensor(x), Tensor(gamma), Tensor(beta),
                                    *stats)
        got = ad.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta),
                            *fused_stats, training=True)
        assert got.data.dtype == dtype
        assert got.data.tobytes() == want.data.tobytes()
        for a, b in zip(fused_stats, stats):
            assert a.tobytes() == b.tobytes()

    def test_batch_norm_gradients_match_composite(self):
        rng = np.random.default_rng(8)
        x, gamma, beta = (rng.standard_normal(s)
                          for s in [(3, 2, 4, 5), (2,), (2,)])
        coef = rng.standard_normal((3, 2, 4, 5))
        grads = []
        for norm in (ad.batch_norm, batch_norm_composite):
            leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
            out = norm(*leaves, np.zeros(2), np.ones(2))
            ad.tsum(out * coef + (out * coef) ** 2).backward()
            grads.append([leaf.grad for leaf in leaves])
        for got, want in zip(*grads):
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_norm_affine_gradients_are_the_sums(self, dtype):
        rng = np.random.default_rng(22)
        x = (rng.standard_normal((3, 4, 5, 6)) * 3 + 1).astype(dtype)
        gamma, beta = (rng.standard_normal(4).astype(dtype) for _ in "gb")
        g = rng.standard_normal(x.shape).astype(dtype)
        out = ad.batch_norm(Tensor(x), Tensor(gamma, requires_grad=True),
                            Tensor(beta), np.zeros(4), np.ones(4))
        dx, ggamma, gbeta = out._backprop(g)
        xhat = ad._standardize(x, (0, 2, 3))[0]
        assert dx.dtype == ggamma.dtype == gbeta.dtype == dtype
        assert ggamma.tobytes() == (g * xhat).sum(axis=(0, 2, 3)).tobytes()
        assert gbeta.tobytes() == g.sum(axis=(0, 2, 3)).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_residual_norm_forward_bitwise(self, dtype):
        x = np.random.default_rng(9).standard_normal((2, 3, 4, 9)).astype(dtype)
        got = ad.residual_norm(Tensor(x), 0.4).data
        assert got.dtype == dtype
        assert got.tobytes() == residual_norm_composite(Tensor(x), 0.4).data.tobytes()

    def test_residual_norm_gradient_matches_composite(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4, 9))
        coef = rng.standard_normal(x.shape)
        grads = []
        for norm in (ad.residual_norm, residual_norm_composite):
            leaf = Tensor(x, requires_grad=True)
            ad.tsum(norm(leaf, 0.4) ** 2 * coef).backward()
            grads.append(leaf.grad)
        assert np.allclose(grads[0], grads[1], rtol=0, atol=1e-12)


class TestInstanceNormFreq:
    def test_idempotent_on_normalized_rows(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 3, 64))
        x = (x - x.mean(axis=-1, keepdims=True)) / x.std(axis=-1, keepdims=True)
        out = ad.instance_norm_freq(Tensor(x)).data
        assert np.allclose(out, x, atol=1e-4)

    def test_constant_rows_map_to_zero(self):
        out = ad.instance_norm_freq(Tensor(np.full((1, 2, 3, 8), 7.0))).data
        assert np.allclose(out, 0.0)

    def test_matches_row_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 1, 2, 8))
        out = ad.instance_norm_freq(Tensor(x)).data
        for f in range(2):
            row = x[0, 0, f]
            expected = (row - row.mean()) / np.sqrt(row.var() + 1e-5)
            assert np.allclose(out[0, 0, f], expected, atol=1e-6)


class TestDense:
    def test_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        out = ad.dense(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, x)

    def test_hand_sum(self):
        out = ad.dense(Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]),
                       Tensor([0.0]))
        assert out.data[0, 0] == 3.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x, w, b = (rng.standard_normal(s) for s in [(4, 8), (8, 3), (3,)])
        out = ad.dense(Tensor(x), Tensor(w), Tensor(b)).data
        oracle = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                oracle[i, j] = sum(x[i, k] * w[k, j] for k in range(8)) + b[j]
        assert np.allclose(out, oracle, atol=1e-9)


class TestActivations:
    def test_relu(self):
        out = ad.relu(Tensor([-3.0, 2.0])).data
        assert np.array_equal(out, [0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_bitwise_equal_to_masked_select(self, dtype):
        x = np.random.default_rng(0).standard_normal(1000).astype(dtype)
        x[:4] = [-0.0, 0.0, np.inf, -np.inf]
        out = ad.relu(Tensor(x)).data
        assert out.dtype == dtype
        assert out.tobytes() == np.where(x > 0, x, 0.0).astype(dtype).tobytes()

    def test_relu_propagates_nan(self):
        x = Tensor(np.array([np.nan, -1.0, 1.0]), requires_grad=True)
        out = ad.relu(x)
        assert np.isnan(out.data[0])
        ad.tsum(out * np.array([0.0, 1.0, 1.0])).backward()
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_softmax_uniform(self):
        out = ad.softmax(Tensor([[0.0, 0.0, 0.0]])).data
        assert np.allclose(out, 1.0 / 3.0)

    def test_softmax_simplex_on_extreme_inputs(self):
        x = Tensor(np.array([[1e4, -1e4, 0.0], [300.0, 300.0, -300.0]]))
        out = ad.softmax(x, axis=-1).data
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_is_the_shifted_exp_ratio(self, dtype):
        x = np.random.default_rng(1).standard_normal((5, 7)).astype(dtype) * 9
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        out = ad.softmax(Tensor(x)).data
        assert out.dtype == dtype
        assert out.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()

    def test_log_softmax_finite_on_extreme_inputs(self):
        x = np.array([[1e4, -1e4, 0.0], [300.0, 300.0, -300.0]])
        out = ad.log_softmax(Tensor(x), axis=-1).data
        assert np.all(np.isfinite(out))
        assert np.allclose(out[0], [0.0, -2e4, -1e4])
        assert np.allclose(np.exp(out).sum(axis=-1), 1.0)

    def test_dropout_p0_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert ad.dropout(x, 0.0, True, np.random.default_rng(0)) is x

    def test_dropout_eval_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert ad.dropout(x, 0.5, False) is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(10000))
        out = ad.dropout(x, 0.5, True, rng).data
        assert abs(out.mean() - 1.0) < 0.05


class TestAttention:
    def mha_params(self, rng, d, k, heads=1):
        wq = Tensor(rng.standard_normal((d, heads * k)))
        wk = Tensor(rng.standard_normal((d, heads * k)))
        wv = Tensor(rng.standard_normal((d, heads * k)))
        wo = Tensor(rng.standard_normal((heads * k, d)))
        return wq, wk, wv, wo

    def test_identical_tokens_yield_identical_outputs(self):
        rng = np.random.default_rng(0)
        token = rng.standard_normal(6)
        x = Tensor(np.tile(token, (2, 5, 1)))
        out = ad.multi_head_attention(x, *self.mha_params(rng, 6, 3, heads=2),
                                      heads=2)
        for s in range(1, 5):
            assert np.allclose(out.data[:, s], out.data[:, 0])

    def test_single_token_reduces_to_projection(self):
        rng = np.random.default_rng(1)
        wq, wk, wv, wo = self.mha_params(rng, 4, 2)
        x = Tensor(rng.standard_normal((1, 1, 4)))
        out = ad.multi_head_attention(x, wq, wk, wv, wo, heads=1)
        expected = x.data @ wv.data @ wo.data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_fused_heads_match_per_head_reference(self):
        rng = np.random.default_rng(2)
        heads, k = 3, 2
        wq, wk, wv, wo = self.mha_params(rng, 5, k, heads=heads)
        x = rng.standard_normal((2, 4, 5))
        out = ad.multi_head_attention(Tensor(x), wq, wk, wv, wo, heads=heads)
        for n in range(2):
            per_head = []
            for h in range(heads):
                cols = slice(h * k, (h + 1) * k)
                q = x[n] @ wq.data[:, cols]
                kk = x[n] @ wk.data[:, cols]
                v = x[n] @ wv.data[:, cols]
                scores = q @ kk.T / np.sqrt(k)
                weights = np.exp(scores - scores.max(axis=1, keepdims=True))
                weights /= weights.sum(axis=1, keepdims=True)
                per_head.append(weights @ v)
            expected = np.concatenate(per_head, axis=1) @ wo.data
            assert np.allclose(out.data[n], expected, rtol=0, atol=1e-12)

    def test_matches_hand_computed_table(self):
        # H=1, K=2, S=2, D=2 with simple projections
        x = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        wq = np.array([[1.0, 0.0], [0.0, 1.0]])
        wk = np.array([[1.0, 1.0], [0.0, 1.0]])
        wv = np.array([[2.0, 0.0], [0.0, 3.0]])
        wo = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = ad.multi_head_attention(
            Tensor(x), Tensor(wq), Tensor(wk), Tensor(wv), Tensor(wo), heads=1
        ).data
        q = x[0] @ wq
        k = x[0] @ wk
        v = x[0] @ wv
        scores = q @ k.T / np.sqrt(2.0)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        expected = (weights @ v) @ wo
        assert np.allclose(out[0], expected, atol=1e-6)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        loss = ad.tsum(x * x)
        loss.backward()
        assert np.allclose(x.grad, 2 * x.data)

    def test_unused_parameter_keeps_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        unused.zero_grad()
        ad.tsum(x * x).backward()
        assert np.array_equal(unused.grad, np.zeros(2))

    def test_double_backward_rejected(self):
        x = Tensor(np.ones(2), requires_grad=True)
        loss = ad.tsum(x * x)
        loss.backward()
        with pytest.raises(UsageError):
            loss.backward()

    def test_backward_through_an_unwound_node_rejected(self):
        x = Tensor(np.ones(2), requires_grad=True)
        shared = x * x
        ad.tsum(shared).backward()
        with pytest.raises(UsageError):
            ad.tsum(shared * 2.0).backward()

    def test_nonscalar_backward_rejected(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(InvalidInputError):
            (x * x).backward()

    @pytest.mark.parametrize("op", [ad.mul, ad.div, ad.matmul])
    def test_constant_operand_gets_no_gradient(self, op):
        # x -> h = 2x -> y = op(h, c) for a constant c, as dropout's mask:
        # the backward gives c no gradient and keeps none of h's array
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        h = x * 2.0
        c = np.array([[1.0, 2.0], [4.0, 8.0]])
        y = op(h, Tensor(c))
        gh, gc = y._backprop(np.ones((2, 2)))
        assert gc is None
        assert not any(a is h.data for a in _closure_arrays(y))
        ad.tsum(y).backward()
        assert np.array_equal(x.grad, 2.0 * gh)


class TestDtypeFollowsOperand:
    """A constant takes the dtype of the Tensor it meets: float32 operands
    stay float32, float64 operands stay float64, forward and backward."""

    DTYPES = [np.float32, np.float64]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("op", [
        lambda x: x + 1e-5,
        lambda x: x - 0.5,
        lambda x: 0.5 - x,
        lambda x: x * np.asarray(2.0),
        lambda x: x / 3.0,
    ], ids=["add", "sub", "rsub", "mul", "div"])
    def test_scalar_arithmetic(self, op, dtype):
        x = Tensor(np.ones((2, 3), dtype=dtype), requires_grad=True)
        out = op(x)
        ad.tsum(out).backward()
        assert out.data.dtype == dtype
        assert x.grad.dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_mean_over_axes(self, dtype):
        x = Tensor(np.ones((2, 3, 4), dtype=dtype))
        assert ad.tmean(x, axis=(0, 2)).data.dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_max_backward(self, dtype):
        x = Tensor(np.array([[1.0, 3.0, 3.0]], dtype=dtype),
                   requires_grad=True)
        ad.tsum(ad.tmax(x, axis=1)).backward()
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, [[0.0, 0.5, 0.5]])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dropout_mask(self, dtype):
        x = Tensor(np.ones((4, 4), dtype=dtype))
        out = ad.dropout(x, 0.5, True, np.random.default_rng(0))
        assert out.data.dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_eval_batch_norm_casts_float64_buffers(self, dtype):
        x = Tensor(np.array([3.0, 5.0], dtype=dtype).reshape(2, 1, 1, 1))
        rm, rv = np.array([4.0]), np.array([4.0])
        out = ad.batch_norm(x, Tensor(np.array([2.0], dtype=dtype)),
                            Tensor(np.array([1.0], dtype=dtype)), rm, rv,
                            training=False).data
        assert out.dtype == dtype
        assert rm.dtype == rv.dtype == np.float64
        expected = (np.array([3.0, 5.0]) - 4.0) / np.sqrt(4.0 + 1e-5) * 2 + 1
        assert np.allclose(out.reshape(-1), expected, rtol=1e-6)


class TestGradCheck:
    TOL = 1e-6

    def test_dense(self):
        err = grad_check(
            lambda x, w, b: ad.tsum(ad.dense(x, w, b) ** 2),
            [(3, 4), (4, 2), (2,)], seed=0,
        )
        assert err < self.TOL

    def test_conv2d(self):
        err = grad_check(
            lambda x, w, b: ad.tsum(ad.conv2d(x, w, b) ** 2),
            [(2, 2, 5, 5), (3, 2, 3, 3), (3,)], seed=1,
        )
        assert err < self.TOL

    def test_conv2d_even_kernel(self):
        err = grad_check(
            lambda x, w, b: ad.tsum(ad.conv2d(x, w, b) ** 2),
            [(1, 1, 5, 4), (2, 1, 4, 1), (2,)], seed=2,
        )
        assert err < self.TOL

    def test_pool_avg(self):
        err = grad_check(
            lambda x: ad.tsum(ad.pool2d(x, "avg") ** 2),
            [(2, 2, 4, 6)], seed=3,
        )
        assert err < self.TOL

    def test_pool_max(self):
        err = grad_check(
            lambda x: ad.tsum(ad.pool2d(x, "max") ** 2),
            [(2, 2, 4, 4)], seed=4,
        )
        assert err < self.TOL

    def test_global_pools(self):
        err = grad_check(
            lambda x: ad.tsum(ad.tmean(x, 1) ** 2)
            + ad.tsum(ad.tmax(x, 3) ** 2)
            + ad.tsum(ad.tmean(x, 2) ** 2),
            [(2, 3, 4, 5)], seed=5,
        )
        assert err < self.TOL

    def test_batch_norm(self):
        # Weight the output elementwise so the loss is not invariant to the
        # normalization (plain sum-of-squares of a standardized tensor has
        # near-zero input gradients, which defeats a relative metric).
        coef = Tensor(np.random.default_rng(60).standard_normal((3, 2, 4, 4)))

        def fn(x, g, b):
            bn = ad.batch_norm(x, g, b, np.zeros(2), np.ones(2),
                               training=True)
            return ad.tsum(coef * bn + (coef * bn) ** 2)

        assert grad_check(fn, [(3, 2, 4, 4), (2,), (2,)], seed=6) < 1e-5

    def test_batch_norm_eval(self):
        rng = np.random.default_rng(61)
        coef = Tensor(rng.standard_normal((3, 2, 4, 4)))
        stats = [rng.standard_normal(2), rng.random(2) + 0.5]

        def fn(x, g, b):
            bn = ad.batch_norm(x, g, b, *stats, training=False)
            return ad.tsum(coef * bn + (coef * bn) ** 2)

        assert grad_check(fn, [(3, 2, 4, 4), (2,), (2,)], seed=7) < self.TOL

    def test_instance_norm(self):
        err = grad_check(
            lambda x: ad.tsum(ad.instance_norm_freq(x) ** 2),
            [(1, 2, 2, 6)], seed=7,
        )
        assert err < 1e-5

    def test_attention(self):
        for heads in (1, 2):
            def fn(x, q, k, v, o):
                return ad.tsum(
                    ad.multi_head_attention(x, q, k, v, o, heads) ** 2
                )

            hk = heads * 2
            err = grad_check(
                fn, [(1, 3, 4), (4, hk), (4, hk), (4, hk), (hk, 4)], seed=8
            )
            assert err < 1e-5, heads

    @pytest.mark.parametrize("op", ["softmax", "log_softmax"])
    def test_softmax_nodes(self, op):
        """Criterion 3's tolerance. The second row's logits lie at ±1e4:
        the max shift keeps every output finite, and the entries at +1e4
        keep nonzero gradients."""
        fn = getattr(ad, op)
        shift = Tensor(np.array([[0.0] * 4, [1e4, 1e4, -1e4, 1e4]]))
        coef = Tensor(np.random.default_rng(62).standard_normal((2, 4)))
        assert np.all(np.isfinite(fn(shift, axis=-1).data))
        err = grad_check(lambda a: ad.tsum(coef * fn(a + shift, axis=-1)),
                         [(2, 4)], seed=10)
        assert err < 1e-4

    def test_softmax_kl_composite(self):
        y = np.array([[0.2, 0.5, 0.3], [0.7, 0.1, 0.2]])

        def fn(logits):
            p = ad.softmax(logits, axis=-1)
            return ad.tsum(Tensor(y) * (ad.log(Tensor(y)) - ad.log(p)))

        assert grad_check(fn, [(2, 3)], seed=9) < 1e-5
