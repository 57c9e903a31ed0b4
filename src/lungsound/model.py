"""Inception-residual classifier with spatio-temporal focusing and
multi-head attention pooling.

Data flow: Doub-Inc block -> Inc-Res block (128ch) -> Inc-Res block (256ch)
-> three global pooling maps -> per-map multi-head self-attention -> FC(512)
-> FC(n_classes) logits; `training.predict` turns them into probabilities
and `training.kl_loss` takes their log-softmax. Every Avg/Max pool is 2x2
stride 2, so the spatial dims halve at each of the three blocks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, residual_norm
from .errors import (InvalidConfigError, InvalidInputError,
                     require_counts, require_rates)


# kernel sizes of each Inc-Res block's branches: IncFT KxK, IncT 1xK
INCFT_KERNELS = ((3,), (3,))
INCT_KERNELS = ((5, 7), (7, 9))


@dataclass(frozen=True)
class ModelConfig:
    input_dims: tuple = (118, 502)  # post-crop (F, T)
    n_classes: int = 7
    doub_inc_channels: int = 128
    inc_res_channels: tuple = (128, 256)
    rn_lambda: float = 0.4
    attn_heads: int = 16
    attn_key_dim: int = 32
    fc_hidden: int = 512
    dropout: float = 0.2

    def __post_init__(self):
        if len(self.inc_res_channels) != 2:
            raise InvalidConfigError(
                "model.inc_res_channels: exactly two Inc-Res blocks are built")
        require_counts("model", least=2, n_classes=self.n_classes)
        require_counts(
            "model", doub_inc_channels=self.doub_inc_channels,
            attn_heads=self.attn_heads, attn_key_dim=self.attn_key_dim,
            fc_hidden=self.fc_hidden,
            **{f"inc_res_channels[{i}]": c
               for i, c in enumerate(self.inc_res_channels)})
        require_rates("model", rn_lambda=self.rn_lambda)
        if not 0 <= self.dropout < 1:
            raise InvalidConfigError(
                f"model.dropout must be in [0, 1), got {self.dropout!r}")
        _, f, t = self.block_dims()[-1]
        if f < 1 or t < 1:
            raise InvalidConfigError(
                f"model input dims {self.input_dims[0]}x{self.input_dims[1]}"
                " collapse before pooling")

    def block_dims(self):
        """(channels, F, T) entering each stage, ending at the pooling block."""
        f, t = self.input_dims
        dims = [(1, f, t)]
        for c in (self.doub_inc_channels, *self.inc_res_channels):
            f, t = f // 2, t // 2
            dims.append((c, f, t))
        return dims

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Inverse of `to_dict`, also after a JSON round trip;
        InvalidConfigError on a missing, unknown or wrongly typed field."""
        if set(d) != {f.name for f in fields(cls)}:
            raise InvalidConfigError(f"model config has fields {sorted(d)}")
        return cls(**{f.name: typed_like(d[f.name], f.default)
                      for f in fields(cls)})


def typed_like(value, default):
    """`value`, as decoded from JSON, cast to the type of `default`: a
    float field takes any number, a tuple field a list of ints, any other
    field only its own type. InvalidConfigError otherwise."""
    if isinstance(default, tuple):
        ok = isinstance(value, (list, tuple)) and all(
            type(v) is int for v in value)
    elif isinstance(default, float):
        ok = type(value) in (int, float)
    else:
        ok = type(value) is type(default)
    if not ok:
        raise InvalidConfigError(
            f"expected {type(default).__name__}, got {value!r}")
    return type(default)(value)


def glorot_uniform(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Module:
    """Parameter container; children and Tensors found via __dict__ order."""

    def _attributes(self, prefix=""):
        """(dotted path, value) of every attribute of this module and of the
        modules beneath it, depth first in __dict__ order; a list holds
        modules, named by their index."""
        for name, value in self.__dict__.items():
            path = f"{prefix}{name}"
            if isinstance(value, Module):
                yield from value._attributes(path + ".")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    yield from item._attributes(f"{path}.{i}.")
            else:
                yield path, value

    def named_parameters(self):
        return ((path, value) for path, value in self._attributes()
                if isinstance(value, Tensor) and value.requires_grad)

    def named_buffers(self):
        return ((path, value) for path, value in self._attributes()
                if isinstance(value, np.ndarray))


class Conv2d(Module):
    """A convolution; `bias=False` for one that feeds a BatchNorm, whose
    mean subtraction would give a bias an exact gradient of 0."""

    def __init__(self, c_in, c_out, kh, kw, rng, dtype, bias=True):
        fan_in = c_in * kh * kw
        fan_out = c_out * kh * kw
        self.weight = Tensor(
            glorot_uniform(rng, (c_out, c_in, kh, kw), fan_in, fan_out, dtype),
            requires_grad=True,
        )
        self.bias = (Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)
                     if bias else None)

    def __call__(self, x):
        return ad.conv2d(x, self.weight, self.bias)


class Dense(Module):
    def __init__(self, d_in, d_out, rng, dtype):
        self.weight = Tensor(
            glorot_uniform(rng, (d_in, d_out), d_in, d_out, dtype),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True)

    def __call__(self, x):
        return ad.dense(x, self.weight, self.bias)


class BatchNorm2d(Module):
    def __init__(self, channels, dtype):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)

    def __call__(self, x, training):
        return ad.batch_norm(x, self.gamma, self.beta, self.running_mean,
                             self.running_var, training=training)


class MultiHeadAttention(Module):
    """Self-attention over N×S×D with D×(H·K) query/key/value projections,
    one K-wide column block per head, and an (H·K)×D output projection."""

    def __init__(self, d_model, heads, key_dim, rng, dtype):
        def proj():  # one D×K Glorot draw per head: a head's fan-out is K
            return Tensor(
                np.concatenate([
                    glorot_uniform(rng, (d_model, key_dim), d_model, key_dim,
                                   dtype)
                    for _ in range(heads)
                ], axis=1),
                requires_grad=True,
            )

        self.wq = proj()
        self.wk = proj()
        self.wv = proj()
        self.wo = Tensor(
            glorot_uniform(
                rng, (heads * key_dim, d_model), heads * key_dim, d_model, dtype
            ),
            requires_grad=True,
        )
        self.heads = heads

    def __call__(self, x):
        return ad.multi_head_attention(x, self.wq, self.wk, self.wv, self.wo,
                                       self.heads)


class IncBranches(Module):
    """Parallel same-padding convolutions with equal widths, summed; run as
    one convolution over the union of their taps."""

    def __init__(self, c_in, c_out, kernels, rng, dtype, bias=True):
        self.branches = [
            Conv2d(c_in, c_out, kh, kw, rng, dtype, bias=bias)
            for kh, kw in kernels
        ]

    def __call__(self, x):
        return ad.conv2d_sum(
            x, [b.weight for b in self.branches],
            [b.bias for b in self.branches if b.bias is not None])


def inc01(c_in, c_out, rng, dtype):
    """Inception block mixing [3x3], [1x1] and [4x1] kernels, without
    biases: a BatchNorm follows it."""
    if c_out <= 0:
        raise InvalidConfigError("channels must be positive")
    return IncBranches(c_in, c_out, [(3, 3), (1, 1), (4, 1)], rng, dtype,
                       bias=False)


class DoubIncBlock(Module):
    def __init__(self, channels, rn_lambda, drop, rng, dtype):
        self.inc_a = inc01(1, channels, rng, dtype)
        self.bn_a = BatchNorm2d(channels, dtype)
        self.inc_b = inc01(channels, channels, rng, dtype)
        self.bn_b = BatchNorm2d(channels, dtype)
        self.rn_lambda = rn_lambda
        self.drop = drop

    def __call__(self, x, training, rng):
        # one layer per statement, so that under no_grad each layer's input
        # is freed as soon as that layer returns
        for inc, bn in ((self.inc_a, self.bn_a), (self.inc_b, self.bn_b)):
            x = inc(x)
            x = bn(x, training)
            x = ad.relu(x)
        x = ad.pool2d(x, "avg")
        x = ad.dropout(x, self.drop, training, rng)
        return residual_norm(x, self.rn_lambda)


class IncResBlock(Module):
    """Two focusing branches plus a projected residual shortcut.

    Branches: [IncFT(KxK) -> ReLU -> AP(2x2) -> RN] and [IncT(1xK) -> ReLU
    -> AP(2x2) -> RN], summed; shortcut: 1x1 Conv -> BN -> MP(2x2).
    """

    def __init__(self, c_in, c_out, ft_kernels, t_kernels, rn_lambda, drop,
                 rng, dtype):
        self.inc_ft = IncBranches(c_in, c_out, [(k, k) for k in ft_kernels],
                                  rng, dtype)
        self.inc_t = IncBranches(c_in, c_out, [(1, k) for k in t_kernels],
                                 rng, dtype)
        self.shortcut = Conv2d(c_in, c_out, 1, 1, rng, dtype, bias=False)
        self.shortcut_bn = BatchNorm2d(c_out, dtype)
        self.rn_lambda = rn_lambda
        self.drop = drop

    def __call__(self, x, training, rng):
        b1 = residual_norm(
            ad.pool2d(ad.relu(self.inc_ft(x)), "avg"), self.rn_lambda
        )
        b2 = residual_norm(
            ad.pool2d(ad.relu(self.inc_t(x)), "avg"), self.rn_lambda
        )
        res = ad.pool2d(self.shortcut_bn(self.shortcut(x), training), "max")
        return ad.dropout(b1 + b2 + res, self.drop, training, rng)


def pooling_maps(x):
    """Three global views of an N×C×F×T tensor:
    mean over channels (N×F×T), max over time (N×F×C), mean over frequency
    (N×T×C)."""
    m1 = ad.tmean(x, 1)
    m2 = ad.transpose(ad.tmax(x, 3), (0, 2, 1))
    m3 = ad.transpose(ad.tmean(x, 2), (0, 2, 1))
    return m1, m2, m3


class AttentionHead(Module):
    """Attend each pooled map over its leading axis, mean-pool, concatenate,
    and classify into logits."""

    def __init__(self, t_feat, c_feat, config, rng, dtype):
        heads, key_dim = config.attn_heads, config.attn_key_dim
        self.attn_ft = MultiHeadAttention(t_feat, heads, key_dim, rng, dtype)
        self.attn_fc = MultiHeadAttention(c_feat, heads, key_dim, rng, dtype)
        self.attn_tc = MultiHeadAttention(c_feat, heads, key_dim, rng, dtype)
        self.fc1 = Dense(t_feat + 2 * c_feat, config.fc_hidden, rng, dtype)
        self.fc2 = Dense(config.fc_hidden, config.n_classes, rng, dtype)
        self.drop = config.dropout

    def __call__(self, maps, training, rng):
        m1, m2, m3 = maps
        embeds = [
            ad.tmean(self.attn_ft(m1), axis=1),
            ad.tmean(self.attn_fc(m2), axis=1),
            ad.tmean(self.attn_tc(m3), axis=1),
        ]
        h = ad.relu(self.fc1(ad.concat(embeds, axis=-1)))
        h = ad.dropout(h, self.drop, training, rng)
        return self.fc2(h)


class RespiratoryClassifier(Module):
    def __init__(self, config, seed=0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.config = config
        self.dtype = dtype
        c = config.doub_inc_channels
        c1, c2 = config.inc_res_channels
        self.doub_inc = DoubIncBlock(c, config.rn_lambda, config.dropout,
                                     rng, dtype)
        self.inc_res1 = IncResBlock(
            c, c1, INCFT_KERNELS[0], INCT_KERNELS[0],
            config.rn_lambda, config.dropout, rng, dtype,
        )
        self.inc_res2 = IncResBlock(
            c1, c2, INCFT_KERNELS[1], INCT_KERNELS[1],
            config.rn_lambda, config.dropout, rng, dtype,
        )
        _, _, t_out = config.block_dims()[-1]
        self.head = AttentionHead(t_out, c2, config, rng, dtype)

    def forward(self, batch, training=False, rng=None):
        """batch: N×1×F×T array or Tensor -> N×n_classes logits."""
        if isinstance(batch, Tensor):
            x = batch
        else:
            x = Tensor(np.asarray(batch, dtype=self.dtype))
        expected = self.config.input_dims
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2:] != tuple(expected):
            raise InvalidInputError(
                f"model expects Nx1x{expected[0]}x{expected[1]}, got {x.shape}"
            )
        x = self.doub_inc(x, training, rng)
        x = self.inc_res1(x, training, rng)
        x = self.inc_res2(x, training, rng)
        return self.head(pooling_maps(x), training, rng)

    __call__ = forward

    def parameters(self):
        return dict(self.named_parameters())

    def n_parameters(self):
        return sum(int(np.prod(p.shape)) for p in self.parameters().values())

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()
