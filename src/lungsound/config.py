"""Flat key-value run configuration.

Config files are plain text, one `key = value` per line, `#` comments; the
README lists every key. The section dataclasses are the schema:
`<section>.<field>` sets that field of `WaveletSpec`, `AugmentConfig`,
`TrainConfig` or `ModelConfig`, and an absent key keeps the field's default.
A value is read as the type of that default (bool, int, float, str, or
comma-separated ints for a tuple). Any other key is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .augment import AugmentConfig
from .dsp import WaveletSpec
from .errors import InvalidConfigError
from .model import ModelConfig
from .training import TrainConfig

PAPER_SIZES = {
    (128, 128), (128, 256), (128, 512),
    (140, 256), (140, 512), (140, 1024),
}

# keys naming a RunConfig field directly
TOP_LEVEL_KEYS = {
    "seed": "seed",
    "spectrogram.size": "size",
    "spectrogram.allow_custom_size": "allow_custom_size",
}
SECTIONS = ("wavelet", "augment", "train", "model")
# section fields worked out from other keys, so not keys themselves:
# train.seed is `seed`; the model's input dims and class count follow from
# spectrogram.size, augment.crop_bins and the task (cli.cmd_train)
DERIVED_FIELDS = ("train.seed", "model.input_dims", "model.n_classes")


def parse_kv(text):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"config line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise InvalidConfigError(f"config line {lineno}: empty key")
        out[key] = value
    return out


def parse_size(text):
    try:
        f, t = text.lower().split("x")
        return int(f), int(t)
    except ValueError:
        raise InvalidConfigError(f"bad spectrogram size {text!r}, want FxT")


def _cast(key, raw, default):
    """`raw` read as the type of `default`."""
    if key == "spectrogram.size":
        return parse_size(raw)
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if isinstance(default, tuple):
            return tuple(int(x) for x in raw.split(",") if x.strip())
        return type(default)(raw)
    except ValueError:
        raise InvalidConfigError(f"config key {key}: bad value {raw!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one run reads from its config file. `model.input_dims`
    and `model.n_classes` keep their defaults here; training sets them."""

    seed: int = 0
    wavelet: WaveletSpec = field(default_factory=WaveletSpec)
    size: tuple = (128, 512)
    allow_custom_size: bool = False
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.size not in PAPER_SIZES and not self.allow_custom_size:
            raise InvalidConfigError(
                f"spectrogram size {self.size[0]}x{self.size[1]} is "
                "nonstandard; set spectrogram.allow_custom_size = true to "
                "use it"
            )


def config_keys():
    """Every accepted key, mapped to its default."""
    cfg = RunConfig()
    keys = {key: getattr(cfg, name) for key, name in TOP_LEVEL_KEYS.items()}
    for section in SECTIONS:
        for f in fields(getattr(cfg, section)):
            key = f"{section}.{f.name}"
            if key not in DERIVED_FIELDS:
                keys[key] = f.default
    return keys


def load_run_config(path=None, text=None):
    """The run config of the file at `path`, or of `text`."""
    if text is None:
        with open(path) as fh:
            text = fh.read()
    kv = parse_kv(text)

    defaults = config_keys()
    top, sections = {}, {section: {} for section in SECTIONS}
    for key, raw in kv.items():
        if key not in defaults:
            raise InvalidConfigError(f"unknown config key {key!r}")
        value = _cast(key, raw, defaults[key])
        if key in TOP_LEVEL_KEYS:
            top[TOP_LEVEL_KEYS[key]] = value
        else:
            section, name = key.split(".", 1)
            sections[section][name] = value
    cfg = RunConfig()
    sections["train"]["seed"] = top.get("seed", cfg.seed)
    return replace(cfg, **top, **{
        section: replace(getattr(cfg, section), **values)
        for section, values in sections.items()
    })
