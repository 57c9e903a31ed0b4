import operator
import os
import re

import pytest

from lungsound.config import (PAPER_SIZES, RunConfig, config_keys,
                              load_run_config, parse_kv, parse_size)
from lungsound.errors import InvalidConfigError

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# every accepted key: (text of a non-default value, RunConfig attribute
# path, the value it must load as)
NON_DEFAULT = {
    "seed": ("7", "seed", 7),
    "wavelet.family": ("morse", "wavelet.family", "morse"),
    "spectrogram.size": ("140x256", "size", (140, 256)),
    "spectrogram.allow_custom_size": ("yes", "allow_custom_size", True),
    "augment.crop_bins": ("4", "augment.crop_bins", 4),
    "augment.mixup": ("false", "augment.mixup", False),
    "augment.oversample": ("0", "augment.oversample", False),
    "train.epochs": ("3", "train.epochs", 3),
    "train.batch_size": ("8", "train.batch_size", 8),
    "train.learning_rate": ("1e-3", "train.learning_rate", 1e-3),
    "train.l2_lambda": ("1e-5", "train.l2_lambda", 1e-5),
    "train.eval_every": ("2", "train.eval_every", 2),
    "train.early_stop_evals": ("5", "train.early_stop_evals", 5),
    "model.doub_inc_channels": ("8", "model.doub_inc_channels", 8),
    "model.inc_res_channels": ("8,16", "model.inc_res_channels", (8, 16)),
    "model.rn_lambda": ("0.5", "model.rn_lambda", 0.5),
    "model.attn_heads": ("2", "model.attn_heads", 2),
    "model.attn_key_dim": ("8", "model.attn_key_dim", 8),
    "model.fc_hidden": ("64", "model.fc_hidden", 64),
    "model.dropout": ("0.1", "model.dropout", 0.1),
}


class TestParseKv:
    def test_basic_pairs_and_comments(self):
        text = "a = 1\n# comment\nb.c = two  # trailing\n\n"
        assert parse_kv(text) == {"a": "1", "b.c": "two"}

    def test_missing_equals_rejected(self):
        with pytest.raises(InvalidConfigError):
            parse_kv("just words\n")

    def test_empty_key_rejected(self):
        with pytest.raises(InvalidConfigError):
            parse_kv("= 3\n")


class TestParseSize:
    def test_accepts_fxt(self):
        assert parse_size("128x512") == (128, 512)
        assert parse_size("140X256") == (140, 256)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidConfigError):
            parse_size("128-512")


class TestLoadRunConfig:
    def test_defaults(self):
        cfg = load_run_config(text="")
        assert cfg.size == (128, 512)
        assert cfg.wavelet.family == "bump"
        assert cfg.train.batch_size == 16
        assert cfg.augment.mixup is True

    def test_values_flow_through(self):
        cfg = load_run_config(
            text="seed = 7\nwavelet.family = morse\n"
                 "spectrogram.size = 140x256\ntrain.epochs = 3\n"
                 "model.inc_res_channels = 8,16\naugment.mixup = false\n"
        )
        assert cfg.seed == 7
        assert cfg.train.seed == 7
        assert cfg.wavelet.family == "morse"
        assert cfg.size == (140, 256)
        assert cfg.train.epochs == 3
        assert cfg.model.inc_res_channels == (8, 16)
        assert cfg.augment.mixup is False

    def test_every_standard_size_loads(self):
        for f, t in sorted(PAPER_SIZES):
            cfg = load_run_config(text=f"spectrogram.size = {f}x{t}\n")
            assert cfg.size == (f, t)

    def test_nonstandard_size_needs_flag(self):
        with pytest.raises(InvalidConfigError):
            load_run_config(text="spectrogram.size = 64x64\n")
        cfg = load_run_config(
            text="spectrogram.size = 64x64\n"
                 "spectrogram.allow_custom_size = true\n"
        )
        assert cfg.size == (64, 64)

    def test_bad_value_rejected(self):
        with pytest.raises(InvalidConfigError):
            load_run_config(text="train.epochs = soon\n")


class TestSchema:
    def test_accepted_keys_are_exactly_these(self):
        assert len(NON_DEFAULT) == 20
        assert set(config_keys()) == set(NON_DEFAULT)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_each_key_sets_its_field(self, key):
        raw, path, expected = NON_DEFAULT[key]
        assert config_keys()[key] != expected
        cfg = load_run_config(text=f"{key} = {raw}\n")
        assert operator.attrgetter(path)(cfg) == expected

    def test_misspelt_key_rejected_by_name(self):
        with pytest.raises(InvalidConfigError, match="train.epoch'"):
            load_run_config(text="train.epoch = 5\n")

    @pytest.mark.parametrize("key", ["model.n_classes", "model.input_dims",
                                     "train.seed"])
    def test_derived_fields_are_not_keys(self, key):
        with pytest.raises(InvalidConfigError, match=key):
            load_run_config(text=f"{key} = 3\n")

    def test_defaults_are_the_dataclass_defaults(self):
        assert load_run_config(text="") == RunConfig()

    def test_family_is_case_insensitive(self):
        cfg = load_run_config(text="wavelet.family = Bump\n")
        assert cfg.wavelet.family == "bump"

    def test_readme_example_lists_every_key_with_its_default(self):
        with open(README) as fh:
            block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
        assert set(parse_kv(block)) == set(config_keys())
        assert load_run_config(text=block) == RunConfig()


# one out-of-range value per config line: (text, the key the error names)
OUT_OF_RANGE = {
    "heads_and_key_dim_negative": (
        "model.attn_heads = -2\nmodel.attn_key_dim = -4", "model.attn_heads"),
    "key_dim_zero": ("model.attn_key_dim = 0", "model.attn_key_dim"),
    "inc_res_channel_zero": ("model.inc_res_channels = 0,4",
                             "model.inc_res_channels"),
    "one_inc_res_block": ("model.inc_res_channels = 4",
                          "model.inc_res_channels"),
    "doub_inc_channels_zero": ("model.doub_inc_channels = 0",
                               "model.doub_inc_channels"),
    "fc_hidden_zero": ("model.fc_hidden = 0", "model.fc_hidden"),
    "rn_lambda_nan": ("model.rn_lambda = nan", "model.rn_lambda"),
    "rn_lambda_negative": ("model.rn_lambda = -0.1", "model.rn_lambda"),
    "dropout_one": ("model.dropout = 1", "model.dropout"),
    "dropout_nan": ("model.dropout = nan", "model.dropout"),
    "learning_rate_nan": ("train.learning_rate = nan", "train.learning_rate"),
    "learning_rate_negative": ("train.learning_rate = -1",
                               "train.learning_rate"),
    "l2_lambda_inf": ("train.l2_lambda = inf", "train.l2_lambda"),
    "early_stop_evals_negative": ("train.early_stop_evals = -3",
                                  "train.early_stop_evals"),
    "batch_size_zero": ("train.batch_size = 0", "train.batch_size"),
    "eval_every_zero": ("train.eval_every = 0", "train.eval_every"),
    "epochs_negative": ("train.epochs = -1", "train.epochs"),
    "crop_bins_negative": ("augment.crop_bins = -1", "augment.crop_bins"),
    "seed_negative": ("seed = -1", "seed"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_value_rejected_by_name(case):
    text, key = OUT_OF_RANGE[case]
    with pytest.raises(InvalidConfigError, match=rf"^{re.escape(key)}\b"):
        load_run_config(text=text + "\n")
