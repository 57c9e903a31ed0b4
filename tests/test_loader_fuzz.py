"""Mutated artifacts: every loader of an on-disk file rejects truncations
and overwritten bytes with a FormatError or DataError, never another
exception. Each seed file is a small valid artifact of its kind."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lungsound import data, dsp, training
from lungsound.errors import DataError, FormatError
from lungsound.model import ModelConfig, RespiratoryClassifier


def mutations(blob):
    """`blob` cut short, or with one to four bytes overwritten."""
    n = len(blob)

    def overwrite(edits):
        out = bytearray(blob)
        for pos, value in edits:
            out[pos] = value
        return bytes(out)

    return st.one_of(
        st.integers(0, n - 1).map(lambda k: blob[:k]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)),
                 min_size=1, max_size=4).map(overwrite),
    )


def seed_wav(path):
    samples = np.random.default_rng(0).uniform(-0.5, 0.5, 64)
    data.save_wav(path, dsp.AudioClip(samples=samples, sample_rate=8000))


def seed_annotation(path):
    ann = data.AnnotationRecord("a", "CAS", ((100, 900, "W"),
                                             (1200, 2000, "Rho")))
    path.write_text(ann.to_json())


def seed_manifest(path):
    data.DatasetManifest(root=".", entries=(
        data.ManifestEntry("a.wav", "a.json", "train"),
        data.ManifestEntry("b.wav", "b.json", "validation"),
    )).save(path)


def seed_spectrogram(path):
    values = np.random.default_rng(0).normal(-60, 6, (4, 6))
    dsp.save_spectrogram(path, dsp.Spectrogram(values=values))


def seed_checkpoint(path):
    model = RespiratoryClassifier(ModelConfig(
        input_dims=(12, 20), n_classes=3, doub_inc_channels=2,
        inc_res_channels=(3, 4), attn_heads=1, attn_key_dim=2, fc_hidden=6,
        dropout=0.0), seed=0)
    training.save_checkpoint(path, model, training.Adam(model.parameters()))


def load_annotation(path):
    manifest = data.DatasetManifest(root=str(path.parent), entries=())
    return manifest.load_annotation(
        data.ManifestEntry("a.wav", path.name, "train"))


@pytest.mark.parametrize("seed_file, load", [
    (seed_wav, data.load_wav),
    (seed_annotation, load_annotation),
    (seed_manifest, data.DatasetManifest.load),
    (seed_spectrogram, dsp.load_spectrogram),
    (seed_checkpoint, training.load_checkpoint),
], ids=["wav", "annotation", "manifest", "lssg", "lsck"])
def test_mutated_file_fails_cleanly(tmp_path_factory, seed_file, load):
    path = tmp_path_factory.mktemp("fuzz") / "artifact"
    seed_file(path)
    load(path)  # the unmutated seed loads
    blob = path.read_bytes()

    @settings(max_examples=200)
    @given(mutations(blob))
    def check(mutated):
        path.write_bytes(mutated)
        try:
            load(path)
        except (FormatError, DataError):
            pass

    check()
