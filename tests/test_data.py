import filecmp
import json
import os
import re
import wave

import numpy as np
import pytest

from lungsound import data as dt
from lungsound import dsp
from lungsound.data import (AnnotationRecord, DatasetManifest, ManifestEntry,
                            generate_synthetic_dataset, load_wav, save_wav,
                            segment_events, synth_event, synth_recording)
from lungsound.dsp import AudioClip
from lungsound.errors import DataError, FormatError, InvalidInputError
from lungsound.evaluation import EVENT_LABELS


class TestWavRoundtrip:
    def test_values_survive_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        clip = AudioClip(samples=rng.uniform(-0.9, 0.9, 800), sample_rate=8000)
        path = tmp_path / "clip.wav"
        save_wav(path, clip)
        loaded = load_wav(path)
        assert loaded.sample_rate == 8000
        assert np.max(np.abs(loaded.samples - clip.samples)) <= 1.0 / 32768

    def test_full_scale_negative_maps_to_minus_one(self, tmp_path):
        clip = AudioClip(samples=np.array([-1.0, 0.0]), sample_rate=4000)
        path = tmp_path / "edge.wav"
        save_wav(path, clip)
        loaded = load_wav(path)
        assert loaded.samples[0] == -1.0
        assert loaded.samples[1] == 0.0

    def test_positive_clipping_at_int16_ceiling(self, tmp_path):
        clip = AudioClip(samples=np.array([1.0]), sample_rate=4000)
        path = tmp_path / "clip.wav"
        save_wav(path, clip)
        assert load_wav(path).samples[0] == pytest.approx(32767 / 32768)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(2)
            wav.setsampwidth(2)
            wav.setframerate(8000)
            wav.writeframes(b"\x00" * 32)
        with pytest.raises(FormatError):
            load_wav(path)

    def test_eight_bit_rejected(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(1)
            wav.setframerate(8000)
            wav.writeframes(b"\x00" * 16)
        with pytest.raises(FormatError):
            load_wav(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a wav at all")
        with pytest.raises(FormatError):
            load_wav(path)


class TestAnnotations:
    def test_json_roundtrip(self):
        ann = AnnotationRecord("r1", "CAS", ((100, 900, "W"), (1200, 2000, "W")))
        back = AnnotationRecord.from_json("r1", ann.to_json())
        assert back == ann

    def test_json_field_names(self):
        ann = AnnotationRecord("r1", "N", ((0, 500, "N"),))
        d = json.loads(ann.to_json())
        assert d["record_annotation"] == "N"
        assert d["event_annotation"] == [
            {"start_ms": 0, "end_ms": 500, "type": "N"}
        ]

    def test_bad_record_label_rejected(self):
        with pytest.raises(DataError):
            AnnotationRecord("r1", "XYZ", ())

    def test_bad_event_range_rejected(self):
        with pytest.raises(DataError):
            AnnotationRecord("r1", "N", ((500, 100, "N"),))

    def test_malformed_json_rejected(self):
        with pytest.raises(DataError):
            AnnotationRecord.from_json("r1", '{"event_annotation": 3}')


class TestSegmentEvents:
    def test_slices_are_identical_to_source(self):
        rng = np.random.default_rng(0)
        clip = AudioClip(samples=rng.standard_normal(8000), sample_rate=4000)
        ann = AnnotationRecord("r", "CAS", ((250, 1000, "W"), (1500, 1900, "W")))
        segments = segment_events(clip, ann)
        assert len(segments) == 2
        seg, label = segments[0]
        assert label == "W"
        assert np.array_equal(seg.samples, clip.samples[1000:4000])
        assert segments[1][0].samples.size == int(0.4 * 4000)

    def test_event_beyond_end_rejected(self):
        clip = AudioClip(samples=np.zeros(4000), sample_rate=4000)
        ann = AnnotationRecord("r", "N", ((500, 1500, "N"),))
        with pytest.raises(DataError):
            segment_events(clip, ann)


class TestManifest:
    def test_roundtrip_through_file(self, tmp_path):
        manifest = DatasetManifest(
            root=str(tmp_path),
            entries=(
                ManifestEntry("a.wav", "a.json", "train"),
                ManifestEntry("b.wav", "b.json", "validation"),
            ),
        )
        path = tmp_path / "manifest.json"
        manifest.save(path)
        assert DatasetManifest.load(path) == manifest

    @pytest.mark.parametrize("split", ["Train", "test", ""])
    def test_unknown_split_rejected(self, tmp_path, split):
        manifest = DatasetManifest(
            root=str(tmp_path),
            entries=(ManifestEntry("a.wav", "a.json", "train"),
                     ManifestEntry("b.wav", "b.json", split)),
        )
        path = tmp_path / "manifest.json"
        manifest.save(path)
        with pytest.raises(DataError, match=re.escape(
                f"{path}: entry 1 (b.wav) has split {split!r}")):
            DatasetManifest.load(path)


    def test_repeated_recording_id_rejected(self, tmp_path):
        """Two audio files of one base name would share one recording id,
        so one cache file: the manifest names both entries."""
        manifest = DatasetManifest(
            root=str(tmp_path),
            entries=(ManifestEntry("a/rec.wav", "a/rec.json", "train"),
                     ManifestEntry("b.wav", "b.json", "train"),
                     ManifestEntry("b/rec.wav", "b/rec.json", "validation")),
        )
        path = tmp_path / "manifest.json"
        manifest.save(path)
        with pytest.raises(DataError, match=re.escape(
                f"{path}: entries 0 (a/rec.wav) and 2 (b/rec.wav) share the "
                "recording id 'rec'")):
            DatasetManifest.load(path)

    def test_annotation_takes_the_entry_recording_id(self, tmp_path):
        ann = AnnotationRecord("x", "CAS", ((100, 900, "W"),))
        (tmp_path / "a.json").write_text(ann.to_json())
        entry = ManifestEntry("sub/rec.wav", "a.json", "train")
        manifest = DatasetManifest(root=str(tmp_path), entries=(entry,))
        assert entry.recording_id == "rec"
        assert manifest.load_annotation(entry).recording_id == "rec"


class TestSynthesis:
    def test_every_event_class_synthesizes(self):
        rng = np.random.default_rng(0)
        for label in EVENT_LABELS:
            sig = synth_event(rng, label, 1.0)
            assert sig.size == dt.SYNTH_RATE
            assert np.max(np.abs(sig)) <= 1.0

    def test_unknown_class_rejected(self):
        with pytest.raises(DataError):
            synth_event(np.random.default_rng(0), "zz", 1.0)

    def test_recording_events_lie_inside_clip(self):
        clip, events = synth_recording(np.random.default_rng(3), "W")
        assert len(events) == 2
        for onset, offset, label in events:
            assert label == "W"
            assert 0 <= onset < offset
            assert offset * clip.sample_rate / 1000.0 <= clip.samples.size

    def test_spectral_signatures_are_distinct(self):
        """Tonal classes concentrate power near their design frequencies."""
        rng = np.random.default_rng(7)
        rate = dt.SYNTH_RATE
        for label, lo, hi in [("Rho", 100, 200), ("W", 650, 900),
                              ("Str", 1300, 1700)]:
            sig = synth_event(rng, label, 2.0)
            spectrum = np.abs(np.fft.rfft(sig))
            peak = np.fft.rfftfreq(sig.size, 1.0 / rate)[spectrum.argmax()]
            assert lo <= peak <= hi, label


class TestGenerateDataset:
    def test_file_count_without_poor_quality(self, tmp_path):
        manifest = generate_synthetic_dataset(
            str(tmp_path / "d"), seed=0, n_per_class=5,
            include_poor_quality=False,
        )
        # 7 classes x 5 recordings, each a wav + json, plus the manifest
        assert len(manifest.entries) == 35
        files = os.listdir(tmp_path / "d")
        assert len([f for f in files if f.endswith(".wav")]) == 35
        assert len([f for f in files if f.endswith(".json")]) == 36

    def test_poor_quality_recordings_have_no_events(self, synth_dataset):
        pq = [e for e in synth_dataset.entries if e.audio.startswith("PQ_")]
        assert len(pq) == 3
        for entry in pq:
            ann = synth_dataset.load_annotation(entry)
            assert ann.record_label == "PQ"
            assert ann.events == ()

    def test_split_assignment(self, synth_dataset):
        # validation_every=2 -> recordings 1 of each class held out
        for entry in synth_dataset.entries:
            k = int(entry.audio.split("_")[-1].split(".")[0])
            expected = "validation" if (k + 1) % 2 == 0 else "train"
            assert entry.split == expected

    def test_record_labels_follow_event_class(self, synth_dataset):
        for entry in synth_dataset.entries:
            cls = entry.audio.split("_")[0]
            ann = synth_dataset.load_annotation(entry)
            if cls == "PQ":
                assert ann.record_label == "PQ"
            else:
                assert ann.record_label == dt.EVENT_TO_RECORD[cls]
                assert all(e[2] == cls for e in ann.events)

    def test_generation_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic_dataset(str(a), seed=9, n_per_class=2)
        generate_synthetic_dataset(str(b), seed=9, n_per_class=2)
        for name in sorted(os.listdir(a)):
            if name == "manifest.json":
                continue  # embeds the root path
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_rejects_empty_request(self, tmp_path):
        with pytest.raises(InvalidInputError):
            generate_synthetic_dataset(str(tmp_path / "x"), 0, 0)


class TestSeparability:
    def test_nearest_centroid_separates_event_classes(self, synth_dataset):
        """Spectrograms of the synthetic classes must be distinct enough for
        a trivial nearest-centroid classifier to tell apart."""
        wavelet = dsp.WaveletSpec(family="morse")
        feats, labels = [], []
        for entry in synth_dataset.entries:
            if entry.audio.startswith("PQ_"):
                continue
            clip = synth_dataset.load_audio(entry)
            ann = synth_dataset.load_annotation(entry)
            for seg, label in segment_events(clip, ann):
                spec = dsp.extract_spectrogram(
                    seg, wavelet, f_bins=32, t_frames=32,
                    target_seconds=dsp.EVENT_SECONDS,
                )
                feats.append(spec.values.ravel())
                labels.append(label)
        feats = np.stack(feats)
        labels = np.asarray(labels)
        correct = 0
        for i in range(len(labels)):  # leave-one-out nearest centroid
            rest = np.arange(len(labels)) != i
            centroids = {
                lab: feats[rest & (labels == lab)].mean(axis=0)
                for lab in set(labels)
            }
            guess = min(centroids,
                        key=lambda lab: np.sum((feats[i] - centroids[lab]) ** 2))
            correct += guess == labels[i]
        assert correct / len(labels) >= 0.9
