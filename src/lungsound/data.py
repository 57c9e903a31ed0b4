"""Dataset ingestion: WAV decoding, annotations, manifests and a synthetic
stand-in corpus.

The real paediatric stethoscope corpus is restricted, so `generate_synthetic_dataset`
emits parametric recordings whose event classes occupy distinct carrier
bands / modulation patterns and are separable by construction.
"""

from __future__ import annotations

import json
import os
import wave
from dataclasses import dataclass

import numpy as np

from .dsp import AudioClip
from .errors import DataError, FormatError, InvalidInputError
from .evaluation import EVENT_LABELS, RECORD_LABELS

SYNTH_RATE = 8000
# the splits a manifest entry may name
SPLITS = ("train", "validation")

# event class -> recording-level class for synthesized recordings
EVENT_TO_RECORD = {
    "N": "N",
    "Rho": "CAS",
    "W": "CAS",
    "Str": "CAS",
    "CC": "DAS",
    "FC": "DAS",
    "B": "CD",
}


@dataclass(frozen=True)
class AnnotationRecord:
    recording_id: str
    record_label: str
    events: tuple  # of (onset_ms, offset_ms, event_label)

    def __post_init__(self):
        if self.record_label not in RECORD_LABELS:
            raise DataError(f"unknown record label {self.record_label!r}")
        for onset, offset, label in self.events:
            if not 0 <= onset < offset:
                raise DataError(
                    f"{self.recording_id}: bad event range {onset}..{offset}"
                )
            if label not in EVENT_LABELS:
                raise DataError(f"unknown event label {label!r}")

    def to_json(self):
        return json.dumps(
            {
                "record_annotation": self.record_label,
                "event_annotation": [
                    {"start_ms": o, "end_ms": f, "type": t}
                    for o, f, t in self.events
                ],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, recording_id, text):
        try:
            d = json.loads(text)
            events = tuple(
                (int(e["start_ms"]), int(e["end_ms"]), str(e["type"]))
                for e in d["event_annotation"]
            )
            return cls(recording_id, str(d["record_annotation"]), events)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: an infinite time, such as 1e400, read as int
            raise DataError(f"{recording_id}: malformed annotation") from exc


@dataclass(frozen=True)
class ManifestEntry:
    audio: str
    annotation: str
    split: str

    @property
    def recording_id(self):
        """The audio file's base name less its extension, which names the
        recording's samples and their cache files."""
        return os.path.splitext(os.path.basename(self.audio))[0]


@dataclass(frozen=True)
class DatasetManifest:
    root: str
    entries: tuple

    def to_json(self):
        return json.dumps(
            {
                "root": self.root,
                "entries": [
                    {"audio": e.audio, "annotation": e.annotation,
                     "split": e.split}
                    for e in self.entries
                ],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                d = json.load(fh)
            entries = tuple(
                ManifestEntry(str(e["audio"]), str(e["annotation"]),
                              str(e["split"]))
                for e in d["entries"]
            )
            root = str(d["root"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed manifest: {exc!r}") from exc
        first = {}
        for k, e in enumerate(entries):
            if e.split not in SPLITS:
                raise DataError(
                    f"{path}: entry {k} ({e.audio}) has split {e.split!r}; "
                    f"expected one of {', '.join(SPLITS)}")
            j = first.setdefault(e.recording_id, k)
            if j != k:
                raise DataError(
                    f"{path}: entries {j} ({entries[j].audio}) and {k} "
                    f"({e.audio}) share the recording id {e.recording_id!r}")
        return cls(root=root, entries=entries)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    def load_annotation(self, entry):
        path = os.path.join(self.root, entry.annotation)
        # read as bytes, so that text that is not UTF-8 fails in from_json
        with open(path, "rb") as fh:
            text = fh.read()
        try:
            return AnnotationRecord.from_json(entry.recording_id, text)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc

    def load_audio(self, entry):
        return load_wav(os.path.join(self.root, entry.audio))


# -- WAV I/O -----------------------------------------------------------------


def load_wav(path):
    """Decode a mono 16-bit PCM WAV into amplitudes in [-1, 1)."""
    try:
        with wave.open(str(path), "rb") as wav:
            if wav.getcomptype() != "NONE":
                raise FormatError(f"{path}: compressed WAV not supported")
            if wav.getnchannels() != 1:
                raise FormatError(f"{path}: expected mono audio")
            if wav.getsampwidth() != 2:
                raise FormatError(f"{path}: expected 16-bit PCM")
            rate = wav.getframerate()
            n = wav.getnframes()
            payload = wav.readframes(n)
    # EOFError: header cut short; RuntimeError: a chunk size that points
    # past the end of its enclosing chunk
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise FormatError(f"{path}: not a valid WAV file") from exc
    if len(payload) != 2 * n:
        raise FormatError(f"{path}: truncated WAV payload")
    samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    try:
        return AudioClip(samples=samples, sample_rate=rate)
    except InvalidInputError as exc:  # no frames, or a zero sample rate
        raise FormatError(f"{path}: {exc}") from exc


def save_wav(path, clip):
    pcm = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    tmp = str(path) + ".tmp"
    with wave.open(tmp, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(clip.sample_rate)
        wav.writeframes(pcm.tobytes())
    os.replace(tmp, path)


def segment_events(clip, annotation):
    """Slice [onset, offset) sub-clips for every annotated event."""
    out = []
    for onset_ms, offset_ms, label in annotation.events:
        start = int(round(onset_ms * clip.sample_rate / 1000.0))
        stop = int(round(offset_ms * clip.sample_rate / 1000.0))
        if stop > clip.samples.size:
            raise DataError(
                f"{annotation.recording_id}: event {onset_ms}..{offset_ms} ms "
                f"beyond recording end"
            )
        out.append((AudioClip(samples=clip.samples[start:stop].copy(),
                              sample_rate=clip.sample_rate), label))
    return out


# -- synthetic corpus ----------------------------------------------------------


def _tone(rng, t, freq, am_rate=0.0):
    phase = rng.uniform(0, 2 * np.pi)
    sig = np.sin(2 * np.pi * freq * t + phase)
    if am_rate > 0:
        sig = sig * (0.6 + 0.4 * np.sin(2 * np.pi * am_rate * t))
    return sig


def _band_noise(rng, n, rate, lo, hi):
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    spectrum[(freqs < lo) | (freqs > hi)] = 0.0
    out = np.fft.irfft(spectrum, n)
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


def _click_train(rng, t, rate, clicks_per_s, burst_freq, burst_ms):
    out = np.zeros_like(t)
    n = t.size
    step = int(rate / clicks_per_s)
    burst_len = int(rate * burst_ms / 1000.0)
    tb = np.arange(burst_len) / rate
    burst = np.sin(2 * np.pi * burst_freq * tb) * np.exp(-tb * 1000.0 / burst_ms)
    start = int(rng.integers(0, step))
    for pos in range(start, n - burst_len, step):
        out[pos : pos + burst_len] += burst
    return out


def synth_event(rng, label, duration_s, rate=SYNTH_RATE):
    """One event waveform; each class gets a distinct spectral signature."""
    n = int(round(duration_s * rate))
    t = np.arange(n) / rate
    amp = 0.3 * rng.uniform(0.8, 1.2)
    if label == "N":
        sig = 0.5 * _band_noise(rng, n, rate, 100, 400)
    elif label == "Rho":
        sig = _tone(rng, t, rng.uniform(130, 160), am_rate=2.0)
    elif label == "W":
        sig = _tone(rng, t, rng.uniform(700, 820), am_rate=4.0)
    elif label == "Str":
        sig = _tone(rng, t, rng.uniform(1400, 1600))
    elif label == "CC":
        sig = _click_train(rng, t, rate, 6.0, 300.0, 30.0)
    elif label == "FC":
        sig = _click_train(rng, t, rate, 25.0, 1000.0, 10.0)
    elif label == "B":
        sig = 0.6 * _tone(rng, t, rng.uniform(700, 820), am_rate=4.0)
        sig = sig + 0.6 * _click_train(rng, t, rate, 25.0, 1000.0, 10.0)
    else:
        raise DataError(f"unknown event label {label!r}")
    return amp * sig


def synth_recording(rng, event_label, rate=SYNTH_RATE):
    """Recording = soft background + two annotated events of one class."""
    duration_s = rng.uniform(4.0, 6.0)
    n = int(duration_s * rate)
    samples = 0.01 * _band_noise(rng, n, rate, 60, 800)
    events = []
    cursor_ms = rng.uniform(100, 300)
    for _ in range(2):
        ev_s = rng.uniform(0.6, 1.4)
        onset_ms = int(cursor_ms)
        offset_ms = int(min(cursor_ms + ev_s * 1000.0, duration_s * 1000 - 1))
        start = int(onset_ms * rate / 1000.0)
        stop = int(offset_ms * rate / 1000.0)
        samples[start:stop] += synth_event(rng, event_label,
                                           (stop - start) / rate, rate)
        events.append((onset_ms, offset_ms, event_label))
        cursor_ms = offset_ms + rng.uniform(200, 500)
    return (
        AudioClip(samples=np.clip(samples, -0.99, 0.99), sample_rate=rate),
        tuple(events),
    )


def synth_poor_quality(rng, rate=SYNTH_RATE):
    duration_s = rng.uniform(4.0, 6.0)
    n = int(duration_s * rate)
    samples = 0.45 * rng.standard_normal(n)
    return AudioClip(samples=np.clip(samples, -0.99, 0.99), sample_rate=rate)


def generate_synthetic_dataset(root, seed, n_per_class,
                               event_classes=EVENT_LABELS,
                               include_poor_quality=True,
                               validation_every=4):
    """Write WAV + annotation JSON per sample and a manifest.json.

    Produces n_per_class recordings per event class (two events each), plus
    n_per_class event-free Poor Quality recordings when requested. Every
    `validation_every`-th recording of a class goes to the validation split.
    Deterministic in `seed`.
    """
    if n_per_class < 1:
        raise InvalidInputError("n_per_class must be >= 1")
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []

    def emit(rec_id, clip, annotation, k):
        audio_rel = f"{rec_id}.wav"
        ann_rel = f"{rec_id}.json"
        save_wav(os.path.join(root, audio_rel), clip)
        with open(os.path.join(root, ann_rel), "w") as fh:
            fh.write(annotation.to_json() + "\n")
        split = "validation" if (k + 1) % validation_every == 0 else "train"
        entries.append(ManifestEntry(audio_rel, ann_rel, split))

    for label in event_classes:
        for k in range(n_per_class):
            rec_id = f"{label}_{k:03d}"
            clip, events = synth_recording(rng, label)
            ann = AnnotationRecord(rec_id, EVENT_TO_RECORD[label], events)
            emit(rec_id, clip, ann, k)
    if include_poor_quality:
        for k in range(n_per_class):
            rec_id = f"PQ_{k:03d}"
            clip = synth_poor_quality(rng)
            emit(rec_id, clip, AnnotationRecord(rec_id, "PQ", ()), k)

    manifest = DatasetManifest(root=root, entries=tuple(entries))
    manifest.save(os.path.join(root, "manifest.json"))
    return manifest
