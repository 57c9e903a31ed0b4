import itertools
import json
import os
import signal as os_signal
import struct
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy import signal

import lungsound
from lungsound import dsp
from lungsound.errors import FormatError, InvalidConfigError, InvalidInputError
from oracles import cwt_dense, cwt_direct


def tone(freq, rate, seconds=1.0, amp=1.0):
    t = np.arange(int(seconds * rate)) / rate
    return dsp.AudioClip(samples=amp * np.sin(2 * np.pi * freq * t),
                         sample_rate=rate)


def center_freqs(spec, scales, rate):
    """Center frequency in Hz of the wavelet at each scale."""
    return spec.peak_omega * rate / (2.0 * np.pi * scales)


def single_bin_magnitude(clip, freq):
    """Amplitude of one frequency via projection onto a complex exponential
    over an integer number of cycles."""
    n = clip.samples.size
    t = np.arange(n) / clip.sample_rate
    return 2.0 * abs(np.vdot(np.exp(2j * np.pi * freq * t), clip.samples)) / n


# per-row bound of the band-grid evaluation against a full inverse FFT,
# relative to the row's max |c|; measured rows read <= 1.0e-12
BAND_GRID_ROW_BOUND = 1e-10


def row_error(fast, dense):
    """Worst row's max |fast - dense| over that row's max |dense|."""
    peak = np.max(np.abs(dense), axis=1)
    return float(np.max(np.max(np.abs(fast - dense), axis=1)
                        / np.where(peak > 0, peak, 1.0)))


def padded_length(n):
    """The CWT's padded length P for an n-sample signal."""
    return dsp._pad_signal(np.zeros(n))[0].size


def band_grid_sizes(spec, scales, p):
    """Grid length of each filter-bank row at padded length p (0: the row
    takes the full inverse FFT)."""
    return [m for _, _, m, _ in dsp._filter_bank(spec, scales.tobytes(), p)]


def pool_exists():
    return dsp._executor.cache_info().currsize == 1


@pytest.fixture
def fresh_pool():
    """No CWT thread pool on entry or on exit: a pool made before the test
    or by it is shut down."""
    def drop():
        if pool_exists():
            dsp._executor().shutdown()
        dsp._executor.cache_clear()

    drop()
    yield
    drop()


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(dsp, "_usable_cpus", lambda: n)


def pool_transform(family, columns=None):
    """cwt's arguments for a 2 s clip at 40 bins."""
    clip = dsp.AudioClip(np.random.default_rng(13).standard_normal(8000),
                         4000)
    spec = dsp.WaveletSpec(family=family)
    return clip, spec, dsp.make_scale_grid(spec, 40, 4000), columns


class TestAudioClip:
    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            dsp.AudioClip(samples=np.array([]), sample_rate=8000)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            dsp.AudioClip(samples=np.array([0.0, np.nan]), sample_rate=8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidInputError):
            dsp.AudioClip(samples=np.zeros(4), sample_rate=0)


class TestResample:
    def test_halves_8k_to_4k(self):
        clip = dsp.AudioClip(np.random.default_rng(0).standard_normal(16000),
                             8000)
        out = dsp.resample(clip, 4000)
        assert out.sample_rate == 4000
        assert out.samples.size == 8000

    def test_identity_at_target_rate(self):
        clip = tone(500, 4000)
        assert dsp.resample(clip, 4000) is clip

    def test_tone_amplitude_preserved(self):
        clip = tone(500, 8000)
        out = dsp.resample(clip, 4000)
        a_in = single_bin_magnitude(clip, 500)
        a_out = single_bin_magnitude(out, 500)
        assert abs(a_out - a_in) / a_in < 0.01


class TestBandpass:
    def test_dc_rejected(self):
        clip = dsp.AudioClip(np.ones(4000), 4000)
        out = dsp.bandpass(clip, 60, 2000 - 1e-9)
        assert np.mean(np.abs(out.samples)) < 0.05

    def test_passband_tone_preserved(self):
        clip = tone(1000, 4000, seconds=2.0)
        out = dsp.bandpass(clip, 60, 2000 - 1e-9)
        rms_in = np.sqrt(np.mean(clip.samples**2))
        rms_out = np.sqrt(np.mean(out.samples**2))
        assert abs(rms_out - rms_in) / rms_in < 0.10

    def test_zero_signal(self):
        clip = dsp.AudioClip(np.zeros(100) + 0.0, 4000)
        # strict zeros trip the nonempty check only if empty; zeros are fine
        out = dsp.bandpass(clip, 60, 1999)
        assert np.allclose(out.samples, 0.0)

    def test_above_nyquist_rejected(self):
        with pytest.raises(InvalidInputError):
            dsp.bandpass(tone(100, 4000), 60, 2001)

    def test_frequency_response_spec(self):
        # response oracle on the designed filter itself
        sos = signal.butter(2, [60, 1999], btype="bandpass", fs=4000,
                            output="sos")
        w, h = signal.sosfreqz(sos, worN=[15, 60 * 1.2, 1999 * 0.8], fs=4000)
        db = 20 * np.log10(np.abs(h))
        assert db[0] <= -20.0  # lo/4
        assert db[1] >= -3.0
        assert db[2] >= -3.0


class TestTiling:
    def test_event_tiled_to_10s(self):
        clip = dsp.AudioClip(np.random.default_rng(1).standard_normal(16000),
                             4000)
        out = dsp.tile_to_duration(clip, 10.0)
        assert out.samples.size == 40000
        k = np.arange(40000)
        assert np.array_equal(out.samples, clip.samples[k % 16000])

    def test_identity(self):
        clip = tone(100, 4000, seconds=10.0)
        assert dsp.tile_to_duration(clip, 10.0) is clip

    def test_recording_tiled_to_30s(self):
        clip = dsp.AudioClip(np.random.default_rng(2).standard_normal(48000),
                             4000)
        out = dsp.tile_to_duration(clip, 30.0)
        assert out.samples.size == 120000
        k = np.arange(120000)
        assert np.array_equal(out.samples, clip.samples[k % 48000])

    def test_truncates_long_input(self):
        clip = dsp.AudioClip(np.arange(50000, dtype=float) / 50000.0, 4000)
        out = dsp.tile_to_duration(clip, 10.0)
        assert np.array_equal(out.samples, clip.samples[:40000])


class TestScaleGrid:
    @pytest.mark.parametrize("family", dsp.WaveletSpec.FAMILIES)
    def test_span_and_monotonicity(self, family):
        spec = dsp.WaveletSpec(family=family)
        scales = dsp.make_scale_grid(spec, 128, 4000)
        freqs = center_freqs(spec, scales, 4000)
        assert scales.shape == (128,)
        assert np.all(np.diff(freqs) < 0)
        assert np.all(np.diff(scales) > 0)
        assert freqs[0] == pytest.approx(2000.0)
        assert freqs[-1] == pytest.approx(60.0)

    def test_wavelet_param_validation(self):
        with pytest.raises(InvalidConfigError):
            dsp.WaveletSpec(family="haar")


class TestCwt:
    def grid(self, spec, n=12, rate=4000):
        # short test signals cannot hold 60 Hz wavelets; use a narrower band
        return dsp.make_scale_grid(spec, n, rate, f_lo=250.0)

    def test_zero_signal(self):
        spec = dsp.WaveletSpec(family="amor")
        clip = dsp.AudioClip(np.zeros(256) + 0.0, 4000)
        coeffs = dsp.cwt(clip, spec, self.grid(spec))
        assert np.all(coeffs == 0)

    def test_linearity(self):
        spec = dsp.WaveletSpec(family="bump")
        x = np.random.default_rng(3).standard_normal(200)
        grid = self.grid(spec)
        c1 = dsp.cwt(dsp.AudioClip(x, 4000), spec, grid)
        c2 = dsp.cwt(dsp.AudioClip(2 * x, 4000), spec, grid)
        assert np.allclose(c2, 2 * c1, rtol=1e-12)

    def test_tone_peaks_at_matching_scale(self):
        spec = dsp.WaveletSpec(family="morse")
        clip = tone(100, 4000, seconds=0.25)
        scales = dsp.make_scale_grid(spec, 64, 4000)
        coeffs = dsp.cwt(clip, spec, scales)
        peak_row = np.argmax(np.mean(np.abs(coeffs), axis=1))
        freqs = center_freqs(spec, scales, 4000)
        best = np.argmin(np.abs(freqs - 100.0))
        assert abs(int(peak_row) - int(best)) <= 1

    @pytest.mark.parametrize("family", dsp.WaveletSpec.FAMILIES)
    def test_matches_direct_convolution(self, family):
        spec = dsp.WaveletSpec(family=family)
        rng = np.random.default_rng(4)
        grid = self.grid(spec, n=10)
        for _ in range(3):
            x = rng.standard_normal(int(rng.integers(64, 300)))
            clip = dsp.AudioClip(x, 4000)
            fast = dsp.cwt(clip, spec, grid)
            slow = cwt_direct(clip, spec, grid)
            scale = np.max(np.abs(slow))
            assert np.max(np.abs(fast - slow)) / scale < 1e-6

    def test_overlong_scale_rejected(self):
        spec = dsp.WaveletSpec(family="morse")
        with pytest.raises(InvalidConfigError):
            dsp.cwt(dsp.AudioClip(np.ones(64), 4000), spec,
                    np.array([1.0, 1e5]))

    @pytest.mark.parametrize("family", dsp.WaveletSpec.FAMILIES)
    def test_equals_dense_per_row_transform(self, family):
        # narrow rows are evaluated on a band grid, wide ones by the same
        # full inverse FFT as the oracle's
        spec = dsp.WaveletSpec(family=family)
        clip = dsp.AudioClip(np.random.default_rng(16).standard_normal(4000),
                             4000)
        grid = dsp.make_scale_grid(spec, 20, 4000)
        assert row_error(dsp.cwt(clip, spec, grid),
                         cwt_dense(clip, spec, grid)) <= BAND_GRID_ROW_BOUND

    def test_columns_are_a_gather_of_the_full_transform(self):
        spec = dsp.WaveletSpec(family="bump")
        clip = dsp.AudioClip(np.random.default_rng(10).standard_normal(300),
                             4000)
        grid = self.grid(spec, n=20)
        full = dsp.cwt(clip, spec, grid)
        for cols in ([0, 299], [5, 6, 7, 150, 298], []):
            part = dsp.cwt(clip, spec, grid, columns=cols)
            assert part.tobytes() == full[:, cols].tobytes()

    @pytest.mark.parametrize("cols", [[-1], [300], [[1, 2]]])
    def test_columns_outside_the_signal_rejected(self, cols):
        spec = dsp.WaveletSpec(family="bump")
        clip = dsp.AudioClip(np.ones(300), 4000)
        with pytest.raises(InvalidInputError):
            dsp.cwt(clip, spec, self.grid(spec), columns=cols)

    def test_row_with_empty_support_is_zero(self):
        # bump support at scale 0.5 is 8.8..11.2 rad/sample, above Nyquist
        spec = dsp.WaveletSpec(family="bump")
        scales = np.array([0.5, 2.0])
        clip = dsp.AudioClip(np.random.default_rng(11).standard_normal(128),
                             4000)
        coeffs = dsp.cwt(clip, spec, scales)
        slow = cwt_direct(clip, spec, scales)
        assert np.all(coeffs[0] == 0)
        assert np.max(np.abs(coeffs - slow)) / np.max(np.abs(slow)) < 1e-6

    def test_filter_bank_built_once_per_level(self, monkeypatch):
        calls = []
        freq_response = dsp.WaveletSpec.freq_response

        def counted(self, omega):
            calls.append(1)
            return freq_response(self, omega)

        monkeypatch.setattr(dsp.WaveletSpec, "freq_response", counted)
        dsp._filter_bank.cache_clear()
        rng = np.random.default_rng(12)
        spec = dsp.WaveletSpec(family="bump")
        for n in (3000, 5000):  # both tiled to 2 s
            clip = dsp.AudioClip(rng.standard_normal(n), 4000)
            dsp.extract_spectrogram(clip, spec, 24, 32, 2.0)
        assert len(calls) == 24

    def test_fft_worker_count_does_not_change_output(self, monkeypatch,
                                                     fresh_pool):
        """Eight threads, more than the CPUs of a CI runner, on a short
        switch interval, give the sequential bytes for every family: with
        the default batches and with one row per batch, so that every grid
        length of more than one row has several batches."""
        default_bytes = dsp._BATCH_BYTES
        interval = sys.getswitchinterval()
        for family in dsp.WaveletSpec.FAMILIES:
            args = pool_transform(family, columns=np.arange(0, 8000, 7))
            use_cpus(monkeypatch, 1)
            monkeypatch.setattr(dsp, "_BATCH_BYTES", default_bytes)
            expected = dsp.cwt(*args).tobytes()
            use_cpus(monkeypatch, 8)
            sys.setswitchinterval(1e-6)
            try:
                for batch_bytes in (default_bytes, 1):
                    monkeypatch.setattr(dsp, "_BATCH_BYTES", batch_bytes)
                    assert dsp.cwt(*args).tobytes() == expected, family
            finally:
                sys.setswitchinterval(interval)
        assert pool_exists()


@pytest.mark.usefixtures("fresh_pool")
class TestBatchPool:
    """A CWT of more than one row batch runs the batches on a pool of
    `_usable_cpus()` threads."""

    def test_error_in_one_batch_reaches_the_caller(self, monkeypatch):
        args = pool_transform("morse")
        clip, spec, scales, _ = args
        n_full = band_grid_sizes(spec, scales,
                                 padded_length(clip.samples.size)).count(0)
        assert n_full > 2
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(dsp, "_BATCH_BYTES", 1)  # one row per batch
        expected = dsp.cwt(*args).tobytes()
        full_rows = dsp._full_rows
        calls = itertools.count()

        def failing(*a):
            if next(calls) == 1:
                raise RuntimeError("batch 1 failed")
            return full_rows(*a)

        monkeypatch.setattr(dsp, "_full_rows", failing)
        with pytest.raises(RuntimeError, match="batch 1 failed"):
            dsp.cwt(*args)
        # every other batch ran before the error was raised
        assert next(calls) == n_full
        monkeypatch.setattr(dsp, "_full_rows", full_rows)
        assert dsp.cwt(*args).tobytes() == expected

    def test_one_cpu_or_one_batch_starts_no_thread(self, monkeypatch):
        def start(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", start)
        use_cpus(monkeypatch, 1)
        monkeypatch.setattr(dsp, "_BATCH_BYTES", 1)
        dsp.cwt(*pool_transform("morse"))
        use_cpus(monkeypatch, 2)
        clip, spec, _, _ = pool_transform("bump")
        dsp.cwt(clip, spec, np.array([8.0]))  # one row: one batch
        assert not pool_exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_the_cwt(self, monkeypatch):
        args = pool_transform("bump")
        use_cpus(monkeypatch, 2)
        expected = dsp.cwt(*args).tobytes()
        assert pool_exists()
        with warnings.catch_warnings():
            # newer Pythons warn of fork() in a process with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os_signal.alarm(60)  # a child that hangs is killed
                fresh = not pool_exists()
                code = 0 if fresh and dsp.cwt(*args).tobytes() == expected \
                    else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestBandGrid:
    """Rows whose band fits a grid of at most P/4 points are evaluated on
    that grid by a Gaussian-gridding non-uniform FFT."""

    @pytest.mark.parametrize("seconds", [2, 10])
    @pytest.mark.parametrize("family", dsp.WaveletSpec.FAMILIES)
    def test_rows_match_the_dense_transform(self, family, seconds):
        spec = dsp.WaveletSpec(family=family)
        n = seconds * 4000
        clip = dsp.AudioClip(
            np.random.default_rng(seconds).standard_normal(n), 4000)
        scales = dsp.make_scale_grid(spec, 24, 4000)
        full = dsp.cwt(clip, spec, scales)
        assert row_error(full, cwt_dense(clip, spec, scales)) \
            <= BAND_GRID_ROW_BOUND
        # every bump row takes the band grid; Morse and Amor mix both paths
        sizes = band_grid_sizes(spec, scales, padded_length(n))
        assert any(sizes) and all(sizes) == (family == "bump")
        cols = [0, 1, n - 2, n - 1]
        part = dsp.cwt(clip, spec, scales, columns=cols)
        assert part.tobytes() == full[:, cols].tobytes()

    def test_spread_matrix_built_once_per_level_and_size(self):
        dsp._spread_matrix.cache_clear()
        rng = np.random.default_rng(17)
        spec = dsp.WaveletSpec(family="bump")
        expected = set()
        for seconds in (2.0, 6.0):  # two levels: P = 2^14 and 2^16
            for n in (3000, 5000):  # both tiled to `seconds`
                clip = dsp.AudioClip(rng.standard_normal(n), 4000)
                dsp.extract_spectrogram(clip, spec, 24, 32, seconds)
            p = padded_length(int(seconds * 4000))
            scales = dsp.make_scale_grid(spec, 24, 4000)
            expected |= {(p, m) for m in band_grid_sizes(spec, scales, p) if m}
        info = dsp._spread_matrix.cache_info()
        assert len(expected) > 2
        assert info.misses == info.currsize == len(expected)

    @pytest.mark.parametrize("family", dsp.WaveletSpec.FAMILIES)
    def test_every_support_ends_in_the_half_spectrum(self, family):
        """`cwt` reads only rfft's P/2 + 1 bins, so every bank row at both
        levels' paper grids must end at or below bin P/2."""
        spec = dsp.WaveletSpec(family=family)
        for bins, seconds in ((128, dsp.EVENT_SECONDS),
                              (140, dsp.RECORD_SECONDS)):
            p = padded_length(int(seconds * dsp.TARGET_RATE))
            scales = dsp.make_scale_grid(spec, bins, dsp.TARGET_RATE)
            bank = dsp._filter_bank(spec, scales.tobytes(), p)
            assert max(hi for _, hi, _, _ in bank) <= p // 2
        dsp._filter_bank.cache_clear()  # a Morse or Amor bank holds ~100 MB


class TestLogMagnitude:
    def test_unit_magnitude(self):
        spec = dsp.log_magnitude(np.array([[1.0 + 0j]]))
        assert spec.values[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_zero_floor(self):
        spec = dsp.log_magnitude(np.zeros((2, 3), dtype=complex))
        assert np.allclose(spec.values, -200.0)

    def test_tenth_magnitude(self):
        spec = dsp.log_magnitude(np.array([[0.1 + 0j]]))
        assert spec.values[0, 0] == pytest.approx(-20.0, abs=1e-6)


class TestResize:
    def test_constant_preserved(self):
        spec = dsp.Spectrogram(values=np.full((5, 9), 5.0))
        out = dsp.resize(spec, 7, 3)
        assert out.values.shape == (7, 3)
        assert np.allclose(out.values, 5.0)

    def test_bilinear_midpoint(self):
        spec = dsp.Spectrogram(values=np.array([[0.0, 1.0], [0.0, 1.0]]))
        out = dsp.resize(spec, 2, 3)
        assert np.allclose(out.values[:, 1], 0.5)

    def test_event_geometry(self):
        rng = np.random.default_rng(5)
        spec = dsp.Spectrogram(values=rng.standard_normal((128, 8000)))
        out = dsp.resize(spec, 128, 512)
        assert (out.freq_bins, out.time_frames) == (128, 512)

    def test_columns_must_match_native_frames(self):
        # the 2·8 columns i0, then i0 + 1, of a 100-frame scalogram
        full = np.random.default_rng(8).standard_normal((4, 100))
        i0, _ = dsp._taps(100, 8)
        held = full[:, np.concatenate([i0, i0 + 1])]
        out = dsp.resize(dsp.Spectrogram(values=held), 4, 8, native_frames=100)
        want = dsp.resize(dsp.Spectrogram(values=full), 4, 8)
        assert np.array_equal(out.values, want.values)
        for wrong in (held[:, :8], held[:, :15], full):
            with pytest.raises(InvalidInputError):
                dsp.resize(dsp.Spectrogram(values=wrong), 4, 8,
                           native_frames=100)

    def test_idempotent_at_native_size(self):
        rng = np.random.default_rng(6)
        spec = dsp.Spectrogram(values=rng.standard_normal((16, 20)))
        out = dsp.resize(spec, 16, 20)
        assert np.array_equal(out.values, spec.values)


class TestPipeline:
    def test_deterministic(self):
        rng = np.random.default_rng(7)
        clip = dsp.AudioClip(rng.standard_normal(8000), 8000)
        w = dsp.WaveletSpec(family="bump")
        a = dsp.extract_spectrogram(clip, w, 32, 64, 2.0)
        b = dsp.extract_spectrogram(clip, w, 32, 64, 2.0)
        assert np.array_equal(a.values, b.values)
        assert (a.freq_bins, a.time_frames) == (32, 64)

    @pytest.mark.parametrize("family", dsp.WaveletSpec.FAMILIES)
    @pytest.mark.parametrize("seconds", [1.024, 2.0])  # 4096 and 8000 samples
    def test_equals_the_full_chain(self, family, seconds):
        rng = np.random.default_rng(14)
        clip = dsp.AudioClip(rng.standard_normal(5000), 8000)
        w = dsp.WaveletSpec(family=family)
        fast = dsp.extract_spectrogram(clip, w, 30, 70, seconds)
        c = dsp.bandpass(dsp.tile_to_duration(dsp.resample(clip, 4000),
                                              seconds))
        grid = dsp.make_scale_grid(w, 30, c.sample_rate)
        full = dsp.resize(dsp.log_magnitude(dsp.cwt(c, w, grid)), 30, 70)
        assert fast.values.tobytes() == full.values.tobytes()

    def test_native_width_is_copied(self):
        clip = dsp.AudioClip(np.random.default_rng(15).standard_normal(400),
                             4000)
        w = dsp.WaveletSpec(family="amor")
        fast = dsp.extract_spectrogram(clip, w, 6, 400, 0.1)
        grid = dsp.make_scale_grid(w, 6, 4000)
        c = dsp.bandpass(clip)
        full = dsp.log_magnitude(dsp.cwt(c, w, grid))
        assert fast.values.tobytes() == full.values.tobytes()


SCIPY_ON_FIRST_CALL = """
import importlib, json, pkgutil, sys
import numpy as np
import lungsound

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

for info in pkgutil.iter_modules(lungsound.__path__):
    importlib.import_module("lungsound." + info.name)
after_import = scipy_modules()
from lungsound import dsp
clip = dsp.AudioClip(samples=np.sin(0.3 * np.arange(800)), sample_rate=8000)
dsp.extract_spectrogram(clip, dsp.WaveletSpec("bump"), 8, 16, 0.2)
print(json.dumps([after_import, scipy_modules()]))
"""


class TestScipyLoadsOnFirstCall:
    def test_only_the_front_end_imports_scipy(self):
        """A fresh interpreter that imports every lungsound module has no
        scipy module loaded; one front-end call loads scipy.signal and
        scipy.fft."""
        src = os.path.dirname(os.path.dirname(lungsound.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", SCIPY_ON_FIRST_CALL],
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        after_import, after_call = json.loads(run.stdout.splitlines()[-1])
        assert after_import == []
        assert {"scipy.signal", "scipy.fft"} <= set(after_call)


class TestCacheFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        spec = dsp.Spectrogram(values=rng.standard_normal((12, 34)))
        path = tmp_path / "a.lssg"
        dsp.save_spectrogram(path, spec)
        assert path.stat().st_size == 16 + 4 * 12 * 34
        again = dsp.load_spectrogram(path)
        assert np.array_equal(again.values, spec.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "b.lssg"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FormatError):
            dsp.load_spectrogram(path)

    @pytest.mark.parametrize("f, t", [(0, 4), (4, 0)])
    def test_empty_header_rejected(self, tmp_path, f, t):
        path = tmp_path / "e.lssg"
        path.write_bytes(dsp.CACHE_MAGIC
                         + struct.pack("<III", dsp.CACHE_VERSION, f, t))
        with pytest.raises(FormatError, match="e.lssg"):
            dsp.load_spectrogram(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        path = tmp_path / "n.lssg"
        dsp.save_spectrogram(path, dsp.Spectrogram(values=np.zeros((2, 3))))
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="n.lssg"):
            dsp.load_spectrogram(path)

    def test_truncation_rejected(self, tmp_path):
        rng = np.random.default_rng(9)
        spec = dsp.Spectrogram(values=rng.standard_normal((4, 4)))
        path = tmp_path / "c.lssg"
        dsp.save_spectrogram(path, spec)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            dsp.load_spectrogram(path)
