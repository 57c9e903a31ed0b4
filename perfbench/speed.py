"""Machine-speed probe: puts timings taken at different moments on one scale.

The benchmark runs on a few cores of a shared host whose speed, for the
same code, drifts by tens of percent over minutes as the neighbours' load
comes and goes. Medians over a run do not remove a drift that lasts longer
than the run. So a short fixed kernel that does not touch lungsound (about
40 ms) runs just before and just after every timed call, outside the timed
span, and a run's times are scaled by the median of its kernel times:

    scaled time = measured time * REFERENCE_S / median(kernel times of the run)

(rates are divided by the same factor). A change to lungsound moves a
scaled figure exactly as it moves the measured one, since the kernel does
not depend on it; the host's drift slows the kernel and the workload alike
and cancels. Taking the median over the whole run, rather than scaling each
call by the kernel runs next to it, keeps the kernel's own jitter out.

The kernel allocates nothing and spends about a quarter of its time on
each kind of work the workloads do: streaming through arrays far larger
than the cache, FFTs, small BLAS products and interpreted Python. On the
host the benchmark was built on, which of these tracked the workloads'
slowdowns best changed from one episode of drift to the next; equal shares
did about as well as the best single part each time. Measured figures are
reported beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's median time on the host the benchmark was built on (2-vCPU
# Xeon VM, 7 GB); any constant would do, this one keeps scaled times close
# to measured ones there
REFERENCE_S = 0.040
# a kernel run that ended this recently still describes the machine's speed
REUSE_S = 0.2
# after a long call the kernel runs for about this share of its time
PROBE_SHARE = 0.05
_WORDS = 1 << 22  # 32 MiB of float64 per array
PARTS = ("memory", "fft", "blas", "python")


class Speed:
    """Runs the probe kernel next to timed calls and keeps its times."""

    def __init__(self, enabled=True):
        # disabled, no kernel runs: traced runs must not count it in any
        # layer's time
        self.enabled = enabled
        n = _WORDS if enabled else 1
        rng = np.random.default_rng(0)
        self._src, self._dst = np.linspace(0.0, 1.0, n), np.empty(n)
        self._signal = rng.standard_normal(1 << 16) + 0j
        self._spectrum = np.empty_like(self._signal)
        self._matrix = rng.standard_normal((192, 192))
        self._product = np.empty_like(self._matrix)
        self._last_end = None  # when the kernel last ran
        self.probe_s = 0.0  # total time spent probing
        self.probes = []  # seconds of each part of each probe
        if enabled:
            self._kernel()  # first touch of the buffers

    def _kernel(self):
        """Seconds taken by each part; nothing is allocated."""
        t = [time.perf_counter()]
        np.copyto(self._dst, self._src)
        np.multiply(self._dst, 1.0001, out=self._dst)
        t.append(time.perf_counter())
        for _ in range(2):
            np.fft.fft(self._signal, out=self._spectrum)
            np.fft.ifft(self._spectrum, out=self._spectrum)
        t.append(time.perf_counter())
        for _ in range(25):
            np.matmul(self._matrix, self._matrix, out=self._product)
        t.append(time.perf_counter())
        total = 0
        for i in range(100_000):
            total += i * i
        t.append(time.perf_counter())
        return [b - a for a, b in zip(t, t[1:])]

    def probe(self, calls_s=0.0):
        """Run the kernel, once or as many times as take PROBE_SHARE of
        `calls_s`, and record its times."""
        if not self.enabled:
            return
        for _ in range(max(1, round(PROBE_SHARE * calls_s / REFERENCE_S))):
            parts = self._kernel()
            self.probe_s += sum(parts)
            self.probes.append(parts)
        self._last_end = time.perf_counter()

    def call(self, fn, *args, **kwargs):
        """(result, seconds) of fn(*args), with the kernel run just before
        (unless it just ran) and just after, outside the timed span."""
        if self.enabled and (self._last_end is None or
                             time.perf_counter() - self._last_end > REUSE_S):
            self.probe()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.probe(dt)
        return out, dt

    def enclosing(self, fn, *args, **kwargs):
        """(result, seconds) of fn(*args) whose inner calls go through
        call(), less the time of the kernel runs they made."""
        probe_s = self.probe_s
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0 - (self.probe_s - probe_s)


def factor(probes):
    """What measured times of a run are multiplied by (and rates divided
    by): the reference time over the median of the run's probe times."""
    return REFERENCE_S / statistics.median(sum(parts) for parts in probes)


def part_medians_ms(probes):
    """Median time of each part of the kernel over a run, in ms."""
    return {f"speed_probe_{name}_ms": 1000.0 * statistics.median(
        parts[i] for parts in probes) for i, name in enumerate(PARTS)}
