"""Rescale measured times to a reference machine speed.

The shared two-CPU machine the benchmark was written on switches between
a fast and a slow state every few seconds; the same fixed work takes up
to 1.9 times longer in the slow state (for example, when another guest
loads the sibling hyperthread).  Raw wall times therefore spread far
wider than any useful regression bound.  While a timed section runs,
a SIGALRM handler executes a fixed calibration kernel every
``INTERVAL_S`` on the benchmark's own thread.  The kernel does the kind
of work the section does (small FFTs, float formatting, or bulk random
draws), because the slow state slows each kind by a different factor.
Each stretch of program time between two samples is scaled by the
speed REFERENCE_S / kernel time measured around it, and the section's
time is the sum: seconds at the speed where the kernel takes
``REFERENCE_S``.  Time spent in the handler is not counted.
A change to solitonlab cannot alter the kernel, so a faster program
still reads faster; raw wall times are kept in each result's detail line.
"""

from __future__ import annotations

import csv
import io
import signal
import time
from statistics import median

import numpy as np

#: kernel times that define the reference speed (about their fast-state times)
REFERENCE_S = {"numeric": 1.7e-4, "text": 2.5e-4, "draws": 2.8e-4}
#: sampling period of the kernel while a section is timed
INTERVAL_S = 0.05
#: kernel samples whose median gives the speed at one sampling point
SMOOTHING = 5

_rng = np.random.default_rng(20240817)
_FIELD = _rng.normal(size=512) + 1j * _rng.normal(size=512)
_ROWS = _rng.normal(size=(24, 7))


def _numeric() -> None:
    """Small FFTs and pointwise complex arithmetic, as in the solvers."""
    x = _FIELD
    for _ in range(4):
        x = np.fft.ifft(np.fft.fft(x) * 0.5)
        x = x * np.exp(1e-3j * np.abs(x) ** 2)


def _text() -> None:
    """Float repr and CSV rows, as in snapshot writing and module import."""
    writer = csv.writer(io.StringIO())
    for row in _ROWS:
        writer.writerow([repr(float(v)) for v in row])


def _draws() -> None:
    """Counter-based uniform draws and masks, as in the barrier Monte Carlo."""
    draws = np.random.Generator(np.random.Philox(7)).random(2 * 16384).reshape(-1, 2)
    position = 1.0 - np.abs(1.0 - 2.0 * draws[:, 0])
    np.count_nonzero((position >= 0.1) & (position <= 0.9))


#: calibration kernels by the kind of work they stand for
KERNELS = {"numeric": _numeric, "text": _text, "draws": _draws}


def kernel(kind: str) -> float:
    """Time of one warm pass of a kernel.

    The first pass after other code runs with cold caches, so its time
    would depend on what the measured program did; it is run untimed.
    """
    work = KERNELS[kind]
    work()
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class SpeedSampler:
    """Samples a kernel on SIGALRM while installed (use as a context manager).

    ``kind`` names the kernel; set it to the kind of work the next timed
    section does.
    """

    def __init__(self, kind: str = "numeric"):
        self.kind = kind
        self._samples: list[tuple[float, float, float]] = []
        self._previous = None

    def __enter__(self):
        for kind in KERNELS:
            kernel(kind)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self) -> None:
        start = time.perf_counter()
        duration = kernel(self.kind)
        self._samples.append((start, time.perf_counter(), duration))

    def _on_alarm(self, signum, frame):
        self._sample()

    def time(self, fn, *args, **kwargs):
        """Run fn; return (result, raw wall s, wall s at reference speed).

        The program runs between consecutive samples; each such interval
        is scaled by the speed (REFERENCE_S / kernel time) at its two ends,
        each end taken as the median of the nearest ``SMOOTHING`` samples
        so that one disturbed sample does not count.
        """
        self._samples = []
        self._sample()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        before = self._samples[0]
        inner = [s for s in self._samples[1:] if start <= s[0] < end]
        self._sample()
        durations = [d for _, _, d in [before, *inner, self._samples[-1]]]
        half = SMOOTHING // 2
        speed = [REFERENCE_S[self.kind] / median(durations[max(0, i - half):i + half + 1])
                 for i in range(len(durations))]
        bounds = [start] + [t for s0, s1, _ in inner for t in (s0, s1)] + [end]
        raw = scaled = 0.0
        for i in range(len(inner) + 1):
            interval = bounds[2 * i + 1] - bounds[2 * i]
            raw += interval
            scaled += interval * 0.5 * (speed[i] + speed[i + 1])
        return result, raw, scaled
