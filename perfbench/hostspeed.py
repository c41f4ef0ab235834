"""Host-speed scaling of wall times measured on a shared machine.

On a shared host the speed at which this process runs interpreter-bound
code swings by up to 2x over tens of seconds, while the work stays the same:
one ``compare_consensus`` repetition took 2.9 s to 5.9 s within seven minutes.
Medians over a run cannot average such swings away, so the benchmark samples
the host's speed while it measures, with a fixed reference unit that belongs
to the benchmark, and scales each wall time to a fixed reference speed:

    scaled = wall * NOMINAL_S / trimmed_mean(reference samples)

The reference unit is a short loop of Python calls on tiny numpy arrays, the
kind of code that dominates ``pricecoord``'s stage loops. A change to the
program does not change the reference, so a slower program still reads
slower. ``NOMINAL_S`` is the unit's time on an idle core of a 2.1 GHz Xeon
VM, so scaled times read as wall times on that idle core.

During a timed repetition ``Sampler`` runs the unit from a ``SIGALRM``
handler every ``INTERVAL_S`` (about 1 % of the time) and subtracts the
handler's own time from the repetition's wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_S = 0.45e-3
INTERVAL_S = 0.05
EDGE_SAMPLES = 5   # taken on entry and exit, so a short repetition has samples too
TRIM = 0.1         # share of samples dropped at each end before averaging

_A = np.array([[0.9, -0.3], [0.2, 1.1]])


def _step(x, y):
    return _A @ x - 0.5 * y


def reference_unit() -> float:
    """Seconds taken by one run of the fixed reference loop."""
    x, y, acc = np.zeros(2), np.ones(2), 0.0
    t0 = time.perf_counter()
    for _ in range(60):
        g = _step(x, y)
        x = x - 0.1 * g
        acc += float(g @ g)
        y = np.clip(y + x, -1.0, 1.0)
    return time.perf_counter() - t0


def trimmed_mean(samples) -> float:
    s = np.sort(np.asarray(samples, dtype=float))
    k = int(len(s) * TRIM)
    return float(s[k:len(s) - k].mean())


def factor(samples) -> float:
    """Multiplier from wall time on the sampled host to the reference speed."""
    return NOMINAL_S / trimmed_mean(samples)


def samples_now(n: int) -> list:
    return [reference_unit() for _ in range(n)]


class Sampler:
    """Samples the reference unit every ``INTERVAL_S`` inside the block.

    ``spent`` is the time the sampling took inside the block, to be
    subtracted from a wall time measured around it.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_unit())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples.extend(samples_now(EDGE_SAMPLES))
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.extend(samples_now(EDGE_SAMPLES))
        return False

    def factor(self) -> float:
        return factor(self.samples)
