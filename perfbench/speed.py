"""Times scaled to a reference speed of the machine, sampled while they run.

On a shared host a vCPU's speed can change 1.5-2x within seconds, as other
tenants come and go on the same physical core, and a slow or a fast stretch
can cover most of a run.  ``SpeedProbe`` interrupts the code it wraps every
``INTERVAL_S`` seconds (SIGALRM) and times ``reference()``, a fixed loop of
plain Python and Fraction arithmetic.  ``ref_s`` scales each stretch between
two samples by ``REFERENCE_S`` over the reference time measured at the
stretch's start, and adds them up: the time the code would take on a
machine that runs the reference loop in exactly ``REFERENCE_S``.  A change
of machine speed moves the code's time and the reference time together, so
it cancels; a change of the program moves the code's time alone.

The probe needs only the standard library, so that it can time the import
of numpy and scipy too.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

#: Time of one ``reference()`` call at the reference speed, by definition.
REFERENCE_S = 1e-3
#: Seconds between two samples: about 1% of the time goes to the samples.
INTERVAL_S = 0.1


def reference() -> None:
    """About a millisecond of Fraction arithmetic and plain Python loops."""
    total = Fraction(0)
    for i in range(1, 180):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    table = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i * i % 7


class SpeedProbe:
    """Context manager around the code to time; ``ref_s`` and ``probe_s`` after it."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, reference seconds)
        self.end = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> SpeedProbe:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def probe_s(self) -> float:
        """Time the reference samples took out of the wrapped code."""
        return sum(took for _, took in self.samples)

    @property
    def ref_s(self) -> float:
        """The wrapped code's time outside the samples, at the reference speed."""
        stops = [start for start, _ in self.samples[1:]] + [self.end]
        return REFERENCE_S * sum(
            (stop - start - took) / took for (start, took), stop in zip(self.samples, stops)
        )
