"""Speed references that every reported time is scaled by.

On a shared machine the speed of the same code drifts by up to half over
tens of seconds, far more than any bound a run-to-run comparison could use.
The drift hits a fixed reference measured right beside the work just as
hard, so each time is reported as ``raw * nominal / reference``, where
``reference`` is the median of the two samples taken before the work, any
taken while it ran, and the two taken after it.  Read the results as seconds
on a machine where the reference takes exactly its nominal time.  The raw
times go into the run's record as well.

Two references, matched to the two kinds of work:

* ``cpu_reference``: a fixed slice of pure-Python work in the measuring
  process, for work done in that process;
* ``spawn_reference``: a bare interpreter (``python -c pass``), for work that
  starts a process.  Its exec, page faults and start-up follow the machine
  the way a CLI process does; the CPU slice does not.

Neither reference runs any scrollcalc code, so a change to the package moves
the scaled times as much as the raw ones.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

CPU_NOMINAL_S = 0.002
SPAWN_NOMINAL_S = 0.040


def _cpu_slice(n: int = 12000) -> int:
    def step(i, j):
        return (i * j + 3, i - j)

    acc = 0
    for i in range(n):
        t = step(i, 7)
        acc += t[0] % 13 + t[1]
    return acc


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Reference:
    """Samples a reference at most every ``every`` seconds of ``tick`` calls."""

    def __init__(self, measure, nominal: float, every: float):
        self.measure = measure
        self.nominal = nominal
        self.every = every
        self.samples: list = []
        self.spent = 0.0  # seconds spent sampling, to take out of enclosing timings
        self._last = float("-inf")
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a timer sample arriving during a tick's sample
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(self.measure())
        self._last = time.perf_counter()
        self.spent += self._last - t0
        self._busy = False

    def tick(self) -> None:
        if time.perf_counter() - self._last >= self.every:
            self.sample()

    def scale_around(self, i: int, j: int | None = None) -> float:
        """``nominal / reference`` for work that started after sample ``i``
        and ended after sample ``j`` (default ``i``), from the two samples
        before it, those taken while it ran, and the two after."""
        j = i if j is None else j
        return self.nominal / statistics.median(self.samples[max(0, i - 1):j + 3])

    @contextlib.contextmanager
    def sampling(self, interval: float):
        """Also sample every ``interval`` seconds from a SIGALRM handler, so
        that work too long to be judged by the samples around it is sampled
        while it runs.  Callers take ``spent`` out of their timings."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def overall_scale(self) -> float:
        """``nominal / reference`` from every sample so far."""
        return self.nominal / statistics.median(self.samples)


def cpu_reference(every: float = 0.02) -> Reference:
    return Reference(lambda: _time(_cpu_slice), CPU_NOMINAL_S, every)


def spawn_reference(spawn, every: float = 0.4) -> Reference:
    """``spawn(args)`` starts the interpreter under test with ``args``."""
    return Reference(lambda: _time(lambda: spawn(["-c", "pass"])), SPAWN_NOMINAL_S, every)
