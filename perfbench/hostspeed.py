"""A fixed reference task that shows how fast the host runs at the moment.

The benchmark is meant for small shared machines, where the same work can run
1.5 to 1.9 times slower for minutes at a time because of other tenants, and
the speed changes from one second to the next. A median over a run removes
short stalls but not a slow phase that covers the run. So every measured
process also times a reference chunk, and the timed metrics are scaled by
``NOMINAL_S / chunk time``: they read as on a host where the chunk
takes its nominal time. The chunks use only numpy and Python, never
``qcond``, so a change to the program cannot move them.

Two kinds of chunk stand for the two kinds of work the workloads do:
``interp`` is many calls on tiny arrays, where interpreter and numpy call
overhead dominate (the validation-heavy check run, small readouts, queries);
``blas`` is one dense complex matrix product, where BLAS dominates (the
readout at dim_base 16 and up).

During a run the chunks are started by an interval timer, so they sample
the host evenly in time, also in the middle of an operation that lasts
seconds; the time they take inside an operation is taken out of its latency
(``inside``). The scale uses the trimmed mean of the chunk times, because
the host switches between a fast and a slow state within seconds and a long
operation's time is an average over those states. On the tuning host, over
windows of a few seconds, the spread (coefficient of variation) of latency
over trimmed-mean chunk time was 2 to 5% on the readouts and the queries
(6 to 16% unscaled), and about 7% on the check run (16% unscaled).
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(20240312)
_SMALL = [_RNG.normal(size=(d, d)) + 1j * _RNG.normal(size=(d, d)) for d in (2, 3, 4)] * 8
_DENSE = _RNG.normal(size=(160, 160)) + 1j * _RNG.normal(size=(160, 160))


def _interp_chunk() -> float:
    acc = 0.0
    for a in _SMALL:
        h = a @ a.conj().T
        w = np.linalg.eigvalsh((h + h.conj().T) / 2)
        acc += float(w.min()) + float(np.einsum("ab,ba->", h, a).real) + float(np.trace(h).real)
        acc += sum({i: i * i for i in range(8)}.values())
    return acc


def _blas_chunk() -> float:
    return float((_DENSE @ _DENSE)[0, 0].real)


CHUNKS = {"interp": _interp_chunk, "blas": _blas_chunk}
# Roughly the fastest the chunks ran (their 5th percentiles) on the 2-vCPU
# Xeon host the benchmark was tuned on. Any fixed value would do: only
# ratios between runs of this benchmark are compared.
NOMINAL_S = {"interp": 0.6e-3, "blas": 0.6e-3}
# Interval between chunks on the timer; a chunk takes 0.5 to 1 ms, so the
# reference takes 12 to 25% of the run.
PERIOD_S = 0.004


class Reference:
    """Times reference chunks of one kind and gives the host-speed scale."""

    def __init__(self, kind: str):
        self.kind = kind
        self._chunk = CHUNKS[kind]
        self.starts: list[float] = []
        self.times: list[float] = []
        self._running = False
        self._chunk()  # first call pays for lazy set-up in numpy

    def run_once(self) -> None:
        if self._running:  # a timer signal that arrived during a chunk
            return
        self._running = True
        start = perf_counter()
        self._chunk()
        self.times.append(perf_counter() - start)
        self.starts.append(start)
        self._running = False

    def run_for(self, seconds: float, at_least: int = 20) -> None:
        deadline = perf_counter() + seconds
        while len(self.times) < at_least or perf_counter() < deadline:
            self.run_once()

    @contextmanager
    def sampling(self):
        """Run a chunk every ``PERIOD_S`` of wall time while inside."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.run_once())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, first: int, start: float, end: float) -> float:
        """Seconds of chunks from number ``first`` on that ran within [start, end].

        A chunk runs between two bytecodes of the code it interrupts, so it
        lies wholly inside or wholly outside any interval that code timed.
        """
        return sum(t for s, t in zip(self.starts[first:], self.times[first:])
                   if start <= s and s + t <= end)

    def mean_s(self) -> float:
        """Mean chunk time without the fastest and the slowest tenth."""
        ordered = sorted(self.times)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    def scale(self) -> float:
        """Factor that turns a time measured now into one at nominal speed."""
        return NOMINAL_S[self.kind] / self.mean_s()
