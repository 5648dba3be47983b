"""Core-speed sampling, to take the host's speed swings out of item times.

On a shared host the speed of one core swings by up to a factor of two,
over periods from a tenth of a second to tens of seconds: a fixed loop of
pure Python took between 1.0 and 2.1 times its best time when timed every
0.1 s for 90 s on a 2-vCPU Xeon virtual machine, and one corpus pass took
between 8.4 and 12.7 s there within a few minutes.  Raw item times then
spread between runs by more than any bound the benchmark could set.

A ``Speedometer`` times a fixed chunk of pure-Python dict and integer work
(``chunk``, which shares no code with ginlab, so a change to ginlab cannot
move it): once before and once after each item, and from a ``SIGVTALRM``
handler after every ``INTERVAL_S`` of the process's CPU time while the item
runs.  ``clock`` is the wall clock less all that sampling.  ``normalize``
takes an item's time on that clock and scales it by ``REFERENCE_S`` over the mean chunk around and during the
item.  The result is the item's time on a reference core, one on which the
chunk takes ``REFERENCE_S``: about its best time on the machine above under
Python 3.11.  Over short stretches the chunk's time tracks that of
``IntRank.add`` to within about 3%.
"""

import signal
import time

INTERVAL_S = 0.02
REFERENCE_S = 170e-6

_ROW = {c: (c * 7919) % 65537 - 32768 for c in range(48)}


def chunk():
    """Seconds taken by a fixed piece of dict and integer work (~0.2 ms)."""
    t0 = time.perf_counter()
    row, out = _ROW, {}
    for _ in range(30):
        for c, v in row.items():
            s = 3 * v - 5 * row.get(c ^ 1, 0)
            if s:
                out[c] = s
    return time.perf_counter() - t0


class Speedometer:
    """Chunk timings around and during measured calls, for one run."""

    def __init__(self):
        self.samples = []
        self._sampling_s = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append(chunk())
        self._sampling_s += time.perf_counter() - t0

    def clock(self):
        """Wall-clock seconds less the time spent sampling."""
        return time.perf_counter() - self._sampling_s

    def measure(self, fn, *args):
        """(fn's result, seconds less the sampling, mean chunk seconds)."""
        first = len(self.samples)
        self._sample()
        previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        t0 = self.clock()
        try:
            result = fn(*args)
        finally:
            elapsed = self.clock() - t0
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)
        self._sample()
        around = self.samples[first:]
        return result, elapsed, sum(around) / len(around)


def normalize(seconds, pace):
    """Seconds measured at a mean chunk time of pace, on the reference core."""
    return seconds * REFERENCE_S / pace
