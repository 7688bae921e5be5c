"""Machine-speed sampling, so that timings can be normalised.

On a small virtual machine that shares its host's cores the same code
runs at two speeds: a fixed kernel takes about 55 us while the host core
is otherwise idle and 75-90 us while a neighbour uses it, switching every
few seconds. Raw wall times of identical work then spread by 10-30% from
run to run. A ``Sampler`` runs that kernel from a SIGALRM handler every
10 ms while the measured code runs (under 1% overhead) and reports how much
slower than nominal the machine ran over an interval. Dividing a wall time
by that factor gives the time the work would take at the nominal speed.

Python runs the handler between bytecodes of the main thread, so samples
land inside the measured calls and follow speed changes within them; a
long native call only delays the next sample.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
# The kernel's time at full speed on the reference machine (Xeon, KVM,
# 2 vCPUs): about the 5th percentile of its samples there.
NOMINAL_S = 55e-6


def _kernel() -> float:
    total = 0.0
    for j in range(1000):
        total += j * 0.5
    return total


class Sampler:
    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, since: int = 0) -> float:
        """Mean kernel time since ``mark()`` returned ``since``, over nominal."""
        taken = self.samples[since:]
        return statistics.fmean(taken) / NOMINAL_S if taken else 1.0
