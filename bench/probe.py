"""Machine-speed probe, sampled while a repetition runs.

The processor a benchmark child gets can run Python code at very
different speeds from one minute, or one second, to the next (on a
shared 2-vCPU VM a fixed loop took 12 ms in one second and 23 ms in the
next), so raw timings of one program spread by more than any useful
regression bound.  This module measures that speed alongside the
program: ``start()`` arms a real-time interval timer, and on every tick
the handler times ``_work``, a fixed basket of pure-Python work in three
about equal parts (dict lookups with integer keys, exact rational
arithmetic on integers, method calls that build small objects), which is the kind of
work crchern's layers do between numpy calls.  The mean of the samples
taken during a stretch of time, divided by ``REFERENCE_S``, is how many
times slower than reference speed the machine ran during it; ``run.py``
divides the measured times by that factor.

The basket uses nothing from crchern, so a change to the program cannot
change what it measures.  It costs about ``REFERENCE_S / INTERVAL_S``
(about 1.5%) of the measured time, alike on every commit.  Its objects
die before it returns, so it does not move the program's garbage
collections.
"""

import signal
import time
from math import gcd

INTERVAL_S = 0.01
# A round figure near the basket's duration at full speed on the 2-vCPU
# Intel Xeon VM the benchmark was written on.  It only sets the scale:
# normalized times read as seconds at the speed where a sample takes this.
REFERENCE_S = 125e-6

samples: list[float] = []


class _Counter:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def plus(self, other: "_Counter") -> "_Counter":
        return _Counter(self.value + other.value)


def _work() -> None:
    table = {}
    for i in range(300):
        key = (i * 7919) % 251
        table[key] = table.get(key, 0) + i
    num, den = 0, 1
    for i in range(1, 100):
        num, den = num * (i + 1) + i * den, den * (i + 1)
        common = gcd(num, den)
        num, den = num // common, den // common
    counter, one = _Counter(0), _Counter(1)
    for _ in range(130):
        counter = counter.plus(one)


def _probe(signum, frame) -> None:
    start = time.perf_counter()
    _work()
    samples.append(time.perf_counter() - start)


def start() -> None:
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
