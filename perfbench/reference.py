"""A fixed piece of pure-Python work that measures how fast the machine runs now.

On a shared virtual machine the speed of the same work drifts by 15-40 %
within seconds and between minutes, whatever process runs it. The
benchmark times ``reference_work`` a few times just before every
operation, and a ``Sampler`` times it every SAMPLE_INTERVAL_S of CPU time
while the operation runs. Each operation is scaled to a machine on which
``reference_work`` takes REFERENCE_S seconds, by the median of the timings
taken before, during and just after it. Since they run in the same process
as the operation and at the same moments, the drift cancels and what is
left is the cost of the operation itself.

The reference uses only the standard library, never the package, so a
change to the package cannot change its time. It does what the package
spends its time on: exact fractions, tuple permutations and dictionary
accumulation. The garbage collector is off while it runs, so that the size
of the package's heap does not leak into it.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from statistics import median
from time import perf_counter

# Seconds reference_work takes on the machine the scaled times refer to;
# about its time on a quiet 2-vCPU virtual machine.
REFERENCE_S = 0.0025
# Seconds of CPU time between two timings while an operation runs.
SAMPLE_INTERVAL_S = 0.1
# Timings taken before each operation.
TIMINGS_BEFORE = 4

_PERMS = tuple(tuple((i * k + k // 2) % 7 for i in range(7)) for k in range(1, 7))


def reference_work() -> Fraction:
    total: dict[tuple[int, ...], Fraction] = {}
    word = tuple(range(7))
    coeff = Fraction(1)
    for step in range(250):
        p = _PERMS[step % len(_PERMS)]
        word = tuple(word[i] for i in p)
        coeff = coeff * Fraction(step % 5 + 1, step % 3 + 2) + Fraction(1, step + 1)
        coeff = Fraction(coeff.numerator % 1009, coeff.denominator % 997 + 1)
        total[word] = total.get(word, 0) + coeff
    return sum(total.values(), Fraction(0))


def time_reference() -> tuple[float, float]:
    """(start, seconds) of one call of reference_work, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return start, perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_median(count: int = 9) -> float:
    """Median seconds of `count` calls of reference_work, after one to warm up."""
    time_reference()
    return median(time_reference()[1] for _ in range(count))


class Sampler:
    """Timings of reference_work, taken on request and from a CPU-time timer.

    While active, SIGPROF interrupts the program every SAMPLE_INTERVAL_S of
    CPU time and the handler times reference_work once. ``timings`` holds
    (start, seconds) of every timing in the order taken.
    """

    def __init__(self) -> None:
        self.timings: list[tuple[float, float]] = []

    def _on_timer(self, _signum, _frame) -> None:
        self.timings.append(time_reference())

    def take(self, count: int) -> None:
        for _ in range(count):
            self.timings.append(time_reference())

    def __enter__(self) -> "Sampler":
        time_reference()  # the first call in an interpreter is slower
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)


def time_operation(sampler: Sampler, run):
    """Run `run()` between reference timings.

    Returns (result, exception raised or None, seconds the operation took
    without the timings taken during it, start of the timings before it).
    The caller closes the last window with ``sampler.take(TIMINGS_BEFORE)``
    and reads the clock after it.
    """
    window_start = perf_counter()
    sampler.take(TIMINGS_BEFORE)
    first = len(sampler.timings)
    result = raised = None
    start = perf_counter()
    try:
        result = run()
    except Exception as exc:  # the caller counts it as a failure
        raised = exc
    end = perf_counter()
    during = sum(seconds for at, seconds in sampler.timings[first:] if start <= at < end)
    return result, raised, end - start - during, window_start


def operation_references(timings, window_starts, end) -> list[float]:
    """Median reference timing of each operation's window.

    The window of operation k holds every timing from the start of those
    taken before it up to the start of those taken before operation k + 1
    (or up to `end` for the last), plus the first TIMINGS_BEFORE timings
    after that: the timings before, during and just after the operation.
    """
    bounds = list(window_starts[1:]) + [end]
    refs = []
    for k, lo in enumerate(window_starts):
        hi = bounds[k]
        inside = [seconds for start, seconds in timings if lo <= start < hi]
        later = [seconds for start, seconds in timings if start >= hi][:TIMINGS_BEFORE]
        refs.append(median(inside + later))
    return refs


def scaled(latencies: list[float], references: list[float]) -> list[float]:
    """Each latency at reference speed, given its operation's median reference timing."""
    return [t * REFERENCE_S / ref for t, ref in zip(latencies, references)]
