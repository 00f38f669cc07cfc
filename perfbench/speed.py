"""Machine-speed sampling, so that op times can be compared across runs.

On a shared VM the speed of interpreter-bound code drifts as other
tenants load the same cores: on the 2-vCPU x86_64 VM this benchmark
was written on, a fixed pure-Python loop ran up to 1.7x slower for
stretches of tens of milliseconds to tens of seconds. Wall times follow
that drift, so two runs of the same code can differ by more than any
useful regression bound.

A ``Sampler`` measures the drift while the timed code runs: an interval
timer interrupts it every ``interval`` seconds and runs ``kernel``, a
fixed pure-Python loop that allocates no container, so that it neither
triggers nor pays for the timed code's garbage collections. The mean
kernel time over a span, against ``KERNEL_REF_S``, is the span's
slowdown. The handler's own time is taken out of the span, so

    reference seconds = (wall seconds - handler seconds) / slowdown

is the span's time on a machine where the kernel takes KERNEL_REF_S.
The kernel is independent of prodval, so a change to prodval moves the
reference time as much as it moves the wall time."""

from __future__ import annotations

import signal
from time import perf_counter

# About the seconds of one kernel() call on an uncontended 2-vCPU
# x86_64 VM (Python 3.11); it only fixes the scale of reference seconds.
KERNEL_REF_S = 0.001


# Read by kernel(); built once, so that the kernel allocates no
# container and so never triggers or pays for a garbage collection.
_TABLE = {k: 1.0 + k / 64.0 for k in range(64)}


def kernel() -> float:
    """Seconds taken by a fixed piece of integer, dict-lookup and float
    work."""
    t0 = perf_counter()
    table = _TABLE
    x = 0.5
    n = 0
    for i in range(6000):
        k = (i * 7) & 63
        x = x * 0.999 + table[k] / (1 + (i % 5))
        n += k ^ (i & 15)
    return perf_counter() - t0


class Sampler:
    """Runs ``kernel`` every ``interval`` seconds of the enclosed code,
    on SIGALRM in the main thread. Not reentrant; one at a time."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples = []
        self.handler_s = 0.0

    def _tick(self, *_):
        t0 = perf_counter()
        self.samples.append(kernel())
        self.handler_s += perf_counter() - t0

    def __enter__(self):
        self.samples.clear()
        self.handler_s = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:
            # A span shorter than the interval is scaled by one sample
            # taken right after it.
            self.samples.append(kernel())
        return False

    def slowdown(self) -> float:
        """Mean kernel seconds over KERNEL_REF_S."""
        return sum(self.samples) / len(self.samples) / KERNEL_REF_S

    def reference_seconds(self, wall_s: float) -> float:
        """``wall_s`` of the enclosed code, less the handler's time, at
        reference speed."""
        return (wall_s - self.handler_s) / self.slowdown()


def warm(n: int = 20) -> None:
    """Runs the kernel a few times, so that its first sampled call is
    not slower than the rest."""
    for _ in range(n):
        kernel()


def time_import(name: str, interval: float, bracket: int = 10) -> tuple:
    """Imports top-level module ``name`` under a Sampler, which also
    takes ``bracket`` samples just before and just after the import, as
    an import gives the timer few chances to run. Returns the module and
    the import's wall and reference seconds."""
    warm()
    before = [kernel() for _ in range(bracket)]
    sampler = Sampler(interval)
    with sampler:
        t0 = perf_counter()
        module = __import__(name)
        wall = perf_counter() - t0
    sampler.samples += before + [kernel() for _ in range(bracket)]
    return module, wall, sampler.reference_seconds(wall)
