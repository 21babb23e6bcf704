"""Calibration kernel: the unit ``ref`` of every ``cost_ref`` figure.

The kernel is fixed pure-Python work with the operation mix of the
program's hot paths: composing degree-100 permutations stored as image
tuples and checking that each product is a bijection (what
``Permutation.__mul__`` and the constructor it calls do), and inserting
each product into a dict (what ``PermGroup.element_index`` does).  The
bijection check is kept because it makes the kernel's speed follow the
program's: without it, passes run mostly at the machine's faster speed
level read about 12% more ``ref`` than passes run at the slower one, with
it about 10%.  A run divides job seconds
by the kernel's time, sampled around and during every job, so a slow or
fast phase of the machine scales both alike, while a program that does
half the work still reads half.

Editing ``kernel`` changes the unit.  Its source hash is pinned in
``calibration.sha256`` beside this file, and the self-tests compare the two.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import signal
import time

DEGREE = 100
STEPS = 400


def kernel() -> int:
    """Compose ``STEPS`` degree-100 permutations, keeping each in a dict.

    Returns the number of distinct products, which is ``STEPS``.
    """
    cycle = tuple(range(2, DEGREE + 1)) + (1,)
    swap = (2, 1) + tuple(range(3, DEGREE + 1))
    seen = {}
    x = cycle
    for i in range(STEPS):
        g = swap if i % 7 == 0 else cycle
        x = tuple(g[p - 1] for p in x)
        if sorted(x) != list(range(1, DEGREE + 1)):
            return -1
        seen[x] = i
    return len(seen)


def kernel_sha256() -> str:
    return hashlib.sha256(inspect.getsource(kernel).encode()).hexdigest()


def sample(out: list, count: int) -> None:
    """Append ``count`` kernel timings (seconds) to ``out``.

    The cyclic collector is held off while sampling, so a collection owed
    to the program's garbage is not billed to the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            t0 = time.perf_counter()
            n = kernel()
            out.append(time.perf_counter() - t0)
            if n != STEPS:
                raise RuntimeError(f"calibration kernel made {n} products")
    finally:
        if enabled:
            gc.enable()


class DuringJob:
    """Kernel samples taken while a job runs, from a wall-clock timer signal.

    The handler runs between the job's bytecodes, so samples land on the
    same seconds of machine time that the job gets.  ``spent`` is the time
    the handler took, for the caller to take off the job's wall time;
    ``on_sample`` hears each sample's time as it is taken.
    """

    def __init__(self, out: list, interval: float, on_sample=None):
        self.out = out
        self.interval = interval
        self.on_sample = on_sample
        self.spent = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        sample(self.out, 1)
        seconds = time.perf_counter() - t0
        self.spent += seconds
        if self.on_sample is not None:
            self.on_sample(seconds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
