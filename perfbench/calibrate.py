"""A fixed unit of pure-Python work that measures the machine's current speed.

On a shared machine the speed of one core can change by a factor of two
within seconds, so a time measured on its own says as much about the
neighbours as about the program. The benchmark therefore runs this unit
of work around and during every timed phase and reports the phase's time
at the reference speed ``UNIT_REFERENCE_NS``:

- ``sample`` runs SAMPLE_UNITS units right before and after a phase;
- ``Ticker`` runs one unit from a SIGALRM handler every TICK_S seconds
  while the phase runs, so that a phase of many seconds is sampled inside,
  not only at its ends.

``speed`` gives every sample of a phase one vote. The tick time is
subtracted from the phase's time before it is scaled.

The unit mirrors the program's hot loop without calling it: breadth-first
closure of a permutation group (the symmetric group S6 acting on the 30
ordered pairs of 6 points, 720 elements), with tuple composition and bytes
keys. A smaller group (S5, 120 elements) tracked the program worse: scaled
by it, the warm ``survey`` pass varied twice as much as with S6, because a
unit whose data fits the first-level cache slows down more than the
program when a neighbour shares the core.
"""

from __future__ import annotations

import itertools
import signal
import time

# Time of one unit at the reference speed. The value only fixes the unit of
# the reported times: on a 2-core x86-64 VM (Intel Xeon, Python 3.11.7) a
# unit took 2.6 to 4.2 ms, as the neighbours' load changed.
UNIT_REFERENCE_NS = 3_000_000
SAMPLE_UNITS = 10
TICK_S = 0.1

_POINTS = tuple(itertools.permutations(range(6), 2))
_INDEX = {p: i for i, p in enumerate(_POINTS)}


def _on_pairs(images: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_INDEX[(images[a], images[b])] for a, b in _POINTS)


_GENERATORS = (_on_pairs((1, 0, 2, 3, 4, 5)), _on_pairs((1, 2, 3, 4, 5, 0)))


def _unit() -> None:
    identity = tuple(range(len(_POINTS)))
    seen = {bytes(identity)}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for g in _GENERATORS:
                q = tuple(p[i] for i in g)
                k = bytes(q)
                if k not in seen:
                    seen.add(k)
                    new.append(q)
        frontier = new
    if len(seen) != 720:
        raise RuntimeError(f"calibration closure has order {len(seen)}, expected 720")


def _timed(units: int) -> list[int]:
    t0 = time.perf_counter_ns()
    for _ in range(units):
        _unit()
    return [units, time.perf_counter_ns() - t0]


def sample() -> list[int]:
    """[units, nanoseconds] for SAMPLE_UNITS units of work, now."""
    return _timed(SAMPLE_UNITS)


class Ticker:
    """Samples the speed from SIGALRM while a phase runs.

    Use as a context manager around the phase; ``samples`` then holds one
    [units, nanoseconds] entry per tick. ``on_tick``, if set, is called with
    each tick's nanoseconds.
    """

    def __init__(self) -> None:
        self.samples: list[list[int]] = []
        self.on_tick = None

    def _tick(self, signum, frame) -> None:
        sample = _timed(1)
        self.samples.append(sample)
        if self.on_tick is not None:
            self.on_tick(sample[1])

    def __enter__(self) -> "Ticker":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed(samples: list[list[int]]) -> float:
    """Speed relative to the reference over the given [units, ns] samples,
    from their mean time per unit: above 1 on a machine faster than the
    reference."""
    per_unit = sum(ns / units for units, ns in samples) / len(samples)
    return UNIT_REFERENCE_NS / per_unit
