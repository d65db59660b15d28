"""Process CPU time rescaled to a reference host speed.

On a shared VM the speed of a vCPU flips between a fast and a slow
level (about 1.7x apart) every second or so, most likely as neighbours
load the physical core under it, and the share of time spent slow
drifts over minutes.  Process CPU time follows it; ``/proc/stat`` shows no steal
while it happens.  A :class:`HostClock` therefore cuts the timed work
into short *slices* (~0.1 s, shorter than the flips) and runs a short,
fixed pure-Python *burst* after each one.  A slice's CPU time is
rescaled by ``REF_BURST_S / b``, where ``b`` is the mean CPU time of the
bursts on either side of it, so a slice that ran while the core was slow
is scaled back by about the factor it was slow by.  ``REF_BURST_S`` is
the burst's time at the fast level, so rescaled times read as CPU
seconds on an uncontended core.

The burst is benchmark code, not simulator code, so a change to the
simulator cannot move it.  It allocates nothing the garbage collector
tracks, so a collection never lands inside it.
"""

from __future__ import annotations

from time import process_time

#: CPU seconds of one burst at the fast level (2-vCPU Xeon VM, CPython 3)
REF_BURST_S = 0.0045
#: passes of the burst's inner loop
BURST_PASSES = 500


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key: int) -> None:
        self.key = key
        self.weight = key * 3


_CELLS = [_Cell(i) for i in range(64)]
#: reused by every burst, so a burst allocates no container (a fresh
#: dict could trip a garbage collection inside the timed loop)
_TABLE: dict[int, int] = {}


def burst() -> float:
    """CPU seconds of one fixed burst: attribute reads, dict updates,
    small-int arithmetic (the interpreter work the simulator does)."""
    table = _TABLE
    table.clear()
    started = process_time()
    acc = 0
    for rep in range(BURST_PASSES):
        for cell in _CELLS:
            key = (cell.key + rep) & 255
            table[key] = table.get(key, 0) + cell.weight
            acc += len(table) & 7
    return process_time() - started


class HostClock:
    """Times slices of work in reference-speed CPU seconds."""

    def __init__(self) -> None:
        #: CPU seconds of every burst so far (how slow the host ran)
        self.bursts = [burst()]
        self.started = process_time()

    def restart(self) -> None:
        """Start a slice now (discarding the time since the last lap)."""
        self.started = process_time()

    def raw(self) -> float:
        """Raw CPU seconds of the open slice so far."""
        return process_time() - self.started

    def lap(self) -> tuple[float, float]:
        """Close the open slice and start the next one.

        Returns the slice's raw CPU seconds and the factor that rescales
        them to the reference speed.
        """
        raw = process_time() - self.started
        after = burst()
        scale = REF_BURST_S / ((self.bursts[-1] + after) / 2)
        self.bursts.append(after)
        self.started = process_time()
        return raw, scale

    def time(self, fn) -> tuple[float, object]:
        """Run ``fn`` as one slice: (reference-speed CPU-s, its value)."""
        self.restart()
        value = fn()
        raw, scale = self.lap()
        return raw * scale, value

    def advance(self, sim, end: int, step: int) -> float:
        """Advance ``sim`` to cycle ``end`` in slices of ``step`` cycles;
        returns the reference-speed CPU-s of the slices."""
        seconds = 0.0
        self.restart()
        while sim.network.cycle < end:
            sim.advance_to(min(sim.network.cycle + step, end))
            raw, scale = self.lap()
            seconds += raw * scale
        return seconds
