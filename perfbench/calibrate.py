"""CPU time expressed at a fixed host speed.

On a shared virtual machine the same code runs up to 1.8x slower, for
minutes at a time, while neighbours load the host, and the slowdown shows in
CPU time as well as in wall time. ``SpeedClock`` corrects for it while a
measured step runs: a profiling timer interrupts the program every
``interval_s`` of CPU time, and the handler times a fixed probe. Each slice of
program CPU time between two probes is scaled by ``REFERENCE_PROBE_S / probe
time``, i.e. expressed at the host speed at which the probe takes exactly
``REFERENCE_PROBE_S``. The probes' own CPU time is left out of both totals.

The probes imitate what hetmix spends its time on: ``python_probe`` builds
small objects and calls functions, ``mixed_probe`` adds small-array numpy
calls. ``python_probe`` imports nothing, so it can time an import without
taking part in it. Both take about ``REFERENCE_PROBE_S`` on an idle core of
the machine this benchmark was built on.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_PROBE_S = 1e-3


class _Cell:
    __slots__ = ("value", "weight")

    def __init__(self, value, weight):
        self.value = value
        self.weight = weight


def _score(cell, scale):
    return cell.value * scale + cell.weight


def _python_work(rounds: int) -> int:
    table: dict = {}
    kept = []
    for i in range(rounds):
        table[i & 63] = _score(_Cell(float(i), 0.5), 1.5)
        kept.append(table.get(i & 31, 0.0))
    return len(kept)


def _numpy_work(rounds: int) -> float:
    import numpy as np

    levels = np.linspace(0.0, 1.0, 8)
    picks = np.array([1, 3, 5])
    total = 0.0
    for _ in range(rounds):
        masses = np.exp(levels - levels.max())
        total += float(masses[picks].sum()) + float(np.log1p(masses).sum())
    return total


def python_probe():
    """About 1 ms of pure-Python object, call and dict work."""
    _python_work(1350)


def mixed_probe():
    """About 1 ms: half pure-Python work, half small-array numpy calls."""
    _python_work(500)
    _numpy_work(60)


class SpeedClock:
    """Context manager measuring the enclosed code's CPU time, raw and scaled.

    After exit, ``cpu_s`` is the program's CPU time without the probes,
    ``ref_cpu_s`` the same time at reference speed, and ``probe_s`` the
    probe durations. The slice after the last probe is scaled by the median
    probe; a step too short for any probe gets one probe at exit.
    """

    def __init__(self, probe, interval_s: float):
        self.probe = probe
        self.interval_s = interval_s
        self.cpu_s = 0.0
        self.ref_cpu_s = 0.0
        self.probe_s: list = []
        self._mark = 0.0
        self._busy = False
        self._previous = None

    def _slice(self, program_s: float, probe_s: float):
        self.cpu_s += program_s
        self.ref_cpu_s += program_s * REFERENCE_PROBE_S / probe_s

    def _run_probe(self) -> float:
        start = time.thread_time()
        self.probe()
        spent = time.thread_time() - start
        self.probe_s.append(spent)
        return spent

    def _on_timer(self, signum, frame):
        if self._busy:  # a signal arriving while a probe runs is dropped
            return
        self._busy = True
        program_s = time.thread_time() - self._mark
        self._slice(program_s, self._run_probe())
        self._mark = time.thread_time()
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        self._mark = time.thread_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        tail = time.thread_time() - self._mark
        signal.signal(signal.SIGPROF, self._previous)
        if not self.probe_s:
            self._run_probe()
        self._slice(tail, statistics.median(self.probe_s))
        return False
