"""In-memory span recorder and reversible function patching.

A span is (name, start, end, parent); the parent is the span that was open
when this one began, so nesting follows the call stack of one thread. Spans
are appended to flat arrays while the program runs and analysed afterwards.
A span's self time is its duration minus the durations of its direct
children, which nest inside it and do not overlap one another.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """Collects spans and counters from wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._stack: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call under ``name``.

        ``count(counts, args, kwargs, result, error)`` runs after the span
        closes, with ``error`` set when ``fn`` raised.
        """
        name_id = self._name_id(name)
        clock, stack = self._clock, self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(float("nan"))
            stack.append(index)
            starts.append(clock())
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                ends[index] = clock()
                stack.pop()
                if count is not None:
                    count(counts, args, kwargs, result, error)

        traced.__wrapped_by_tracer__ = True
        return traced

    def arrays(self):
        """(names, name_ids, parents, starts, ends) as numpy arrays."""
        return (list(self.names), np.frombuffer(self.name_ids, dtype=np.int32).copy(),
                np.frombuffer(self.parents, dtype=np.int32).copy(),
                np.frombuffer(self.starts, dtype=np.float64).copy(),
                np.frombuffer(self.ends, dtype=np.float64).copy())

    def save(self, path):
        names, name_ids, parents, starts, ends = self.arrays()
        np.savez_compressed(path, names=np.asarray(names), name_ids=name_ids,
                            parents=parents, starts=starts, ends=ends)


def self_times(parents, starts, ends) -> np.ndarray:
    """Duration of each span minus the total duration of its direct children."""
    parents = np.asarray(parents)
    durations = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    child = parents >= 0
    covered = np.bincount(parents[child], weights=durations[child],
                          minlength=durations.size)
    return durations - covered


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attribute: str, value):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def restore(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
