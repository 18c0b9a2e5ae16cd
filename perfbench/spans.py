"""In-memory span tracer for the benchmark's traced run.

A span is one call of a wrapped function: its layer name, start and end
(perf_counter seconds), the span that was open when it started, and the run
id of the unit of work it belongs to. Spans are appended to flat arrays while
the run goes on and reduced to per-layer counts and self times at the end.
This module knows nothing about polarlink; `layers.py` decides what to wrap.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

ResultHook = Callable[["Tracer", tuple, object], None]


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Children of one span run one after another inside it (a single thread),
    so the part they cover is the sum of their durations.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered


class Tracer:
    """Records spans of wrapped callables and counters set by result hooks."""

    def __init__(self):
        self.names: list = []
        self._ids: Dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._open: list = []

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, func: Callable, on_result: Optional[ResultHook] = None) -> Callable:
        """A stand-in for func that records one span per call.

        An exception raised by func ends the span, counts `<name>.raised`
        and propagates unchanged. on_result sees the arguments and the
        return value after the span has ended.
        """
        lid = self.layer_id(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(lid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.counters[name + ".raised"] += 1
                raise
            finally:
                self.end[idx] = clock()
                self._open.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, bindings: Iterable[Tuple[object, str, Callable]]):
        """Set each (namespace, attribute) to its wrapper; restore on exit."""
        saved = []
        try:
            for namespace, attr, wrapper in bindings:
                saved.append((namespace, attr, getattr(namespace, attr)))
                setattr(namespace, attr, wrapper)
            yield
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)

    def arrays(self):
        """(layer, parent, run, start, end) as numpy arrays."""
        return (np.frombuffer(self.layer, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.run, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, total (inclusive) seconds and self seconds."""
        layer, parent, _, start, end = self.arrays()
        n = len(self.names)
        calls = np.bincount(layer, minlength=n)
        total = np.bincount(layer, weights=end - start, minlength=n)
        own = np.bincount(layer, weights=self_times(start, end, parent), minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def calls_under(self, child: str, parent_layer: str) -> int:
        """Number of `child` spans whose direct parent is a `parent_layer` span."""
        if child not in self._ids or parent_layer not in self._ids:
            return 0
        layer, parent, _, _, _ = self.arrays()
        mine = (layer == self._ids[child]) & (parent >= 0)
        return int(np.sum(layer[parent[mine]] == self._ids[parent_layer]))
