"""Span tracing from outside the simulator.

:class:`Tracer` wraps public class methods for as long as it is
installed.  Every call becomes a span — name, start, end and the span
that was open when it began — kept in compact in-memory arrays and
written out once, at the end of the run, by :meth:`Tracer.write`.

Spans use ``perf_counter_ns``: a span costs two clock reads, and the
CPU-time clock is a system call on Linux.  End-to-end figures never come
from a traced run.
"""

from __future__ import annotations

import gzip
import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Optional


class Tracer:
    """Records one span per call of each wrapped method."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: per span: name id, start, end, parent span index (-1 = root)
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        #: counter name -> count, fed by the ``tally`` hooks of wrap()
        self.tallies: dict[str, int] = {}
        self._patched: list[tuple[type, str, object]] = []

    # -- installation ------------------------------------------------------
    def wrap(
        self,
        cls: type,
        attr: str,
        name: str,
        tally: Optional[tuple[str, Callable[..., bool]]] = None,
    ) -> None:
        """Record a span named ``name`` around every ``cls.attr`` call.

        ``tally=(counter, predicate)`` also counts the calls for which
        ``predicate(*args)`` holds when the call starts.
        """
        original = cls.__dict__[attr]
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack
        spans_name, spans_start = self.name_id, self.start
        spans_end, spans_parent = self.end, self.parent
        tallies = self.tallies
        if tally is not None:
            tallies.setdefault(tally[0], 0)

        def traced(*args, **kwargs):
            index = len(spans_start)
            spans_name.append(name_id)
            spans_parent.append(stack[-1] if stack else -1)
            spans_end.append(0)
            if tally is not None and tally[1](*args):
                tallies[tally[0]] += 1
            stack.append(index)
            spans_start.append(perf_counter_ns())
            try:
                return original(*args, **kwargs)
            finally:
                spans_end[index] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = original
        setattr(cls, attr, traced)
        self._patched.append((cls, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped method (idempotent)."""
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unwrap()

    # -- analysis ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` (duration
        minus the durations of the span's direct children)."""
        count = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(count)]
        child_ns = [0] * count
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                child_ns[parent] += durations[i]
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for i in range(count):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["total_s"] += durations[i] / 1e9
            row["self_s"] += (durations[i] - child_ns[i]) / 1e9
        return out

    def write(self, path: Path, header: dict) -> Path:
        """Write the spans as gzipped JSON lines: one header object, then
        one ``[index, name, start_ns, end_ns, parent]`` array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(
                json.dumps(
                    {
                        **header,
                        "clock": "perf_counter_ns",
                        "fields": ["index", "name", "start_ns", "end_ns",
                                   "parent"],
                        "spans": len(self),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f'[{i},"{names[self.name_id[i]]}",{self.start[i]},'
                    f"{self.end[i]},{self.parent[i]}]\n"
                )
        return path
