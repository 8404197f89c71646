"""Per-layer spans recorded from benchmark code, and their self times.

The traced pass wraps public methods of each layer at class level, so
instances built later (recovery rebuilds samplers) are covered too, and
nothing under ``src/`` changes.  Each call becomes one span: id, parent
(the innermost open span on the same thread, 0 for none), name, thread,
start and end in ``perf_counter_ns``, root (the outermost open span on
that thread: the request the call serves) and the bits the call
handled.  Spans are kept in memory in one flat ``array('q')`` and
written out once, at the end.

A span's self time is its duration minus the part of it that its child
spans on the same thread cover.  A child on another thread runs
concurrently and is not subtracted.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Fields of one span, in column order.
FIELDS = ("id", "parent", "name", "thread", "start_ns", "end_ns", "root", "bits")

Table = Dict[str, np.ndarray]
BitsOf = Callable[..., int]


def _no_bits(*args: object, **kwargs: object) -> int:
    return 0


class SpanRecorder:
    """Wraps methods at class level and records one span per call."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._columns = array("q")
        self._names: List[str] = []
        self._patched: List[Tuple[type, str, object]] = []

    def _code(self, name: str) -> int:
        if name not in self._names:
            self._names.append(name)
        return self._names.index(name)

    def _open(self) -> Tuple[list, int, int, int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        root = stack[0] if stack else span_id
        stack.append(span_id)
        return stack, span_id, parent, root

    def _close(self, opened: Tuple[list, int, int, int], code: int, start: int, bits: int) -> None:
        end = time.perf_counter_ns()
        stack, span_id, parent, root = opened
        stack.pop()
        self._columns.extend(
            (span_id, parent, code, threading.get_ident(), start, end, root, bits)
        )

    def _replace(self, owner: type, attr: str, timed: Callable[..., object]) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, timed)

    def wrap(self, owner: type, attr: str, name: str, bits_of: BitsOf = _no_bits) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``."""
        fn = owner.__dict__[attr]
        code = self._code(name)

        @functools.wraps(fn)
        def timed(*args: object, **kwargs: object) -> object:
            opened = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(opened, code, start, bits_of(*args, **kwargs))

        self._replace(owner, attr, timed)

    def wrap_enter(self, owner: type, attr: str, name: str, bits_of: BitsOf = _no_bits) -> None:
        """Time only the ``__enter__`` of the context manager ``owner.attr`` returns."""
        fn = owner.__dict__[attr]
        code = self._code(name)
        recorder = self

        class EnterTimed:
            def __init__(self, manager: object, bits: int) -> None:
                self._manager = manager
                self._bits = bits

            def __enter__(self) -> object:
                opened = recorder._open()
                start = time.perf_counter_ns()
                try:
                    return self._manager.__enter__()
                finally:
                    recorder._close(opened, code, start, self._bits)

            def __exit__(self, *exc_info: object) -> object:
                return self._manager.__exit__(*exc_info)

        @functools.wraps(fn)
        def timed(*args: object, **kwargs: object) -> EnterTimed:
            return EnterTimed(fn(*args, **kwargs), bits_of(*args, **kwargs))

        self._replace(owner, attr, timed)

    def uninstall(self) -> None:
        """Put every wrapped method back."""
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    @property
    def names(self) -> Sequence[str]:
        """Span names, indexed by the ``name`` column's codes."""
        return tuple(self._names)

    def table(self) -> Table:
        """The recorded spans as one int64 array per field."""
        rows = np.array(self._columns, dtype=np.int64).reshape(-1, len(FIELDS))
        return {field: rows[:, i].copy() for i, field in enumerate(FIELDS)}

    def write_jsonl(self, path: str, origin_ns: int = 0) -> None:
        """Write one JSON record per span.

        Times are written relative to ``origin_ns`` and threads as their
        order of first appearance, which keeps the file readable.
        """
        table = self.table()
        threads: Dict[int, int] = {}
        with open(path, "w") as handle:
            for row in zip(*(table[field].tolist() for field in FIELDS)):
                record = dict(zip(FIELDS, row))
                record["name"] = self._names[record["name"]]
                record["thread"] = threads.setdefault(record["thread"], len(threads))
                record["start_ns"] -= origin_ns
                record["end_ns"] -= origin_ns
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def self_times(table: Table) -> np.ndarray:
    """Each span's duration minus what its same-thread children cover.

    Children are clipped to their parent's interval.  A parent absent
    from the table (still open when recording stopped) is ignored.
    """
    ids, parents, threads = table["id"], table["parent"], table["thread"]
    starts, ends = table["start_ns"], table["end_ns"]
    covered = np.zeros(ids.size, dtype=np.int64)
    if ids.size:
        position = np.full(int(max(ids.max(), parents.max())) + 1, -1, dtype=np.int64)
        position[ids] = np.arange(ids.size)
        child = np.nonzero(parents > 0)[0]
        parent = position[parents[child]]
        keep = parent >= 0
        child, parent = child[keep], parent[keep]
        keep = threads[child] == threads[parent]
        child, parent = child[keep], parent[keep]
        overlap = np.minimum(ends[child], ends[parent]) - np.maximum(starts[child], starts[parent])
        np.add.at(covered, parent, np.maximum(overlap, 0))
    return np.maximum(ends - starts - covered, 0)


def summarize(table: Table, names: Sequence[str]) -> Dict[str, Dict[str, int]]:
    """Per span name: calls, bits, and total and self nanoseconds."""
    selfs = self_times(table)
    out: Dict[str, Dict[str, int]] = {}
    for code, name in enumerate(names):
        mask = table["name"] == code
        out[name] = {
            "calls": int(mask.sum()),
            "bits": int(table["bits"][mask].sum()),
            "total_ns": int((table["end_ns"][mask] - table["start_ns"][mask]).sum()),
            "self_ns": int(selfs[mask].sum()),
        }
    return out


def layer_self_ns(table: Table, names: Sequence[str], thread: int) -> Dict[str, int]:
    """Self nanoseconds per layer, counting only the spans of ``thread``."""
    selfs = self_times(table)
    on_thread = table["thread"] == thread
    totals: Dict[str, int] = {}
    for code, name in enumerate(names):
        layer = name.split(":", 1)[0]  # "core.drange:prepare" -> "core.drange"
        mask = on_thread & (table["name"] == code)
        totals[layer] = totals.get(layer, 0) + int(selfs[mask].sum())
    return totals


def root_ns(table: Table, thread: int) -> int:
    """Time ``thread`` spent inside its root spans (calls into any wrapped layer)."""
    mask = (table["thread"] == thread) & (table["parent"] == 0)
    return int((table["end_ns"][mask] - table["start_ns"][mask]).sum())
