"""Span recording around the program's public entry points.

The traced run installs wrappers from here; nothing inside ``src/``
changes.  Each wrapper records a span (name, start, end, parent,
thread, request id) in memory; the spans are written out once the run
ends.  ``fastq.format_read`` runs once per read, so it is aggregated
instead: each (thread, enclosing span) pair gets one span carrying the
summed busy time and the call count.

A span's self time is its duration minus the part of its interval its
child spans cover, children on other threads included.  Aggregated
children cover their busy time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

__all__ = ["Span", "SpanRecorder", "self_times", "layer_table",
           "install_wrappers", "write_spans"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    request: int | None = None
    calls: int = 1
    #: Summed time of an aggregated span; ``None`` for an interval span.
    busy: float | None = None
    #: Work counted at this boundary (reads, scores, bytes ...).
    count: int = 0

    @property
    def duration(self) -> float:
        return self.busy if self.busy is not None else self.end - self.start


class SpanRecorder:
    """Collects spans from every thread of the process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # (thread, parent id, name) -> [busy, calls, count, first, last]
        self._aggregates: dict[tuple, list] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: int | None = None, *,
             parent: int | None = None):
        """Record one interval span; yields it so callers can add counts.

        The parent defaults to the innermost open span on this thread.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        if request is None and stack:
            request = stack[-1].request
        span = Span(next(self._ids), name, self.clock(), 0.0, parent,
                    threading.current_thread().name, request)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = self.clock()
            self.spans.append(span)

    def add(self, name: str, busy: float, count: int = 0) -> None:
        """Credit one aggregated call to the innermost open span."""
        stack = self._stack()
        parent = stack[-1].id if stack else None
        key = (threading.current_thread().name, parent, name)
        now = self.clock()
        slot = self._aggregates.get(key)
        if slot is None:
            self._aggregates[key] = [busy, 1, count, now - busy, now]
        else:
            slot[0] += busy
            slot[1] += 1
            slot[2] += count
            slot[4] = now

    def finished(self) -> list[Span]:
        """Every span recorded so far, aggregated spans included."""
        spans = list(self.spans)
        for (thread, parent, name), (busy, calls, count, first, last) \
                in list(self._aggregates.items()):
            spans.append(Span(next(self._ids), name, first, last, parent,
                              thread, None, calls, busy, count))
        return spans


def write_spans(spans: list[Span], path) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(asdict(span)) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        duration = span.duration
        if span.busy is None:
            kids = children.get(span.id, ())
            clipped = [(max(c.start, span.start), min(c.end, span.end))
                       for c in kids if c.busy is None]
            covered = _union_length([iv for iv in clipped if iv[1] > iv[0]])
            covered += sum(c.busy for c in kids if c.busy is not None)
            duration = max(0.0, duration - covered)
        result[span.id] = duration
    return result


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, summed duration, self time and counts."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0, "count": 0})
        row["calls"] += span.calls
        row["total_s"] += span.duration
        row["self_s"] += own[span.id]
        row["count"] += span.count
    return table


# ----------------------------------------------------------------------
# Wrappers around the program's public entry points
# ----------------------------------------------------------------------

#: (module path, attribute path, span name, kind).  ``kind`` is "call"
#: for an interval span, "iter" for a generator timed per item,
#: "aggregate" for per-read functions, "classmethod" for classmethods.
WRAPPED = (
    ("repro.genomics.fastq", "iter_read_sets", "fastq.parse", "iter"),
    ("repro.genomics.fastq", "format_read", "fastq.render", "aggregate"),
    ("repro.mapping.kmer_index", "KmerIndex.__init__", "mapping.index",
     "call"),
    ("repro.mapping.batch", "BatchReadMapper.map_batch", "mapping.map",
     "call"),
    ("repro.core.compressor", "SAGeCompressor.compress", "encode", "call"),
    ("repro.core.quality", "compress", "quality.encode", "call"),
    ("repro.core.quality", "decompress", "quality.decode", "call"),
    ("repro.core.headers", "compress_headers", "headers.encode", "call"),
    ("repro.core.headers", "decompress_headers", "headers.decode", "call"),
    ("repro.core.container", "SAGeArchive.open", "container.open",
     "classmethod"),
    ("repro.core.container", "SAGeArchive.block", "container.parse",
     "call"),
    ("repro.core.container", "SAGeArchive.to_bytes", "container.serialize",
     "call"),
    ("repro.api.dataset", "atomic_write_bytes", "container.write", "call"),
    ("repro.core.decompressor", "SAGeDecompressor.decompress_block",
     "decode.block", "call"),
    ("repro.pipeline.executor", "StreamExecutor.run", "executor", "call"),
    ("repro.pipeline.executor", "StreamExecutor.__iter__", "executor",
     "iter"),
    ("repro.pipeline.executor", "FastqSink.consume", "sink.consume",
     "call"),
)


#: How a span's ``count`` is taken from a call's result (default: 0).
COUNTS = {"quality.decode": len, "mapping.map": len, "headers.decode": len,
          "kernel.decode": len, "container.write": int}


def _wrap_call(recorder: SpanRecorder, name: str, fn, mappers: dict):
    if name == "container.parse":
        @functools.wraps(fn)
        def parse_wrapper(self, index, *args, **kwargs):
            # Counts a real parse only: the block slot was empty on entry.
            fresh = bool(self.blocks) and self.blocks[index] is None
            with recorder.span(name) as span:
                result = fn(self, index, *args, **kwargs)
                span.count = int(fresh)
            return result
        return parse_wrapper

    count = COUNTS.get(name, lambda result: 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            span.count = count(result)
        if name == "mapping.map":
            mappers[id(args[0])] = args[0]
        return result
    return wrapper


def _wrap_iter(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            with recorder.span(name) as span:
                try:
                    item = next(inner)
                except StopIteration:
                    return
                span.count = len(item)
            yield item
    return wrapper


def _wrap_aggregate(recorder: SpanRecorder, name: str, fn):
    clock = recorder.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        recorder.add(name, clock() - start, len(result))
        return result
    return wrapper


def _resolve(module_path: str, attr_path: str):
    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def install_wrappers(recorder: SpanRecorder):
    """Wrap every entry point in :data:`WRAPPED` for the ``with`` body.

    Yields a dict that collects the mapper instances seen by
    ``map_batch``, so their own counters can be read afterwards.  The
    originals are restored on exit, also after an error.
    """
    from repro.core.kernels import resolve_kernel

    mappers: dict[int, object] = {}
    restore = []
    try:
        for module_path, attr_path, name, kind in WRAPPED:
            owner, attr = _resolve(module_path, attr_path)
            original = owner.__dict__[attr]
            if kind == "classmethod":
                wrapped = classmethod(_wrap_call(recorder, name,
                                                 original.__func__, mappers))
            elif kind == "iter":
                wrapped = _wrap_iter(recorder, name, original)
            elif kind == "aggregate":
                wrapped = _wrap_aggregate(recorder, name, original)
            else:
                wrapped = _wrap_call(recorder, name, original, mappers)
            setattr(owner, attr, wrapped)
            restore.append((owner, attr, original))
        # The resolved codec kernel is a registry instance: wrap its
        # bound method on the instance, and delete it again afterwards.
        kernel = resolve_kernel(None)
        kernel.decode_reads = _wrap_call(recorder, "kernel.decode",
                                         kernel.decode_reads, mappers)
        restore.append((kernel, "decode_reads", None))
        yield mappers
    finally:
        for owner, attr, original in reversed(restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
