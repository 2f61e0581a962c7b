"""The four benchmark workloads, driven through the public API only.

Each workload has three phases.  ``setup`` is what a user pays before
the first operation: generate and write the inputs, build the archive,
start and warm the server.  ``prepare`` computes the expected outputs
and runs the correctness gates, outside any timed section.  ``measure``
runs the timed operations for a given number of seconds and checks
every one of them.

Every workload runs with quality on and default ``EngineOptions`` apart
from ``block_reads``: reads are reordered and no headers are stored,
the path the CLI and the facade take.  Batch workloads decode with one
worker; the server decodes on two threads.
"""

from __future__ import annotations

import hashlib
import io
import threading
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import BLOCK_READS, Inputs, fold_reads, write_inputs
from loadgen import Scheduled, poisson_schedule, run_open_loop

__all__ = ["WORKLOADS", "Measurement", "SERVE_RATE", "SLO_S"]

#: Reads per block of the served archive.  Smaller than the batch
#: workloads' blocks so that a run holds enough requests for steady
#: percentiles: 24 blocks, ~60 ms per cold decode on a 2-core VM.
SERVE_BLOCK_READS = 280
#: Offered load of ``serve-zipf``, requests per second: about a sixth
#: of the ~90 req/s two closed-loop connections sustain on this input
#: on a 2-core VM.  At 20 req/s and more, overlapping decodes moved the
#: tail by 25-70% across five to ten seeds.
SERVE_RATE = 15.0
#: Seed of the request schedule.  Fixed, not taken from ``--seed``: every
#: run replays the same arrival trace over its own data (common random
#: numbers), so runs differ in the data and the timing, not the trace.
SCHEDULE_SEED = 20261017
#: A request completed later than this after its scheduled time misses
#: the latency objective.
SLO_S = 0.5
#: Zipf exponent of block popularity.
ZIPF_S = 1.1
#: Share of requests that are read ranges crossing one block boundary.
RANGE_SHARE = 0.2
#: Reads per range request.
RANGE_READS = 100
#: Decoded-block cache size as a share of the archive's decoded size.
#: About 15% of the cache lookups then miss and ~70% of the requests
#: are hits that no decode overlaps, so the median sits among clean
#: hits.  With
#: half the archive cached, a third missed, the median fell among
#: requests slowed by a concurrent decode, and it moved by 33% across
#: ten seeds (2-core VM).
CACHE_SHARE = 0.75
SERVE_THREADS = 2
SERVE_CONNECTIONS = 2
#: Blocks per decode stream in the traced-memory pass of the decode
#: workloads that run the quality decoder, which tracemalloc slows ~14x:
#: tracing a whole pass cost ~17 s a run on a 2-core VM.  A streaming
#: pass holds one block at a time, so its peak comes with the first
#: block, and a second shows growth from one block to the next.
MEMORY_BLOCKS = 2

clock = time.perf_counter


def _options(**kwargs):
    from repro.api import EngineOptions
    return EngineOptions(**kwargs)


def _fastq_records(text: str) -> list[tuple[str, str]]:
    """(sequence, quality) of every record, parsed as plain text."""
    lines = text.split("\n")
    return [(lines[i + 1], lines[i + 3]) for i in range(0, len(lines) - 3, 4)]


def _sha1(data) -> str:
    return hashlib.sha1(data).hexdigest()


@dataclass
class Measurement:
    """What one workload's timed section observed."""

    #: Seconds per batch pass, or the serve requests' summed service
    #: time (actual send to last byte), the time the server was working
    #: for the client.
    pass_s: list[float] = field(default_factory=list)
    #: Seconds per operation: a block delivered, or a request served.
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Bases one pass processes, or bases of the correct serve responses.
    bases: int = 0
    #: Workload-specific observations feeding the per-layer table.
    extra: dict = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def _build_archive(inputs: Inputs, path: Path,
                   block_reads: int = BLOCK_READS) -> int:
    from repro.api import SAGeDataset
    dataset = SAGeDataset.from_fastq(
        inputs.fastq, reference=inputs.reference,
        options=_options(block_reads=block_reads))
    return dataset.save(path)


def _lossless(archive: Path, source: Path) -> tuple[bool, str]:
    """Decode ``archive`` to FASTQ; compare records with ``source``.

    Default options reorder reads and drop headers, so the comparison is
    of the (sequence, quality) multisets.  Returns the verdict and the
    decoded FASTQ text.
    """
    from repro.api import SAGeDataset
    buffer = io.StringIO()
    with SAGeDataset.open(archive) as dataset:
        dataset.to_fastq(buffer)
    text = buffer.getvalue()
    expected = sorted(_fastq_records(source.read_text(encoding="ascii")))
    return sorted(_fastq_records(text)) == expected, text


def _apportion(weights: np.ndarray, n: int) -> np.ndarray:
    """Split ``n`` into integer counts proportional to ``weights``.

    Largest-remainder rounding: the counts sum to ``n`` exactly.
    """
    exact = weights * n
    counts = np.floor(exact).astype(int)
    order = np.argsort(counts - exact, kind="stable")
    counts[order[:n - counts.sum()]] += 1
    return counts


class Workload:
    name = ""
    #: Whether ``setup`` builds an archive the timed section reads.
    builds_archive = True
    block_reads = BLOCK_READS

    def setup(self, directory: Path, seed: int) -> dict:
        inputs = write_inputs(directory, seed)
        state = {"dir": directory, "seed": seed, "inputs": inputs}
        if self.builds_archive:
            state["archive"] = directory / "reads.sage"
            state["archive_bytes"] = _build_archive(
                inputs, state["archive"], self.block_reads)
        return state

    def teardown(self, state: dict) -> None:
        pass

    def prepare(self, state: dict) -> bool:
        """Compute expected outputs and run the gates; False on failure."""
        raise NotImplementedError

    def one_pass(self, state: dict, m: Measurement, span) -> None:
        raise NotImplementedError

    def measure(self, state: dict, seconds: float, recorder=None
                ) -> Measurement:
        """Run passes until ``seconds`` have elapsed (at least one).

        ``recorder`` (a :class:`trace.SpanRecorder`) wraps each pass in
        a ``pass`` span during the traced run.
        """
        span = recorder.span if recorder else (lambda name: nullcontext())
        m = Measurement(bases=state["inputs"].n_bases)
        start = clock()
        while not m.pass_s or clock() - start < seconds:
            self.one_pass(state, m, span)
        return m

    def peak_memory(self, state: dict) -> int:
        """Traced-allocation peak, in bytes, over one extra pass."""
        tracemalloc.start()
        try:
            self.one_pass(state, Measurement(), lambda name: nullcontext())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def compression_ratio(self, state: dict) -> float:
        return state["inputs"].fastq_bytes / state["archive_bytes"]


class Ingest(Workload):
    """FASTQ + reference -> ``from_fastq`` -> ``save``."""

    name = "ingest"
    builds_archive = False

    def prepare(self, state: dict) -> bool:
        from repro.api import SAGeDataset
        inputs = state["inputs"]
        gate = state["dir"] / "gate.sage"
        state["archive_bytes"] = _build_archive(inputs, gate)
        state["expected"] = hashlib.sha256(gate.read_bytes()).hexdigest()
        with SAGeDataset.open(gate) as dataset:
            verified = dataset.verify().ok
        lossless, _ = _lossless(gate, inputs.fastq)
        return verified and lossless

    def one_pass(self, state: dict, m: Measurement, span) -> None:
        from repro.api import SAGeDataset
        from repro.genomics import fastq
        inputs = state["inputs"]
        out = state["dir"] / "out.sage"
        latencies = []

        def chunks():
            # The same chunk stream from_fastq(path) builds internally;
            # timing the hand-offs gives each block's parse + encode.
            mark = clock()
            for chunk in fastq.iter_read_sets(inputs.fastq, BLOCK_READS):
                yield chunk
                now = clock()
                latencies.append(now - mark)
                mark = now

        with span("pass"):
            start = clock()
            dataset = SAGeDataset.from_fastq(
                chunks(), reference=inputs.reference,
                options=_options(block_reads=BLOCK_READS))
            dataset.save(out)
            elapsed = clock() - start
        m.pass_s.append(elapsed)
        m.latencies_s.extend(latencies)
        m.check(hashlib.sha256(out.read_bytes()).hexdigest()
                == state.get("expected"))


class _EnoughBlocks(Exception):
    """Ends a pass early, once the blocks it was meant to see are out."""


class _BlockClock:
    """A text handle that timestamps each block's last record.

    Block boundaries come from the archive's index; records are counted
    by newlines (four per record), so the way the writer chunks its
    output does not matter.  With ``stop``, the write completing the
    last boundary raises :class:`_EnoughBlocks`.
    """

    def __init__(self, handle, boundaries: list[int], *,
                 stop: bool = False) -> None:
        self.handle = handle
        self.line_marks = [4 * b for b in boundaries[1:]]
        self.stop = stop
        self.lines = 0
        self.times: list[float] = []

    def write(self, text: str) -> int:
        written = self.handle.write(text)
        self.lines += text.count("\n")
        marks = self.line_marks
        while len(self.times) < len(marks) and \
                self.lines >= marks[len(self.times)]:
            self.times.append(clock())
        if self.stop and len(self.times) == len(marks):
            raise _EnoughBlocks
        return written


def _read_offsets(archive: Path) -> list[int]:
    from repro.api import SAGeDataset
    with SAGeDataset.open(archive) as dataset:
        offsets = [0]
        for entry in dataset.archive.block_index():
            offsets.append(offsets[-1] + entry.n_reads)
    return offsets


class FastqExport(Workload):
    """``open`` -> ``to_fastq`` with every stream selected."""

    name = "fastq-export"

    def prepare(self, state: dict) -> bool:
        lossless, text = _lossless(state["archive"], state["inputs"].fastq)
        state["expected"] = _sha1(text.encode("ascii"))
        state["offsets"] = _read_offsets(state["archive"])
        return lossless

    def one_pass(self, state: dict, m: Measurement, span) -> None:
        from repro.api import SAGeDataset
        out = state["dir"] / "out.fastq"
        with open(out, "w", encoding="ascii") as handle:
            clocked = _BlockClock(handle, state["offsets"])
            with span("pass"):
                start = clock()
                with SAGeDataset.open(state["archive"]) as dataset:
                    dataset.to_fastq(clocked)
                    stats = dataset.stats
                elapsed = clock() - start
        m.pass_s.append(elapsed)
        marks = [start] + clocked.times
        m.latencies_s.extend(b - a for a, b in zip(marks, marks[1:]))
        m.extra.setdefault("executor", []).append(stats)
        m.check(_sha1(out.read_bytes()) == state.get("expected"))

    def peak_memory(self, state: dict) -> int:
        """Traced peak over the first :data:`MEMORY_BLOCKS` blocks."""
        from repro.api import SAGeDataset
        out = state["dir"] / "memory.fastq"
        tracemalloc.start()
        try:
            with open(out, "w", encoding="ascii") as handle:
                clocked = _BlockClock(
                    handle, state["offsets"][:MEMORY_BLOCKS + 1], stop=True)
                with SAGeDataset.open(state["archive"]) as dataset:
                    try:
                        dataset.to_fastq(clocked)
                    except _EnoughBlocks:
                        pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class PrepSeq(Workload):
    """``open`` -> ``blocks(streams=("sequence",))`` -> stand-in."""

    name = "prep-seq"

    def prepare(self, state: dict) -> bool:
        from repro.genomics import fastq
        source = fastq.read_file(state["inputs"].fastq)
        state["expected"] = fold_reads(source)
        return True

    def one_pass(self, state: dict, m: Measurement, span) -> None:
        from repro.api import SAGeDataset
        options = _options(streams=("sequence",))
        folded = None
        consumer_s = 0.0
        with span("pass"):
            start = clock()
            with SAGeDataset.open(state["archive"]) as dataset:
                blocks = dataset.blocks(options=options)
                while True:
                    ask = clock()
                    block = next(blocks, None)
                    got = clock()
                    if block is None:
                        break
                    m.latencies_s.append(got - ask)
                    with span("consumer"):
                        folded = fold_reads(block, folded)
                    consumer_s += clock() - got
                stats = dataset.stats
            elapsed = clock() - start
        m.pass_s.append(elapsed)
        m.extra.setdefault("executor", []).append(stats)
        m.extra["consumer_s"] = m.extra.get("consumer_s", 0.0) + consumer_s
        m.check(folded == state.get("expected"))


class ServeZipf(Workload):
    """``ArchiveServer`` under an open-loop zipf block/range mix."""

    name = "serve-zipf"
    block_reads = SERVE_BLOCK_READS

    def setup(self, directory: Path, seed: int) -> dict:
        from repro.api import SAGeDataset
        from repro.serve import ArchiveServer, ServeClient
        state = super().setup(directory, seed)
        with SAGeDataset.open(state["archive"]) as dataset:
            n_blocks = dataset.n_blocks
            decoded = sum(dataset.archive.block(i).decoded_nbytes_estimate()
                          for i in range(n_blocks))
        rng = np.random.default_rng([SCHEDULE_SEED, 1])
        # popularity[k] = the block of popularity rank k.
        state["popularity"] = [int(b) for b in rng.permutation(n_blocks)]
        server = ArchiveServer([state["archive"]],
                               cache_bytes=int(CACHE_SHARE * decoded),
                               decode_threads=SERVE_THREADS)
        try:
            state["port"] = server.start()
            with ServeClient("127.0.0.1", state["port"]) as client:
                client.get_json("/archives")
                # Coldest first, so the hottest blocks end up cached.
                for block in reversed(state["popularity"]):
                    client.get_text(f"/block/{block}")
        except BaseException:
            server.close()
            raise
        state["server"] = server
        return state

    def teardown(self, state: dict) -> None:
        server = state.pop("server", None)
        if server is not None:
            server.close()

    def prepare(self, state: dict) -> bool:
        lossless, text = _lossless(state["archive"], state["inputs"].fastq)
        data = text.encode("ascii")
        # Byte offset of every record, with a closing sentinel.
        starts = [0]
        pos = 0
        for _ in range(text.count("\n") // 4):
            for _ in range(4):
                pos = data.index(b"\n", pos) + 1
            starts.append(pos)
        state["fastq"] = data
        state["record_starts"] = starts
        state["offsets"] = _read_offsets(state["archive"])
        state["read_len"] = state["inputs"].n_bases // state["inputs"].n_reads
        return lossless

    def schedule(self, state: dict, rng: np.random.Generator,
                 seconds: float) -> list[Scheduled]:
        offsets = state["offsets"]
        popularity = state["popularity"]
        n_blocks = len(offsets) - 1
        weights = np.arange(1, n_blocks + 1, dtype=float) ** -ZIPF_S
        weights /= weights.sum()
        arrivals = poisson_schedule(rng, SERVE_RATE, seconds)
        n = len(arrivals)
        # Stratified draws: the mix holds exactly the expected share of
        # ranges and of each popularity rank, in random order, so runs
        # differ in arrival order and timing, not in how much work
        # they offer.
        kinds = np.zeros(n, dtype=bool)
        kinds[:round(RANGE_SHARE * n)] = True
        rng.shuffle(kinds)
        ranks = np.repeat(np.arange(n_blocks), _apportion(weights, n))
        rng.shuffle(ranks)
        data, starts = state["fastq"], state["record_starts"]
        schedule = []
        for rid, (at, is_range, rank) in enumerate(zip(arrivals, kinds,
                                                       ranks)):
            block = popularity[int(rank)]
            if is_range:
                # Cross the boundary after the block (before it, for
                # the last block).
                boundary = offsets[min(block + 1, n_blocks - 1)]
                lo = int(rng.integers(boundary - RANGE_READS + 1, boundary))
                hi = lo + RANGE_READS
                target = f"/reads/{lo}-{hi}"
            else:
                lo, hi = offsets[block], offsets[block + 1]
                target = f"/block/{block}"
            body = data[starts[lo]:starts[hi]]
            schedule.append(Scheduled(rid, at, target, _sha1(body),
                                      (hi - lo) * state["read_len"]))
        return schedule

    def _segment(self, state: dict, seconds: float, span=None):
        from repro.serve import ServeClient
        port = state["port"]
        rng = np.random.default_rng([SCHEDULE_SEED, 2])
        schedule = self.schedule(state, rng, seconds)
        with ServeClient("127.0.0.1", port) as probe:
            before = probe.get_json("/stats")
            outcomes = run_open_loop(
                schedule, lambda: ServeClient("127.0.0.1", port,
                                              timeout=10.0),
                connections=SERVE_CONNECTIONS, span=span)
            after = probe.get_json("/stats")
        return outcomes, before, after

    def measure(self, state: dict, seconds: float, recorder=None
                ) -> Measurement:
        outcomes, before, after = self._segment(
            state, seconds,
            span=recorder.span if recorder else None)
        # mbases_s is then served bases per second of service: at a fixed
        # offered load a faster server cannot raise goodput, but it does
        # shorten the service.
        m = Measurement(pass_s=[sum(o.service for o in outcomes)])
        for outcome in outcomes:
            m.check(outcome.ok)
            m.latencies_s.append(outcome.latency)
            m.bases += outcome.bases
        m.extra.update(outcomes=outcomes, stats_before=before,
                       stats_after=after)
        return m

    def peak_memory(self, state: dict) -> int:
        """Traced peak while each connection fetches cold blocks.

        The cache is cleared first and each connection fetches
        :data:`MEMORY_BLOCKS` blocks, so two decodes are in flight and
        their blocks enter the cache: the same work in every run,
        whatever a random segment would happen to miss.
        """
        from repro.serve import ServeClient
        port = state["port"]
        blocks = range(MEMORY_BLOCKS * SERVE_CONNECTIONS)
        with ServeClient("127.0.0.1", port) as probe:
            probe.post_json("/cache/clear", {})

        def fetch(share):
            with ServeClient("127.0.0.1", port) as client:
                for block in share:
                    client.get_text(f"/block/{block}")

        tracemalloc.start()
        try:
            threads = [threading.Thread(
                target=fetch, args=(blocks[i::SERVE_CONNECTIONS],))
                for i in range(SERVE_CONNECTIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


WORKLOADS = {w.name: w for w in (Ingest(), FastqExport(), PrepSeq(),
                                  ServeZipf())}
