"""Per-layer metrics of the traced run, and the predictions they test.

Each metric names the end-to-end metric it should move and the workload
where it should move it.  ``BYPASS`` lists, per span, the workloads on
which the layer must not run at all, and those on which it must: a
workload that silently stops bypassing a layer (or stops exercising
one) fails the traced run instead of skewing comparisons.

Times and counts are per pass for the batch workloads and per load
segment for ``serve-zipf``, so a faster layer cannot hide behind more
passes fitting into the same seconds.
"""

from __future__ import annotations

import statistics

from stats import tail
from workloads import SLO_S

__all__ = ["PER_LAYER", "BYPASS", "BATCH", "DECODE", "per_layer_metrics",
           "bypass_violations", "coverage"]

BATCH = ("ingest", "fastq-export", "prep-seq")
DECODE = ("fastq-export", "prep-seq", "serve-zipf")
ALL = BATCH + ("serve-zipf",)

#: name -> (unit, better, moves, on).
PER_LAYER = {
    "fastq.parse_ms": ("ms", "lower", "mbases_s", "ingest"),
    "mapping.index_ms": ("ms", "lower", "mbases_s", "ingest"),
    "mapping.map_ms": ("ms", "lower", "mbases_s", "ingest"),
    "mapping.reads": ("count", "higher", "mbases_s", "ingest"),
    "mapping.fast_path_share": ("share", "higher", "mbases_s", "ingest"),
    "mapping.candidates_per_read": ("count", "lower", "mbases_s", "ingest"),
    "encode.ms": ("ms", "lower", "mbases_s", "ingest"),
    "quality.encode_ms": ("ms", "lower", "mbases_s", "ingest"),
    "quality.decode_ms": ("ms", "lower", "mbases_s, tail_ms",
                          "fastq-export, serve-zipf"),
    "quality.scores": ("count", "higher", "mbases_s", "fastq-export"),
    "headers.decode_ms": ("ms", "lower", "none (no headers stored)", "-"),
    "headers.calls": ("count", "lower", "none (no headers stored)", "-"),
    "container.open_ms": ("ms", "lower", "mbases_s", "prep-seq"),
    "container.parse_ms": ("ms", "lower", "mbases_s", "prep-seq"),
    "container.blocks_parsed": ("count", "lower", "mbases_s", "prep-seq"),
    "container.write_ms": ("ms", "lower", "mbases_s, compression_ratio",
                           "ingest"),
    "container.bytes_written": ("bytes", "lower", "compression_ratio",
                                "ingest"),
    "kernel.decode_ms": ("ms", "lower", "mbases_s", "prep-seq"),
    "kernel.reads": ("count", "higher", "mbases_s", "prep-seq"),
    "assemble.ms": ("ms", "lower", "mbases_s", "prep-seq, fastq-export"),
    "render.ms": ("ms", "lower", "mbases_s, p50_ms",
                  "fastq-export, serve-zipf"),
    "render.bytes": ("bytes", "higher", "mbases_s", "fastq-export"),
    "executor.blocks": ("count", "higher", "mbases_s",
                        "prep-seq, fastq-export"),
    "executor.stream_bits": ("bits", "lower", "mbases_s", "prep-seq"),
    "executor.peak_inflight": ("count", "lower", "peak_mem_mb",
                               "prep-seq, fastq-export"),
    "executor.ms": ("ms", "lower", "mbases_s", "prep-seq, fastq-export"),
    "sink.ms": ("ms", "lower", "mbases_s", "fastq-export"),
    "cache.hit_rate": ("share", "higher", "p50_ms, tail_ms", "serve-zipf"),
    "cache.evictions": ("count", "lower", "p50_ms, tail_ms", "serve-zipf"),
    "serve.decodes": ("count", "lower", "tail_ms", "serve-zipf"),
    "serve.coalesced": ("count", "higher", "tail_ms", "serve-zipf"),
    "serve.decode_ms": ("ms", "lower", "tail_ms", "serve-zipf"),
    "serve.render_ms": ("ms", "lower", "p50_ms", "serve-zipf"),
    "serve.server_p99_ms": ("ms", "lower", "tail_ms", "serve-zipf"),
    "serve.wait_ms": ("ms", "lower", "p50_ms, tail_ms", "serve-zipf"),
    "loadgen.late_tail_ms": ("ms", "lower", "validity", "serve-zipf"),
    "loadgen.sent": ("count", "higher", "validity", "serve-zipf"),
    "loadgen.within_slo": ("share", "higher", "mbases_s", "serve-zipf"),
    "consumer.ms": ("ms", "lower", "validity (subtract)", "prep-seq"),
    "run.error_share": ("share", "lower", "validity", "all"),
    "trace.overhead_ms": ("ms", "lower", "validity", "all"),
    "trace.coverage": ("share", "higher", "validity", "batch workloads"),
}

#: span name -> (workloads where it must not run, where it must run).
BYPASS = {
    "fastq.parse": (DECODE, ("ingest",)),
    "mapping.index": (DECODE, ("ingest",)),
    "mapping.map": (DECODE, ("ingest",)),
    "encode": (DECODE, ("ingest",)),
    "quality.encode": (DECODE, ("ingest",)),
    "quality.decode": (("ingest", "prep-seq"),
                       ("fastq-export", "serve-zipf")),
    "headers.encode": (ALL, ()),
    "headers.decode": (ALL, ()),
    "container.open": (("ingest",), ("fastq-export", "prep-seq")),
    "container.write": (DECODE, ("ingest",)),
    "kernel.decode": (("ingest",), DECODE),
    "decode.block": (("ingest",), DECODE),
    "fastq.render": (("ingest", "prep-seq"),
                     ("fastq-export", "serve-zipf")),
    "sink.consume": (("ingest", "prep-seq", "serve-zipf"),
                     ("fastq-export",)),
    "consumer": (("ingest", "fastq-export", "serve-zipf"), ("prep-seq",)),
    "executor": (("ingest", "serve-zipf"), ("fastq-export", "prep-seq")),
}


def bypass_violations(workload: str, table: dict,
                      blocks_parsed: int) -> list[str]:
    """Every broken bypass or exercise prediction, as messages."""
    problems = []
    for name, (zero_on, used_on) in BYPASS.items():
        calls = table.get(name, {}).get("calls", 0)
        if workload in zero_on and calls:
            problems.append(f"{name}: {calls} calls, predicted none")
        if workload in used_on and not calls:
            problems.append(f"{name}: no calls, predicted some")
    if workload == "ingest" and blocks_parsed:
        problems.append(f"container.parse: {blocks_parsed} blocks parsed "
                        f"from bytes, predicted none")
    return problems


def coverage(spans, own: dict) -> float:
    """Share of the ``pass`` spans' wall that the program's layers cover.

    Every span below ``pass`` wraps a layer's own entry point (or the
    benchmark's stand-in consumer), so time no wrapped layer accounts
    for, such as a new cost in ``SAGeDataset`` around the executor,
    stays in the ``pass`` spans' self time and lowers coverage.
    """
    passes = [s for s in spans if s.name == "pass"]
    wall = sum(s.duration for s in passes)
    return 1.0 - sum(own[s.id] for s in passes) / wall if wall else 0.0


def _server_time_ms(stats: dict) -> tuple[int, float]:
    count, total = 0, 0.0
    for endpoint in ("/block", "/reads"):
        window = stats["endpoints"].get(endpoint)
        if window:
            count += window["count"]
            total += window["count"] * window["mean_ms"]
    return count, total


def per_layer_metrics(workload: str, table: dict, m, passes: int,
                      mappers: dict, blocks_parsed: int) -> dict:
    """Every :data:`PER_LAYER` metric except the trace.* validity pair."""
    def ms(name, key="self_s"):
        return 1e3 * table.get(name, {}).get(key, 0.0) / passes

    def count(name, key="count"):
        return table.get(name, {}).get(key, 0) / passes

    mapped = sum(mp.stats.reads for mp in mappers.values())
    out = {
        "fastq.parse_ms": ms("fastq.parse"),
        "mapping.index_ms": ms("mapping.index", "total_s"),
        "mapping.map_ms": ms("mapping.map"),
        "mapping.reads": mapped / passes,
        "mapping.fast_path_share":
            sum(mp.stats.fast_path for mp in mappers.values()) / mapped
            if mapped else 0.0,
        "mapping.candidates_per_read":
            sum(mp.stats.candidates for mp in mappers.values()) / mapped
            if mapped else 0.0,
        "encode.ms": ms("encode"),
        "quality.encode_ms": ms("quality.encode"),
        "quality.decode_ms": ms("quality.decode"),
        "quality.scores": count("quality.decode"),
        "headers.decode_ms": ms("headers.decode"),
        "headers.calls": (count("headers.decode", "calls")
                          + count("headers.encode", "calls")),
        "container.open_ms": ms("container.open", "total_s"),
        "container.parse_ms": ms("container.parse"),
        "container.blocks_parsed": blocks_parsed / passes,
        "container.write_ms": ms("container.serialize") + ms(
            "container.write"),
        "container.bytes_written": count("container.write"),
        "kernel.decode_ms": ms("kernel.decode"),
        "kernel.reads": count("kernel.decode"),
        "assemble.ms": ms("decode.block"),
        "render.ms": ms("fastq.render"),
        "render.bytes": count("fastq.render"),
        "executor.ms": ms("executor"),
        "sink.ms": ms("sink.consume"),
        "consumer.ms": ms("consumer"),
        "run.error_share": m.failed / m.attempted,
    }
    runs = m.extra.get("executor", [])
    out["executor.blocks"] = (sum(s.blocks for s in runs) / len(runs)
                              if runs else 0.0)
    out["executor.stream_bits"] = (
        sum(s.stream_bits_total for s in runs) / len(runs) if runs else 0.0)
    out["executor.peak_inflight"] = max((s.peak_inflight for s in runs),
                                        default=0)
    serve = dict.fromkeys(
        ("cache.hit_rate", "cache.evictions", "serve.decodes",
         "serve.coalesced", "serve.decode_ms", "serve.render_ms",
         "serve.server_p99_ms", "serve.wait_ms", "loadgen.late_tail_ms",
         "loadgen.sent", "loadgen.within_slo"), 0.0)
    if workload == "serve-zipf":
        serve.update(serve_metrics(table, m))
    out.update(serve)
    return out


def serve_metrics(table: dict, m) -> dict:
    """The serve-side rows, from ``/stats`` deltas and client outcomes."""
    before, after = m.extra["stats_before"], m.extra["stats_after"]
    outcomes = m.extra["outcomes"]
    cb, ca = before["cache"], after["cache"]
    hits = ca["hits"] - cb["hits"]
    lookups = hits + ca["misses"] - cb["misses"]
    n0, t0 = _server_time_ms(before)
    n1, t1 = _server_time_ms(after)
    client_ms = 1e3 * sum(o.service for o in outcomes)
    return {
        "cache.hit_rate": hits / lookups if lookups else 0.0,
        "cache.evictions": ca["evictions"] - cb["evictions"],
        "serve.decodes": after["decodes"] - before["decodes"],
        "serve.coalesced": after["coalesced"] - before["coalesced"],
        "serve.decode_ms": 1e3 * table.get("decode.block", {}).get(
            "total_s", 0.0),
        "serve.render_ms": 1e3 * table.get("fastq.render", {}).get(
            "total_s", 0.0),
        "serve.server_p99_ms": after["endpoints"].get(
            "/block", {}).get("p99_ms", 0.0),
        "serve.wait_ms": (client_ms - (t1 - t0)) / max(1, n1 - n0),
        "loadgen.late_tail_ms":
            1e3 * tail([o.own_late for o in outcomes])["value"],
        "loadgen.sent": len(outcomes),
        "loadgen.within_slo": statistics.fmean(
            1.0 if o.ok and o.latency <= SLO_S else 0.0 for o in outcomes),
    }
