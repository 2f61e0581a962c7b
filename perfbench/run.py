"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 12 --trace 0

Run from the root of a checkout of the repository: the program is
imported from ``./src``.  ``--trace 0`` prints the end-to-end metrics
of an untraced run; ``--trace 1`` prints the per-layer metrics of a
traced run, checks coverage and the bypass predictions, and writes the
spans.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full result, with its provenance, is written
under ``.perfbench/out/``.  Exit status: 0 on a correct run, 1 when an
output check, coverage or bypass check failed, 2 when the program or
the arguments are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Minimum share of traced pass wall time the layers must account for.
COVERAGE_FLOOR = 0.90

END_TO_END_UNITS = {
    "setup_s": "s", "mbases_s": "Mbase/s", "p50_ms": "ms",
    "tail_ms": "ms", "peak_mem_mb": "MB", "compression_ratio": "x",
}


def _parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setups(workload, work: Path, seed: int, repeats: int):
    """Time ``repeats`` full set-ups; keep the last one's state."""
    times, state = [], None
    for k in range(repeats):
        if state is not None:
            workload.teardown(state)
        start = time.perf_counter()
        state = workload.setup(work / f"setup{k}", seed)
        times.append(time.perf_counter() - start)
    return times, state


def _end_to_end(workload, state, m, setup_times, peak_bytes):
    from stats import percentile, tail
    latencies_ms = [1e3 * x for x in m.latencies_s]
    tail_info = tail(latencies_ms)
    values = {
        "setup_s": statistics.median(setup_times),
        "mbases_s": m.bases / statistics.median(m.pass_s) / 1e6,
        "p50_ms": percentile(latencies_ms, 50),
        "tail_ms": tail_info["value"],
        "peak_mem_mb": peak_bytes / 1e6,
        "compression_ratio": workload.compression_ratio(state),
    }
    notes = {"tail": tail_info, "pass_s": m.pass_s,
             "latencies_ms": sorted(latencies_ms)}
    return values, notes


def _traced(workload, state, seconds: float, out_dir: Path, tag: str):
    """The traced run, its untraced baseline, and per-layer metrics.

    Batch workloads alternate untraced and traced passes, so the
    tracing overhead is a median of paired differences that machine
    drift does not bias.  ``serve-zipf`` runs an untraced half-length
    segment first.
    """
    from contextlib import nullcontext

    from layers import bypass_violations, coverage, per_layer_metrics
    from trace import SpanRecorder, install_wrappers, layer_table, \
        self_times, write_spans
    from workloads import Measurement

    recorder = SpanRecorder()
    if workload.name == "serve-zipf":
        baseline = workload.measure(state, seconds / 2)
        with install_wrappers(recorder) as mappers:
            m = workload.measure(state, seconds, recorder=recorder)
        overhead_s = (statistics.median(m.latencies_s)
                      - statistics.median(baseline.latencies_s))
    else:
        baseline, m, mappers = Measurement(), Measurement(), {}
        start = time.perf_counter()
        while not m.pass_s or time.perf_counter() - start < seconds:
            workload.one_pass(state, baseline, lambda name: nullcontext())
            with install_wrappers(recorder) as seen:
                workload.one_pass(state, m, recorder.span)
            mappers.update(seen)
        overhead_s = statistics.median(
            t - u for t, u in zip(m.pass_s, baseline.pass_s))
    m.attempted += baseline.attempted
    m.failed += baseline.failed
    spans = recorder.finished()
    write_spans(spans, out_dir / f"{tag}-spans.jsonl")
    table = layer_table(spans)
    blocks_parsed = table.get("container.parse", {}).get("count", 0)
    passes = len(m.pass_s)
    metrics = per_layer_metrics(workload.name, table, m, passes, mappers,
                                blocks_parsed)
    metrics["trace.overhead_ms"] = 1e3 * overhead_s
    problems = bypass_violations(workload.name, table, blocks_parsed)
    if workload.name == "serve-zipf":
        metrics["trace.coverage"] = 0.0     # open loop: wall includes idle
    else:
        metrics["trace.coverage"] = coverage(spans, self_times(spans))
        if metrics["trace.coverage"] < COVERAGE_FLOOR:
            problems.append(f"coverage {metrics['trace.coverage']:.3f} "
                            f"below {COVERAGE_FLOOR}")
    self_ms = {name: round(1e3 * row["self_s"] / passes, 3)
               for name, row in sorted(table.items())}
    return m, metrics, problems, self_ms


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a repository checkout; "
              "src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = _parse_args(argv)

    from inputs import provenance
    from layers import PER_LAYER
    from workloads import SERVE_RATE, WORKLOADS

    workload = WORKLOADS[args.workload]
    base = ROOT / ".perfbench"
    work = base / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    out_dir = base / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    state = None
    marks = [time.perf_counter()]
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setup_times, state = _setups(workload, work, args.seed, repeats)
        marks.append(time.perf_counter())
        gates_ok = workload.prepare(state)
        gc.collect()            # set-up garbage is not the timed code's
        prov = provenance(ROOT, args.seed, state["inputs"],
                          block_reads=workload.block_reads,
                          serve_rate_per_s=SERVE_RATE)
        if args.trace:
            m, metrics, problems, self_ms = _traced(
                workload, state, args.seconds, out_dir, tag)
            units = {name: spec[0] for name, spec in PER_LAYER.items()}
            notes = {"self_ms_per_pass": self_ms, "problems": problems}
        else:
            marks.append(time.perf_counter())
            m = workload.measure(state, args.seconds)
            marks.append(time.perf_counter())
            peak = workload.peak_memory(state)
            marks.append(time.perf_counter())
            metrics, notes = _end_to_end(workload, state, m, setup_times,
                                         peak)
            units = END_TO_END_UNITS
            problems = []
            notes["setup_times_s"] = setup_times
            notes["phase_s"] = dict(zip(
                ("setup", "prepare", "measure", "memory"),
                (b - a for a, b in zip(marks, marks[1:]))))
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(work, ignore_errors=True)

    attempted = m.attempted + 1           # the gates count as one check
    failed = m.failed + (0 if gates_ok else 1)
    correct = failed == 0 and not problems
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "trace": args.trace,
         "provenance": prov, "notes": notes}, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"nproc={prov['nproc']} input={prov['input_digest'][:12]} "
          f"reads={prov['input_reads']} bases={prov['input_bases']}")
    for name, value in metrics.items():
        moves = ""
        if args.trace:
            _, _, target, where = PER_LAYER[name]
            moves = f"  -> {target} on {where}"
        print(f"  {name:28s} {value:14.4f} {units[name]:6s}{moves}")
    if not args.trace:
        t = notes["tail"]
        print(f"  (tail_ms = p{t['q']:.2f} of {t['n']} samples, "
              f"{t['beyond']} beyond; {len(m.pass_s)} passes; "
              f"error_share {failed / attempted:.4f})")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if not gates_ok:
        print("  CHECK FAILED: output correctness gate")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
