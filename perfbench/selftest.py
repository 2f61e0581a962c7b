"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py        (from the repository root)

The file name keeps it out of the repository's test collection: these
test the benchmark, not the program.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

from compare import pair_mismatches  # noqa: E402
from layers import PER_LAYER, bypass_violations, coverage  # noqa: E402
from loadgen import Scheduled, run_open_loop  # noqa: E402
from stats import beyond, percentile, tail  # noqa: E402
from trace import Span, SpanRecorder, layer_table, self_times  # noqa: E402


# -- percentile helper -------------------------------------------------

def test_percentile_nearest_rank():
    samples = list(range(1, 101))          # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, k", [
    (150, 10),
    (100, 10),
    (45, 10),
    (20, 10),
    (201, 11),       # from 200 samples on, 5% of them must lie beyond
    (1000, 50),      # so the tail stops at p95
])
def test_tail_is_the_highest_percentile_with_enough_beyond(n, k):
    samples = [float(i) for i in range(n)]
    info = tail(samples)
    assert info["q"] == pytest.approx(100 * (n - k) / n)
    assert info["q"] <= 95.0
    assert info["n"] == n
    assert info["beyond"] == beyond(n, info["q"]) == k
    assert info["value"] == percentile(samples, info["q"]) == n - k - 1
    # One rank higher leaves too few beyond.
    assert beyond(n, info["q"] + 100 / n) < k


@pytest.mark.parametrize("n", [1, 5, 19])
def test_tail_falls_back_to_the_median_and_says_so(n):
    info = tail(range(n))
    assert info["q"] == 50.0
    assert info["beyond"] == beyond(n, 50.0) < 10


# -- self time ----------------------------------------------------------

def test_self_time_synthetic_tree_across_two_threads():
    spans = [
        Span(1, "request", 0.0, 10.0, None, "A"),
        Span(2, "parse", 1.0, 3.0, 1, "A"),
        # A child on another thread overlapping its sibling.
        Span(3, "decode", 2.0, 6.0, 1, "B"),
        Span(4, "kernel", 4.0, 5.0, 3, "B"),
        # A child that outlives its parent is clipped to it.
        Span(5, "late", 9.0, 12.0, 1, "B"),
        # Aggregated per-call work credited to the request.
        Span(6, "render", 7.0, 8.5, 1, "A", calls=40, busy=1.0),
    ]
    own = self_times(spans)
    # covered: union([1,3], [2,6], [9,10]) = 6, plus 1.0 aggregated
    assert own[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)
    assert own[6] == pytest.approx(1.0)
    table = layer_table(spans)
    assert table["render"]["calls"] == 40
    assert table["decode"]["self_s"] == pytest.approx(3.0)


def test_recorder_links_spans_across_threads():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("outer", request=7) as outer:
        def worker():
            with recorder.span("inner", parent=outer.id):
                recorder.add("agg", 0.5, count=3)
        thread = threading.Thread(target=worker, name="side")
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
        with recorder.span("nested") as nested:
            assert nested.request == 7
    spans = {s.name: s for s in recorder.finished()}
    assert spans["inner"].parent == spans["outer"].id
    assert spans["inner"].thread == "side"
    assert spans["nested"].parent == spans["outer"].id
    assert spans["agg"].parent == spans["inner"].id
    assert spans["agg"].busy == 0.5 and spans["agg"].count == 3
    own = self_times(list(spans.values()))
    assert own[spans["inner"].id] == pytest.approx(
        spans["inner"].end - spans["inner"].start - 0.5)


def test_coverage_counts_time_outside_every_layer_as_uncovered():
    spans = [
        Span(1, "pass", 0.0, 10.0, None, "A"),
        # The pass runs program code around the executor (2 s) that no
        # wrapped layer accounts for.
        Span(2, "executor", 1.0, 9.0, 1, "A"),
        Span(3, "decode.block", 1.5, 8.5, 2, "A"),
    ]
    assert coverage(spans, self_times(spans)) == pytest.approx(0.8)
    # The executor's own self time belongs to its layer: it is covered.
    spans[2] = Span(3, "decode.block", 1.5, 5.0, 2, "A")
    assert coverage(spans, self_times(spans)) == pytest.approx(0.8)


# -- open-loop lateness --------------------------------------------------

class _StallOnce:
    """A stub server connection: the first request stalls."""

    def __init__(self, stall: float, stalled: list) -> None:
        self.stall = stall
        self.stalled = stalled

    def get(self, target):
        if not self.stalled:
            self.stalled.append(target)
            time.sleep(self.stall)
        return 200, target.encode()

    def close(self):
        pass


def test_open_loop_counts_from_scheduled_time_after_a_stall():
    import hashlib
    gap, stall = 0.05, 0.5
    schedule = [Scheduled(i, i * gap, f"/r/{i}",
                          hashlib.sha1(f"/r/{i}".encode()).hexdigest(), 1)
                for i in range(12)]
    stalled: list = []
    outcomes = run_open_loop(schedule, lambda: _StallOnce(stall, stalled),
                             connections=1)
    assert [o.rid for o in outcomes] == list(range(12))
    assert all(o.ok for o in outcomes)
    first = outcomes[0].scheduled
    stall_end = outcomes[0].done
    assert stall_end - first >= stall
    for o in outcomes[1:]:
        if o.scheduled < stall_end:
            # Queued behind the stall: charged from its scheduled time,
            # not from when the connection freed up.
            assert o.latency >= stall_end - o.scheduled
            assert o.sent >= stall_end
        # The stall is the server's, not the generator's.
        assert o.own_late < 0.04
    assert outcomes[-1].latency < 0.05     # caught up afterwards


def test_open_loop_records_failures_as_outcomes():
    class Broken:
        def get(self, target):
            raise ConnectionRefusedError("refused")

        def close(self):
            pass

    schedule = [Scheduled(i, 0.0, "/x", "0", 5) for i in range(4)]
    outcomes = run_open_loop(schedule, Broken, connections=2)
    assert len(outcomes) == 4
    assert not any(o.ok for o in outcomes)
    assert all(o.bases == 0 for o in outcomes)


# -- seed determinism ------------------------------------------------------

def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    from inputs import write_inputs
    a = write_inputs(tmp_path / "a", seed=3)
    b = write_inputs(tmp_path / "b", seed=3)
    c = write_inputs(tmp_path / "c", seed=4)
    assert a.digest == b.digest
    assert a.fastq.read_bytes() == b.fastq.read_bytes()
    assert a.digest != c.digest
    assert (a.n_reads, a.n_bases) == (c.n_reads, c.n_bases)


# -- checks and the declared metric set -----------------------------------

def test_bypass_flags_a_layer_that_stops_being_bypassed():
    used = {"kernel.decode": {"calls": 6}, "decode.block": {"calls": 6},
            "container.open": {"calls": 1}, "executor": {"calls": 7},
            "consumer": {"calls": 6}}
    assert bypass_violations("prep-seq", used, 6) == []
    leaked = {**used, "quality.decode": {"calls": 6}}
    assert bypass_violations("prep-seq", leaked, 6) == [
        "quality.decode: 6 calls, predicted none"]
    missing = {k: v for k, v in used.items() if k != "kernel.decode"}
    assert bypass_violations("prep-seq", missing, 6) == [
        "kernel.decode: no calls, predicted some"]


def test_compare_refuses_other_inputs_or_core_counts():
    def run(digest, nproc):
        return {"provenance": {"input_digest": digest, "nproc": nproc}}
    key = ("ingest", 0, 1)
    assert pair_mismatches({key: run("a", 2)}, {key: run("a", 2)}) == []
    assert len(pair_mismatches({key: run("a", 2)}, {key: run("b", 2)})) == 1
    assert len(pair_mismatches({key: run("a", 2)}, {key: run("a", 4)})) == 1


def test_benchmark_json_matches_the_code():
    from run import END_TO_END_UNITS
    from workloads import WORKLOADS
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {name: row[:2] for name, row in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
