"""Fig. 22 (repo extension) — integrity checksum overhead and salvage.

The v4 container adds CRC32 digests over the global header, the
consensus payload, and every block payload.  This benchmark prices that
protection: serialized size delta and decode throughput of the same
archive as v3 (no digests) vs v4 (checksummed), the v4 encode
throughput, plus the salvage recovery rate when blocks are deliberately
destroyed.  Only v4 is written by the product; the v3 blob comes from
the legacy-format test writer (:mod:`repro.testing.legacy`).  The
acceptance bar: checksums must cost < 5% of end-to-end decode
throughput — integrity is supposed to be cheap enough to be the
default.
"""

import random
import time

from repro.api import EngineOptions, SAGeDataset
from repro.core import SAGeArchive, SAGeConfig
from repro.core.blocks import BlockCompressor
from repro.testing import faults, to_v3_bytes

from benchmarks.conftest import write_result

LABEL = "RS2"
BLOCK_READS = 1024
REPEAT = 3
MAX_DECODE_REGRESSION = 0.05          # v4 decode may cost < 5% vs v3
SALVAGE_SEED = 22
N_KILLED_BLOCKS = 2


def _best(fn, repeat=REPEAT):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _decode_s(blob: bytes) -> float:
    def run():
        archive = SAGeArchive.from_bytes(blob)
        return SAGeDataset(archive).read_set()

    best, _ = _best(run)
    return best


def test_fig22_integrity(benchmark, bench_sims):
    sim = bench_sims[LABEL]
    reads = sim.read_set
    mb = reads.total_bases / 1e6

    config = SAGeConfig(with_quality=False)
    engine = BlockCompressor(sim.reference, config,
                             options=EngineOptions(block_reads=BLOCK_READS))
    archive = engine.compress(reads)

    serialize_s, v4 = _best(archive.to_bytes)
    blobs = {3: to_v3_bytes(archive), 4: v4}
    size_overhead = len(blobs[4]) / len(blobs[3]) - 1

    decode_s = {version: _decode_s(blob)
                for version, blob in blobs.items()}
    regression = decode_s[4] / decode_s[3] - 1
    if regression > MAX_DECODE_REGRESSION:
        # Shield against scheduler noise: re-measure, keep best times.
        for version in (3, 4):
            decode_s[version] = min(decode_s[version],
                                    _decode_s(blobs[version]))
        regression = decode_s[4] / decode_s[3] - 1

    # Salvage: destroy N blocks of the v4 blob, recover the rest.
    rng = random.Random(SALVAGE_SEED)
    loaded = SAGeArchive.from_bytes(blobs[4])
    index = loaded.block_index()
    killed = sorted(rng.sample(range(len(index)), N_KILLED_BLOCKS))
    damaged = blobs[4]
    for i in killed:
        entry = index[i]
        damaged = faults.bit_flip(
            damaged, rng,
            region=(entry.offset, entry.offset + entry.nbytes)).blob
    t0 = time.perf_counter()
    report = SAGeDataset(SAGeArchive.from_bytes(damaged)).salvage()
    salvage_s = time.perf_counter() - t0
    assert {gap.index for gap in report.gaps} == set(killed)
    assert report.blocks_recovered == len(index) - N_KILLED_BLOCKS

    ser_rate = {3: f"{'-':>12}", 4: f"{mb / serialize_s:>12.2f}"}
    rows = [
        f"{version:>8}{len(blobs[version]):>12}{ser_rate[version]}"
        f"{mb / decode_s[version]:>12.2f}"
        for version in (3, 4)
    ]
    lines = [
        "Fig. 22 — integrity: checksummed (v4) container overhead "
        "and salvage",
        "",
        f"dataset {LABEL}: {len(reads)} reads, {reads.total_bases} bases "
        f"({mb:.2f} MB of DNA), block_reads={BLOCK_READS} "
        f"({len(index)} blocks), quality off",
        "",
        f"{'version':>8}{'bytes':>12}{'ser_MB/s':>12}{'dec_MB/s':>12}",
        *rows,
        "",
        f"size overhead of checksums: {size_overhead:+.3%}",
        f"decode cost of checksums:   {regression:+.3%} "
        f"(asserted < {MAX_DECODE_REGRESSION:.0%})",
        "",
        f"salvage: {N_KILLED_BLOCKS} blocks destroyed (seed "
        f"{SALVAGE_SEED}) -> recovered "
        f"{report.blocks_recovered}/{report.n_blocks} blocks, "
        f"{len(report.read_set)} reads "
        f"({report.recovery_rate:.1%}) in {salvage_s:.2f}s",
        "",
        "ser = to_bytes() only (v3 is never written); dec = from_bytes "
        "+ full streaming decode (v4 verifies the",
        "header/consensus digests at load and every block digest at "
        "payload access).",
    ]
    write_result("fig22_integrity", "\n".join(lines))

    assert regression < MAX_DECODE_REGRESSION

    # Perf trajectory: one checksum walk over the loaded v4 archive.
    def _verify_walk():
        SAGeArchive.from_bytes(blobs[4]).verify_checksums()

    benchmark.pedantic(_verify_walk, rounds=3, iterations=1)
