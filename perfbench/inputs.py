"""Benchmark inputs and run provenance.

Inputs are the RS2 analog from ``repro.genomics.datasets`` at a fixed
scale, generated from the run's ``--seed``: the same seed gives the same
files, byte for byte.  The program under test sees only the generated
FASTQ, reference and archive files.
"""

from __future__ import annotations

import hashlib
import os
import platform
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["DATASET", "BASE_GENOME", "BLOCK_READS", "Inputs",
           "write_inputs", "file_digest", "fold_reads", "provenance"]

DATASET = "RS2"
#: Base genome length handed to the analog generator: 6720 reads of
#: 100 bases (672k bases), six 1120-read blocks.
BASE_GENOME = 30_000
#: Reads per archive block of the batch workloads.
BLOCK_READS = 1120


@dataclass(frozen=True)
class Inputs:
    fastq: Path
    reference: Path
    n_reads: int
    n_bases: int
    fastq_bytes: int
    digest: str            # sha256 over the FASTQ and reference files


def file_digest(*paths: Path) -> str:
    """sha256 over the files' bytes, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def write_inputs(directory: Path, seed: int) -> Inputs:
    """Generate the analog for ``seed`` and write FASTQ + reference."""
    from repro.genomics import datasets, fastq
    from repro.genomics import sequence as seqmod

    directory.mkdir(parents=True, exist_ok=True)
    sim = datasets.generate(DATASET, base_genome=BASE_GENOME, seed=seed)
    reads = directory / "reads.fastq"
    reference = directory / "reads.ref.txt"
    fastq.write_file(sim.read_set, reads)
    reference.write_text(seqmod.decode(sim.reference), encoding="ascii")
    return Inputs(fastq=reads, reference=reference,
                  n_reads=len(sim.read_set),
                  n_bases=sim.read_set.total_bases,
                  fastq_bytes=reads.stat().st_size,
                  digest=file_digest(reads, reference))


def fold_reads(reads, state=None) -> tuple[int, int, int, int]:
    """Order-insensitive digest of reads' base codes.

    The accelerator stand-in of ``prep-seq``: each read's codes are
    hashed on their own and the hashes summed, so any emission order
    gives the same digest.  Returns ``(reads, bases, sum, sum of
    squares)``, the sums modulo 2**64; ``state`` continues a fold.
    """
    n, bases, total, squares = state or (0, 0, 0, 0)
    for read in reads:
        codes = np.ascontiguousarray(read.codes, dtype=np.uint8)
        h = zlib.crc32(codes) | (codes.size << 32)
        n += 1
        bases += codes.size
        total = (total + h) & 0xFFFFFFFFFFFFFFFF
        squares = (squares + h * h) & 0xFFFFFFFFFFFFFFFF
    return n, bases, total, squares


def _git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (root / ".git" / "packed-refs").read_text(
                encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """sha256 over the program's Python sources (path and bytes)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, seed: int, inputs: Inputs, **extra) -> dict:
    """What a result depends on; runs are compared only when it matches."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "source_digest": source_digest(root),
        "seed": seed,
        "dataset": DATASET,
        "base_genome": BASE_GENOME,
        "input_reads": inputs.n_reads,
        "input_bases": inputs.n_bases,
        "input_digest": inputs.digest,
        **extra,
    }
