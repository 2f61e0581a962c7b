"""Writers for the legacy container layouts, kept for reader tests.

The product writes only the checksummed v4 layout
(:meth:`repro.core.container.SAGeArchive.to_bytes`), but v2 and v3
blobs must keep loading.  These writers produce such blobs from an
archive so the reader paths stay covered:

- :func:`to_v3_bytes` — the block layout without integrity digests:
  the v4 bytes with the version byte set to 3 and every CRC32 dropped
  (header, consensus, block index).
- :func:`to_v2_bytes` — the monolithic pre-block layout, for one-block
  archives.
"""

from __future__ import annotations

from ..core.bitio import BitWriter
from ..core.container import (MAGIC, STREAM_NAMES, TABLE_ORDER,
                              V2_VERSION, V3_VERSION, ContainerError,
                              SAGeArchive)

__all__ = ["to_v2_bytes", "to_v3_bytes"]

#: Bytes of the global header without its CRC32 (fixed-width fields).
_HEADER_NBYTES = 35

#: Bytes of consensus framing without its CRC32: bits 40 + nbytes 24.
_CONSENSUS_FRAMING_NBYTES = 8

#: Bytes of one block-index entry without its CRC32: n_mapped 40 +
#: n_unmapped 40 + size 32 bits.
_INDEX_ENTRY_NBYTES = 14


def to_v3_bytes(archive: SAGeArchive) -> bytes:
    """Serialize ``archive`` in the v3 layout (v4 minus the digests)."""
    v4 = archive.to_bytes()
    out = bytearray(v4[:_HEADER_NBYTES])
    out[4] = V3_VERSION                       # the byte after the magic
    pos = _HEADER_NBYTES + 4
    out += v4[pos:pos + _CONSENSUS_FRAMING_NBYTES]
    pos += _CONSENSUS_FRAMING_NBYTES + 4
    consensus_nbytes = len(archive.consensus_stream[0])
    out += v4[pos:pos + consensus_nbytes]
    pos += consensus_nbytes
    for _ in range(archive.n_blocks):
        out += v4[pos:pos + _INDEX_ENTRY_NBYTES]
        pos += _INDEX_ENTRY_NBYTES + 4
    out += v4[pos:]
    return bytes(out)


def to_v2_bytes(archive: SAGeArchive) -> bytes:
    """Serialize a one-block ``archive`` in the monolithic v2 layout."""
    if archive.n_blocks != 1:
        raise ContainerError("only one-block archives have a v2 layout")
    blk = archive.block(0)
    writer = BitWriter()
    writer.write(MAGIC, 32)
    writer.write(V2_VERSION, 8)
    writer.write(int(archive.level), 4)
    writer.write_bit(blk.long_reads)
    writer.write_bit(blk.fixed_length)
    writer.write_bit(blk.quality is not None)
    writer.write_bit(archive.preserve_order)
    writer.write_bit(blk.headers_blob is not None)
    writer.write(blk.fixed_read_length, 32)
    writer.write(blk.n_mapped, 40)
    writer.write(blk.n_unmapped, 40)
    writer.write(archive.consensus_length, 40)
    writer.write(blk.w_rlen, 6)
    writer.write(archive.w_cons, 6)
    for key in TABLE_ORDER:
        present = key in blk.tables
        writer.write_bit(present)
        if present:
            blk.tables[key].serialize(writer)
    writer.align_to_byte()
    streams = {"consensus": archive.consensus_stream, **blk.streams}
    for name in STREAM_NAMES:
        payload, bits = streams[name]
        writer.write(bits, 40)
        writer.write(len(payload), 24)
        writer.align_to_byte()
        writer.write_bytes(payload)
    if blk.quality is not None:
        writer.write(len(blk.quality.payload), 40)
        writer.write(blk.quality.n_scores, 40)
        writer.align_to_byte()
        writer.write_bytes(blk.quality.payload)
    if blk.headers_blob is not None:
        writer.write(len(blk.headers_blob), 40)
        writer.align_to_byte()
        writer.write_bytes(blk.headers_blob)
    return writer.getvalue()
