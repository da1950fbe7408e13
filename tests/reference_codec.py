"""The record codec's oracles, each an independent per-record loop.

``encode_uvarint`` is the scalar varint encoder the batch encoders
replaced; ``reference_marginal_record`` the per-pair marginal record
encoder (``encode_marginals(MarginalBlock.of(dists))`` must equal
``[reference_marginal_record(d) for d in dists]``), and
``reference_frame`` the per-chunk frame encoder (``pack_frames``).

``reference_record`` is the struct-based CPT record encoder that
``encode_block`` replaced: ``encode_block(CPTBlock.of(cpts))`` must
equal ``[reference_record(cpt) for cpt in cpts]`` byte for byte.
``reference_decode`` is the per-record decoder that ``decode_block``
replaced: on any records the two return equal blocks, or both raise
:class:`~repro.errors.StorageError`.

A record is one uvarint header ``rows << 2 | code``, then ``src``,
``row_len`` and ``dst`` as little-endian unsigned ints of ``1 << code``
bytes, then ``val`` as ``<f8``; rows by source, each row's entries by
destination, and the narrowest width that holds every id and row
length. It packs each record with one ``struct.pack`` from the dict
rows, independently of the NumPy encoder.
"""

import struct
from typing import Sequence

import numpy as np

from repro.errors import StorageError
from repro.probability import CPT, CPTBlock
from repro.storage.record import decode_uvarint

_ID_DTYPES = ("<u1", "<u2", "<u4")


def encode_uvarint(value: int) -> bytes:
    """Unsigned LEB128 of one value, a byte at a time: the scalar
    oracle of ``repro.storage.record.uvarint_digits``."""
    if value < 0:
        raise StorageError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def reference_record(cpt: CPT) -> bytes:
    rows = dict(cpt.rows())
    srcs = sorted(rows)
    lens = [len(rows[s]) for s in srcs]
    dsts, vals = [], []
    for s in srcs:
        for d, p in sorted(rows[s].items()):
            dsts.append(d)
            vals.append(p)
    top = max(srcs[-1], max(lens), max(dsts)) if srcs else 0
    if top >= 1 << 32:
        raise StorageError(f"CPT id {top} does not fit a record")
    code = 0 if top < 1 << 8 else 1 if top < 1 << 16 else 2
    ints = 2 * len(srcs) + len(dsts)
    return encode_uvarint(len(srcs) << 2 | code) + struct.pack(
        f"<{ints}{'BHI'[code]}{len(vals)}d", *srcs, *lens, *dsts, *vals)


def _record_layout(data: bytes):
    """``(id dtype, id width, rows, offset of src, nnz)`` of one record,
    checking its width code and that its length fits exactly."""
    head, pos = decode_uvarint(data)
    count, code = head >> 2, head & 3
    if code == 3:
        raise StorageError("bad CPT record id width")
    width = 1 << code
    mid = pos + 2 * count * width
    if mid > len(data):
        raise StorageError("truncated CPT record")
    nnz, rest = divmod(len(data) - mid, width + 8)
    if rest:
        raise StorageError("bad CPT record length")
    return _ID_DTYPES[code], width, count, pos, nnz


def reference_decode(records: Sequence[bytes]) -> CPTBlock:
    """The records as one block: zero-copy views of each record's
    ``src | row_len``, ``dst`` and ``val``, concatenated."""
    heads, dsts, vals, counts, nnzs = [], [], [], [], []
    for data in records:
        dtype, width, count, pos, nnz = _record_layout(data)
        mid = pos + 2 * count * width
        heads.append(np.frombuffer(data, dtype, 2 * count, pos))
        dsts.append(np.frombuffer(data, dtype, nnz, mid))
        vals.append(np.frombuffer(data, "<f8", nnz, mid + nnz * width))
        counts.append(count)
        nnzs.append(nnz)
    steps, counts = len(records), np.array(counts, np.int64)
    heads = np.concatenate(heads)
    step = np.arange(steps).repeat(counts)
    at = np.arange(len(step)) + (counts.cumsum() - counts).repeat(counts)
    row_len = heads[at + counts[step]]
    if np.bincount(step, row_len, steps).tolist() != nnzs:
        raise StorageError("bad CPT record length")
    return CPTBlock(steps, step, heads[at], row_len,
                    np.concatenate(dsts),
                    np.concatenate(vals))


def reference_marginal_record(dist) -> bytes:
    """The per-pair marginal record encoder that ``encode_marginals``
    replaced: a uvarint count, then per entry by state a uvarint id and
    a ``<f8`` weight."""
    items = sorted(dist.items())
    return encode_uvarint(len(items)) + b"".join(
        encode_uvarint(state) + struct.pack("<d", p) for state, p in items)


def reference_frame(chunks) -> bytes:
    """The per-chunk frame encoder that ``pack_frames`` replaced: a
    uvarint count, then per chunk a uvarint length and the chunk."""
    return encode_uvarint(len(chunks)) + b"".join(
        encode_uvarint(len(chunk)) + chunk for chunk in chunks)
