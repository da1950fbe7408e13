"""Length-prefixed value serialization.

B+ tree values are opaque byte strings; the layers above store composite
records in them (a marginal next to its CPT in the co-clustered layout,
sparse probability vectors in index entries). This module provides the
shared low-level codecs:

- unsigned LEB128 varints (small ints — counts, state ids — in 1 byte);
- length-prefixed chunk framing (concatenate independently decodable
  byte strings);
- packed ``(uvarint id, float64)`` pair lists, the wire shape of a
  sparse distribution (written by
  :func:`~repro.probability.distribution.encode_marginals`).

Encoders work in batches, as the record encoders above them do: each
takes the values of many records as arrays and places every byte with a
fixed number of NumPy calls (:func:`uvarint_digits`, :func:`place`,
:func:`pack_records`), then cuts one ``bytes`` per record. Decoders read
one record.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import StorageError

_F64 = struct.Struct("<d")


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------

def uvarint_digits(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`encode_uvarint` of every value at once, as ``(lengths,
    digits)``: value ``i``'s bytes are ``digits[i, :lengths[i]]``."""
    values = np.asarray(values, dtype=np.int64)
    if len(values) and values.min() < 0:
        raise StorageError(
            f"uvarint cannot encode negative value {int(values.min())}")
    width, top = 1, int(values.max(initial=0))
    while top >> (7 * width):
        width += 1
    parts = values[:, None] >> (7 * np.arange(width))
    more = parts[:, 1:] > 0
    digits = (parts & 0x7F).astype(np.uint8)
    digits[:, :-1] |= more.astype(np.uint8) << 7
    return 1 + more.sum(axis=1), digits


def place(out: np.ndarray, at: np.ndarray, lengths: np.ndarray,
          digits: np.ndarray) -> None:
    """Write the first ``lengths[i]`` bytes of row ``digits[i]`` to
    ``out[at[i]:]``, for every ``i`` at once."""
    cols = np.arange(digits.shape[1])
    if (lengths == len(cols)).all():
        out[at[:, None] + cols] = digits
        return
    keep = cols < lengths[:, None]
    out[(at[:, None] + cols)[keep]] = digits[keep]


def pack_records(counts: np.ndarray, heads: np.ndarray, body: np.ndarray,
                 sizes: np.ndarray) -> List[bytes]:
    """Records of items: record ``r`` is a uvarint ``counts[r]``, then
    its ``counts[r]`` items in order, item ``i`` a uvarint ``heads[i]``
    followed by its ``sizes[i]`` bytes of ``body`` (every item's bytes,
    concatenated as ``uint8``). The uvarints, in output order, are
    inserted into ``body`` in one ``np.insert``, so the work and the
    memory are a few times the output's size."""
    first = np.cumsum(counts) - counts
    # The tokens in output order: each record's count, then its items'
    # heads; each goes before the body of its item (a count: of its
    # record's first item).
    count_at = first + np.arange(len(counts))
    head = np.ones(len(counts) + len(heads), dtype=bool)
    head[count_at] = False
    body_at = np.concatenate(([0], np.cumsum(sizes)))
    tokens = np.empty(len(head), np.int64)
    tokens[count_at], tokens[head] = counts, heads
    at = np.empty(len(head), np.int64)
    at[count_at], at[head] = body_at[first], body_at[:-1]
    lengths, digits = uvarint_digits(tokens)
    keep = np.arange(digits.shape[1]) < lengths[:, None]
    out = memoryview(np.insert(body, np.repeat(at, lengths), digits[keep]))
    # A record starts at its count: its first body byte's offset plus
    # every token byte before the count.
    starts = (at + np.cumsum(lengths) - lengths)[count_at].tolist()
    return [out[lo:hi].tobytes()
            for lo, hi in zip(starts, starts[1:] + [len(out)])]


def decode_uvarint(data: bytes, pos: int = 0) -> Tuple[int, int]:
    """Returns ``(value, next_pos)``."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise StorageError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise StorageError("uvarint overflow")


# ----------------------------------------------------------------------
# Chunk framing
# ----------------------------------------------------------------------

def pack_frames(chunks: Sequence[bytes], counts: Sequence[int]
                ) -> List[bytes]:
    """Frame runs of consecutive ``chunks`` into one byte string each,
    ``counts[i]`` chunks in frame ``i``: a uvarint count, then a uvarint
    length and the payload per chunk (what :func:`unpack_chunks`
    reads)."""
    sizes = np.fromiter(map(len, chunks), np.int64, len(chunks))
    return pack_records(np.asarray(counts, np.int64), sizes,
                        np.frombuffer(b"".join(chunks), np.uint8), sizes)


def unpack_chunks(data: bytes, pos: int = 0) -> Tuple[List[bytes], int]:
    """Read one frame that :func:`pack_frames` wrote: its chunks, and
    the position after it, as ``(chunks, next_pos)``."""
    count, pos = decode_uvarint(data, pos)
    chunks: List[bytes] = []
    for _ in range(count):
        length, pos = decode_uvarint(data, pos)
        if pos + length > len(data):
            raise StorageError("truncated chunk")
        chunks.append(data[pos:pos + length])
        pos += length
    return chunks, pos


# ----------------------------------------------------------------------
# Sparse (id, weight) vectors
# ----------------------------------------------------------------------

def unpack_pairs(data: bytes, pos: int = 0) -> Tuple[List[Tuple[int, float]], int]:
    """Read a pair list (a uvarint count, then a uvarint id and a
    float64 per pair); returns ``(pairs, next_pos)``."""
    count, pos = decode_uvarint(data, pos)
    pairs: List[Tuple[int, float]] = []
    for _ in range(count):
        key, pos = decode_uvarint(data, pos)
        if pos + 8 > len(data):
            raise StorageError("truncated pair list")
        pairs.append((key, _F64.unpack_from(data, pos)[0]))
        pos += 8
    return pairs, pos
