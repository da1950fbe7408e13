"""The struct-based CPT record encoder that ``encode_block`` replaced,
kept as a byte oracle: ``encode_block(CPTBlock.of(cpts))`` must equal
``[reference_record(cpt) for cpt in cpts]`` byte for byte.

A record is one uvarint header ``rows << 2 | code``, then ``src``,
``row_len`` and ``dst`` as little-endian unsigned ints of ``1 << code``
bytes, then ``val`` as ``<f8``; rows by source, each row's entries by
destination, and the narrowest width that holds every id and row
length. It packs each record with one ``struct.pack`` from the dict
rows, independently of the NumPy encoder.
"""

import struct

from repro.errors import StorageError
from repro.probability import CPT
from repro.storage.record import encode_uvarint


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
