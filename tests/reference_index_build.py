"""The per-entry BT_C/BT_P build, kept as a byte oracle.

This is how the value indexes were once built, one Python tuple at a
time: each marginal summed per indexed value in a dict, each entry
encoded with ``encode_key``, the list sorted by key, and the
statistics counted entry by entry. The array build in
``repro.indexes.builder`` must write the same tree files byte for byte
and count the same :class:`~repro.indexes.ValueStats`.
"""

import struct

from repro.storage import Desc, encode_key

_PROB = struct.Struct("<d")


def reference_entries(space, indexed_attr, marginals, dimensions=None):
    """``(code, t, prob)`` per indexed value and timestep, in marginal
    order; ``indexed_attr`` is ``attr`` or ``attr/Table``."""
    attribute, _, table = indexed_attr.partition("/")
    if table:
        mapping = dimensions[table]
        codes = {v: i for i, v in
                 enumerate(sorted(set(mapping.values()), key=str))}

        def value_of(state):
            return mapping.get(space.attribute_value(state, attribute))
    else:
        vocab = space.vocabulary(attribute)
        codes = {v: vocab.code(v) for v in vocab.values()}

        def value_of(state):
            return space.attribute_value(state, attribute)
    entries = []
    for t, marginal in marginals:
        sums = {}
        for state, p in marginal.items():
            value = value_of(state)
            if value is not None:
                sums[value] = sums.get(value, 0.0) + p
        entries.extend((codes[v], t, p) for v, p in sums.items())
    return entries


def reference_items(kind, entries):
    """One kind's ``(key, value)`` pairs, sorted by key."""
    if kind == "btc":
        items = [(encode_key((c, t)), _PROB.pack(p)) for c, t, p in entries]
    else:
        items = [(encode_key((c, Desc(p), t)), b"") for c, t, p in entries]
    return sorted(items, key=lambda kv: kv[0])


def reference_stats(entries, n_codes, pack):
    """``(entries, runs, frames)`` per code, counted entry by entry
    (times increase per code)."""
    counts = [[0] * n_codes for _ in range(3)]
    last = [-2] * n_codes
    for code, t, _ in entries:
        counts[0][code] += 1
        counts[1][code] += t != last[code] + 1
        counts[2][code] += last[code] < 0 or t // pack != last[code] // pack
        last[code] = t
    return tuple(counts)
