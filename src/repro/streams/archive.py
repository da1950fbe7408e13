"""The stream archive: Markovian streams on disk (§3.4.2).

Every archived stream is one or more B+ trees in the database's
:class:`~repro.storage.StorageEnvironment`, and every timestep access
is a keyed lookup — the Berkeley-DB access pattern of the paper, and
the cost model its layout experiments measure (a timestep read costs
one tree descent in *logical* page reads, whatever the OS cache does).
Three physical layouts trade that cost off differently:

``separated``
    Two trees, ``{name}__marg`` and ``{name}__cpt``, keyed by timestep.
    Marginal-only consumers (index builds, BT_C aggregation) touch only
    the small marginal tree; a Reg-driven scan reads only the CPT into
    each step, so it too pays one lookup per step.

``packed``
    One tree, ``{name}__data``, whose cells hold a timestep's marginal
    *and* the CPT arriving into it; K consecutive cells are framed into
    one entry keyed by the frame's first timestep. The reader caches the
    last frame it fetched, so K consecutive point reads cost one descent:
    a sequential walk costs ~1/K the logical reads of K = 1.

``cell``
    ``packed`` with K = 1: one entry per timestep (the paper's
    co-clustered layout), byte for byte. Only the metadata record's
    layout name differs.

:func:`write_stream` encodes from the stream's arrays, never from a
per-timestep object: every marginal record comes from one batched
:func:`~repro.probability.encode_marginals` call over the stream's CSR
marginals, which sorts each marginal's entries by state (the stream
keeps its producer's order), the CPT records from one
:func:`~repro.probability.encode_block` call over the stream's
:class:`~repro.probability.CPTBlock`, and the ``packed`` frames from
one :func:`~repro.storage.record.pack_frames` call. :meth:`StreamReader.materialize`
reads a stream back with the same point reads as a walk, then decodes
its CPT records with one :func:`~repro.probability.decode_block`.

All layouts store one metadata record under the reserved key ``(-1,)``
(timesteps are non-negative, so it sorts before every data key) with
the layout name, stream length, pack factor and CPT record version —
enough for :func:`open_reader` to reopen an archive from its trees
alone, and to refuse one written in another record format.
"""

from __future__ import annotations

import enum
import json
from itertools import chain
from typing import List, Optional, Tuple, Union

import numpy as np

from ..errors import CatalogError, StorageError, StreamError
from ..probability import (CPT, CPTBlock, MarginalBlock, SparseDistribution,
                           decode_block, encode_block, encode_marginals)
from ..probability.cpt import RECORD_VERSION, check_record_version
from ..storage import BTree, StorageEnvironment, encode_key
from ..storage.keyenc import encode_keys, key_list
from ..storage.record import pack_frames, unpack_chunks
from ..storage.stats import IOStats
from .markovian import MarkovianStream
from .schema import StateSpace

#: Default frame size for the ``packed`` layout: big enough to amortize
#: the descent, small enough that a frame of typical RFID-scale cells
#: stays inline (no overflow chain) at the default page size.
DEFAULT_PACK = 8

#: Reserved metadata key — sorts before key (0,).
META_KEY = encode_key((-1,))


class Layout(enum.Enum):
    """Physical archive layout (§3.4.2)."""

    SEPARATED = "separated"
    CELL = "cell"
    #: The paper's name for the one-entry-per-timestep combined layout.
    CO_CLUSTERED = "cell"
    PACKED = "packed"

    @classmethod
    def parse(cls, value: Union["Layout", str]) -> "Layout":
        if isinstance(value, Layout):
            return value
        name = str(value).strip().lower().replace("-", "_")
        if name in ("co_clustered", "coclustered"):
            return cls.CELL
        for member in cls:
            if member.value == name:
                return member
        raise StreamError(
            f"unknown layout {value!r} (expected one of: separated, "
            f"cell/co_clustered, packed)"
        )


def marg_tree_name(stream: str) -> str:
    return f"{stream}__marg"


def cpt_tree_name(stream: str) -> str:
    return f"{stream}__cpt"


def data_tree_name(stream: str) -> str:
    return f"{stream}__data"


def _meta_value(layout: Layout, length: int, pack: int) -> bytes:
    return json.dumps(
        {"layout": layout.value, "length": length, "pack": pack,
         "record": RECORD_VERSION}
    ).encode("utf-8")


def _read_meta(tree: BTree) -> Optional[dict]:
    data = tree.get(META_KEY)
    return None if data is None else json.loads(data.decode("utf-8"))


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def write_stream(
    env: StorageEnvironment,
    stream: MarkovianStream,
    layout: Union[Layout, str] = Layout.SEPARATED,
    pack: int = DEFAULT_PACK,
) -> "StreamReader":
    """Archive a stream under the chosen layout (bulk-loaded, committed)
    and return a reader over it.

    Every record comes from the stream's arrays, in batches: the
    marginals' from one :func:`~repro.probability.encode_marginals`
    call, the CPTs' from one :func:`~repro.probability.encode_block`
    call over the stream's block (which encodes it a slice at a time),
    and packed frames from one ``pack_frames`` call. Every key comes
    from one ``encode_keys`` call.
    """
    layout = Layout.parse(layout)
    length = len(stream)
    records = encode_block(stream.cpt_block)
    marginals = encode_marginals(stream.marginal_block)
    if layout is Layout.SEPARATED:
        keys = key_list(encode_keys((np.arange(length),)))
        env.open_tree(marg_tree_name(stream.name)).bulk_load(chain(
            [(META_KEY, _meta_value(layout, length, 1))],
            zip(keys, marginals)))
        env.open_tree(cpt_tree_name(stream.name)).bulk_load(
            zip(keys[1:], records))
    else:
        if layout is Layout.CELL:
            pack = 1
        if pack < 1:
            raise StreamError(f"pack factor must be >= 1, got {pack}")
        # Cell t holds marginal t and the CPT into t (none into 0).
        starts = np.arange(0, length, pack)
        frames = pack_frames(
            [chunk for cell in zip(marginals, [b""] + records)
             for chunk in cell],
            2 * np.diff(starts, append=length))
        env.open_tree(data_tree_name(stream.name)).bulk_load(chain(
            [(META_KEY, _meta_value(layout, length, pack))],
            zip(key_list(encode_keys((starts,))), frames)))
    return open_reader(env, stream.name, stream.space, length, layout,
                       pack=pack, record=RECORD_VERSION)


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------
class StreamReader:
    """Uniform read API over an archived stream, any layout.

    Reads are keyed point lookups: ``marginal(t)`` and ``cpt_record(t)``
    each cost one tree descent — O(height) logical page reads — except
    that ``packed`` serves every read inside its last-fetched frame from
    a cache. That lookup count *is* the layout experiment's cost metric,
    so every CPT read (``cpt_into``, ``cpt_records``, an MC gap's raw
    steps) goes through ``cpt_record``; ``scan_cpts`` only decodes
    ``cpt_records`` as one block. ``io`` is the environment's :class:`IOStats`,
    which every tree of the archive shares.
    """

    layout: Layout
    #: Timesteps per stored frame (only ``packed`` frames more than one).
    pack = 1

    def __init__(self, name: str, space: StateSpace, length: int,
                 io: IOStats) -> None:
        self.name = name
        self.space = space
        self.length = length
        self.io = io

    # -- point access --------------------------------------------------
    def marginal(self, t: int) -> SparseDistribution:
        raise NotImplementedError

    def cpt_record(self, t: int) -> bytes:
        """The stored record of the CPT into ``t`` (t >= 1)."""
        raise NotImplementedError

    def cpt_into(self, t: int) -> CPT:
        """The CPT from ``t - 1`` into ``t`` (t >= 1)."""
        return CPT.from_bytes(self.cpt_record(t))

    def cpt_records(self, start: int, stop: int) -> List[bytes]:
        """The records of the CPTs into ``start .. stop - 1``
        (1 <= start < stop)."""
        self._check_time(stop - 1, lo=start)
        return [self.cpt_record(t) for t in range(start, stop)]

    def scan_cpts(self, start: int, stop: int) -> CPTBlock:
        """The CPTs into ``start .. stop - 1`` (1 <= start < stop)."""
        return decode_block(self.cpt_records(start, stop))

    def dry(self) -> "DryReader":
        """A reader that reads nothing and counts, in ``reads``, the
        logical page reads this reader would make for the same calls
        (records assumed inline, as the cost pins assume)."""
        raise NotImplementedError

    def _check_time(self, t: int, lo: int = 0) -> None:
        if not lo <= t < self.length:
            raise StreamError(
                f"timestep {t} out of range for stream {self.name!r} "
                f"of length {self.length}"
            )

    # -- materialization ----------------------------------------------
    def materialize(self) -> MarkovianStream:
        """Read the whole archive back into memory: a point read of each
        marginal and of the CPT into it, in time order, then one
        :func:`decode_block` of the CPT records."""
        marginals: List[SparseDistribution] = []
        records: List[bytes] = []
        for t in range(self.length):
            marginals.append(self.marginal(t))
            if t > 0:
                records.append(self.cpt_record(t))
        return MarkovianStream.from_arrays(
            self.name, self.space, MarginalBlock.of(marginals),
            decode_block(records))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, length={self.length}, "
            f"layout={self.layout.value})"
        )


class SeparatedReader(StreamReader):
    layout = Layout.SEPARATED

    def __init__(self, marg: BTree, cpt: BTree, name: str,
                 space: StateSpace, length: int) -> None:
        super().__init__(name, space, length, marg.stats)
        self._marg = marg
        self._cpt = cpt

    def marginal(self, t: int) -> SparseDistribution:
        self._check_time(t)
        data = self._marg.get(encode_key((t,)))
        if data is None:
            raise StorageError(f"missing marginal at t={t}")
        return SparseDistribution.from_bytes(data)

    def cpt_record(self, t: int) -> bytes:
        self._check_time(t, lo=1)
        data = self._cpt.get(encode_key((t,)))
        if data is None:
            raise StorageError(f"missing CPT into t={t}")
        return data

    def dry(self) -> "DryReader":
        return DryReader(self, self._marg.height, self._cpt.height)


class PackedReader(StreamReader):
    """Reader over the combined layouts: ``packed(K)``, and ``cell`` as
    K = 1."""

    def __init__(self, data: BTree, name: str, space: StateSpace,
                 length: int, pack: int,
                 layout: Layout = Layout.PACKED) -> None:
        super().__init__(name, space, length, data.stats)
        self._data = data
        self.pack = pack
        self.layout = layout
        # One-frame cache: point access inside the last-touched frame
        # (marginal(t) then cpt_record(t), short interval walks) decodes
        # and fetches the frame once.
        self._cached_start = -1
        self._cached_chunks: List[bytes] = []

    def _frame(self, start: int) -> List[bytes]:
        """The raw chunk list [marg_0, cpt_0, marg_1, cpt_1, ...] of the
        frame beginning at timestep ``start`` (a multiple of pack)."""
        if start == self._cached_start:
            return self._cached_chunks
        data = self._data.get(encode_key((start,)))
        if data is None:
            raise StorageError(f"missing archive frame at t={start}")
        chunks, _ = unpack_chunks(data)
        if len(chunks) % 2:
            raise StorageError(f"bad archive frame at t={start}")
        self._cached_start = start
        self._cached_chunks = chunks
        return chunks

    def _cell_chunks(self, t: int) -> Tuple[bytes, bytes]:
        start = (t // self.pack) * self.pack
        chunks = self._frame(start)
        offset = 2 * (t - start)
        if offset + 1 >= len(chunks):
            raise StorageError(f"timestep {t} beyond frame at {start}")
        return chunks[offset], chunks[offset + 1]

    def marginal(self, t: int) -> SparseDistribution:
        self._check_time(t)
        return SparseDistribution.from_bytes(self._cell_chunks(t)[0])

    def cpt_record(self, t: int) -> bytes:
        self._check_time(t, lo=1)
        return self._cell_chunks(t)[1]

    def dry(self) -> "DryReader":
        height = self._data.height
        return DryReader(self, height, height, self._cached_start)


class DryReader:
    """The read API of a :class:`StreamReader`, reading nothing: each
    call adds its logical page reads to ``reads``. A point read costs
    its tree's height, except inside the frame a packed reader has
    cached. Reads return None, and ``cpt_records`` the range of
    timesteps: one stand-in per record."""

    def __init__(self, reader: StreamReader, marginal_cost: int,
                 cpt_cost: int, cached_start: Optional[int] = None) -> None:
        self.pack = reader.pack
        self.marginal_cost = marginal_cost
        self.cpt_cost = cpt_cost
        self.reads = 0
        #: The cached frame's index (-1: none yet); None: no frame cache.
        self._cached = None if cached_start is None else \
            max(-1, cached_start // self.pack)

    def marginal(self, t: int) -> None:
        self._read(t, t + 1, self.marginal_cost)

    def cpt_record(self, t: int) -> None:
        self._read(t, t + 1, self.cpt_cost)

    def cpt_records(self, start: int, stop: int) -> range:
        self._read(start, stop, self.cpt_cost)
        return range(start, stop)

    def _read(self, start: int, stop: int, cost: int) -> None:
        if stop <= start:
            return
        if self._cached is None:
            self.reads += (stop - start) * cost
            return
        first, last = start // self.pack, (stop - 1) // self.pack
        self.reads += (last - first + 1 - (first == self._cached)) * cost
        self._cached = last


# ----------------------------------------------------------------------
# Opening
# ----------------------------------------------------------------------
def open_reader(
    env: StorageEnvironment,
    name: str,
    space: StateSpace,
    length: Optional[int] = None,
    layout: Optional[Union[Layout, str]] = None,
    pack: Optional[int] = None,
    record: Optional[int] = None,
) -> StreamReader:
    """Open a reader over an archived stream.

    ``length``/``layout``/``pack``/``record`` normally come from the
    catalog; when any is left unspecified, all are recovered from the
    archive's metadata record. A CPT record version other than
    :data:`~repro.probability.cpt.RECORD_VERSION` raises
    :class:`~repro.errors.CatalogError`.
    """
    layout = None if layout is None else Layout.parse(layout)
    if layout is None and not env.exists(data_tree_name(name)):
        if not env.exists(marg_tree_name(name)):
            raise CatalogError(f"no archived stream named {name!r}")
        layout = Layout.SEPARATED
    separated = layout is Layout.SEPARATED
    if separated or layout is Layout.CELL:
        pack = 1
    tree = env.open_tree(
        marg_tree_name(name) if separated else data_tree_name(name),
        create=False)
    if None in (layout, length, pack, record):
        meta = _read_meta(tree)
        if meta is None:
            raise CatalogError(f"stream {name!r} has no archive metadata")
        layout = layout or Layout.parse(meta["layout"])
        length = meta["length"] if length is None else length
        pack = meta.get("pack", DEFAULT_PACK) if pack is None else pack
        record = meta.get("record", 1) if record is None else record
    check_record_version(record, f"stream {name!r}")
    if separated:
        return SeparatedReader(
            tree, env.open_tree(cpt_tree_name(name), create=False),
            name, space, length,
        )
    return PackedReader(tree, name, space, length, pack or DEFAULT_PACK,
                        layout=layout)
