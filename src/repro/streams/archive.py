"""The stream archive: Markovian streams on disk (§3.4.2).

Every archived stream is one or more B+ trees in the database's
:class:`~repro.storage.StorageEnvironment`, keyed by timestep. A single
timestep (a marginal, an MC gap's raw step) is a keyed lookup, one tree
descent in *logical* page reads whatever the OS cache does; a run of
adjacent timesteps (Alg 1's scan, an Alg 2 interval, an Alg 4/5 run of
relevant events) is one *run read*: one descent to its first record,
then one read per further leaf, so it costs the tree's height plus the
leaf fences it crosses. Three physical layouts trade these costs off
differently:

``separated``
    Two trees, ``{name}__marg`` and ``{name}__cpt``, keyed by timestep.
    Marginal-only consumers (index builds, BT_C aggregation) touch only
    the small marginal tree; a Reg-driven run reads one marginal, then
    only the CPT into each step.

``packed``
    One tree, ``{name}__data``, whose cells hold a timestep's marginal
    *and* the CPT arriving into it; K consecutive cells are framed into
    one entry keyed by the frame's first timestep. A run read takes
    whole frames from each leaf; the reader caches the last frame it
    decoded, so point reads inside it, and a run that starts inside it,
    read no page for it.

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
reads a stream back with one run read of its marginals and one of its
CPTs, then decodes the CPT records with one
:func:`~repro.probability.decode_block`.

All layouts store one metadata record under the reserved key ``(-1,)``
(timesteps are non-negative, so it sorts before every data key) with
the layout name, stream length, pack factor and CPT record version —
enough for :func:`open_reader` to reopen an archive from its trees
alone, and to refuse one written in another record format.

:meth:`StreamReader.fences` gives, per tree, the timestep (or frame
start) at which each leaf after the first begins: the catalog records
them at archive time, and :class:`DryReader` prices a run read with
them without reading a page.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_right
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CatalogError, StorageError, StreamError
from ..probability import (CPT, CPTBlock, MarginalBlock, SparseDistribution,
                           decode_block, encode_block, encode_marginals)
from ..probability.cpt import RECORD_VERSION, check_record_version
from ..storage import BTree, StorageEnvironment, decode_key, encode_key
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

#: Per tree of an archive (``marg``, ``cpt`` or ``data``), the timestep
#: or frame start at which each of its leaves after the first begins.
Fences = Dict[str, List[int]]


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
    reader = open_reader(env, stream.name, stream.space, length, layout,
                         pack=pack, record=RECORD_VERSION)
    reader.fences()  # kept by the loads: no page is read
    return reader


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------
class StreamReader:
    """Uniform read API over an archived stream, any layout.

    ``marginal(t)`` and ``cpt_record(t)`` are keyed point lookups, one
    tree descent each — O(height) logical page reads — except that
    ``packed`` serves every read inside its last-decoded frame from a
    cache. A run of adjacent timesteps is read as one run
    (:meth:`cpt_run`, :meth:`marginal_run`): one descent to its first
    record, then a leaf's records at a time, ``height`` plus the leaf
    fences it crosses in all. Every whole-stream read goes by run
    (``scan_cpts``, :meth:`materialize`); point reads
    are left to single marginals and an MC gap's raw steps. ``io`` is
    the environment's :class:`IOStats`, which every tree of the archive
    shares.
    """

    layout: Layout
    #: Timesteps per stored frame (only ``packed`` frames more than one).
    pack = 1

    def __init__(self, name: str, space: StateSpace, length: int,
                 io: IOStats, fences: Optional[Fences]) -> None:
        self.name = name
        self.space = space
        self.length = length
        self.io = io
        self._fences = fences

    # -- point access --------------------------------------------------
    def marginal(self, t: int) -> SparseDistribution:
        raise NotImplementedError

    def cpt_record(self, t: int) -> bytes:
        """The stored record of the CPT into ``t`` (t >= 1)."""
        raise NotImplementedError

    def cpt_into(self, t: int) -> CPT:
        """The CPT from ``t - 1`` into ``t`` (t >= 1)."""
        return CPT.from_bytes(self.cpt_record(t))

    # -- run access ----------------------------------------------------
    def cpt_run(self, start: int, stop: int) -> Iterator[bytes]:
        """The records of the CPTs into ``start .. stop - 1``
        (1 <= start <= stop), read as one run when the iteration
        reaches them."""
        self._check_run(start, stop, lo=1)
        return self._run(start, stop, 1) if start < stop else iter(())

    def marginal_run(self, start: int, stop: int) -> Iterator[bytes]:
        """The records of the marginals at ``start .. stop - 1``, read
        as one run."""
        self._check_run(start, stop)
        return self._run(start, stop, 0) if start < stop else iter(())

    def scan_cpts(self, start: int, stop: int) -> CPTBlock:
        """The CPTs into ``start .. stop - 1`` (1 <= start < stop), read
        as one run and decoded as one block."""
        self._check_time(stop - 1, lo=start)
        return decode_block(list(self.cpt_run(start, stop)))

    def _run(self, start: int, stop: int, part: int) -> Iterator[bytes]:
        """Records ``start .. stop - 1`` of the marginals (``part`` 0)
        or of the CPTs into them (1), as one run read."""
        raise NotImplementedError

    # -- predictions ---------------------------------------------------
    def fences(self) -> Fences:
        """Per tree, the timestep or frame start at which each leaf
        after the first begins: as recorded in the catalog, or read
        once from the trees' branch pages (:meth:`BTree.fences`)."""
        if self._fences is None:
            self._fences = {
                role: [decode_key(key)[0] for key in tree.fences()]
                for role, tree in self._trees().items()}
        return self._fences

    def dry(self) -> "DryReader":
        """A reader that reads nothing and counts, in ``reads``, the
        logical page reads this reader would make for the same calls
        (records assumed inline, as the cost pins assume)."""
        raise NotImplementedError

    def _trees(self) -> Dict[str, BTree]:
        raise NotImplementedError

    def _check_time(self, t: int, lo: int = 0) -> None:
        if not lo <= t < self.length:
            raise StreamError(
                f"timestep {t} out of range for stream {self.name!r} "
                f"of length {self.length}"
            )

    def _check_run(self, start: int, stop: int, lo: int = 0) -> None:
        if not lo <= start <= stop <= self.length:
            raise StreamError(
                f"run [{start}, {stop}) out of range for stream "
                f"{self.name!r} of length {self.length}"
            )

    # -- materialization ----------------------------------------------
    def materialize(self) -> MarkovianStream:
        """Read the whole archive back into memory: a run read of each
        tree, then one :func:`decode_block` of the CPT records."""
        marginals, cpts = self._whole()
        return MarkovianStream.from_arrays(
            self.name, self.space,
            MarginalBlock.of([SparseDistribution.from_bytes(data)
                              for data in marginals]),
            decode_block(cpts))

    def _whole(self) -> Tuple[List[bytes], List[bytes]]:
        """Every marginal record and every CPT record, in time order:
        a run read of each."""
        return (list(self.marginal_run(0, self.length)),
                list(self.cpt_run(1, self.length)))

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
                 space: StateSpace, length: int,
                 fences: Optional[Fences] = None) -> None:
        super().__init__(name, space, length, marg.stats, fences)
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

    def _run(self, start: int, stop: int, part: int) -> Iterator[bytes]:
        tree = self._cpt if part else self._marg
        return chain.from_iterable(tree.run_values(
            encode_key((start,)), encode_key((stop,)), stop - start))

    def _trees(self) -> Dict[str, BTree]:
        return {"marg": self._marg, "cpt": self._cpt}

    def dry(self) -> "DryReader":
        fences = self.fences()
        return DryReader(self, (self._marg.height, fences["marg"]),
                         (self._cpt.height, fences["cpt"]))


class PackedReader(StreamReader):
    """Reader over the combined layouts: ``packed(K)``, and ``cell`` as
    K = 1."""

    def __init__(self, data: BTree, name: str, space: StateSpace,
                 length: int, pack: int,
                 layout: Layout = Layout.PACKED,
                 fences: Optional[Fences] = None) -> None:
        super().__init__(name, space, length, data.stats, fences)
        self._data = data
        self.pack = pack
        self.layout = layout
        # One-frame cache: point access inside the last-decoded frame
        # (marginal(t) then cpt_record(t), short interval walks), and a
        # run that starts in it, fetch and decode the frame once.
        self._cached_start = -1
        self._cached_chunks: List[bytes] = []

    def _frames(self, first: int, last: int) -> Iterator[List[bytes]]:
        """The raw chunk lists [marg_0, cpt_0, marg_1, cpt_1, ...] of
        frames ``first .. last`` (frame indexes), in order: the cached
        frame from the cache, the rest as one run read. Each becomes the
        cached frame as it is decoded."""
        pack = self.pack
        if first * pack == self._cached_start:
            yield self._cached_chunks
            first += 1
        if first > last:
            return
        values = self._data.run_values(encode_key((first * pack,)),
                                       encode_key(((last + 1) * pack,)),
                                       last - first + 1)
        for start, data in zip(range(first * pack, self.length, pack),
                               chain.from_iterable(values)):
            chunks, _ = unpack_chunks(data)
            if len(chunks) != 2 * min(pack, self.length - start):
                raise StorageError(f"bad archive frame at t={start}")
            self._cached_start = start
            self._cached_chunks = chunks
            yield chunks

    def _run(self, start: int, stop: int, part: int) -> Iterator[bytes]:
        pack = self.pack
        first = start // pack
        for frame, chunks in enumerate(
                self._frames(first, (stop - 1) // pack), first):
            at = frame * pack
            yield from chunks[2 * max(start - at, 0) + part:
                              2 * min(stop - at, pack):2]

    def _cell(self, t: int) -> List[bytes]:
        """The chunks of ``t``'s frame (a point read, or the cache)."""
        frame = t // self.pack
        return next(self._frames(frame, frame))

    def marginal(self, t: int) -> SparseDistribution:
        self._check_time(t)
        return SparseDistribution.from_bytes(
            self._cell(t)[2 * (t % self.pack)])

    def cpt_record(self, t: int) -> bytes:
        self._check_time(t, lo=1)
        return self._cell(t)[2 * (t % self.pack) + 1]

    def _trees(self) -> Dict[str, BTree]:
        return {"data": self._data}

    def _whole(self) -> Tuple[List[bytes], List[bytes]]:
        # Both from one pass over the frames.
        chunks = [chunk for frame in self._frames(
            0, (self.length - 1) // self.pack) for chunk in frame]
        return chunks[0::2], chunks[3::2]  # no CPT into timestep 0

    def dry(self) -> "DryReader":
        tree = (self._data.height, self.fences()["data"])
        return DryReader(self, tree, tree, self._cached_start)


class DryReader:
    """The read API of a :class:`StreamReader`, reading nothing: each
    call adds its logical page reads to ``reads``. A point read costs
    its tree's height, and a run read (:meth:`cpt_run`) the height plus
    the leaf fences between its first and its last record — except
    inside the frame a packed reader has cached, which costs nothing.
    Reads return None, and ``cpt_run`` one stand-in per record."""

    def __init__(self, reader: StreamReader,
                 marginal: Tuple[int, Sequence[int]],
                 cpt: Tuple[int, Sequence[int]],
                 cached_start: Optional[int] = None) -> None:
        self.pack = reader.pack
        self.length = reader.length
        #: ``(height, fences)`` of the tree each kind of read goes to.
        self.marginal_cost, self.marginal_fences = marginal
        self.cpt_cost, self.cpt_fences = cpt
        self.reads = 0
        #: The cached frame's index (-1: none yet); None: no frame cache.
        self._cached = None if cached_start is None else \
            max(-1, cached_start // self.pack)

    def marginal(self, t: int) -> None:
        self._point(t, self.marginal_cost)

    def cpt_record(self, t: int) -> None:
        self._point(t, self.cpt_cost)

    def cpt_run(self, start: int, stop: int) -> Iterator[int]:
        if start < stop:
            if self._cached is None:
                self._span(start, stop - 1)
            else:
                first, last = start // self.pack, (stop - 1) // self.pack
                if first == self._cached:
                    first += 1
                if first <= last:
                    self._span(first * self.pack, last * self.pack)
                self._cached = last
        return iter(range(start, stop))

    def _point(self, t: int, cost: int) -> None:
        if self._cached is None or t // self.pack != self._cached:
            self.reads += cost
        if self._cached is not None:
            self._cached = t // self.pack

    def _span(self, first: int, last: int) -> None:
        """A run read from key ``first`` to key ``last`` of the CPT
        tree: the descent, then one leaf per fence crossed."""
        fences = self.cpt_fences
        self.reads += self.cpt_cost + bisect_right(fences, last) - \
            bisect_right(fences, first)


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
    fences: Optional[Fences] = None,
) -> StreamReader:
    """Open a reader over an archived stream.

    ``length``/``layout``/``pack``/``record`` normally come from the
    catalog; when any is left unspecified, all are recovered from the
    archive's metadata record. A CPT record version other than
    :data:`~repro.probability.cpt.RECORD_VERSION` raises
    :class:`~repro.errors.CatalogError`. ``fences`` (the catalog's
    :meth:`StreamReader.fences`) are read from the trees when first
    needed if not given.
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
            name, space, length, fences=fences,
        )
    return PackedReader(tree, name, space, length, pack or DEFAULT_PACK,
                        layout=layout, fences=fences)
