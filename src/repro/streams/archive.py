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
    the small marginal tree; Reg-driven scans pay two lookups per step.

``packed``
    One tree, ``{name}__data``, whose cells hold a timestep's marginal
    *and* the CPT arriving into it; K consecutive cells are framed into
    one entry keyed by the frame's first timestep. A sequential scan
    costs ~1/K the logical reads of K = 1 — one descent amortized over K
    timesteps — at the price of decoding (and, for point access,
    discarding) K cells.

``cell``
    ``packed`` with K = 1: one entry per timestep (the paper's
    co-clustered layout), byte for byte. Only the metadata record's
    layout name differs.

All layouts store one metadata record under the reserved key ``(-1,)``
(timesteps are non-negative, so it sorts before every data key) with
the layout name, stream length, and pack factor — enough for
:func:`open_reader` to reopen an archive from its trees alone.
"""

from __future__ import annotations

import enum
import json
from typing import Iterator, List, Optional, Tuple, Union

from ..errors import CatalogError, StorageError, StreamError
from ..probability import CPT, SparseDistribution
from ..storage import BTree, StorageEnvironment, encode_key
from ..storage.record import pack_chunks, unpack_chunks
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
        {"layout": layout.value, "length": length, "pack": pack}
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
    """Archive a stream under the chosen layout (bulk-loaded, flushed)
    and return a reader over it."""
    layout = Layout.parse(layout)
    length = len(stream)
    if layout is Layout.SEPARATED:
        marg = env.open_tree(marg_tree_name(stream.name))
        cpt = env.open_tree(cpt_tree_name(stream.name))
        marg.bulk_load(
            [(META_KEY, _meta_value(layout, length, 1))]
            + [
                (encode_key((t,)), m.to_bytes())
                for t, m in enumerate(stream.marginals)
            ]
        )
        cpt.bulk_load(
            (encode_key((t + 1,)), c.to_bytes())
            for t, c in enumerate(stream.cpts)
        )
        marg.flush()
        cpt.flush()
    else:
        if layout is Layout.CELL:
            pack = 1
        if pack < 1:
            raise StreamError(f"pack factor must be >= 1, got {pack}")
        data = env.open_tree(data_tree_name(stream.name))
        items: List[Tuple[bytes, bytes]] = [
            (META_KEY, _meta_value(layout, length, pack))
        ]
        cells = list(stream.iter_cells())
        for start in range(0, length, pack):
            frame = cells[start:start + pack]
            chunks: List[bytes] = []
            for _, marginal, cpt in frame:
                chunks.append(marginal.to_bytes())
                chunks.append(b"" if cpt is None else cpt.to_bytes())
            items.append((encode_key((start,)), pack_chunks(chunks)))
        data.bulk_load(items)
        data.flush()
    return open_reader(env, stream.name, stream.space, length, layout,
                       pack=pack)


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------
class StreamReader:
    """Uniform read API over an archived stream, any layout.

    Point access (``marginal(t)``, ``cpt_into(t)``) costs one tree
    descent — O(height) logical page reads. Sequential scans issue one
    keyed lookup per timestep (``separated``/``cell``) or per K-step
    frame (``packed``); that lookup count *is* the layout experiment's
    cost metric.
    """

    layout: Layout

    def __init__(self, name: str, space: StateSpace, length: int) -> None:
        self.name = name
        self.space = space
        self.length = length

    # -- point access --------------------------------------------------
    def marginal(self, t: int) -> SparseDistribution:
        raise NotImplementedError

    def cpt_into(self, t: int) -> CPT:
        """The CPT from ``t - 1`` into ``t`` (t >= 1)."""
        raise NotImplementedError

    def _check_time(self, t: int, lo: int = 0) -> None:
        if not lo <= t < self.length:
            raise StreamError(
                f"timestep {t} out of range for stream {self.name!r} "
                f"of length {self.length}"
            )

    def _clamp(self, start: int, stop: Optional[int],
               lo: int = 0) -> Tuple[int, int]:
        stop = self.length if stop is None else min(stop, self.length)
        return max(lo, start), stop

    # -- scans ---------------------------------------------------------
    def scan_marginals(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[Tuple[int, SparseDistribution]]:
        start, stop = self._clamp(start, stop)
        for t in range(start, stop):
            yield t, self.marginal(t)

    def scan_cpts(
        self, start: int = 1, stop: Optional[int] = None
    ) -> Iterator[Tuple[int, CPT]]:
        """Yield ``(t, cpt_into_t)`` for ``t`` in ``[max(start, 1), stop)``."""
        start, stop = self._clamp(start, stop, lo=1)
        for t in range(start, stop):
            yield t, self.cpt_into(t)

    def scan_cells(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[Tuple[int, SparseDistribution, Optional[CPT]]]:
        """Yield ``(t, marginal_t, cpt_into_t)`` (CPT None at t = 0)."""
        start, stop = self._clamp(start, stop)
        for t in range(start, stop):
            yield t, self.marginal(t), (None if t == 0 else self.cpt_into(t))

    # -- materialization ----------------------------------------------
    def materialize(self) -> MarkovianStream:
        """Read the whole archive back into memory."""
        marginals: List[SparseDistribution] = []
        cpts: List[CPT] = []
        for t, marginal, cpt in self.scan_cells():
            marginals.append(marginal)
            if t > 0:
                cpts.append(cpt)
        return MarkovianStream(self.name, self.space, marginals, cpts,
                               validate=False)

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
        super().__init__(name, space, length)
        self._marg = marg
        self._cpt = cpt

    def marginal(self, t: int) -> SparseDistribution:
        self._check_time(t)
        data = self._marg.get(encode_key((t,)))
        if data is None:
            raise StorageError(f"missing marginal at t={t}")
        return SparseDistribution.from_bytes(data)

    def cpt_into(self, t: int) -> CPT:
        self._check_time(t, lo=1)
        data = self._cpt.get(encode_key((t,)))
        if data is None:
            raise StorageError(f"missing CPT into t={t}")
        return CPT.from_bytes(data)


class PackedReader(StreamReader):
    """Reader over the combined layouts: ``packed(K)``, and ``cell`` as
    K = 1. Per-kind scans route through :meth:`scan_cells`, so a full
    scan touches each frame exactly once instead of twice."""

    def __init__(self, data: BTree, name: str, space: StateSpace,
                 length: int, pack: int,
                 layout: Layout = Layout.PACKED) -> None:
        super().__init__(name, space, length)
        self._data = data
        self.pack = pack
        self.layout = layout
        # One-frame cache: point access inside the last-touched frame
        # (marginal(t) then cpt_into(t), short interval walks) decodes
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

    def cpt_into(self, t: int) -> CPT:
        self._check_time(t, lo=1)
        return CPT.from_bytes(self._cell_chunks(t)[1])

    def scan_marginals(self, start=0, stop=None):
        for t, marginal, _ in self.scan_cells(start, stop):
            yield t, marginal

    def scan_cpts(self, start=1, stop=None):
        for t, _, cpt in self.scan_cells(max(1, start), stop):
            yield t, cpt

    def scan_cells(self, start=0, stop=None):
        start, stop = self._clamp(start, stop)
        for t in range(start, stop):
            marg_bytes, cpt_bytes = self._cell_chunks(t)
            marginal = SparseDistribution.from_bytes(marg_bytes)
            cpt = None if t == 0 else CPT.from_bytes(cpt_bytes)
            yield t, marginal, cpt


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
) -> StreamReader:
    """Open a reader over an archived stream.

    ``length``/``layout``/``pack`` normally come from the catalog; any
    left unspecified are recovered from the archive's metadata record.
    """
    layout = None if layout is None else Layout.parse(layout)
    if layout is None:
        if env.exists(data_tree_name(name)):
            meta = _read_meta(env.open_tree(data_tree_name(name)))
            if meta is None:
                raise CatalogError(f"stream {name!r} has no archive metadata")
            layout = Layout.parse(meta["layout"])
        elif env.exists(marg_tree_name(name)):
            layout = Layout.SEPARATED
        else:
            raise CatalogError(f"no archived stream named {name!r}")
    if layout is Layout.SEPARATED:
        marg = env.open_tree(marg_tree_name(name), create=False)
        if length is None:
            meta = _read_meta(marg)
            length = meta["length"] if meta else 0
        return SeparatedReader(
            marg, env.open_tree(cpt_tree_name(name), create=False),
            name, space, length,
        )
    data = env.open_tree(data_tree_name(name), create=False)
    if layout is Layout.CELL:
        pack = 1
    if length is None or pack is None:
        meta = _read_meta(data)
        if meta is None:
            raise CatalogError(f"stream {name!r} has no archive metadata")
        length = meta["length"] if length is None else length
        pack = meta.get("pack", DEFAULT_PACK) if pack is None else pack
    return PackedReader(data, name, space, length, pack or DEFAULT_PACK,
                        layout=layout)
