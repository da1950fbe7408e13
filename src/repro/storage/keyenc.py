"""Order-preserving key encoding.

B+ tree keys are raw byte strings compared with ``bytes.__lt__``; the
index layers build composite keys like ``(value_code, time)`` (BT_C) and
``(value_code, prob, time)`` (BT_P). :func:`encode_key` maps tuples of
ints / floats / strings / bytes to byte strings whose lexicographic
order equals the tuple order, component by component:

- **ints** — 8-byte big-endian with the sign bit flipped (bias by
  2^63), so negative values sort before positive;
- **floats** — IEEE 754 big-endian; negative values have all 64 bits
  inverted, non-negative values get the sign bit set. Total order:
  -inf < ... < -0.0 == 0.0 is *not* collapsed (they encode differently,
  -0.0 first) but both sort between negatives and positives;
- **strings / bytes** — the payload with ``0x00`` escaped as
  ``0x00 0xFF`` and a ``0x00`` terminator, so a proper prefix sorts
  first and no component ever runs into the next one;
- **Desc(x)** — payload bytes bit-inverted, so a *forward* scan
  enumerates values in *descending* order (how BT_P orders
  probabilities high→low). Fixed-width payloads only (int / float).

Each component carries a type tag; tags only matter when a position
mixes types, which the index layers never do.

:func:`encode_keys` is the array counterpart for index builds: it
encodes whole columns of ints and ``Desc`` floats at once into
fixed-width rows, byte for byte what :func:`encode_key` writes per row.
:func:`encode_key` stays the one scalar encoder (point lookups, seeks);
:func:`key_list` turns the rows into keys for a bulk load, and
:class:`FixedKey` decodes such keys back into columns, a leaf's worth
at a time.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import KeyEncodingError

_INT = struct.Struct(">Q")
_FLOAT = struct.Struct(">d")

_TAG_NULL = 0x01
_TAG_INT = 0x10
_TAG_FLOAT = 0x20
_TAG_STR = 0x30
_TAG_BYTES = 0x38
_TAG_DESC = 0x50

_INT_BIAS = 1 << 63
_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1
_MASK = (1 << 64) - 1

#: Byte inversion as a ``bytes.translate`` table.
_INVERT = bytes(b ^ 0xFF for b in range(256))


class Desc:
    """Marks one key component as descending-order."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Desc({self.value!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Desc) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Desc", self.value))


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def _encode_int(value: int) -> bytes:
    if not _INT_MIN <= value <= _INT_MAX:
        raise KeyEncodingError(f"integer key component out of range: {value}")
    return _INT.pack(value + _INT_BIAS)


def _encode_float(value: float) -> bytes:
    if value != value:  # NaN has no place in a total order
        raise KeyEncodingError("NaN cannot be used as a key component")
    bits = _INT.unpack(_FLOAT.pack(value))[0]
    if bits & (1 << 63):
        bits ^= _MASK  # negative: invert everything
    else:
        bits |= 1 << 63  # non-negative: flip the sign bit
    return _INT.pack(bits)


def _escape(payload: bytes) -> bytes:
    return payload.replace(b"\x00", b"\x00\xff") + b"\x00"


def _invert(payload: bytes) -> bytes:
    return payload.translate(_INVERT)


def _encode_component(out: List[bytes], item) -> None:
    if isinstance(item, Desc):
        inner = item.value
        if isinstance(inner, bool) or not isinstance(inner, (int, float)):
            raise KeyEncodingError(
                f"Desc() supports int/float components, got {inner!r}"
            )
        if isinstance(inner, int):
            tag, payload = _TAG_INT, _encode_int(inner)
        else:
            tag, payload = _TAG_FLOAT, _encode_float(inner)
        out.append(bytes((_TAG_DESC, 0xFF - tag)))
        out.append(_invert(payload))
    elif item is None:
        out.append(bytes((_TAG_NULL,)))
    elif isinstance(item, bool):
        # bool is an int subclass; encode as its integer value.
        out.append(bytes((_TAG_INT,)))
        out.append(_encode_int(int(item)))
    elif isinstance(item, int):
        out.append(bytes((_TAG_INT,)))
        out.append(_encode_int(item))
    elif isinstance(item, float):
        out.append(bytes((_TAG_FLOAT,)))
        out.append(_encode_float(item))
    elif isinstance(item, str):
        out.append(bytes((_TAG_STR,)))
        out.append(_escape(item.encode("utf-8")))
    elif isinstance(item, (bytes, bytearray)):
        out.append(bytes((_TAG_BYTES,)))
        out.append(_escape(bytes(item)))
    else:
        raise KeyEncodingError(
            f"cannot encode key component of type {type(item).__name__}"
        )


def encode_key(components: Iterable) -> bytes:
    """Encode a tuple of key components into an order-preserving key."""
    if isinstance(components, (str, bytes, bytearray)):
        raise KeyEncodingError(
            "encode_key takes a tuple of components; wrap single values "
            "in a 1-tuple"
        )
    out: List[bytes] = []
    for item in components:
        _encode_component(out, item)
    return b"".join(out)


#: The inner tag of a ``Desc(float)`` component.
_TAG_DESC_FLOAT = 0xFF - _TAG_FLOAT


#: Per row of a ``Desc(float)`` column, indexed by the float's sign
#: bit: the bytes XORed into its big-endian bits. They make
#: ``_encode_float``'s flip and ``Desc``'s inversion in one step: a
#: non-negative float has every bit but its sign bit inverted, a
#: negative one keeps its bits.
_DESC_FLOAT_FLIP = np.array([[0x7F] + [0xFF] * 7, [0] * 8], dtype=np.uint8)


def encode_keys(columns: Sequence) -> np.ndarray:
    """Encode whole key columns at once: row ``i`` of the ``(n, width)``
    uint8 result is ``encode_key`` of every column's ``i``-th element.

    A column is a 1-D signed integer array (9 bytes a row) or ``Desc``
    of a 1-D float array (10 bytes a row), so every row has the same
    width. Raises :class:`KeyEncodingError` on any other column (so on
    ints beyond int64, which NumPy holds as uint64 or objects) and on
    NaN, as :func:`encode_key` does.
    """
    checked = []
    for column in columns:
        desc = isinstance(column, Desc)
        values = np.asarray(column.value if desc else column)
        if values.ndim != 1 or \
                (checked and len(values) != len(checked[0][1])):
            raise KeyEncodingError(
                "encode_keys takes 1-D columns of one length")
        if desc and values.dtype.kind == "f":
            if np.isnan(values).any():
                raise KeyEncodingError("NaN cannot be used as a key component")
        elif desc or values.dtype.kind != "i":
            kind = f"Desc({values.dtype})" if desc else str(values.dtype)
            raise KeyEncodingError(
                f"encode_keys takes int or Desc(float) columns, got {kind}")
        checked.append((desc, values))
    out = np.empty((len(checked[0][1]) if checked else 0,
                    sum(10 if desc else 9 for desc, _ in checked)),
                   dtype=np.uint8)
    pos = 0
    for desc, values in checked:
        if desc:
            out[:, pos:pos + 2] = (_TAG_DESC, _TAG_DESC_FLOAT)
            payload = out[:, pos + 2:pos + 10]
            payload[:] = values.astype(">f8").view(np.uint8).reshape(-1, 8)
            payload ^= _DESC_FLOAT_FLIP[np.signbit(values).view(np.uint8)]
            pos += 10
        else:
            out[:, pos] = _TAG_INT
            payload = out[:, pos + 1:pos + 9]
            payload[:] = values.astype(">i8").view(np.uint8).reshape(-1, 8)
            payload[:, 0] ^= 0x80  # the bias by 2^63 flips the top bit
            pos += 9
    return out


def key_list(rows: np.ndarray) -> List[bytes]:
    """The rows of :func:`encode_keys` as a list of keys."""
    return rows.view(f"V{rows.shape[1]}").reshape(-1).tolist()


#: The sign bit of a 64-bit payload.
_TOP_BIT = np.uint64(1 << 63)


class FixedKey:
    """The fixed-width keys :func:`encode_keys` writes for one sequence
    of column kinds, ``int`` or ``Desc(float)``: their width, and the
    array decode of many keys at once."""

    def __init__(self, *columns) -> None:
        self._desc = [isinstance(column, Desc) for column in columns]
        self._tags = [_TAG_DESC << 8 | _TAG_DESC_FLOAT if desc else _TAG_INT
                      for desc in self._desc]
        self._dtype = np.dtype([
            field for i, desc in enumerate(self._desc)
            for field in ((f"tag{i}", ">u2" if desc else "u1"),
                          (f"value{i}", ">u8"))])
        #: Bytes per key.
        self.size = self._dtype.itemsize

    def decode(self, data: bytes) -> List[np.ndarray]:
        """One array per column of the keys ``data`` holds back to back:
        int64 for an ``int`` column, float64 for a ``Desc(float)`` one.
        Raises :class:`KeyEncodingError` unless ``data`` is whole keys
        whose every tag is its column's."""
        if len(data) % self.size:
            raise KeyEncodingError(
                f"{len(data)} bytes are not whole {self.size}-byte keys")
        rows = np.frombuffer(data, self._dtype)
        out = []
        for i, (desc, tag) in enumerate(zip(self._desc, self._tags)):
            if (rows[f"tag{i}"] != tag).any():
                raise KeyEncodingError(
                    f"bad key tag in column {i} of a {self.size}-byte key")
            bits = rows[f"value{i}"].astype(np.uint64)
            if desc:  # undo Desc's inversion, then _encode_float's flip
                bits = ~bits
                bits = np.where(bits & _TOP_BIT, bits & ~_TOP_BIT, ~bits)
            out.append(bits.view(np.float64) if desc
                       else (bits ^ _TOP_BIT).view(np.int64))
        return out


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

def _decode_terminated(data: bytes, pos: int) -> Tuple[bytes, int]:
    chunks: List[bytes] = []
    while True:
        end = data.index(b"\x00", pos)
        chunks.append(data[pos:end])
        if end + 1 < len(data) and data[end + 1] == 0xFF:
            chunks.append(b"\x00")
            pos = end + 2
        else:
            return b"".join(chunks), end + 1


def _decode_float_bits(bits: int) -> float:
    if bits & (1 << 63):
        bits &= ~(1 << 63) & _MASK
    else:
        bits ^= _MASK
    return _FLOAT.unpack(_INT.pack(bits))[0]


def decode_key(data: bytes) -> tuple:
    """Invert :func:`encode_key`. ``Desc`` components decode to their
    plain (unwrapped) values."""
    out = []
    pos = 0
    try:
        while pos < len(data):
            tag = data[pos]
            pos += 1
            if tag == _TAG_NULL:
                out.append(None)
            elif tag == _TAG_INT:
                out.append(_INT.unpack_from(data, pos)[0] - _INT_BIAS)
                pos += 8
            elif tag == _TAG_FLOAT:
                out.append(_decode_float_bits(_INT.unpack_from(data, pos)[0]))
                pos += 8
            elif tag == _TAG_STR:
                raw, pos = _decode_terminated(data, pos)
                out.append(raw.decode("utf-8"))
            elif tag == _TAG_BYTES:
                raw, pos = _decode_terminated(data, pos)
                out.append(raw)
            elif tag == _TAG_DESC:
                inner = 0xFF - data[pos]
                pos += 1
                payload = _invert(data[pos:pos + 8])
                pos += 8
                bits = _INT.unpack(payload)[0]
                if inner == _TAG_INT:
                    out.append(bits - _INT_BIAS)
                elif inner == _TAG_FLOAT:
                    out.append(_decode_float_bits(bits))
                else:
                    raise KeyEncodingError(
                        f"bad Desc inner tag 0x{inner:02x}"
                    )
            else:
                raise KeyEncodingError(f"bad key tag 0x{tag:02x} at {pos - 1}")
    except (struct.error, ValueError, IndexError) as exc:
        raise KeyEncodingError(f"truncated or corrupt key: {exc}") from None
    return tuple(out)


# ----------------------------------------------------------------------
# Range helpers
# ----------------------------------------------------------------------

def prefix_upper_bound(prefix: bytes) -> bytes:
    """The smallest byte string greater than every key starting with
    ``prefix`` — the exclusive upper bound of a prefix range scan."""
    suffix = bytearray(prefix)
    while suffix:
        if suffix[-1] != 0xFF:
            suffix[-1] += 1
            return bytes(suffix)
        suffix.pop()
    raise KeyEncodingError("prefix has no finite upper bound")
