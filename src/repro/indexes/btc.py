"""BT_C: the chronological secondary index (§3.1).

Search keys are ``(attribute_value, time)``; within one attribute value,
entries are ordered chronologically, so a value's entries in a time
window are one key range, ``[(value, start), (value, stop))``. Reading
that range a leaf at a time as arrays
(:meth:`~repro.indexes.base.ValueIndex.times`) is how Algorithm 2
intersects its links and Algorithms 4 and 5 collect their relevant
events. Entry values store the summed marginal probability of the
attribute value at that timestep (only nonzero probabilities are
indexed, which is what makes skipping exact: a timestep absent from
every relevant value's entries has zero mass on every query predicate).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import KeyEncodingError
from ..storage.keyenc import FixedKey, encode_keys

#: The key ``encode_keys((codes, times))`` writes, 18 bytes.
KEY = FixedKey(int, int)
_PROB = np.dtype("<f8")


def encode(codes: np.ndarray, times: np.ndarray, probs: np.ndarray
           ) -> np.ndarray:
    """The BT_C entries of aggregated arrays, one row each: the key
    ``(code, time)`` followed by the probability's 8 value bytes."""
    values = probs.astype(_PROB).view(np.uint8).reshape(-1, 8)
    return np.hstack((encode_keys((codes, times)), values))


def decode_entries(keys: bytes, values: bytes
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(codes, times, probs)`` of consecutive BT_C entries, given
    their keys and their values each joined back to back."""
    codes, times = KEY.decode(keys)
    if len(values) != _PROB.itemsize * len(times):
        raise KeyEncodingError(
            f"{len(times)} BT_C keys with {len(values)} value bytes")
    return codes, times, np.frombuffer(values, _PROB)
