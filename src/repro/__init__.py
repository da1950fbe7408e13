"""Caldera: access methods for archived Markovian streams.

A from-scratch reproduction of *"Access Methods for Markovian Streams"*
(Letchner, Ré, Balazinska, Philipose — ICDE 2009 / UW TR #TR08-07-01).

The package is layered bottom-up:

- :mod:`repro.storage` — page-based B+ tree storage engine (BDB substitute);
- :mod:`repro.probability` — sparse distributions and CPTs;
- :mod:`repro.hmm` — HMMs, forward-backward smoothing, Viterbi decoding;
- :mod:`repro.streams` — the Markovian stream model, archive layouts and
  the synthetic stream generators (§4.1.1);
- :mod:`repro.query` — predicates and Regular (linear-NFA) event queries;
- :mod:`repro.lahar` — the Reg operator (Lahar-style NFA probability);
- :mod:`repro.indexes` — BT_C, BT_P secondary indexes and the MC index;
- :mod:`repro.access` — the paper's access methods (Algorithms 1-3, 5 and
  the semi-independent approximation);
- :mod:`repro.core` — the Caldera engine: catalog, planner, operators.

Quickstart: see ``examples/quickstart.py`` for an end-to-end walkthrough.
"""

__version__ = "1.0.0"

from .errors import (
    CatalogError,
    InferenceError,
    KeyEncodingError,
    PageError,
    PlanningError,
    QueryError,
    ReproError,
    StorageError,
    StreamError,
)

__all__ = [
    "Caldera",
    "CatalogError",
    "InferenceError",
    "KeyEncodingError",
    "PageError",
    "PlanningError",
    "QueryError",
    "ReproError",
    "StorageError",
    "StreamError",
    "__version__",
]


def __getattr__(name):
    # Lazy import of the engine keeps `import repro` light and avoids
    # import cycles while the package initializes.
    if name == "Caldera":
        from .core.engine import Caldera

        return Caldera
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
