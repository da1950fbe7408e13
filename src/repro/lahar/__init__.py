"""Lahar query processing: the Reg operator and streaming queries (§3)."""

from .reg import QueryMachine, Reg
from .streaming import Alert, StreamingQuery

__all__ = [
    "Alert",
    "QueryMachine",
    "Reg",
    "StreamingQuery",
]
