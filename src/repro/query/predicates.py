"""Query predicates over stream states (§3).

A predicate is a boolean condition on one timestep's state. The access
methods care about three things: which *states* satisfy it (to mask
CPTs and marginals), whether it is *indexable* (its satisfying mass is
the sum of a few BT_C/BT_P entries), and which *index terms* cover it —
``(indexed_attribute, value)`` pairs whose per-timestep indexed
probabilities sum to the predicate's marginal mass. A dimension
predicate (§3.4.1: ``dim(location, LocationType) = Hallway``) is
covered either by a join index over ``location/LocationType`` or, as a
fallback, by the union of base-attribute terms for every location the
dimension table maps to the wanted value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from ..errors import QueryError
from ..streams.schema import StateSpace


@dataclass(frozen=True)
class IndexTerm:
    """One secondary-index lookup key: an indexed attribute name
    (``location`` or ``location/Table``) and a value."""

    indexed_attr: str
    value: object


class Predicate:
    """Base class for timestep predicates."""

    #: Whether BT_C/BT_P entries can cover this predicate's mass.
    indexable = True

    def matching_states(self, space: StateSpace) -> FrozenSet[int]:
        raise NotImplementedError

    def signature(self) -> str:
        """Canonical text form — the identity used for deduplication and
        conditioned-index matching."""
        raise NotImplementedError

    def index_terms(self, space: StateSpace) -> List[IndexTerm]:
        """The preferred index terms covering this predicate."""
        raise NotImplementedError

    # Subclasses may add value_level_terms(space) as a fallback when the
    # preferred (join) index is absent; see QueryContext.terms_for.

    def __eq__(self, other) -> bool:
        return isinstance(other, Predicate) and \
            self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.signature()!r})"


class Equals(Predicate):
    """``attribute = value`` — the workhorse predicate."""

    def __init__(self, attribute: str, value) -> None:
        self.attribute = attribute
        self.value = value

    def matching_states(self, space: StateSpace) -> FrozenSet[int]:
        return space.states_with_value(self.attribute, self.value)

    def signature(self) -> str:
        return f"{self.attribute}={self.value}"

    def index_terms(self, space: StateSpace) -> List[IndexTerm]:
        return [IndexTerm(self.attribute, self.value)]


class InSet(Predicate):
    """``attribute in {v1, v2, ...}`` — a small disjunction; indexable
    because timestep states are disjoint, so the values' indexed
    probabilities sum exactly."""

    def __init__(self, attribute: str, values) -> None:
        self.attribute = attribute
        self.values = tuple(sorted(set(values), key=str))
        if not self.values:
            raise QueryError("empty value set in predicate")

    def matching_states(self, space: StateSpace) -> FrozenSet[int]:
        out: FrozenSet[int] = frozenset()
        for value in self.values:
            out |= space.states_with_value(self.attribute, value)
        return out

    def signature(self) -> str:
        inner = ",".join(str(v) for v in self.values)
        return f"{self.attribute} in {{{inner}}}"

    def index_terms(self, space: StateSpace) -> List[IndexTerm]:
        return [IndexTerm(self.attribute, v) for v in self.values]


class DimensionEquals(Predicate):
    """``dim(attribute, Table) = value`` — equality on the dimension
    value a star-schema table assigns to the attribute (§3.4.1)."""

    def __init__(self, attribute: str, table: str, value,
                 mapping: Optional[Dict] = None) -> None:
        self.attribute = attribute
        self.table = table
        self.value = value
        #: The dimension table contents; required for matching_states
        #: and the value-level fallback.
        self.mapping = mapping

    def _need_mapping(self) -> Dict:
        if self.mapping is None:
            raise QueryError(
                f"predicate {self.signature()!r} has no dimension table "
                f"bound — parse it with dimensions={{...}}"
            )
        return self.mapping

    def base_values(self) -> List:
        """The attribute values the table maps to the wanted dimension
        value."""
        mapping = self._need_mapping()
        return sorted(
            (v for v, dim in mapping.items() if dim == self.value), key=str
        )

    def matching_states(self, space: StateSpace) -> FrozenSet[int]:
        out: FrozenSet[int] = frozenset()
        for value in self.base_values():
            out |= space.states_with_value(self.attribute, value)
        return out

    def signature(self) -> str:
        return f"dim({self.attribute},{self.table})={self.value}"

    def index_terms(self, space: StateSpace) -> List[IndexTerm]:
        return [IndexTerm(f"{self.attribute}/{self.table}", self.value)]

    def value_level_terms(self, space: StateSpace) -> List[IndexTerm]:
        """Fallback when no join index exists: one term per base value
        (correct because states are disjoint within a timestep)."""
        vocab = space.vocabulary(self.attribute)
        return [IndexTerm(self.attribute, v)
                for v in self.base_values() if v in vocab]


class Not(Predicate):
    """Negation. Not indexable: the satisfying mass is a complement, so
    index entries (which record only nonzero positive mass) cannot
    cover it. Used for negated Kleene loops (``(!location=R)*``)."""

    indexable = False

    def __init__(self, base: Predicate) -> None:
        self.base = base

    def matching_states(self, space: StateSpace) -> FrozenSet[int]:
        return frozenset(range(len(space))) - self.base.matching_states(space)

    def signature(self) -> str:
        return f"!{self.base.signature()}"

    def index_terms(self, space: StateSpace) -> List[IndexTerm]:
        raise QueryError(f"predicate {self.signature()!r} is not indexable")


class TruePredicate(Predicate):
    """Matches every state (the implicit self-loop on the NFA's start
    state). Not indexable — every timestep is relevant to it."""

    indexable = False

    def matching_states(self, space: StateSpace) -> FrozenSet[int]:
        return frozenset(range(len(space)))

    def signature(self) -> str:
        return "true"

    def index_terms(self, space: StateSpace) -> List[IndexTerm]:
        raise QueryError("'true' is not indexable")
