"""The planner's candidates, each pinned and run: the reads every legal
access method actually makes, to hold the planner's choice against."""

from typing import Dict, Tuple


def forced_reads(db, stream: str, query, **kwargs) -> Tuple[object,
                                                            Dict[str, int]]:
    """``db.explain(...)``'s decision, and the logical reads of each of
    its legal candidates run on a fresh context."""
    decision = db.explain(stream, query, **kwargs)
    reads = {c.label: c.method.run(db.context(stream, query)).stats.io
             .logical_reads
             for c in decision.candidates if c.illegal is None}
    return decision, reads


def assert_fewest(db, stream: str, query, **kwargs) -> Tuple[str,
                                                             Dict[str, int]]:
    """The planner chose a candidate with the fewest actual reads;
    returns its label and every candidate's reads."""
    decision, reads = forced_reads(db, stream, query, **kwargs)
    chosen = next(c.label for c in decision.candidates
                  if c.method is decision.method)
    assert reads[chosen] == min(reads.values()), (chosen, reads)
    return chosen, reads
