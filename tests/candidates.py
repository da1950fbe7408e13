"""The planner's candidates, each pinned and run: the reads and the
timesteps every legal access method actually spends, to hold the
planner's choice against. Its cost model weighs a page read and a
timestep walked one unit each."""

from typing import Dict, Tuple


def forced_costs(db, stream: str, query, **kwargs
                 ) -> Tuple[object, Dict[str, int], Dict[str, int]]:
    """``db.explain(...)``'s decision, and the logical reads and the
    cost (reads plus timesteps walked: Reg initializations and updates)
    of each of its legal candidates run on a fresh context."""
    decision = db.explain(stream, query, **kwargs)
    reads, costs = {}, {}
    for c in decision.candidates:
        if c.illegal is None:
            stats = c.method.run(db.context(stream, query)).stats
            reads[c.label] = stats.io.logical_reads
            costs[c.label] = reads[c.label] + stats.reg_initializations \
                + stats.reg_updates
    return decision, reads, costs


def forced_reads(db, stream: str, query, **kwargs) -> Tuple[object,
                                                            Dict[str, int]]:
    """``db.explain(...)``'s decision, and the logical reads of each of
    its legal candidates run on a fresh context."""
    decision, reads, _ = forced_costs(db, stream, query, **kwargs)
    return decision, reads


def assert_cheapest(db, stream: str, query, **kwargs
                    ) -> Tuple[str, Dict[str, int]]:
    """The planner chose a candidate with the least actual cost (reads
    plus timesteps walked), once its probe is spent: a pinned run of an
    event-based method reads the events itself, any other candidate
    would come after the probe. Returns the chosen label and every
    candidate's reads."""
    decision, reads, costs = forced_costs(db, stream, query, **kwargs)
    chosen = next(c.label for c in decision.candidates
                  if c.method is decision.method)
    after_probe = {c.label: costs[c.label] + (0 if c.probeable
                                              else decision.probe_reads)
                   for c in decision.candidates if c.illegal is None}
    assert after_probe[chosen] == min(after_probe.values()), \
        (chosen, after_probe)
    return chosen, reads
