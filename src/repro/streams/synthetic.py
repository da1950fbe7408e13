"""Synthetic Markovian streams with controlled data density (§4.1.1).

The paper's scaling experiments concatenate fixed-length stream
*snippets*: a fraction ``density`` of snippets is *relevant* to the
benchmark query (its timesteps place probability mass on the query's
predicates) and the rest wander through background states the query
never mentions. Of the relevant snippets, ``match_rate`` contain a
strongly-correlated true match (enter the door, then the room) while
the remainder are near-misses (door and room mass present, but
anti-correlated — the person walks past). That gives independent
control of how often the index must *look* and how often a candidate
is *real*, without needing the full RFID simulator.

Streams are built forward — each marginal is the previous one pushed
through the step's CPT — so the consistency invariant holds exactly by
construction. The generator builds no distribution or CPT object: rows
are plain dicts, and each step appends its marginal (in push order) and
its CPT in record order (sources ascending, each row's destinations
ascending) to flat typed arrays, which the stream adopts as its
:class:`~repro.probability.MarginalBlock` and
:class:`~repro.probability.CPTBlock` without a copy or a sort.

World model (single ``location`` attribute):

* ``C0 .. C{n-1}`` — background corridor cells,
* ``Door``       — the doorway of the monitored room,
* ``Room``       — the monitored room itself.

The benchmark query is :data:`ENTERED_ROOM_QUERY`:
``location=Door -> location=Room``.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..probability import CPTBlock, MarginalBlock
from .markovian import MarkovianStream
from .schema import StateSpace, single_attribute_space

#: The standard benchmark query over synthetic streams.
ENTERED_ROOM_QUERY = "location=Door -> location=Room"

DEFAULT_SNIPPET_LEN = 30
DEFAULT_NUM_CELLS = 8

#: A CPT row or a marginal: state id -> probability, in insertion order.
Row = Dict[int, float]


def synthetic_space(num_cells: int = DEFAULT_NUM_CELLS) -> StateSpace:
    """The synthetic world's state space."""
    values = [f"C{i}" for i in range(num_cells)] + ["Door", "Room"]
    return single_attribute_space("location", values)


# ----------------------------------------------------------------------
# Step templates
# ----------------------------------------------------------------------
def _row_toward(rng: random.Random, targets: List[Tuple[int, float]],
                jitter: float = 0.05) -> Row:
    """A stochastic row over ``targets`` with seeded probability jitter
    (so no two snippets are bit-identical)."""
    weights = [max(1e-3, w + rng.uniform(-jitter, jitter))
               for _, w in targets]
    total = sum(weights)
    return {s: w / total for (s, _), w in zip(targets, weights)}


def _by_destination(row: Row) -> Tuple[array, array]:
    """A row's destinations, ascending, and their probabilities."""
    dsts = sorted(row)
    return array("q", dsts), array("d", map(row.__getitem__, dsts))


class _Builder:
    """A stream under construction as flat typed arrays already in
    record order, keeping no Python object per entry: per step, a CPT
    row per state of the marginal it leaves, rows by source and each
    row's entries by destination; per timestep, its marginal's entries
    in the order the push produced them."""

    def __init__(self, start: int) -> None:
        self.current: Row = {start: 1.0}
        self.states, self.sizes = array("q", [start]), array("q", [1])
        self.probs = array("d", [1.0])
        self.srcs, self.lens, self.dsts = array("q"), array("q"), array("q")
        self.vals = array("d")

    def step(self, row_of: Dict[int, Row], default_row: Row) -> None:
        """One step: a row for every state of the current marginal
        (``row_of``'s, else ``default_row``), and the marginal pushed
        through them, ``out(y) = Σ_x m(x)·C(y|x)`` summed in the
        marginal's order."""
        current = self.current
        out: Row = {}
        get = out.get
        for x, px in current.items():
            for y, pyx in row_of.get(x, default_row).items():
                out[y] = get(y, 0.0) + px * pyx
        if out and min(out.values()) <= 0.0:  # underflow: keep positive mass
            out = {y: p for y, p in out.items() if p > 0.0}
        self.current = out
        self.states.extend(out)
        self.probs.extend(out.values())
        self.sizes.append(len(out))
        # The step's CPT in record order: rows by source, entries by
        # destination.
        default = _by_destination(default_row)
        for x in sorted(current):
            dsts, vals = _by_destination(row_of[x]) if x in row_of \
                else default
            self.srcs.append(x)
            self.lens.append(len(dsts))
            self.dsts.extend(dsts)
            self.vals.extend(vals)

    def stream(self, name: str, space: StateSpace) -> MarkovianStream:
        """The stream, adopting the arrays without a copy."""
        sizes = np.frombuffer(self.sizes, np.int64)
        steps = len(sizes) - 1
        marginals = MarginalBlock(
            np.concatenate(([0], np.cumsum(sizes))),
            np.frombuffer(self.states, np.int64),
            np.frombuffer(self.probs, np.float64))
        # Step t has a row per state of marginal t.
        cpts = CPTBlock(steps, np.repeat(np.arange(steps), sizes[:-1]),
                        np.frombuffer(self.srcs, np.int64),
                        np.frombuffer(self.lens, np.int64),
                        np.frombuffer(self.dsts, np.int64),
                        np.frombuffer(self.vals, np.float64))
        return MarkovianStream.from_arrays(name, space, marginals, cpts)


class _World:
    def __init__(self, space: StateSpace, rng: random.Random) -> None:
        self.space = space
        self.rng = rng
        loc = space.vocabulary("location")
        self.cells = [space.state_id((v,)) for v in loc.values()
                      if str(v).startswith("C")]
        self.door = space.state_id(("Door",))
        self.room = space.state_id(("Room",))

    def wander_row(self, around: int) -> Row:
        """Drift among background cells near cell-index ``around``."""
        n = len(self.cells)
        return _row_toward(self.rng, [
            (self.cells[around % n], 0.55),
            (self.cells[(around + 1) % n], 0.30),
            (self.cells[(around - 1) % n], 0.15),
        ])


def _irrelevant_snippet(world: _World, length: int,
                        out: _Builder) -> None:
    """Background wandering: zero mass on Door/Room at every step."""
    here = world.rng.randrange(len(world.cells))
    for _ in range(length):
        out.step({}, world.wander_row(here))
        here += world.rng.choice((-1, 0, 1))


def _relevant_snippet(world: _World, length: int, match: bool,
                      out: _Builder) -> None:
    """Alternate door-approach / room steps so (nearly) every timestep
    has Door or Room mass. ``match`` controls whether the Door -> Room
    transition is strongly correlated (a true sighting) or
    anti-correlated (a walk-past near-miss)."""
    rng = world.rng
    door, room = world.door, world.room
    near = world.cells[rng.randrange(len(world.cells))]
    for step in range(length):
        if step % 2 == 0:
            # Move toward the door, wherever we are.
            out.step({}, _row_toward(rng, [(door, 0.70), (near, 0.30)]))
        else:
            # From the door: enter the room (match) or walk past
            # (near-miss, room mass arrives only via the uncorrelated
            # background row).
            if match:
                door_row = _row_toward(rng, [(room, 0.85), (near, 0.15)])
                other_row = _row_toward(rng, [(near, 0.85), (room, 0.15)])
            else:
                door_row = _row_toward(rng, [(near, 0.93), (room, 0.07)])
                other_row = _row_toward(rng, [(near, 0.80), (room, 0.20)])
            out.step({door: door_row}, other_row)


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
def synthetic_stream(
    name: str = "synthetic",
    num_snippets: int = 50,
    snippet_len: int = DEFAULT_SNIPPET_LEN,
    density: float = 0.1,
    match_rate: float = 1.0,
    seed: int = 7,
    num_cells: int = DEFAULT_NUM_CELLS,
    space: Optional[StateSpace] = None,
) -> MarkovianStream:
    """Concatenate ``num_snippets`` seeded snippets of ``snippet_len``
    timesteps each; ``density`` of them are relevant to
    :data:`ENTERED_ROOM_QUERY` and ``match_rate`` of *those* contain a
    true correlated match. Deterministic for a given seed."""
    if space is None:
        space = synthetic_space(num_cells)
    rng = random.Random(seed)
    world = _World(space, rng)

    num_relevant = round(density * num_snippets)
    num_matches = round(match_rate * num_relevant)
    # Spread relevant snippets deterministically across the stream.
    relevant_at = set(rng.sample(range(num_snippets),
                                 num_relevant)) if num_relevant else set()
    match_at = set(rng.sample(sorted(relevant_at),
                              num_matches)) if num_matches else set()

    out = _Builder(world.cells[0])
    first = True
    for snippet in range(num_snippets):
        length = snippet_len - 1 if first else snippet_len
        first = False
        if snippet in relevant_at:
            _relevant_snippet(world, length, snippet in match_at, out)
        else:
            _irrelevant_snippet(world, length, out)
    return out.stream(name, space)


def routine_stream(
    name: str = "routine",
    num_snippets: int = 40,
    snippet_len: int = DEFAULT_SNIPPET_LEN,
    near_misses: int = 3,
    seed: int = 11,
    num_cells: int = DEFAULT_NUM_CELLS,
) -> MarkovianStream:
    """A Fig 4-style signal stream: exactly one true room entry among a
    handful of walk-past near-misses in a long background routine — the
    workload whose probability signal should show one dominant peak."""
    space = synthetic_space(num_cells)
    rng = random.Random(seed)
    world = _World(space, rng)

    if num_snippets < 3:
        raise ValueError("routine_stream needs num_snippets >= 3")
    # Interior slots only (the first and last snippets stay background);
    # clamp the near-miss count to what fits.
    near_misses = max(0, min(near_misses, num_snippets - 3))
    slots = rng.sample(range(1, num_snippets - 1), near_misses + 1)
    match_slot = slots[0]
    near_slots = set(slots[1:])

    out = _Builder(world.cells[0])
    first = True
    for snippet in range(num_snippets):
        length = snippet_len - 1 if first else snippet_len
        first = False
        if snippet == match_slot or snippet in near_slots:
            # One short relevant burst inside an otherwise-background
            # snippet, so the signal stays sparse.
            burst = 4
            _irrelevant_snippet(world, length - burst, out)
            _relevant_snippet(world, burst, snippet == match_slot, out)
        else:
            _irrelevant_snippet(world, length, out)
    return out.stream(name, space)
