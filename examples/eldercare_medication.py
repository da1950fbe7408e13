"""Elder care: "Did Margot take her medication before breakfast?"

The paper's introduction motivates Markovian streams with elder-care
monitoring [25, 28]. This example models Margot's apartment as a
multi-attribute stream over (location, activity), inferred from noisy
object-interaction sensors, and answers the historical query above with
Caldera — plus a live alert via the Lahar streaming mode.

It exercises:

- multi-attribute state spaces (§3.4.1) with per-attribute indexes;
- cross-attribute Regular queries with Kleene closures;
- archived (Caldera) vs real-time (Lahar) processing of one stream;
- event extraction from the query signal.

Run: ``python examples/eldercare_medication.py``
"""

import random
import tempfile

from repro.core import Caldera, detect_events
from repro.hmm import HiddenMarkovModel, TabularEmission, smooth
from repro.lahar import StreamingQuery
from repro.probability import CPT, SparseDistribution
from repro.query import parse_query
from repro.streams import StateSpace

LOCATIONS = ["Bedroom", "Bathroom", "Kitchen", "LivingRoom"]
ACTIVITIES = ["resting", "medicating", "cooking", "eating"]

SPACE = StateSpace(
    ("location", "activity"),
    [(loc, act) for loc in LOCATIONS for act in ACTIVITIES],
)

# Activities only make sense in some rooms; transitions only between
# adjacent rooms — the model's physical constraints (§2.1).
ADJACENT = {
    "Bedroom": ["Bathroom", "LivingRoom"],
    "Bathroom": ["Bedroom", "Kitchen"],
    "Kitchen": ["Bathroom", "LivingRoom"],
    "LivingRoom": ["Bedroom", "Kitchen"],
}
PLAUSIBLE = {
    "Bedroom": ["resting"],
    "Bathroom": ["resting", "medicating"],
    "Kitchen": ["cooking", "eating", "medicating"],
    "LivingRoom": ["resting", "eating"],
}

# Object-interaction sensors: each fires for certain (location, activity)
# combinations, noisily.
SENSORS = {
    "pillbox": [("Bathroom", "medicating"), ("Kitchen", "medicating")],
    "stove": [("Kitchen", "cooking")],
    "fridge": [("Kitchen", "cooking"), ("Kitchen", "eating")],
    "couch": [("LivingRoom", "resting"), ("LivingRoom", "eating")],
    "bed": [("Bedroom", "resting")],
}


def build_hmm() -> HiddenMarkovModel:
    rows = {}
    for loc in LOCATIONS:
        for act in PLAUSIBLE[loc]:
            src = SPACE.state_id((loc, act))
            row = {src: 4.0}
            for act2 in PLAUSIBLE[loc]:
                if act2 != act:
                    row[SPACE.state_id((loc, act2))] = 1.0
            for loc2 in ADJACENT[loc]:
                for act2 in PLAUSIBLE[loc2]:
                    row[SPACE.state_id((loc2, act2))] = 0.3
            total = sum(row.values())
            rows[src] = {s: w / total for s, w in row.items()}
    transition = CPT(rows)

    emission_table = {}
    for sensor, combos in SENSORS.items():
        likes = {}
        for loc in LOCATIONS:
            for act in PLAUSIBLE[loc]:
                sid = SPACE.state_id((loc, act))
                likes[sid] = 0.9 if (loc, act) in combos else 0.01
        emission_table[sensor] = likes

    initial_states = [SPACE.state_id(("Bedroom", "resting"))]
    initial = SparseDistribution.uniform(initial_states)
    valid = sum(len(PLAUSIBLE[loc]) for loc in LOCATIONS)
    return HiddenMarkovModel(
        len(SPACE), initial, transition,
        TabularEmission(emission_table, default_uniform=True),
    )


def ground_truth_morning():
    """Margot's morning: wake, bathroom (meds), kitchen (cook, eat)."""
    return (
        [("Bedroom", "resting")] * 6
        + [("Bathroom", "medicating")] * 3
        + [("Bathroom", "resting")] * 2
        + [("Kitchen", "cooking")] * 5
        + [("Kitchen", "eating")] * 4
        + [("LivingRoom", "resting")] * 6
    )


def sample_observations(truth, rng):
    """Noisy sensor feed: the right sensor usually fires, sometimes none."""
    observations = []
    for loc, act in truth:
        fired = None
        for sensor, combos in SENSORS.items():
            if (loc, act) in combos and rng.random() < 0.85:
                fired = sensor
                break
        observations.append(fired)
    return observations


def main() -> None:
    rng = random.Random(11)
    truth = ground_truth_morning()
    observations = sample_observations(truth, rng)
    hmm = build_hmm()
    stream = smooth(hmm, observations, SPACE, name="margot", prune=1e-4)
    print(f"smoothed {len(stream)} timesteps of Margot's morning "
          f"({sum(1 for o in observations if o)} sensor firings)")

    medication_query = (
        "activity=medicating -> (!activity=eating)* activity=eating"
    )

    # --- real-time mode (Lahar): alert the caregiver as it happens -----
    live = StreamingQuery(SPACE)
    live.register(parse_query(medication_query), threshold=0.15,
                  name="meds-before-breakfast")
    alerts = list(live.start(stream.marginal(0)))
    for t in range(1, len(stream)):
        alerts.extend(live.advance(stream.cpt_into(t)))
    if alerts:
        first = alerts[0]
        print(f"\n[live] alert at t={first.time}: medication confirmed "
              f"before eating (p={first.probability:.2f})")
    else:
        print("\n[live] no alert fired — caregiver should check in")

    # --- archived mode (Caldera): the historical question ----------------
    with tempfile.TemporaryDirectory() as tmp:
        with Caldera(tmp) as db:
            db.archive(stream, mc_alpha=2)
            # A short stream: the planner predicts fewer page reads for
            # the scan than for the MC method.
            result = db.query("margot", medication_query)
            print(f"\n[archive] planner used the {result.method!r} method; "
                  f"{result.stats.summary()}")
            events = detect_events(result, enter=0.15)
            for event in events:
                print(f"[archive] {event}")

            # The signal gives, per timestep t, P(the FIRST post-
            # medication meal happened at t). Those events are disjoint,
            # so their sum is the cumulative answer to the yes/no
            # question.
            from repro.core import expected_count

            answer = min(1.0, expected_count(result))
            verdict = "yes" if answer >= 0.5 else "uncertain"
            print(f"\nDid Margot take her medication before breakfast? "
                  f"{verdict} (cumulative p={answer:.2f})")

            # Cross-attribute query: medicated in the BATHROOM and then
            # eventually ate in the kitchen.
            fancy = (
                "location=Bathroom -> "
                "(!activity=eating)* activity=eating"
            )
            fancy_result = db.query("margot", fancy)
            peak = fancy_result.peak()
            print(f"bathroom-then-breakfast: p={peak[1]:.2f} at t={peak[0]}")


if __name__ == "__main__":
    main()
