"""Byte pins on what archiving writes and what the generators make.

The hashes were recorded before streams held their marginals and CPTs
as arrays, from the dict-row path that array path replaced: every tree
file ``Caldera.archive`` writes, and every record of the synthetic
generators, must stay byte for byte what it was. A differing hash means
a tree or a generator changed; the test names which. The catalog's
file was re-pinned when its stream entries gained the archive's leaf
fences; every other file kept its bytes.
"""

import hashlib
import random

import pytest

from repro.core import Caldera
from repro.indexes import mc as mc_module
from repro.probability import CPT, SparseDistribution
from repro.query.predicates import Equals
from repro.streams import (
    MarkovianStream,
    StateSpace,
    routine_stream,
    synthetic_stream,
)

#: Two attributes, so a location's code covers both activities' states.
SPACE = StateSpace(("location", "activity"),
                   [(loc, act) for loc in "ABCDEF" for act in "xy"])
#: A join table mapping several locations to one value (F unmapped).
KIND = {"A": "hall", "B": "hall", "C": "room", "D": "room", "E": "door"}


def _stream(name: str = "pin", length: int = 150,
            seed: int = 5) -> MarkovianStream:
    """A consistent stream built forward whose rows and marginals keep
    the random order their states were drawn in (not sorted), so every
    index sum's term order is pinned too."""
    rng = random.Random(seed)
    n = len(SPACE)

    def row():
        targets = rng.sample(range(n), rng.randint(1, 5))
        weights = [rng.random() + 1e-3 for _ in targets]
        total = sum(weights)
        return SparseDistribution(
            {s: w / total for s, w in zip(targets, weights)})

    marginals = [row()]
    cpts = []
    for _ in range(length - 1):
        cpt = CPT({x: row() for x in marginals[-1]})
        cpts.append(cpt)
        marginals.append(cpt.apply(marginals[-1]))
    return MarkovianStream(name, SPACE, marginals, cpts)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


#: (layout, page size) -> sha256 over every tree file's name and bytes.
TREE_PINS = {
    ("separated", 512):
        "0e76ab89e8b4df88364afdad859ec59086844672597dfacb278ff80946fdc89f",
    ("separated", 1024):
        "a8230c135dd7c12995be00fa84e4ee8748622010c449b3ce93d0a4cf8c8e97e9",
    ("separated", 4096):
        "efd4d41944bb97a0a56c29c31044b2f0543e6cdf0118774dd7c56bdffb5e6431",
    ("separated", 8192):
        "379ae7f0f32cffadd80452f3d9fc5519e312fa8464e8ab58f17ec0329dc2433d",
    ("cell", 512):
        "4ed3e07150bca7c74aeb8849439b2edcd8ee07d9b6a374d2d99715c5e0251a5a",
    ("cell", 1024):
        "911373557e5ba9cddcc010c4f60d2e414ed124b649204e17bf73008db086fb92",
    ("cell", 4096):
        "a752b8b4446432733c1ef93be44540d94e6f027db801a53462ef5eb545d62780",
    ("cell", 8192):
        "08b6821d1ce2cd93aabc4402329c622686f982a67efc2ef619d5fb0eedbd4c43",
    ("packed", 512):
        "a8673aace7421ba8011aaf5066606f647209ee2046371d940db1aae90d58d5b2",
    ("packed", 1024):
        "97aff5192bfccd2ce1b58b7f54b52e5635f712ff9e979c51ffbb30b81971840e",
    ("packed", 4096):
        "ac989b3ade1445241e26358c35e9dd0b3e7c1c01085580da3df1ec91a74a7687",
    ("packed", 8192):
        "4849a590baaf30dc8835619aefce5a85e12c30fcfec523d35b386e69cfba163d",
}


@pytest.mark.parametrize("page_size", [512, 1024, 4096, 8192])
@pytest.mark.parametrize("layout", ["separated", "cell", "packed"])
def test_archived_tree_files_are_pinned(tmp_path, layout, page_size):
    path = tmp_path / "db"
    with Caldera(str(path), page_size=page_size) as db:
        db.register_dimension_table("Kind", KIND)
        db.archive(_stream(), layout=layout, mc_alpha=2,
                   join_tables=("Kind",),
                   conditioned_predicates=[Equals("location", "B")])
    files = sorted(p for p in path.iterdir() if p.suffix == ".btree")
    assert {p.name for p in files} >= {
        "pin__btc__location.btree", "pin__btp__activity.btree",
        "pin__btc__location@Kind.btree", "pin__mc.btree"}
    per_file = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:12]
                for p in files}
    got = _digest([p.name.encode() + p.read_bytes() for p in files])
    assert got == TREE_PINS[layout, page_size], per_file


#: (generator, seed) -> sha256 of (marginal records, CPT records, the
#: states of each marginal in the order the generator produced them).
GENERATOR_PINS = {
    ("routine", 1): (
        "dd591fb53ba5146751a50ff62a3a076dc76df7c9d8b4e8b4d288ed11d6486cc2",
        "095c902aceb3bb87b18303e118898b5955dcbc589731ab5e3dacb12095731409",
        "c1d47966db8cc745e79e3eddabccf7b27441cb4bef1006b96fcf11860ed28169",
    ),
    ("routine", 7): (
        "32f3298f67243439b8f49c85d5389509c31913032b33b61944579f2cd1555f00",
        "79853145922c06d8ff30f347cab978f7ff55785cf9d27c6fa2ecfd9554069373",
        "a3086efcd2d8984d3e65ac5a0ca1150db726a527b9386526f21035cdbc64b06a",
    ),
    ("routine", 29): (
        "f939e66d3936fe18195deaafc3ee20a73baee0ba8cfb902df066664366737a47",
        "e61d96e490644e34b1727672ecbdc4120494a9d98ec3058e95edd10e589d5a93",
        "09c89dc3affe7fcf090d04c847eb53730b02a933091fc5162bff509fc96a0064",
    ),
    ("synthetic", 1): (
        "37a2065bac28853053138e8c8435184ce062439ec974e42a5bb7823e169947b3",
        "257bc34f2e7b838403610588012454720bff74d48620a047a92b2acb9ac5772d",
        "cdef4afdfef8377b9b255cb9e08402b07e1438af5eab743d45473977f7c3949f",
    ),
    ("synthetic", 7): (
        "318e583b3fd2d2f04e596aefc892dc05519cacaa701bc24320bb8ec221a8ba30",
        "579bca1b6080f622babf6f350c1a71ae4cb31798b713f1bad8cd35cf31926d0d",
        "3a6ba945e197a4610f31942cf92e83d73905f2701eaba43eb9c88326704e030c",
    ),
    ("synthetic", 29): (
        "1414cd5a1986fe5699ba876dd1150730f7906b4a83196157ab4798b197b4d9e3",
        "43caefb54026559b7eef8f5436c3cfd23cd5a4911cdb7161d27b41fa36255008",
        "646cd9e785722170c1baba3bf7591bc54a72d6e4d4bae409c89f101fadfd994d",
    ),
}

GENERATORS = {
    "synthetic": lambda seed: synthetic_stream(
        "g", num_snippets=20, density=0.4, match_rate=0.5, seed=seed),
    "routine": lambda seed: routine_stream("g", num_snippets=12,
                                           seed=seed),
}


@pytest.mark.parametrize("seed", [1, 7, 29])
@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_generator_records_are_pinned(generator, seed):
    stream = GENERATORS[generator](seed)
    marginals = [m.to_bytes() for m in stream.marginals]
    cpts = [c.to_bytes() for c in stream.cpts]
    order = [repr(list(m)).encode() for m in stream.marginals]
    got = tuple(_digest(parts) for parts in (marginals, cpts, order))
    assert got == GENERATOR_PINS[generator, seed]


#: layout -> logical page reads of ``materialize`` on page size 1024.
MATERIALIZE_READS = {"separated": 68, "cell": 62, "packed": 30}


@pytest.mark.parametrize("layout", ["separated", "cell", "packed"])
def test_materialize_reads_are_pinned(tmp_path, layout):
    stream = _stream(length=60)
    with Caldera(str(tmp_path / "db"), page_size=1024) as db:
        db.archive(stream, layout=layout, btc=False, btp=False)
        reader = db.reader("pin")
        snap = db.stats.snapshot()
        back = reader.materialize()
        assert db.stats.delta(snap).logical_reads == \
            MATERIALIZE_READS[layout]
    assert back.marginals == stream.marginals
    assert back.cpts == stream.cpts


def test_archive_decodes_no_record(tmp_path, monkeypatch):
    """The MC builds, plain and conditioned, start from the stream's
    CPTs and build each level from the level below without decoding a
    record."""
    def refuse(records):
        raise AssertionError("the MC build decoded records")

    monkeypatch.setattr(mc_module, "decode_block", refuse)
    with Caldera(str(tmp_path / "db")) as db:
        db.archive(_stream(), mc_alpha=2,
                   conditioned_predicates=[Equals("location", "B")])
        assert {"mc", "mcc:location=B"} <= set(
            db.stream_meta("pin").indexes)
