"""The fault-injection layer itself must be trustworthy: durable vs
volatile bytes and directory entries, deterministic schedules, honest
failure modes."""

import errno

import pytest

from repro.storage.faults import (
    ACTIONS,
    FaultInjector,
    FaultRule,
    SimulatedCrash,
    enumerate_schedules,
)


# ----------------------------------------------------------------------
# FaultyFile durability semantics
# ----------------------------------------------------------------------

def test_unsynced_bytes_are_lost_on_crash(tmp_path):
    path = str(tmp_path / "f")
    inj = FaultInjector()
    fh = inj.open(path, "w+b")
    inj.fsync_directory(str(tmp_path))  # the file itself is durable
    fh.write(b"durable")
    fh.fsync()
    fh.write(b" volatile")
    inj.crash()
    with open(path, "rb") as plain:
        assert plain.read() == b"durable"


def test_synced_bytes_survive_crash(tmp_path):
    path = str(tmp_path / "f")
    inj = FaultInjector()
    fh = inj.open(path, "w+b")
    inj.fsync_directory(str(tmp_path))  # the file itself is durable
    fh.write(b"abc")
    fh.fsync()
    inj.crash()
    with open(path, "rb") as plain:
        assert plain.read() == b"abc"


def test_crashed_handle_raises_eio(tmp_path):
    inj = FaultInjector()
    fh = inj.open(str(tmp_path / "f"), "w+b")
    inj.crash()
    for op in (lambda: fh.write(b"x"), lambda: fh.read(),
               lambda: fh.seek(0), fh.flush, fh.fsync):
        with pytest.raises(OSError) as excinfo:
            op()
        assert excinfo.value.errno == errno.EIO


def test_patch_durable_survives_crash(tmp_path):
    path = str(tmp_path / "f")
    inj = FaultInjector()
    fh = inj.open(path, "w+b")
    inj.fsync_directory(str(tmp_path))  # the file itself is durable
    fh.write(b"0123456789")
    fh.fsync()
    fh.patch_durable(4, b"XX")  # a torn write's surviving prefix
    inj.crash()
    with open(path, "rb") as plain:
        assert plain.read() == b"0123XX6789"


def test_reopen_preserves_existing_content_as_durable(tmp_path):
    path = str(tmp_path / "f")
    with open(path, "wb") as plain:
        plain.write(b"seed")
    inj = FaultInjector()
    fh = inj.open(path, "r+b")
    fh.seek(0, 2)
    fh.write(b"+new")
    inj.crash()
    with open(path, "rb") as plain:
        assert plain.read() == b"seed"  # the +new was never fsynced


# ----------------------------------------------------------------------
# Directory entries: creations and renames
# ----------------------------------------------------------------------

def written(inj, path, data):
    """A new file holding ``data``, its bytes fsynced."""
    fh = inj.open(path, "w+b")
    fh.write(data)
    fh.fsync()
    return fh


def read(path):
    with open(path, "rb") as plain:
        return plain.read()


def test_a_new_file_without_a_directory_fsync_vanishes(tmp_path):
    path = str(tmp_path / "f")
    inj = FaultInjector()
    written(inj, path, b"content fsynced, name not")
    inj.crash()
    assert not (tmp_path / "f").exists()


def test_an_unsynced_rename_reverts_on_crash(tmp_path):
    old, new = str(tmp_path / "t"), str(tmp_path / "t.new")
    with open(old, "wb") as plain:
        plain.write(b"old contents")
    inj = FaultInjector()
    reader = inj.open(old, "rb")
    written(inj, new, b"new contents")
    inj.fsync_directory(str(tmp_path))  # the new file's creation
    inj.replace(new, old)
    assert read(old) == b"new contents"
    inj.crash()
    assert read(old) == b"old contents"  # the replaced file is back
    assert read(new) == b"new contents"  # under its old name
    assert reader.path is None  # its file was replaced


def test_a_synced_rename_survives_crash(tmp_path):
    old, new = str(tmp_path / "t"), str(tmp_path / "t.new")
    with open(old, "wb") as plain:
        plain.write(b"old contents")
    inj = FaultInjector()
    inj.open(old, "rb")
    written(inj, new, b"new contents")
    inj.replace(new, old)
    inj.fsync_directory(str(tmp_path))  # covers creation and rename
    inj.crash()
    assert read(old) == b"new contents"
    assert not (tmp_path / "t.new").exists()


def test_an_unsynced_rename_of_an_unsynced_file_leaves_nothing(tmp_path):
    """The commit of a tree that was never loaded: without the
    directory fsync, neither the file nor its name survives."""
    inj = FaultInjector()
    written(inj, str(tmp_path / "t.new"), b"new contents")
    inj.replace(str(tmp_path / "t.new"), str(tmp_path / "t"))
    inj.crash()
    assert sorted(p.name for p in tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Failpoints
# ----------------------------------------------------------------------

def test_unarmed_injector_only_counts(tmp_path):
    inj = FaultInjector()
    for _ in range(3):
        inj.fire("site.a")
    inj.fire("site.b")
    assert inj.hits == {"site.a": 3, "site.b": 1}
    assert inj.fired == []


def test_rule_fires_at_exact_hit():
    inj = FaultInjector([FaultRule("s", 2, "error")])
    inj.fire("s")  # hit 1: armed at 2, passes
    with pytest.raises(OSError) as excinfo:
        inj.fire("s")
    assert excinfo.value.errno == errno.EIO
    inj.fire("s")  # hit 3: rule already spent
    assert inj.fired == ["s#2:error"]


def test_crash_action_raises_simulated_crash():
    inj = FaultInjector([FaultRule("s", 1, "crash")])
    with pytest.raises(SimulatedCrash):
        inj.fire("s")


def test_short_write_applies_volatile_prefix(tmp_path):
    path = str(tmp_path / "f")
    inj = FaultInjector([FaultRule("s", 1, "short")], seed=7)
    fh = inj.open(path, "w+b")
    inj.fsync_directory(str(tmp_path))
    with pytest.raises(OSError):
        inj.fire("s", handle=fh, data=b"0123456789")
    fh.seek(0, 2)
    n_written = fh.tell()
    assert 0 < n_written < 10  # a strict prefix reached the file
    inj.crash()
    with open(path, "rb") as plain:
        assert plain.read() == b""  # ... but none of it was durable


def test_torn_write_prefix_is_durable(tmp_path):
    path = str(tmp_path / "f")
    inj = FaultInjector([FaultRule("s", 1, "torn")], seed=7)
    fh = inj.open(path, "w+b")
    inj.fsync_directory(str(tmp_path))
    with pytest.raises(SimulatedCrash):
        inj.fire("s", handle=fh, data=b"0123456789")
    inj.crash()
    with open(path, "rb") as plain:
        content = plain.read()
    assert 0 < len(content) < 10
    assert b"0123456789".startswith(content)


def test_fault_cut_points_are_seeded():
    def cut_for(seed):
        inj = FaultInjector([FaultRule("s", 1, "short")], seed=seed)
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            handle = inj.open(d + "/f", "w+b")
            with pytest.raises(OSError):
                inj.fire("s", handle=handle, data=bytes(range(100)))
            handle.seek(0, 2)
            return handle.tell()

    assert cut_for(1) == cut_for(1)  # deterministic
    cuts = {cut_for(s) for s in range(8)}
    assert len(cuts) > 1  # and seed-dependent


def test_rule_validation():
    with pytest.raises(ValueError):
        FaultRule("s", 1, "explode")
    with pytest.raises(ValueError):
        FaultRule("s", 0, "error")


# ----------------------------------------------------------------------
# Schedule enumeration
# ----------------------------------------------------------------------

def test_enumerate_schedules_is_deterministic_and_complete():
    hits = {"pager.write": 3, "pager.fsync": 2}
    schedules = enumerate_schedules(hits)
    assert schedules == enumerate_schedules(hits)
    # payload site: every action at every hit; fsync site: no torn/short
    assert FaultRule("pager.write", 2, "torn") in schedules
    assert FaultRule("pager.fsync", 1, "error") in schedules
    assert FaultRule("pager.fsync", 1, "torn") not in schedules
    assert len(schedules) == 3 * len(ACTIONS) + 2 * 2


def test_enumerate_schedules_samples_edges_of_hot_sites():
    schedules = enumerate_schedules({"pager.read": 100},
                                    max_hits_per_site=4)
    hit_points = {r.at_hit for r in schedules}
    assert hit_points == {1, 2, 99, 100}
