"""A database written by the previous storage format opens and answers.

``data/redo_log_db`` was written by the version that committed every
page through a redo log (``<tree>.btree.wal``, each left holding only
its 14-byte header after its last checkpoint) and kept a free list in
each file's meta page. With 512-byte pages it holds stream ``keep``
(``synthetic_stream("keep", num_snippets=4, density=0.4,
match_rate=0.5, seed=29)``, separated, MC alpha 2); a second stream was
archived and dropped, so the rewritten catalog file carries a free list
of 2 pages. ``data/redo_log_db.json`` holds that version's answers to
one Kleene query by the naive scan, the MC index and the planner.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core import Caldera
from repro.errors import StorageError
from repro.storage import StorageEnvironment
from repro.streams.catalog import CATALOG_TREE

DATA = Path(__file__).parent / "data"


@pytest.fixture
def db_path(tmp_path):
    path = tmp_path / "db"
    shutil.copytree(DATA / "redo_log_db", path)
    return path


def fsck(path):
    with StorageEnvironment(str(path), page_size=None) as env:
        return env.fsck()


def test_queries_answer_as_the_writing_version_did(db_path):
    expected = json.loads((DATA / "redo_log_db.json").read_text())
    with Caldera(str(db_path), page_size=512) as db:
        assert db.stream_names() == ["keep"]
        for method, signal in expected["signals"].items():
            result = db.query("keep", expected["query"], method=method)
            assert [t for t, _ in result.signal] == [t for t, _ in signal]
            for (_, got), (_, want) in zip(result.signal, signal):
                assert got == pytest.approx(want, abs=1e-12)
        auto = db.query("keep", expected["query"])
        assert auto.method == expected["auto_method"]


def test_free_list_pages_are_reclaimable_until_the_next_catalog_change(
        db_path):
    report = fsck(db_path)
    assert report.clean, report.all_errors()
    assert report.reclaimable_pages == 2
    assert "2 reclaimable" in report.render()
    with Caldera(str(db_path), page_size=512) as db:
        db.register_dimension_table("Kind", {"Door": "portal"})
    report = fsck(db_path)
    assert report.clean and report.reclaimable_pages == 0


def test_a_log_with_records_past_its_header_is_refused(db_path):
    """A log the writing version never checkpointed holds the last
    commit of its tree; this version cannot replay it, so it refuses to
    open the tree rather than silently serve the state before it."""
    log = db_path / (CATALOG_TREE + ".btree.wal")
    with open(log, "ab") as fh:
        fh.write(b"\x01" + bytes(40))
    with pytest.raises(StorageError, match=str(log)):
        Caldera(str(db_path), page_size=512)
    # Trees without such a log still open.
    with StorageEnvironment(str(db_path), page_size=512) as env:
        assert len(env.open_tree("keep__marg", create=False)) == 121
