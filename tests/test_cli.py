"""The CLI subcommands run end to end and report errors as exit codes."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: A database written with 512-byte pages (see
#: tests/storage/test_redo_log_db.py), and the Kleene query it answers.
OLD_DB = Path(__file__).parent / "storage" / "data" / "redo_log_db"
OLD_QUERY = json.loads(OLD_DB.with_suffix(".json").read_text())["query"]


def test_help_does_not_crash(capsys):
    # Regression: `python -m repro --help` used to die with
    # ModuleNotFoundError because the engine was imported eagerly.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--help"])
    assert excinfo.value.code == 0
    assert "query" in capsys.readouterr().out


def test_info_on_empty_database(tmp_path, capsys):
    rc = main(["info", str(tmp_path / "db")])
    assert rc == 0
    assert "no streams archived" in capsys.readouterr().out


def test_demo_smoke(tmp_path, capsys):
    db = str(tmp_path / "db")
    rc = main(["demo", db, "--people", "1", "--snippets", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "archived person0" in out
    assert "naive (Alg 1)" in out
    assert "btree (Alg 2)" in out
    assert "MISMATCH" not in out
    # The database was kept (a path was given) and is consistent.
    assert main(["info", db]) == 0
    assert "person0" in capsys.readouterr().out


def test_demo_without_db_path_uses_temp(capsys):
    rc = main(["demo", "--people", "1", "--snippets", "3", "--layout",
               "packed"])
    assert rc == 0
    assert "temp database removed" in capsys.readouterr().out


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["frobnicate"])
    assert excinfo.value.code == 2


def test_fsck_clean_database(tmp_path, capsys):
    from repro.storage import StorageEnvironment

    db = str(tmp_path / "db")
    with StorageEnvironment(db, page_size=256) as env:
        tree = env.open_tree("t")
        tree.bulk_load((f"k{i:03d}".encode(), b"v") for i in range(50))
    assert main(["fsck", db]) == 0
    out = capsys.readouterr().out
    assert "clean" in out and "'t'" in out


def test_fsck_flags_corruption(tmp_path, capsys):
    from repro.storage import StorageEnvironment
    from repro.storage.pager import PAGE_HEADER_SIZE

    db = str(tmp_path / "db")
    with StorageEnvironment(db, page_size=256) as env:
        tree = env.open_tree("t")
        tree.bulk_load((f"k{i:03d}".encode(), b"v") for i in range(200))
    with open(str(tmp_path / "db" / "t.btree"), "r+b") as fh:
        fh.seek(3 * (256 + PAGE_HEADER_SIZE) + PAGE_HEADER_SIZE)
        fh.write(b"\xde\xad\xbe\xef")
    assert main(["fsck", db]) == 1
    assert "ERROR" in capsys.readouterr().out
    assert main(["fsck", "--quiet", db]) == 1
    assert capsys.readouterr().out == ""


def test_fsck_missing_directory(tmp_path, capsys):
    assert main(["fsck", str(tmp_path / "nope")]) == 2
    assert "no such database" in capsys.readouterr().err


def test_plan_prints_the_candidate_table(tmp_path, capsys):
    db = str(tmp_path / "db")
    assert main(["demo", db, "--people", "1", "--snippets", "4"]) == 0
    capsys.readouterr()
    rc = main(["plan", db, "person0", "location=Door -> location=Room",
               "--k", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    first, *rows = out.splitlines()
    assert "least predicted cost" in first
    labels = [row[2:].split()[0] for row in rows]
    assert labels == ["naive", "btree", "topk"]
    assert sum(row.startswith("* ") for row in rows) == 1
    assert all("reads" in row for row in rows)


def test_commands_open_a_database_at_its_page_size(tmp_path, capsys):
    db = str(tmp_path / "db")
    shutil.copytree(OLD_DB, db)
    assert main(["info", db]) == 0
    assert "stream 'keep'" in capsys.readouterr().out
    assert main(["query", db, "keep", OLD_QUERY, "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("method: ") and "top 3 matches:" in out
    assert main(["drop", db, "keep"]) == 0
    assert "dropped 'keep'" in capsys.readouterr().out
    assert main(["info", db]) == 0
    assert "no streams archived" in capsys.readouterr().out
