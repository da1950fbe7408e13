"""Figure 11(b): MC index storage requirements vs alpha and stream length.

Builds MC indexes with alpha in {2, 4, 8, 16} over streams of increasing
length and reports index size (bytes and entries) against raw stream
size. Expected shape: storage grows linearly with stream length; alpha=2
roughly doubles the stream's storage (sum over levels of M/alpha^i ~=
M/(alpha-1)); larger alpha shrinks the index quickly.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.indexes import build_mc
from repro.storage import StorageEnvironment
from repro.streams import Layout, open_reader, synthetic_stream, write_stream

from .harness import print_table, save_report
from .workloads import CACHE_ROOT

ALPHAS = [2, 4, 8, 16]
LENGTH_SNIPPETS = [25, 50, 100]  # x30 timesteps each


def _make_stream(num_snippets, seed=5):
    return synthetic_stream(f"len{num_snippets}", num_snippets=num_snippets,
                            density=0.2, seed=seed)


def _index_size(env, index):
    """(span records, on-disk bytes) of an MC index; the count leaves
    out the index's metadata record."""
    return len(index.tree) - 1, env.file_size(index.tree.name)


def generate():
    rows = []
    scratch = os.path.join(CACHE_ROOT, "fig11b-scratch")
    if os.path.exists(scratch):
        shutil.rmtree(scratch)
    for num_snippets in LENGTH_SNIPPETS:
        stream = _make_stream(num_snippets)
        for alpha in ALPHAS:
            path = os.path.join(scratch, f"{num_snippets}-{alpha}")
            with StorageEnvironment(path, page_size=8192) as env:
                write_stream(env, stream, Layout.SEPARATED)
                reader = open_reader(env, stream.name, stream.space,
                                     len(stream), Layout.SEPARATED)
                entries, index_bytes = _index_size(
                    env, build_mc(env, stream.name, reader, alpha=alpha))
                stream_bytes = (
                    env.file_size(stream.name + "__marg")
                    + env.file_size(stream.name + "__cpt")
                )
                rows.append({
                    "timesteps": len(stream),
                    "alpha": alpha,
                    "index_entries": entries,
                    "index_mb": round(index_bytes / 2**20, 3),
                    "stream_mb": round(stream_bytes / 2**20, 3),
                    "overhead_ratio": round(index_bytes / stream_bytes, 3),
                })
    text = print_table(
        "Figure 11(b): MC index storage vs alpha and stream length",
        rows,
        columns=["timesteps", "alpha", "index_entries", "index_mb",
                 "stream_mb", "overhead_ratio"],
    )
    save_report("fig11b", text, {"rows": rows})
    shutil.rmtree(scratch, ignore_errors=True)
    return rows


@pytest.mark.parametrize("alpha", [2, 8])
def test_fig11b_build_cost(benchmark, tmp_path, alpha):
    stream = _make_stream(25)

    def build():
        import uuid

        path = str(tmp_path / uuid.uuid4().hex)
        with StorageEnvironment(path, page_size=8192) as env:
            write_stream(env, stream, Layout.SEPARATED)
            reader = open_reader(env, stream.name, stream.space,
                                 len(stream), Layout.SEPARATED)
            build_mc(env, stream.name, reader, alpha=alpha)

    benchmark.pedantic(build, rounds=2, iterations=1)


def test_fig11b_shape_alpha_tradeoff(tmp_path):
    """Larger alpha -> smaller index; alpha=2 entry count ~= M-ish."""
    stream = _make_stream(25)
    sizes = {}
    for alpha in (2, 8):
        path = str(tmp_path / f"a{alpha}")
        with StorageEnvironment(path, page_size=8192) as env:
            write_stream(env, stream, Layout.SEPARATED)
            reader = open_reader(env, stream.name, stream.space,
                                 len(stream), Layout.SEPARATED)
            sizes[alpha] = _index_size(
                env, build_mc(env, stream.name, reader, alpha=alpha))
    assert sizes[8][0] < sizes[2][0]
    assert sizes[8][1] <= sizes[2][1]
    # alpha=2 stores close to one entry per timestep (sum_i M/2^i ~ M).
    assert sizes[2][0] <= len(stream)


if __name__ == "__main__":
    generate()
