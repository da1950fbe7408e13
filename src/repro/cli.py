"""Command-line interface to Caldera.

::

    python -m repro demo [DB]          archive synthetic routine streams and
                                       smoke-test Alg 1 vs Alg 2
    python -m repro info DB            list streams, indexes, file sizes
    python -m repro import DB S.json   import a JSON stream and index it
    python -m repro export DB NAME out.json
    python -m repro query DB NAME "location=H1 -> location=O300" [options]
    python -m repro plan DB NAME QUERY     show the planner's candidates and choice
    python -m repro density DB NAME QUERY  data density w.r.t. a query
    python -m repro fsck DB            verify checksums and tree structure

The query subcommand prints the signal's top matches, optional detected
events, and the run's cost (wall time + page I/O).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .errors import ReproError

# The engine (repro.core) pulls in every layer of the stack; subcommands
# import it lazily so ``python -m repro --help`` stays cheap.


def _engine():
    from .core import Caldera

    return Caldera


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Caldera: event queries on archived Markovian streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="build a tiny demo archive of "
                          "synthetic streams and smoke-test the access "
                          "methods (Alg 1 vs Alg 2)")
    demo.add_argument("db", nargs="?", default=None,
                      help="database directory (default: a temp dir, "
                      "deleted afterwards)")
    demo.add_argument("--people", type=int, default=2,
                      help="number of streams to simulate")
    demo.add_argument("--snippets", type=int, default=20,
                      help="snippets per stream (30 timesteps each)")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--layout", default="separated",
                      choices=["separated", "cell", "co_clustered",
                               "packed"])

    info = sub.add_parser("info", help="list streams and indexes")
    info.add_argument("db")

    imp = sub.add_parser("import", help="import a JSON Markovian stream")
    imp.add_argument("db")
    imp.add_argument("stream_json")
    imp.add_argument("--layout", default="separated",
                     choices=["separated", "cell", "co_clustered",
                              "packed"])
    imp.add_argument("--mc-alpha", type=int, default=None,
                     help="also build the MC index (Alg 4) with this "
                     "branching factor, e.g. 2; unset skips it")
    imp.add_argument("--no-btp", action="store_true",
                     help="skip the BT_P (top-k) index")

    exp = sub.add_parser("export", help="export an archived stream to JSON")
    exp.add_argument("db")
    exp.add_argument("stream")
    exp.add_argument("output")

    query = sub.add_parser("query", help="run a Regular event query")
    query.add_argument("db")
    query.add_argument("stream")
    query.add_argument("query")
    query.add_argument("--method", default="auto",
                       choices=["auto", "naive", "btree", "topk", "mc",
                                "semi"])
    query.add_argument("--k", type=int, default=None,
                       help="top-k retrieval")
    query.add_argument("--threshold", type=float, default=None,
                       help="return matches with probability >= this")
    query.add_argument("--events", type=float, default=None, metavar="ENTER",
                       help="detect events with this enter threshold")
    query.add_argument("--limit", type=int, default=10,
                       help="max signal rows to print")
    query.add_argument("--cold", action="store_true",
                       help="drop caches before running")
    query.add_argument("--start", type=int, default=0,
                       help="window start timestep (inclusive)")
    query.add_argument("--stop", type=int, default=None,
                       help="window stop timestep (exclusive)")

    drop = sub.add_parser("drop", help="remove an archived stream and its "
                          "indexes")
    drop.add_argument("db")
    drop.add_argument("stream")

    plan_cmd = sub.add_parser("plan", help="show the planner's candidate "
                              "table and decision")
    plan_cmd.add_argument("db")
    plan_cmd.add_argument("stream")
    plan_cmd.add_argument("query")
    plan_cmd.add_argument("--k", type=int, default=None)

    density = sub.add_parser("density", help="data density w.r.t. a query")
    density.add_argument("db")
    density.add_argument("stream")
    density.add_argument("query")

    fsck = sub.add_parser("fsck", help="deep-verify a database: checksums, "
                          "tree structure, page accounting")
    fsck.add_argument("db", help="database directory")
    fsck.add_argument("-q", "--quiet", action="store_true",
                      help="print nothing; exit status carries the verdict")
    return parser


def cmd_demo(args, out) -> int:
    import tempfile

    from .streams import ENTERED_ROOM_QUERY, routine_stream

    print(f"simulating {args.people} routine stream(s) x "
          f"{args.snippets * 30} timesteps ...", file=out)
    streams = [
        routine_stream(f"person{i}", num_snippets=args.snippets,
                       seed=args.seed + i)
        for i in range(args.people)
    ]
    with tempfile.TemporaryDirectory() as scratch:
        db_path = args.db if args.db is not None else scratch
        with _engine()(db_path) as db:
            for stream in streams:
                db.archive(stream, layout=args.layout)
                print(f"  archived {stream.name} ({len(stream)} timesteps, "
                      f"layout={args.layout})", file=out)
            query = db.parse(ENTERED_ROOM_QUERY)
            print(f"query: {query.signature()}", file=out)
            for stream in streams:
                naive = db.query(stream.name, query, method="naive",
                                 cold=True)
                btree = db.query(stream.name, query, method="btree",
                                 cold=True)
                got = dict(naive.signal)
                for t, p in btree.signal:
                    if abs(got.get(t, 0.0) - p) > 1e-9:
                        print(f"MISMATCH on {stream.name} at t={t}: "
                              f"naive={got.get(t, 0.0):.6f} btree={p:.6f}",
                              file=sys.stderr)
                        return 1
                peak_t, peak_p = max(btree.signal, key=lambda tp: tp[1],
                                     default=(None, 0.0))
                print(f"  {stream.name}: peak p={peak_p:.3f} at t={peak_t}",
                      file=out)
                print(f"    naive (Alg 1): {naive.stats.summary()}", file=out)
                print(f"    btree (Alg 2): {btree.stats.summary()}", file=out)
        if args.db is not None:
            print(f"demo database ready at {args.db}", file=out)
        else:
            print("demo complete (temp database removed; pass a DB path "
                  "to keep it)", file=out)
    return 0


def cmd_info(args, out) -> int:
    with _engine()(args.db) as db:
        streams = db.stream_names()
        if not streams:
            print("no streams archived", file=out)
        for name in streams:
            meta = db.stream_meta(name)
            print(f"stream {name!r}: {meta.length} timesteps, "
                  f"layout={meta.layout.value}, "
                  f"attributes={list(meta.space.attributes)}", file=out)
            for index in sorted(meta.indexes):
                print(f"    index {index} {meta.indexes[index]}", file=out)
        dims = db.dimension_tables()
        for name, mapping in dims.items():
            print(f"dimension table {name!r}: {len(mapping)} entries",
                  file=out)
        total = sum(db.storage_report().values())
        print(f"total on disk: {total / 2**20:.2f} MiB "
              f"across {len(db.storage_report())} files", file=out)
    return 0


def cmd_import(args, out) -> int:
    from .streams import load_stream

    stream = load_stream(args.stream_json)
    with _engine()(args.db) as db:
        db.archive(stream, layout=args.layout, btp=not args.no_btp,
                   mc_alpha=args.mc_alpha)
    print(f"imported {stream.name!r}: {len(stream)} timesteps", file=out)
    return 0


def cmd_export(args, out) -> int:
    from .streams import dump_stream

    with _engine()(args.db) as db:
        stream = db.reader(args.stream).materialize()
    dump_stream(stream, args.output)
    print(f"exported {args.stream!r} to {args.output}", file=out)
    return 0


def cmd_query(args, out) -> int:
    with _engine()(args.db) as db:
        result = db.query(
            args.stream, args.query, method=args.method, k=args.k,
            threshold=args.threshold, cold=args.cold,
            start=args.start, stop=args.stop,
        )
        print(f"method: {result.method}; {result.stats.summary()}", file=out)
        top = result.top(args.limit)
        if not top:
            print("no matches", file=out)
        else:
            print(f"top {len(top)} matches:", file=out)
            for t, p in top:
                print(f"  t={t:6d}  p={p:.4f}", file=out)
        if args.events is not None:
            from .core import detect_events

            events = detect_events(result, enter=args.events)
            print(f"{len(events)} event(s) at enter={args.events}:", file=out)
            for event in events:
                print(f"  {event}", file=out)
    return 0


def cmd_plan(args, out) -> int:
    with _engine()(args.db) as db:
        decision = db.explain(args.stream, args.query, k=args.k)
        print(f"{decision.name}: {decision.reason}", file=out)
        print(decision.table(), file=out)
    return 0


def cmd_density(args, out) -> int:
    with _engine()(args.db) as db:
        density = db.data_density(args.stream, args.query)
        print(f"{density:.4f}", file=out)
    return 0


def cmd_fsck(args, out) -> int:
    import os

    from .storage import StorageEnvironment

    if not os.path.isdir(args.db):
        print(f"error: no such database directory: {args.db}",
              file=sys.stderr)
        return 2
    # page_size=None adopts each file's on-disk geometry, so fsck works
    # on databases built with any page size.
    with StorageEnvironment(args.db, page_size=None) as env:
        report = env.fsck()
    if not args.quiet:
        print(report.render(), file=out)
    return 0 if report.clean else 1


def cmd_drop(args, out) -> int:
    with _engine()(args.db) as db:
        db.drop_stream(args.stream)
        print(f"dropped {args.stream!r}", file=out)
    return 0


_COMMANDS = {
    "demo": cmd_demo,
    "info": cmd_info,
    "import": cmd_import,
    "export": cmd_export,
    "query": cmd_query,
    "plan": cmd_plan,
    "density": cmd_density,
    "drop": cmd_drop,
    "fsck": cmd_fsck,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
