"""Command-line interface: query Markov sequences from JSON documents.

Usage (after ``pip install -e .``, as ``repro``; or ``python -m repro.cli``):

    repro info      --sequence seq.json [--query query.json]
    repro sample    --sequence seq.json [--count 5] [--seed 0]
    repro evaluate  --sequence seq.json --query query.json
                    [--order unranked|emax|imax|confidence] [--limit K]
                    [--no-confidence] [--allow-exponential]
                    [--epsilon E --delta D --approx-seed N]
    repro confidence --sequence seq.json --query query.json
                     --answer 1,2 [--index I]
                     [--epsilon E --delta D --approx-seed N]
    repro plan      --query query.json [--sequence seq.json]
    repro batch     --query query.json --sequence a.json --sequence b.json
                    [--corpus DIR] [-k K] [--answer 1,2]
    repro verify    [--budget SECONDS] [--seed N] [--classes a,b]
                    [--corpus DIR] [--save-failures DIR] [--no-metamorphic]
    repro serve     --socket /tmp/repro.sock | --host 127.0.0.1 --port 7341
                    [--shards N] [--queue-size N] [--workers N]
                    [--max-seconds S] [--data-dir DIR] [--no-fsync]
                    [--compact-every N]
    repro store     inspect DIR | compact DIR | recover DIR [--verify]
    repro stats     snapshot.json
    repro dot       --sequence seq.json | --query query.json

``plan``, ``batch``, and ``verify`` accept ``--telemetry PATH``: the
command runs with the tracing layer enabled and exports the metric
snapshot to ``PATH`` on exit (``.ndjson`` suffix selects ndjson);
``repro stats PATH`` pretty-prints a snapshot either way. The JSON
formats are documented in :mod:`repro.io.json_format`.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import signal
import sys
import time

from repro import telemetry
from repro.errors import ReproError
from repro.core.engine import (
    approximate_confidence,
    compute_confidence,
    evaluate,
    top_k,
)
from repro.io.json_format import read_query, read_sequence
from repro.lahar.monitor import occurrence_profile
from repro.runtime.cache import default_plan_cache
from repro.runtime.executor import batch_confidence, batch_top_k
from repro.transducers.sprojector import IndexedSProjector, SProjector
from repro.transducers.transducer import Transducer
from repro.viz.dot import sequence_to_dot, transducer_to_dot


def _parse_answer(text: str) -> tuple:
    """Parse a comma-separated answer string ('' means the empty answer)."""
    if text == "":
        return ()
    return tuple(text.split(","))


def _approx_cli_seed(base: int, token: str) -> int:
    """Deterministic per-item sampling seed (sha256, not PYTHONHASHSEED)."""
    import hashlib

    digest = hashlib.sha256(f"{base}|{token}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _render_approx(estimate) -> str:
    """One-line rendering of an ApproxConfidence for CLI output."""
    line = (
        f"{estimate.estimate:.10g}\t"
        f"interval=[{estimate.low:.10g},{estimate.high:.10g}]\t"
        f"samples={estimate.samples}\tmethod={estimate.method}"
    )
    if not estimate.certified:
        line += "\t(uncertified: sample cap hit)"
    return line


def _describe_query(query) -> str:
    if isinstance(query, IndexedSProjector):
        return (
            f"indexed s-projector |Q_B|={len(query.prefix.states)} "
            f"|Q_A|={len(query.pattern.states)} |Q_E|={len(query.suffix.states)}"
        )
    if isinstance(query, SProjector):
        return (
            f"s-projector |Q_B|={len(query.prefix.states)} "
            f"|Q_A|={len(query.pattern.states)} |Q_E|={len(query.suffix.states)}"
            + (" (simple)" if query.is_simple() else "")
        )
    assert isinstance(query, Transducer)
    labels = []
    labels.append("deterministic" if query.is_deterministic() else "nondeterministic")
    labels.append("selective" if query.is_selective() else "non-selective")
    k = query.uniformity()
    labels.append(f"{k}-uniform" if k is not None else "non-uniform")
    if query.is_mealy():
        labels.append("Mealy")
    if query.is_projector():
        labels.append("projector")
    return f"transducer |Q|={len(query.nfa.states)} ({', '.join(labels)})"


def _cmd_info(args) -> int:
    sequence = read_sequence(args.sequence)
    print(
        f"Markov sequence: length {sequence.length}, "
        f"{len(sequence.symbols)} node symbols, "
        f"support of {sequence.support_size()} worlds"
    )
    if args.query:
        query = read_query(args.query)
        print(f"Query: {_describe_query(query)}")
    return 0


def _cmd_sample(args) -> int:
    sequence = read_sequence(args.sequence)
    rng = random.Random(args.seed)
    for _ in range(args.count):
        world = sequence.sample(rng)
        print(" ".join(str(s) for s in world))
    return 0


def _cmd_evaluate(args) -> int:
    sequence = read_sequence(args.sequence)
    query = read_query(args.query)
    approximate = args.epsilon is not None
    answers = evaluate(
        sequence,
        query,
        order=args.order,
        # In (ε, δ) mode, exact per-answer confidences are replaced by
        # FPRAS estimates after enumeration.
        with_confidence=not args.no_confidence and not approximate,
        limit=args.limit,
        allow_exponential=args.allow_exponential,
    )
    for answer in answers:
        fields = [answer.rendered()]
        if answer.score is not None:
            fields.append(f"score={float(answer.score):.6g}")
        if approximate and not args.no_confidence:
            estimate = approximate_confidence(
                sequence,
                query,
                answer.output,
                epsilon=args.epsilon,
                delta=args.delta,
                seed=_approx_cli_seed(args.approx_seed, repr(answer.output)),
            )
            fields.append(
                f"confidence~{estimate.estimate:.6g} "
                f"[{estimate.low:.6g},{estimate.high:.6g}] "
                f"({estimate.method})"
            )
        elif answer.confidence is not None:
            fields.append(f"confidence={float(answer.confidence):.6g}")
        print("\t".join(fields))
    return 0


def _cmd_confidence(args) -> int:
    sequence = read_sequence(args.sequence)
    query = read_query(args.query)
    output = _parse_answer(args.answer)
    if isinstance(query, IndexedSProjector):
        if args.index is None:
            raise ReproError("indexed s-projector answers need --index")
        answer = (output, args.index)
    else:
        answer = output
    if args.epsilon is not None:
        estimate = approximate_confidence(
            sequence,
            query,
            answer,
            epsilon=args.epsilon,
            delta=args.delta,
            seed=args.approx_seed,
        )
        print(_render_approx(estimate))
        return 0
    value = compute_confidence(
        sequence, query, answer, allow_exponential=args.allow_exponential
    )
    print(f"{float(value):.10g}")
    return 0


def _cmd_top_k(args) -> int:
    sequence = read_sequence(args.sequence)
    query = read_query(args.query)
    for answer in top_k(sequence, query, args.k):
        fields = [answer.rendered()]
        if answer.score is not None:
            fields.append(f"score={float(answer.score):.6g}")
        if answer.confidence is not None:
            fields.append(f"confidence={float(answer.confidence):.6g}")
        print("\t".join(fields))
    return 0


def _cmd_profile(args) -> int:
    sequence = read_sequence(args.sequence)
    query = read_query(args.query)
    if isinstance(query, SProjector):
        pattern = query.pattern.to_nfa()
    elif isinstance(query, Transducer):
        pattern = query.nfa
    else:  # pragma: no cover - read_query only returns the above
        raise ReproError("profile needs a transducer or s-projector query")
    profile = occurrence_profile(sequence, pattern)
    for i, probability in enumerate(profile, start=1):
        bar = "#" * int(float(probability) * 40)
        print(f"{i}\t{float(probability):.6f}\t{bar}")
    return 0


def _cmd_plan(args) -> int:
    cache = default_plan_cache()
    query = read_query(args.query)
    plan = cache.get(query)
    print(plan.describe())
    if args.epsilon is not None:
        from repro.approx import dklr_target

        target = dklr_target(args.epsilon, args.delta)
        print(
            f"approx knobs: ε={args.epsilon:g} δ={args.delta:g} — DKLR "
            f"stopping rule needs ≈{int(target)} successful samples "
            "(zero when the answer product is unambiguous)"
        )
    if args.sequence:
        sequence = read_sequence(args.sequence)
        start = time.perf_counter()
        answers = list(
            evaluate(
                sequence,
                query,
                order=args.order,
                allow_exponential=args.allow_exponential,
            )
        )
        elapsed = time.perf_counter() - start
        print(
            f"evaluated:   order={args.order}, {len(answers)} answers "
            f"in {elapsed * 1000:.2f} ms"
        )
        run_stats = plan.stats.as_dict()
        print(
            f"plan stats:  evaluations={run_stats['evaluations']} "
            f"answers={run_stats['answers']} "
            f"time={run_stats['seconds'] * 1000:.2f} ms "
            f"dp_cells={run_stats['dp_cells']} appends={run_stats['appends']}"
        )
    cache_stats = cache.stats()
    print(
        f"plan cache:  size={cache_stats['size']}/{cache_stats['capacity']} "
        f"hits={cache_stats['hits']} misses={cache_stats['misses']} "
        f"evictions={cache_stats['evictions']}"
    )
    return 0


def _collect_corpus(args) -> dict:
    """Named streams from repeated --sequence files and/or a --corpus dir."""
    paths: list[pathlib.Path] = [pathlib.Path(p) for p in args.sequence or []]
    if args.corpus:
        directory = pathlib.Path(args.corpus)
        if not directory.is_dir():
            raise ReproError(f"--corpus {args.corpus!r} is not a directory")
        paths.extend(sorted(directory.glob("*.json")))
    if not paths:
        raise ReproError("batch needs --sequence files and/or --corpus DIR")
    corpus: dict = {}
    for path in paths:
        name = path.stem
        suffix = 1
        while name in corpus:
            suffix += 1
            name = f"{path.stem}~{suffix}"
        corpus[name] = read_sequence(path)
    return corpus


def _cmd_batch(args) -> int:
    corpus = _collect_corpus(args)
    query = read_query(args.query)
    if args.epsilon is not None:
        if args.answer is None:
            raise ReproError("batch --epsilon needs --answer (approximate top-k "
                             "is not supported; rankings need exact confidences)")
        output = _parse_answer(args.answer)
        for name, sequence in corpus.items():
            estimate = approximate_confidence(
                sequence,
                query,
                output,
                epsilon=args.epsilon,
                delta=args.delta,
                seed=_approx_cli_seed(args.approx_seed, name),
            )
            print(f"{name}\t{_render_approx(estimate)}")
        return 0
    if args.answer is not None:
        confidences = batch_confidence(
            query,
            corpus,
            _parse_answer(args.answer),
            allow_exponential=args.allow_exponential,
        )
        for name, value in confidences.items():
            print(f"{name}\t{float(value):.10g}")
        return 0
    merged = batch_top_k(
        query,
        corpus,
        args.k,
        order=args.order,
        allow_exponential=args.allow_exponential,
    )
    for name, answer in merged:
        fields = [name, answer.rendered()]
        if answer.score is not None:
            fields.append(f"score={float(answer.score):.6g}")
        if answer.confidence is not None:
            fields.append(f"confidence={float(answer.confidence):.6g}")
        print("\t".join(fields))
    return 0


def _cmd_verify(args) -> int:
    from repro.oracle.generators import CLASS_LABELS
    from repro.oracle.harness import verify

    classes = (
        tuple(label.strip() for label in args.classes.split(",") if label.strip())
        if args.classes
        else CLASS_LABELS
    )
    report = verify(
        seed=args.seed,
        budget=args.budget,
        max_rounds=args.max_rounds,
        classes=classes,
        corpus=args.corpus,
        save_failures=args.save_failures,
        metamorphic=not args.no_metamorphic,
        epsilon=args.epsilon,
        delta=args.delta,
    )
    print(report.matrix_report())
    for diff in report.diffs:
        print(f"DIFF {diff.describe()}")
    for path in report.saved:
        print(f"saved minimized case: {path}")
    print(report.summary())
    if report.diffs:
        print(
            "reproduce with: repro verify "
            f"--seed {report.seed} --max-rounds {max(report.rounds, 2)}",
            file=sys.stderr,
        )
    return 0 if report.ok else 1


def _cmd_stats(args) -> int:
    snapshot = telemetry.load_snapshot(args.snapshot)
    print(telemetry.render_snapshot(snapshot))
    return 0


def _cmd_lint(args) -> int:
    # Imported lazily: the analyzer is only needed by this subcommand.
    from repro.analysis import lint_paths, render_json, render_pretty

    reverse = None
    if args.no_reverse_telemetry:
        reverse = False
    rules = set(args.rules.split(",")) if args.rules else None
    report = lint_paths(
        args.paths,
        rules=rules,
        observability_doc=args.observability,
        reverse_telemetry=reverse,
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_pretty(report))
    return 0 if report.clean else 1


def _cmd_dot(args) -> int:
    if args.sequence:
        print(sequence_to_dot(read_sequence(args.sequence)))
    elif args.query:
        query = read_query(args.query)
        if isinstance(query, SProjector):
            query = query.to_transducer()
        print(transducer_to_dot(query))
    else:
        raise ReproError("dot needs --sequence or --query")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.server import ReproServer

    if args.socket is None and args.host is None:
        raise ReproError("serve needs --socket PATH or --host/--port")

    async def _run() -> None:
        server = ReproServer(
            shards=args.shards,
            queue_size=args.queue_size,
            pool_workers=args.workers or 0,
            data_dir=args.data_dir,
            fsync=not args.no_fsync,
            compact_records=args.compact_every,
        )
        address = await server.start(
            socket_path=args.socket, host=args.host, port=args.port
        )
        if address["family"] == "unix":
            print(f"repro serve: listening on unix socket {address['path']}")
        else:
            print(
                f"repro serve: listening on {address['host']}:{address['port']}"
            )
        if server.recovered is not None:
            recovered = server.recovered
            print(
                f"repro serve: durable in {args.data_dir} — recovered "
                f"{recovered['streams']} stream(s), "
                f"{recovered['standing_queries']} standing, "
                f"LSN {recovered['last_lsn']} "
                f"({recovered['records_replayed']} replayed, "
                f"{recovered['truncated_bytes']} torn bytes truncated)"
            )
        print(
            f"repro serve: {args.shards} shard(s), "
            f"queue size {args.queue_size}",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signame in ("SIGINT", "SIGTERM"):
            try:
                loop.add_signal_handler(
                    getattr(signal, signame),
                    lambda: asyncio.ensure_future(server.shutdown()),
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        if args.max_seconds is not None:
            loop.call_later(
                args.max_seconds,
                lambda: asyncio.ensure_future(server.shutdown()),
            )
        await server.wait_closed()
        print(
            f"repro serve: drained — {server.appends} appends, "
            f"{server.alerts_fired} alerts, {server.connections} connections",
            flush=True,
        )

    asyncio.run(_run())
    return 0


def _cmd_store_inspect(args) -> int:
    from repro.store import inspect_data_dir

    report = inspect_data_dir(args.data_dir)
    print(f"store: {report['data_dir']}")
    print(
        f"log:   last LSN {report['last_lsn']}, "
        f"snapshot LSN {report['snapshot_lsn']} "
        f"({report['replay_records']} record(s) to replay), "
        f"{report['snapshots']} snapshot(s)"
    )
    for segment in report["segments"]:
        span = (
            f"LSN {segment['first_lsn']}..{segment['last_lsn']}"
            if segment["first_lsn"] is not None
            else "empty"
        )
        line = (
            f"  {segment['file']}  {segment['records']} record(s), "
            f"{segment['bytes']} bytes, {span}"
        )
        if segment["torn_bytes"]:
            line += f", torn tail of {segment['torn_bytes']} bytes"
        print(line)
    for record_type in sorted(report["records"]):
        print(f"  {record_type}: {report['records'][record_type]}")
    if report["torn_bytes"]:
        print(
            f"torn tail: {report['torn_bytes']} bytes "
            "(recovery will truncate and continue)"
        )
    return 0


def _cmd_store_compact(args) -> int:
    from repro.store import Store, capture_state, replay

    recovered = replay(args.data_dir)
    store = Store(args.data_dir, fsync=not args.no_fsync)
    before = store.stats()
    store.compact(capture_state(recovered.database, recovered.alerts))
    store.close()
    after = store.stats()
    print(
        f"compacted {args.data_dir}: snapshot at LSN {after['snapshot_lsn']}, "
        f"{before['segments']} -> {after['segments']} segment(s), "
        f"{before['wal_bytes']} -> {after['wal_bytes']} log bytes"
    )
    return 0


def _cmd_store_recover(args) -> int:
    from repro.store import replay, verify_recovery

    recovered = replay(args.data_dir)
    print(
        f"recovered {args.data_dir}: "
        f"{len(recovered.database.streams())} stream(s), "
        f"{len(recovered.database.queries())} named query(ies), "
        f"{len(recovered.alerts)} standing"
    )
    print(
        f"log:       LSN {recovered.last_lsn} "
        f"(snapshot at {recovered.snapshot_lsn}, "
        f"{recovered.records_replayed} record(s) replayed, "
        f"{recovered.truncated_bytes} torn bytes truncated)"
    )
    for name in recovered.database.streams():
        sequence = recovered.database.stream(name)
        print(f"  stream {name}: length {sequence.length}")
    for name in recovered.alerts.names():
        standing = recovered.alerts.get(name)
        print(
            f"  standing {name}: {standing.kind} on {standing.stream}, "
            f"value {float(standing.current_value()):.6g}, "
            f"{'armed' if standing.watch.armed else 'disarmed'}, "
            f"{standing.alerts_fired} alert(s) fired"
        )
    if not args.verify:
        return 0
    report = verify_recovery(args.data_dir)
    referees = "DP + replay" if report["log_complete"] else "DP (log compacted)"
    if report["ok"]:
        print(f"verify:    OK — {referees} referee(s) agree bit-for-bit")
        return 0
    print(f"verify:    FAILED ({referees})", file=sys.stderr)
    for mismatch in report["mismatches"]:
        print(f"  MISMATCH {mismatch}", file=sys.stderr)
    return 1


def _add_approx_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--epsilon",
        type=float,
        default=None,
        metavar="E",
        help="approximate confidences with the FPRAS to relative error E "
        "(exact algorithms are bypassed; enables --delta/--approx-seed)",
    )
    parser.add_argument(
        "--delta",
        type=float,
        default=0.05,
        metavar="D",
        help="FPRAS failure probability: the certified interval holds "
        "with probability at least 1-D (default: 0.05)",
    )
    parser.add_argument(
        "--approx-seed",
        type=int,
        default=0,
        help="base seed for the FPRAS sampler (default: 0; runs are "
        "deterministic given the same seed)",
    )


def _add_telemetry_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="run with tracing enabled and export the metric snapshot "
        "here (.ndjson suffix selects ndjson; see `repro stats`)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query Markov sequences with finite-state transducers (PODS 2010).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="describe a sequence (and optionally a query)")
    info.add_argument("--sequence", required=True)
    info.add_argument("--query")
    info.set_defaults(handler=_cmd_info)

    sample = sub.add_parser("sample", help="draw random worlds")
    sample.add_argument("--sequence", required=True)
    sample.add_argument("--count", type=int, default=5)
    sample.add_argument("--seed", type=int, default=None)
    sample.set_defaults(handler=_cmd_sample)

    run = sub.add_parser("evaluate", help="evaluate a query")
    run.add_argument("--sequence", required=True)
    run.add_argument("--query", required=True)
    run.add_argument(
        "--order",
        default="unranked",
        choices=["unranked", "emax", "imax", "confidence"],
    )
    run.add_argument("--limit", type=int, default=None)
    run.add_argument("--no-confidence", action="store_true")
    run.add_argument("--allow-exponential", action="store_true")
    _add_approx_flags(run)
    run.set_defaults(handler=_cmd_evaluate)

    conf = sub.add_parser("confidence", help="confidence of one answer")
    conf.add_argument("--sequence", required=True)
    conf.add_argument("--query", required=True)
    conf.add_argument("--answer", required=True, help="comma-separated output symbols")
    conf.add_argument("--index", type=int, default=None)
    conf.add_argument("--allow-exponential", action="store_true")
    _add_approx_flags(conf)
    conf.set_defaults(handler=_cmd_confidence)

    best = sub.add_parser("top-k", help="top answers under the class's best order")
    best.add_argument("--sequence", required=True)
    best.add_argument("--query", required=True)
    best.add_argument("-k", type=int, default=5)
    best.set_defaults(handler=_cmd_top_k)

    profile = sub.add_parser(
        "profile", help="per-timestep match probability (Lahar event query)"
    )
    profile.add_argument("--sequence", required=True)
    profile.add_argument("--query", required=True)
    profile.set_defaults(handler=_cmd_profile)

    plan = sub.add_parser(
        "plan", help="show the query plan (chosen algorithms, cache stats)"
    )
    plan.add_argument("--query", required=True)
    plan.add_argument("--sequence", help="also run the plan once and time it")
    plan.add_argument(
        "--order",
        default="unranked",
        choices=["unranked", "emax", "imax", "confidence"],
    )
    plan.add_argument("--allow-exponential", action="store_true")
    _add_approx_flags(plan)
    _add_telemetry_flag(plan)
    plan.set_defaults(handler=_cmd_plan)

    batch = sub.add_parser(
        "batch",
        help="run one query across many streams (ranked merge / vectorized)",
    )
    batch.add_argument("--query", required=True)
    batch.add_argument(
        "--sequence",
        action="append",
        help="a stream file; repeat for more (stream name = file stem)",
    )
    batch.add_argument("--corpus", help="directory of *.json stream files")
    batch.add_argument("-k", type=int, default=5)
    batch.add_argument(
        "--order",
        default=None,
        choices=["unranked", "emax", "imax", "confidence"],
        help="ranked order (default: the plan's best order)",
    )
    batch.add_argument(
        "--answer",
        default=None,
        help="batched confidence of this comma-separated answer instead of top-k",
    )
    batch.add_argument("--allow-exponential", action="store_true")
    _add_approx_flags(batch)
    _add_telemetry_flag(batch)
    batch.set_defaults(handler=_cmd_batch)

    check = sub.add_parser(
        "verify",
        help="differential & metamorphic conformance fuzzing (repro.oracle)",
    )
    check.add_argument(
        "--budget",
        type=float,
        default=10.0,
        help="wall-clock budget in seconds (default: 10)",
    )
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        help="stop after this many fuzz rounds regardless of budget",
    )
    check.add_argument(
        "--classes",
        default=None,
        help="comma-separated Table-2 classes (default: all five)",
    )
    check.add_argument("--corpus", help="directory of oracle_case regression files")
    check.add_argument(
        "--save-failures",
        help="write minimized failing cases into this directory",
    )
    check.add_argument(
        "--no-metamorphic",
        action="store_true",
        help="skip the metamorphic transforms (differential checks only)",
    )
    check.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="approx-engine relative error (default: the harness's "
        "flake-free 0.25)",
    )
    check.add_argument(
        "--delta",
        type=float,
        default=None,
        help="approx-engine per-probe failure probability (default: 1e-9, "
        "so an interval miss means a real bug)",
    )
    _add_telemetry_flag(check)
    check.set_defaults(handler=_cmd_verify)

    serve = sub.add_parser(
        "serve",
        help="run the streaming query service (standing queries, alerts)",
    )
    serve.add_argument("--socket", help="unix socket path to listen on")
    serve.add_argument("--host", help="TCP host to listen on (with --port)")
    serve.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="stream shards; appends on different shards never contend",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=256,
        help="outbound frames buffered per connection before alerts drop",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="threads running off-loop reads, bounding how many heavy reads run "
        "at once (default: asyncio's default executor)",
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="gracefully shut down after this long (CI smoke guard)",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        help="durable mode: journal every mutation here and recover "
        "previous state on startup (see `repro store`)",
    )
    serve.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip the per-record fsync (faster, loses the crash guarantee)",
    )
    serve.add_argument(
        "--compact-every",
        type=int,
        default=None,
        metavar="N",
        help="fold the log into a snapshot every N records (default: 1024)",
    )
    _add_telemetry_flag(serve)
    serve.set_defaults(handler=_cmd_serve)

    store = sub.add_parser(
        "store",
        help="inspect, compact, or recover a `serve --data-dir` store",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_inspect = store_sub.add_parser(
        "inspect", help="read-only structural summary of the log and snapshots"
    )
    store_inspect.add_argument("data_dir", help="the serve --data-dir directory")
    store_inspect.set_defaults(handler=_cmd_store_inspect)

    store_compact = store_sub.add_parser(
        "compact", help="fold the log into a fresh snapshot offline"
    )
    store_compact.add_argument("data_dir", help="the serve --data-dir directory")
    store_compact.add_argument(
        "--no-fsync", action="store_true", help="skip fsyncs during the fold"
    )
    store_compact.set_defaults(handler=_cmd_store_compact)

    store_recover = store_sub.add_parser(
        "recover", help="rebuild state from the store and report what it holds"
    )
    store_recover.add_argument("data_dir", help="the serve --data-dir directory")
    store_recover.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the recovery against from-scratch evaluation",
    )
    store_recover.set_defaults(handler=_cmd_store_recover)

    stats = sub.add_parser(
        "stats", help="pretty-print an exported telemetry snapshot"
    )
    stats.add_argument("snapshot", help="snapshot file written by --telemetry")
    stats.set_defaults(handler=_cmd_stats)

    lint = sub.add_parser(
        "lint",
        help="check project invariants statically (RX01-RX05; see docs/ANALYSIS.md)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    lint.add_argument("--format", choices=("pretty", "json"), default="pretty")
    lint.add_argument(
        "--rules", help="comma-separated rule ids to run (default: all)"
    )
    lint.add_argument(
        "--observability",
        help="path to the metric catalogue doc (default: auto-discover docs/OBSERVABILITY.md)",
    )
    lint.add_argument(
        "--no-reverse-telemetry",
        action="store_true",
        help="skip the documented-but-never-emitted RX05 pass",
    )
    lint.set_defaults(handler=_cmd_lint)

    dot = sub.add_parser("dot", help="emit a graphviz rendering")
    dot.add_argument("--sequence")
    dot.add_argument("--query")
    dot.set_defaults(handler=_cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        telemetry_path = getattr(args, "telemetry", None)
        if telemetry_path is not None:
            # The snapshot is exported even when the handler fails — a
            # diffing `verify` run's telemetry is exactly what you want.
            with telemetry.session(telemetry_path):
                return args.handler(args)
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
