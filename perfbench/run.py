"""Socket-level benchmark of the ``repro serve`` streaming query service.

Starts ``python -m repro.cli serve`` from the checkout's ``src/`` on a unix
socket, drives it with a closed-loop NDJSON client, checks every response
and the server's end state against an offline computation, and prints one
JSON result as the last line of standard output::

    python3 perfbench/run.py --workload durable --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it writes only under ``.perfbench_tmp/``
there and removes that directory when it ends.

Workloads (one connection that sends its next request only once the
previous reply arrived -- a closed loop, so one request is in the server at
a time and contention from the machine's other processes is all that
queues it):

* ``durable`` -- exact appends to streams that each carry 24 standing
  queries, with ``--data-dir`` and ``--no-fsync``: every request advances
  24 incremental DP layers, is journaled, may fire alerts to a subscriber,
  and the log is compacted into snapshots; each stream is renewed after
  ``LIFETIME`` appends, and measuring starts once every stream was renewed;
* ``read``    -- one-shot exact ``confidence`` reads of a sparse monitor
  query (a plan-cache hit, then the shrunk plan's CSR kernel off the event
  loop), with every 16th request a ``top_k_across`` ranked read that fans
  out through the server's ``--workers`` process pool; no mutation.

The traffic follows the repository's own documented uses of the service;
the comments on the constants below name where each value comes from.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the server
with ``--telemetry`` and reports per-layer metrics from its exported
snapshot, plus the set-up phases and offline computations timed here
around the calls into the library; comparing its latency with an untraced
run shows the tracing overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import pathlib
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

WORKLOADS = ("durable", "read")

# The server invocation of docs/USAGE.md ("Streaming query service").
SHARDS = 4
# read only: cross-stream reads fan out through the pool. docs/USAGE.md
# shows 4; 2 keeps server, pool and client within a 2-core machine.
WORKERS = 2

# durable: the standing-query session of benchmarks/bench_serve.py and
# benchmarks/bench_store.py -- Pr(pattern occurred) over a two-symbol
# stream that grows by one homogeneous timestep per append, alert at 0.9
# and re-armed at 0.5 -- with one watch per pattern of length 3 and 4 on
# every stream, so an append advances 24 DP layers and the server's work,
# not the socket round trip, sets its latency. The rows are exact Fractions
# drawn from the seed. The journal is written and flushed but not fsynced:
# an fsync measures the disk, which the program does not control.
OCCURRENCE_ALPHABET = "ab"
PATTERNS = tuple(
    "".join(p) for n in (3, 4) for p in itertools.product(OCCURRENCE_ALPHABET, repeat=n)
)
THRESHOLD, REARM = 0.9, 0.5
PREFIX = 2  # stream length at registration
LIFETIME = 200  # bench_serve's session length; then the stream is renewed
APPEND_STREAMS = 4  # no documented figure: one per shard
# Each row probability is k/11 for a k drawn from ROW_NUMERATORS: with a
# prime denominator no row reduces, so the size of the exact values, and
# with it the cost of an append, does not depend on the seed.
ROW_DENOMINATOR = 11
ROW_NUMERATORS = (3, 8)

# read: the sparse instance of benchmarks/bench_sparse.py (96-state trap
# monitor with an 8-state live core, exact positive Fraction streams of
# length 48) and the ranked fleet batch of benchmarks/bench_parallel.py at
# the size of its pool shape check (8 hospital-shaped float streams of
# length 12, top 5 by emax). The fleet is bench_parallel's own fixed corpus,
# so the cost of a ranked read does not depend on the seed; the seed draws
# the sparse streams and the order of the point reads.
TRAP_STATES = 96
TRAP_LIVE = 8
TRAP_ALPHABET = ("a", "b", "c")
SPARSE_STREAMS = 8  # no documented figure
SPARSE_LENGTH = 48
FLEET_STREAMS = 8
FLEET_LENGTH = 12
TOP_K = 5
TOP_K_EVERY = 16  # every 16th read is a ranked one (no documented split)
READ_MIX = 256  # (stream, answer) confidence reads cycled through

SETUPS = 9  # set-ups per run; setup_s is their median
WARMUP_S = 1.0  # at least; durable warms up until every stream was renewed
WINDOWS = 10  # p99 and throughput are medians over this many windows of a run
TOLERANCE = 1e-9  # relative; the server may sum floats in another order
START_TIMEOUT_S = 60.0
SERVER_GRACE_S = 120  # the server outlives the measurement by this much

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def compact(document) -> str:
    return json.dumps(document, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def trap_monitor_query():
    """The 0-uniform trap monitor of ``benchmarks/bench_sparse.py``.

    The live states cycle on ``a`` and accept; ``b`` and ``c`` scatter
    into traps that never accept, so the plan-time trim removes them and
    the planner picks the sparse kernel (density 1/96).
    """
    from repro.automata.nfa import NFA
    from repro.transducers.transducer import Transducer

    states = [f"q{i:03d}" for i in range(TRAP_STATES)]
    live, traps = TRAP_LIVE, TRAP_STATES - TRAP_LIVE
    delta = {}
    for i in range(live):
        delta[(states[i], "a")] = {states[(i + 1) % live]}
        delta[(states[i], "b")] = {states[live + (i % traps)]}
        delta[(states[i], "c")] = {states[live + ((i * 7 + 3) % traps)]}
    for i in range(live, TRAP_STATES):
        j = i - live
        delta[(states[i], "a")] = {states[live + ((j + 1) % traps)]}
        delta[(states[i], "b")] = {states[i]}
        delta[(states[i], "c")] = {states[live + (j * 3 % traps)]}
    nfa = NFA(TRAP_ALPHABET, states, states[0], set(states[:live]), delta)
    omega = {
        (state, symbol, target): ()
        for (state, symbol), targets in delta.items()
        for target in targets
    }
    return Transducer(nfa, omega)


def positive_fraction_sequence(length: int, rng: random.Random):
    """An exact chain whose every row gives every symbol nonzero mass."""
    from repro.markov.sequence import MarkovSequence

    def row() -> dict:
        weights = [rng.randint(1, 5) for _ in TRAP_ALPHABET]
        return {s: Fraction(w, sum(weights)) for s, w in zip(TRAP_ALPHABET, weights)}

    return MarkovSequence(
        TRAP_ALPHABET,
        row(),
        [{source: row() for source in TRAP_ALPHABET} for _ in range(length - 1)],
    )


def fleet_sequence(index: int):
    """Stream ``index`` of ``bench_parallel.fleet_corpus``: hospital-shaped floats."""
    from repro.examples_data.hospital import LOCATIONS, hospital_sequence

    rng = random.Random(1000 + index)
    sequence = hospital_sequence(exact=False)
    while sequence.length < FLEET_LENGTH:
        timestep = {}
        for source in LOCATIONS:
            targets = rng.sample(LOCATIONS, 3)
            weights = [rng.random() + 0.05 for _ in targets]
            timestep[source] = {t: w / sum(weights) for t, w in zip(targets, weights)}
        sequence = sequence.extended(timestep)
    return sequence


def wire_answers(answers) -> list:
    return [(name, answer.rendered(), answer.score, answer.confidence) for name, answer in answers]


def read_inputs(rng: random.Random, inputs: dict) -> None:
    from repro.core.engine import compute_confidence
    from repro.examples_data.hospital import room_change_transducer
    from repro.runtime.executor import batch_top_k
    from repro.runtime.plan import QueryPlan

    trap, fleet = trap_monitor_query(), room_change_transducer()
    inputs["queries"] = {"trap": trap, "fleet": fleet}
    sparse = {f"m{i}": positive_fraction_sequence(SPARSE_LENGTH, rng) for i in range(SPARSE_STREAMS)}
    corpus = {f"cart{i:03d}": fleet_sequence(i) for i in range(FLEET_STREAMS)}
    inputs["streams"] = {**sparse, **corpus}
    inputs["expected"] = {name: compute_confidence(seq, trap, ()) for name, seq in sparse.items()}
    inputs["read_mix"] = [
        (compact({"stream": name, "query": "trap", "output": []}), inputs["expected"][name])
        for name in (rng.choice(sorted(sparse)) for _ in range(READ_MIX))
    ]
    inputs["corpus"] = corpus
    inputs["top_k"] = compact(
        {"query": "fleet", "k": TOP_K, "order": "emax", "streams": sorted(corpus)}
    )
    inputs["top_k_expected"] = wire_answers(
        batch_top_k(QueryPlan.build(fleet), corpus, TOP_K, order="emax")
    )


def durable_inputs(rng: random.Random, inputs: dict) -> None:
    from repro.automata.regex import regex_to_dfa
    from repro.io.json_format import query_to_dict
    from repro.markov.builders import homogeneous
    from repro.serve.protocol import encode_transition
    from repro.transducers.library import accept_filter

    any_symbol = "(" + "|".join(OCCURRENCE_ALPHABET) + ")*"
    queries = {
        pattern: accept_filter(
            regex_to_dfa(any_symbol + pattern + any_symbol, OCCURRENCE_ALPHABET)
        )
        for pattern in PATTERNS
    }
    a, b = OCCURRENCE_ALPHABET
    for i in range(APPEND_STREAMS):
        name = f"s{i}"
        p_initial, p_aa, p_ba = (Fraction(rng.randint(*ROW_NUMERATORS), ROW_DENOMINATOR) for _ in range(3))
        initial = {a: p_initial, b: 1 - p_initial}
        rows = {a: {a: p_aa, b: 1 - p_aa}, b: {a: p_ba, b: 1 - p_ba}}
        inputs["streams"][name] = homogeneous(initial, rows, PREFIX)
        inputs["rows"][name] = rows
        inputs["appends"][name] = compact({"stream": name, "transition": encode_transition(rows)})
        for pattern, query in queries.items():
            watch = f"watch-{name}-{pattern}"
            inputs["queries"][watch] = query
            inputs["standing"][watch] = {
                "name": watch,
                "stream": name,
                "query": query_to_dict(query),
                "kind": "answer",
                "output": [],
                "threshold": THRESHOLD,
                "rearm": REARM,
            }


def make_inputs(workload: str, seed: int) -> dict:
    """Every stream, query and request of one run, derived from ``seed``."""
    from repro.io.json_format import query_to_dict, sequence_to_dict

    rng = random.Random(f"perfbench|{workload}|{seed}")
    inputs = {"streams": {}, "queries": {}, "standing": {}, "rows": {}, "appends": {}}
    if workload == "read":
        read_inputs(rng, inputs)
    else:
        durable_inputs(rng, inputs)
    inputs["stream_docs"] = {
        name: {"name": name, "sequence": sequence_to_dict(sequence)}
        for name, sequence in inputs["streams"].items()
    }
    inputs["query_docs"] = {
        name: {"name": name, "query": query_to_dict(query)}
        for name, query in inputs["queries"].items()
        if workload == "read"
    }
    return inputs


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class Server:
    """One ``repro serve`` process, registered with a run's catalog."""

    def __init__(self, workload, inputs, workdir: pathlib.Path, trace: bool, max_seconds: int):
        self.workdir = workdir
        workdir.mkdir(parents=True)
        # A relative path keeps the socket name under the unix-socket limit.
        self.socket = os.path.relpath(workdir / "serve.sock", ROOT)
        self.telemetry = workdir / "telemetry.json" if trace else None
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", self.socket,
            "--shards", str(SHARDS),
            "--max-seconds", str(max_seconds),
        ]
        if workload == "durable":
            command += ["--data-dir", str(workdir / "data"), "--no-fsync"]
        else:
            command += ["--workers", str(WORKERS)]
        if self.telemetry is not None:
            command += ["--telemetry", str(self.telemetry)]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        start = time.perf_counter()
        with open(workdir / "serve.log", "wb") as log:
            # Its own process group, so the pool workers die with it.
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        try:
            self.client = self._connect()
            self.spawn_s = time.perf_counter() - start
            for params in inputs["stream_docs"].values():
                self.client.call("register_stream", **params)
            for params in inputs["query_docs"].values():
                self.client.call("register_query", **params)
            for params in inputs["standing"].values():
                self.client.call("register_standing_query", **params)
            self.register_s = time.perf_counter() - start - self.spawn_s
            if workload == "read":
                # The first cross-stream read starts the worker pool.
                self.client.call("top_k_across", **json.loads(inputs["top_k"]))
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start
        self.pool_s = self.setup_s - self.spawn_s - self.register_s

    def _connect(self):
        from repro.serve import ServeClient

        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with code {self.process.returncode}: "
                    + (self.workdir / "serve.log").read_text(errors="replace")[-2000:]
                )
            try:
                client = ServeClient.connect_unix(self.socket, timeout=60.0)
            except OSError:
                time.sleep(0.002)
                continue
            client.call("ping")
            return client
        raise RuntimeError(f"repro serve did not listen within {START_TIMEOUT_S}s")

    def stop(self) -> None:
        """Graceful shutdown (the telemetry snapshot is written on exit)."""
        try:
            self.client.call("shutdown")
        finally:
            self.client.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("repro serve did not drain within 60s") from None
        self._reap_group()
        if self.process.returncode != 0:
            raise RuntimeError(f"repro serve exited with code {self.process.returncode}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._reap_group()

    def _reap_group(self) -> None:
        """Kill what is left of the server's process group and wait for it."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(self.process.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------


class Tally:
    """What the client saw: send time and latency of each measured request."""

    def __init__(self) -> None:
        self.sent_ns: list[int] = []
        self.latencies_ns: list[int] = []
        self.failed = 0
        self.wrong: list[str] = []
        self.appended: dict[str, int] = {}  # appends since (re)registration
        self.renewed: set[str] = set()
        self.appends = 0
        self.alerts = 0
        self.events = 0


def close_enough(got, want) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= TOLERANCE * max(1.0, abs(want))


def read_requests(inputs: dict):
    """Endless (command, params JSON, checker) triples of the read mix."""
    from repro.serve.protocol import decode_value

    mix = inputs["read_mix"]
    expected = inputs["top_k_expected"]

    def check_top_k(result):
        got = [
            (a["stream"], a["output"], decode_value(a["score"]), decode_value(a["confidence"]))
            for a in result.get("answers", ())
        ]
        if len(got) != len(expected) or any(
            g[:2] != w[:2] or not close_enough(g[2], w[2]) or not close_enough(g[3], w[3])
            for g, w in zip(got, expected)
        ):
            return f"top_k_across answered {got!r}, expected {expected!r}"
        return None

    for position in itertools.count(1):
        if position % TOP_K_EVERY == 0:
            yield "top_k_across", inputs["top_k"], check_top_k
            continue
        params, want = mix[position % len(mix)]

        def check(result, want=want):
            got = decode_value(result.get("confidence"))
            if got != want:
                return f"confidence {got!r} != {want!r}"
            return None

        yield "confidence", params, check


def append_requests(inputs: dict, tally: Tally):
    """Endless appends to the streams in turn, renewing each in turn.

    A stream that reached ``LIFETIME`` appends is registered afresh, which
    tears down its standing queries, and the queries are registered again:
    the server's memory, frontier state and snapshots stay the same size
    however long the run, so the cost of a request does not drift. The
    first lifetimes are staggered, so that once every stream was renewed
    (the warm-up) the streams' lengths are spread evenly over a
    lifetime and the mix of costs is the same in every part of the run.
    """
    streams = list(inputs["streams"])
    watches = {
        name: sorted(w for w, doc in inputs["standing"].items() if doc["stream"] == name)
        for name in streams
    }
    renew_at = {name: LIFETIME - k * LIFETIME // len(streams) for k, name in enumerate(streams)}
    for name in itertools.cycle(streams):
        count = tally.appended.get(name, 0)
        if count == renew_at[name]:
            renew_at[name] = LIFETIME
            tally.appended[name] = count = 0
            tally.renewed.add(name)

            def renewed(result, name=name):
                dropped = result.get("standing_dropped")
                if result.get("stream") != name or sorted(dropped or ()) != watches[name]:
                    return f"renewing {name} answered {result!r}"
                return None

            yield "register_stream", compact(inputs["stream_docs"][name]), renewed
            for watch in watches[name]:

                def rewatched(result, watch=watch):
                    if result.get("standing") != watch:
                        return f"re-registering {watch} answered {result!r}"
                    return None

                yield "register_standing_query", compact(inputs["standing"][watch]), rewatched
        tally.appended[name] = count + 1
        tally.appends += 1

        def check(result, name=name, length=PREFIX + count + 1):
            tally.alerts += len(result.get("alerts", ()))
            if result.get("stream") != name or result.get("length") != length:
                return f"append to {name} acked {result!r}, expected length {length}"
            return None

        yield "append", inputs["appends"][name], check


async def run_client(path, requests, tally, seconds, warmed):
    """Send ``requests`` one at a time; measure ``seconds`` once ``warmed()``.

    Returns when measurement began, in perf_counter ns.
    """
    reader, writer = await asyncio.open_unix_connection(path, limit=1 << 24)
    try:
        request_id = 0
        warm_until = time.perf_counter_ns() + int(WARMUP_S * 1e9)
        measure_from = stop_at = None
        while stop_at is None or time.perf_counter_ns() < stop_at:
            cmd, params, check = next(requests)
            request_id += 1
            frame = f'{{"id":{request_id},"cmd":"{cmd}","params":{params}}}\n'.encode()
            sent = time.perf_counter_ns()
            if measure_from is None and sent >= warm_until and warmed():
                measure_from, stop_at = sent, sent + int(seconds * 1e9)
            writer.write(frame)
            await writer.drain()
            line = await reader.readline()
            done = time.perf_counter_ns()
            measured = measure_from is not None
            if measured:
                tally.sent_ns.append(sent)
                tally.latencies_ns.append(done - sent)
            reply = json.loads(line) if line else {}
            if reply.get("id") != request_id or not reply.get("ok"):
                tally.failed += measured
                tally.wrong.append(f"{cmd}: {reply!r}")
                if not line:
                    raise RuntimeError(f"repro serve closed the connection: {tally.wrong[-1]}")
                continue
            problem = check(reply["result"])
            if problem is not None:
                tally.wrong.append(problem)
        return measure_from
    finally:
        writer.close()
        await writer.wait_closed()


async def run_subscriber(path, tally, ready):
    """One connection subscribed to every alert, counting the events."""
    reader, writer = await asyncio.open_unix_connection(path, limit=1 << 24)
    try:
        writer.write(b'{"id":1,"cmd":"subscribe","params":{"all":true}}\n')
        await writer.drain()
        while line := await reader.readline():
            frame = json.loads(line)
            if frame.get("id") == 1:
                ready.set()
            elif frame.get("event") == "alert":
                tally.events += 1
    finally:
        writer.close()
        await writer.wait_closed()


async def drive(workload, inputs, server, seconds, tally) -> int:
    """Run the load; returns when measurement began, in perf_counter ns."""
    subscriber = None
    if workload != "read":
        ready = asyncio.Event()
        subscriber = asyncio.create_task(run_subscriber(server.socket, tally, ready))
        await asyncio.wait_for(ready.wait(), timeout=30)
    if workload == "read":
        requests, warmed = read_requests(inputs), lambda: True
    else:
        requests, warmed = (
            append_requests(inputs, tally),
            lambda: len(tally.renewed) == APPEND_STREAMS,
        )
    measure_from = await run_client(server.socket, requests, tally, seconds, warmed)
    if subscriber is not None:
        deadline = time.monotonic() + 10
        while tally.events < tally.alerts and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        subscriber.cancel()
        try:
            await subscriber
        except asyncio.CancelledError:
            pass
    return measure_from


# ---------------------------------------------------------------------------
# Checks and metrics
# ---------------------------------------------------------------------------


def check_final_state(workload: str, inputs: dict, stats: dict, tally: Tally) -> list[str]:
    """Compare the server's end state against an offline computation."""
    from repro.core.engine import compute_confidence
    from repro.markov.builders import homogeneous
    from repro.serve.protocol import decode_value

    if workload == "read":
        return []
    problems = []
    if stats["appends"] != tally.appends:
        problems.append(f"server counted {stats['appends']} appends, client {tally.appends}")
    if stats["alerts_fired"] != tally.alerts or tally.events != tally.alerts:
        problems.append(
            f"alerts: server {stats['alerts_fired']}, acks {tally.alerts}, "
            f"events {tally.events}"
        )
    values = {entry["name"]: decode_value(entry["value"]) for entry in stats["standing"]}
    for watch, doc in inputs["standing"].items():
        name = doc["stream"]
        count = tally.appended.get(name, 0)
        if watch not in values and count == 0:
            continue  # stopped between renewing the stream and this watch
        prefix = inputs["streams"][name]
        final = homogeneous(dict(prefix.initial_support()), inputs["rows"][name], PREFIX + count)
        want = compute_confidence(final, inputs["queries"][watch], ())
        if values.get(watch) != want:
            problems.append(f"standing value of {watch}: {values.get(watch)!r} != {want!r}")
    if (stats["store"] or {}).get("last_lsn", 0) < tally.appends:
        problems.append(f"journal holds fewer records than appends: {stats['store']!r}")
    return problems


def percentile(sorted_values, share):
    return sorted_values[min(len(sorted_values) - 1, int(share * len(sorted_values)))]


def metric(value, unit):
    return {"value": value, "unit": unit}


def windows(tally, measure_from, seconds):
    """The measured latencies split into equal windows of send time.

    Reporting the median over windows means contention from other
    processes on the machine for part of a run moves one window, not the
    reported figure.
    """
    width_ns = seconds * 1e9 / WINDOWS
    split = [[] for _ in range(WINDOWS)]
    for sent, latency in zip(tally.sent_ns, tally.latencies_ns):
        split[min(WINDOWS - 1, int((sent - measure_from) // width_ns))].append(latency)
    return split


def end_to_end_metrics(tally, measure_from, seconds, setups):
    split = windows(tally, measure_from, seconds)
    return {
        "latency_p50_ms": metric(percentile(sorted(tally.latencies_ns), 0.50) / 1e6, "ms"),
        "latency_p99_ms": metric(
            statistics.median(percentile(sorted(w), 0.99) for w in split if w) / 1e6, "ms"
        ),
        "throughput_rps": metric(
            statistics.median(len(w) for w in split) * WINDOWS / seconds, "1/s"
        ),
        "setup_s": metric(statistics.median(s.setup_s for s in setups), "s"),
    }


def histogram_mean(snapshot: dict, name: str, scale: float) -> float:
    histogram = snapshot.get("histograms", {}).get(name)
    if not histogram or not histogram["count"]:
        return 0.0
    return histogram["total"] / histogram["count"] * scale


def median_seconds(call, repeats: int) -> float:
    """Median wall time of ``repeats`` in-process calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def offline_metrics(workload: str, inputs: dict) -> dict:
    """The read DPs timed here, in-process, with no socket or server."""
    if workload != "read":
        return {"read_dp_us": metric(0.0, "us"), "offline_top_k_ms": metric(0.0, "ms")}
    from repro.core.engine import compute_confidence
    from repro.runtime.cache import PlanCache
    from repro.runtime.executor import batch_top_k

    cache = PlanCache()
    trap, fleet = inputs["queries"]["trap"], cache.get(inputs["queries"]["fleet"])
    sparse = [inputs["streams"][name] for name in inputs["expected"]]
    compute_confidence(sparse[0], trap, (), False, cache)  # plan it once
    dp_s = median_seconds(
        lambda: [compute_confidence(seq, trap, (), False, cache) for seq in sparse], 9
    ) / len(sparse)
    top_k_s = median_seconds(
        lambda: batch_top_k(fleet, inputs["corpus"], TOP_K, order="emax"), 5
    )
    return {
        "read_dp_us": metric(dp_s * 1e6, "us"),
        "offline_top_k_ms": metric(top_k_s * 1e3, "ms"),
    }


def per_layer_metrics(workload, inputs, tally, setups, snapshot):
    counters = snapshot.get("counters", {})
    hits = counters.get("runtime.plan_cache.hits", 0)
    misses = counters.get("runtime.plan_cache.misses", 0)
    latencies = tally.latencies_ns
    return {
        "setup_spawn_s": metric(statistics.median(s.spawn_s for s in setups), "s"),
        "setup_register_s": metric(statistics.median(s.register_s for s in setups), "s"),
        "setup_pool_s": metric(statistics.median(s.pool_s for s in setups), "s"),
        "traced_latency_mean_us": metric(sum(latencies) / len(latencies) / 1e3, "us"),
        "serve_commands": metric(counters.get("serve.commands", 0), "count"),
        "serve_errors": metric(counters.get("serve.errors", 0), "count"),
        "append_in_lock_us": metric(histogram_mean(snapshot, "serve.append.seconds", 1e6), "us"),
        "dp_layer_us": metric(histogram_mean(snapshot, "runtime.append.seconds", 1e6), "us"),
        "dp_layer_cells": metric(histogram_mean(snapshot, "runtime.append.cells", 1.0), "count"),
        "alerts_fired": metric(counters.get("serve.alerts.fired", 0), "count"),
        "alerts_dropped": metric(counters.get("serve.alerts.dropped", 0), "count"),
        "journal_records": metric(counters.get("store.records", 0), "count"),
        "journal_record_bytes": metric(
            counters.get("store.bytes", 0) / max(1, counters.get("store.records", 0)), "B"
        ),
        "compactions": metric(counters.get("store.compactions", 0), "count"),
        "compaction_ms": metric(histogram_mean(snapshot, "store.compaction.seconds", 1e3), "ms"),
        "plan_cache_hits": metric(hits, "count"),
        "plan_cache_misses": metric(misses, "count"),
        "plan_cache_hit_ratio": metric(hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "sparse_plans": metric(counters.get("sparse.plans.sparse", 0), "count"),
        "sparse_states_pruned": metric(counters.get("sparse.states_pruned", 0), "count"),
        "sparse_kernel_runs": metric(counters.get("sparse.kernel.runs", 0), "count"),
        "top_k_batches": metric(counters.get("parallel.batches", 0), "count"),
        "top_k_batch_ms": metric(histogram_mean(snapshot, "parallel.batch.seconds", 1e3), "ms"),
        "pool_chunk_ms": metric(histogram_mean(snapshot, "parallel.chunk.seconds", 1e3), "ms"),
        "pool_retries": metric(counters.get("parallel.retries", 0), "count"),
        "pool_serial_fallbacks": metric(counters.get("parallel.serial_fallbacks", 0), "count"),
        "worker_cache_misses": metric(counters.get("parallel.worker_cache.misses", 0), "count"),
        **offline_metrics(workload, inputs),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(args) -> dict:
    inputs = make_inputs(args.workload, args.seed)
    max_seconds = int(args.seconds + WARMUP_S + SERVER_GRACE_S)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run", dir=scratch))
    setups, live = [], None
    try:
        for index in range(SETUPS):
            live = Server(
                args.workload, inputs, workdir / f"s{index}", bool(args.trace), max_seconds
            )
            setups.append(live)
            if index < SETUPS - 1:
                live.stop()
                live = None
        tally = Tally()
        measure_from = asyncio.run(drive(args.workload, inputs, live, args.seconds, tally))
        stats = live.client.call("stats")
        live.stop()
        server, live = live, None
        problems = tally.wrong + check_final_state(args.workload, inputs, stats, tally)
        for problem in problems[:5]:
            print(f"perfbench: {problem}", file=sys.stderr)
        if args.trace:
            snapshot = json.loads(server.telemetry.read_text())
            metrics = per_layer_metrics(args.workload, inputs, tally, setups, snapshot)
        else:
            metrics = end_to_end_metrics(tally, measure_from, args.seconds, setups)
        return {
            "correct": not problems,
            "attempted": len(tally.latencies_ns),
            "failed": tally.failed,
            "metrics": metrics,
        }
    finally:
        if live is not None:
            live.kill()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
