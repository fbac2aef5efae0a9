"""The telemetry subsystem: metrics, spans, export, CLI, zero overhead."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cli import main
from repro.confidence.brute_force import brute_force_answers
from repro.errors import ReproError
from repro.examples_data.hospital import hospital_sequence, room_change_transducer
from repro.io.json_format import write_query, write_sequence
from repro.oracle.generators import generate_instance
from repro.oracle.registry import Prepared
from repro.telemetry.metrics import Histogram, Registry


@pytest.fixture(autouse=True)
def telemetry_disabled():
    """Every test starts and ends with telemetry off (module-global state)."""
    telemetry.disable()
    yield
    telemetry.disable()


# ---------------------------------------------------------------------------
# Metric semantics
# ---------------------------------------------------------------------------


def test_counter_accumulates() -> None:
    registry = Registry()
    registry.count("a", 1)
    registry.count("a", 4)
    registry.count("b")
    snap = registry.snapshot()
    assert snap["counters"] == {"a": 5, "b": 1}


def test_gauge_last_write_wins() -> None:
    registry = Registry()
    registry.gauge("g", 1.5)
    registry.gauge("g", -2.0)
    assert registry.snapshot()["gauges"] == {"g": -2.0}


def test_histogram_buckets_and_extremes() -> None:
    hist = Histogram(bounds=(1.0, 10.0, 100.0))
    for value in (0.5, 1.0, 5.0, 50.0, 500.0):
        hist.observe(value)
    # inclusive upper edges: 0.5 and 1.0 land in bucket 0
    assert hist.counts == [2, 1, 1, 1]
    assert hist.count == 5
    assert hist.min == 0.5
    assert hist.max == 500.0
    assert hist.total == pytest.approx(556.5)
    assert hist.mean() == pytest.approx(556.5 / 5)


def test_histogram_rejects_bad_bounds() -> None:
    with pytest.raises(ReproError):
        Histogram(bounds=())
    with pytest.raises(ReproError):
        Histogram(bounds=(2.0, 1.0))


def test_histogram_merge_requires_equal_bounds() -> None:
    with pytest.raises(ReproError):
        Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))


def test_histogram_roundtrip_dict() -> None:
    hist = Histogram(bounds=(1.0, 2.0))
    hist.observe(0.5)
    hist.observe(3.0)
    assert Histogram.from_dict(hist.as_dict()) == hist


def _hist_of(values: list[float]) -> Histogram:
    hist = Histogram(bounds=(0.001, 0.1, 1.0, 10.0))
    for value in values:
        hist.observe(value)
    return hist


def _assert_equivalent(a: Histogram, b: Histogram) -> None:
    """Equality modulo float-summation order in ``total``."""
    assert a.bounds == b.bounds
    assert a.counts == b.counts
    assert a.count == b.count
    assert a.min == b.min
    assert a.max == b.max
    assert math.isclose(a.total, b.total, rel_tol=1e-12, abs_tol=1e-12)


finite_values = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=30
)


@settings(max_examples=60, deadline=None)
@given(finite_values, finite_values, finite_values)
def test_histogram_merge_associative_commutative_count_preserving(
    xs: list[float], ys: list[float], zs: list[float]
) -> None:
    a, b, c = _hist_of(xs), _hist_of(ys), _hist_of(zs)
    _assert_equivalent(a.merge(b), b.merge(a))
    _assert_equivalent(a.merge(b).merge(c), a.merge(b.merge(c)))
    merged = a.merge(b).merge(c)
    assert merged.count == len(xs) + len(ys) + len(zs)
    assert sum(merged.counts) == merged.count


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_span_nesting_builds_paths() -> None:
    telemetry.enable()
    with telemetry.span("outer"):
        with telemetry.span("inner"):
            pass
        with telemetry.span("inner"):
            pass
    with telemetry.span("outer"):
        pass
    spans = telemetry.snapshot()["spans"]
    assert spans["outer"]["count"] == 2
    assert spans["outer/inner"]["count"] == 2
    assert set(spans) == {"outer", "outer/inner"}


def test_span_records_positive_duration() -> None:
    registry = telemetry.enable()
    with telemetry.span("timed"):
        sum(range(1000))
    data = registry.snapshot()["spans"]["timed"]
    assert data["count"] == 1
    assert data["total"] > 0


def test_disabled_span_is_shared_noop() -> None:
    assert telemetry.span("anything") is telemetry.NOOP_SPAN
    with telemetry.span("anything"):
        pass  # enters and exits without a registry


# ---------------------------------------------------------------------------
# Module-level helpers and sessions
# ---------------------------------------------------------------------------


def test_disabled_helpers_are_inert_and_allocation_free() -> None:
    base = telemetry.recorder_allocations()
    telemetry.count("x", 7)
    telemetry.gauge("y", 1.0)
    telemetry.observe("z", 0.5)
    with telemetry.span("s"):
        pass
    assert telemetry.recorder_allocations() == base
    assert telemetry.recorder() is None
    assert telemetry.snapshot()["counters"] == {}


def test_session_exports_and_restores(tmp_path) -> None:
    target = tmp_path / "snap.json"
    with telemetry.session(target):
        assert telemetry.enabled()
        telemetry.count("inside", 2)
    assert not telemetry.enabled()
    snapshot = telemetry.load_snapshot(target)
    assert snapshot["counters"] == {"inside": 2}


def test_session_exports_even_on_error(tmp_path) -> None:
    target = tmp_path / "snap.json"
    with pytest.raises(RuntimeError):
        with telemetry.session(target):
            telemetry.count("partial")
            raise RuntimeError("boom")
    assert telemetry.load_snapshot(target)["counters"] == {"partial": 1}
    assert not telemetry.enabled()


# ---------------------------------------------------------------------------
# Exporter round-trips
# ---------------------------------------------------------------------------


def _populated_snapshot() -> dict:
    registry = telemetry.enable()
    telemetry.count("c.one", 3)
    telemetry.gauge("g.one", 2.5)
    telemetry.observe("h.one", 0.25)
    with telemetry.span("root"):
        with telemetry.span("leaf"):
            pass
    snap = registry.snapshot()
    telemetry.disable()
    return snap


@pytest.mark.parametrize("name", ["snap.json", "snap.ndjson"])
def test_export_roundtrip(tmp_path, name: str) -> None:
    snap = _populated_snapshot()
    path = telemetry.write_snapshot(snap, tmp_path / name)
    assert telemetry.load_snapshot(path) == snap


def test_ndjson_lines_are_individually_parseable(tmp_path) -> None:
    snap = _populated_snapshot()
    path = telemetry.write_snapshot(snap, tmp_path / "snap.ndjson")
    lines = path.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    kinds = {record["kind"] for record in records}
    assert {"meta", "counter", "gauge", "histogram", "span"} <= kinds


def test_load_snapshot_rejects_garbage(tmp_path) -> None:
    bad = tmp_path / "bad.ndjson"
    bad.write_text("{not json}\n")
    with pytest.raises(ReproError):
        telemetry.load_snapshot(bad)
    with pytest.raises(ReproError):
        telemetry.load_snapshot(tmp_path / "missing.json")


def test_render_snapshot_mentions_every_metric() -> None:
    snap = _populated_snapshot()
    rendered = telemetry.render_snapshot(snap)
    for name in ("c.one", "g.one", "h.one", "root", "root/leaf"):
        assert name in rendered
    assert telemetry.render_snapshot(telemetry.snapshot()) == "(empty telemetry snapshot)"


# ---------------------------------------------------------------------------
# Zero overhead + bit-identical results (acceptance gate)
# ---------------------------------------------------------------------------


def test_disabled_streaming_append_allocates_nothing_and_is_bit_identical() -> None:
    # The streaming evaluator's per-append DP layer is the instrumented
    # hot loop: replay an exact instance one timestep at a time.
    from repro.markov.sequence import MarkovSequence
    from repro.runtime.incremental import StreamingEvaluator

    instance = generate_instance("deterministic", seed=6, trial=0)
    sequence = Prepared(instance).sequence_exact
    assert sequence.length >= 3
    prefix = MarkovSequence(
        sequence.symbols, dict(sequence.initial_support()), [sequence.transition_rows(1)]
    )
    steps = [sequence.transition_rows(i) for i in range(2, sequence.length)]

    def run() -> list[dict]:
        evaluator = StreamingEvaluator(instance.query, prefix)
        return [evaluator.append(step) for step in steps]

    run()  # plan the query once, outside the measured runs
    base = telemetry.recorder_allocations()
    disabled_values = run()
    assert telemetry.recorder_allocations() == base, (
        "disabled telemetry must not allocate recorder objects"
    )

    telemetry.enable()
    enabled_values = run()
    telemetry.disable()

    assert disabled_values == enabled_values, "telemetry must not perturb the DP"
    # Exact Fractions: the last append lands bit-for-bit on the referee.
    assert disabled_values[-1] == brute_force_answers(sequence, instance.query)


def test_enabled_streaming_run_matches_disabled() -> None:
    from repro.automata.regex import regex_to_dfa
    from repro.markov.builders import homogeneous
    from repro.runtime.incremental import StreamingEvaluator
    from repro.transducers.library import accept_filter

    def run() -> dict:
        sequence = homogeneous(
            {"a": 0.5, "b": 0.5},
            {"a": {"a": 0.25, "b": 0.75}, "b": {"a": 0.5, "b": 0.5}},
            6,
        )
        query = accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", "ab"))
        evaluator = StreamingEvaluator(query, sequence)
        return evaluator.append({"a": {"a": 1.0}, "b": {"b": 1.0}})

    disabled = run()
    telemetry.enable()
    enabled = run()
    snap = telemetry.snapshot()
    telemetry.disable()
    assert disabled == enabled
    assert snap["histograms"]["runtime.append.seconds"]["count"] > 0


# ---------------------------------------------------------------------------
# Instrumentation lands where it should
# ---------------------------------------------------------------------------


def test_plan_cache_telemetry_counters() -> None:
    from repro.runtime.cache import PlanCache

    registry = telemetry.enable()
    cache = PlanCache(capacity=1)
    q1 = room_change_transducer()
    cache.get(q1)
    cache.get(q1)
    assert registry.counter_value("runtime.plan_cache.hits") == 1
    assert registry.counter_value("runtime.plan_cache.misses") == 1


def test_verify_telemetry_spans_and_counters() -> None:
    from repro.oracle.harness import verify

    registry = telemetry.enable()
    report = verify(seed=3, max_rounds=2, classes=("deterministic",))
    snap = registry.snapshot()
    assert report.instances == snap["counters"]["oracle.instances"]
    assert snap["spans"]["verify"]["count"] == 1
    assert snap["spans"]["verify/instance"]["count"] == report.instances
    assert snap["gauges"]["oracle.cases_per_second"] > 0


# ---------------------------------------------------------------------------
# CLI: --telemetry and `repro stats`
# ---------------------------------------------------------------------------


@pytest.fixture
def files(tmp_path):
    seq_path = tmp_path / "mu.json"
    query_path = tmp_path / "query.json"
    write_sequence(hospital_sequence(), seq_path)
    write_query(room_change_transducer(), query_path)
    return str(seq_path), str(query_path)


def test_cli_plan_telemetry_and_stats(files, tmp_path, capsys) -> None:
    seq, query = files
    snap_path = str(tmp_path / "plan.ndjson")
    assert (
        main(
            ["plan", "--query", query, "--sequence", seq, "--telemetry", snap_path]
        )
        == 0
    )
    assert not telemetry.enabled()
    capsys.readouterr()
    assert main(["stats", snap_path]) == 0
    out = capsys.readouterr().out
    # Whether this resolves to a hit or a miss depends on what earlier
    # tests left in the process-default plan cache; either way the
    # lookup itself must be on record.
    assert "runtime.plan_cache" in out


def test_cli_batch_telemetry(files, tmp_path, capsys) -> None:
    seq, query = files
    snap_path = str(tmp_path / "batch.json")
    assert (
        main(
            [
                "batch",
                "--query", query,
                "--sequence", seq,
                "--telemetry", snap_path,
            ]
        )
        == 0
    )
    snapshot = telemetry.load_snapshot(snap_path)
    # The ranked merge pops the hospital stream's E_max answers.
    assert snapshot["counters"]["enumeration.viterbi.passes"] >= 1


def test_cli_verify_telemetry(tmp_path, capsys) -> None:
    snap_path = str(tmp_path / "verify.ndjson")
    assert (
        main(
            [
                "verify",
                "--max-rounds", "2",
                "--classes", "deterministic",
                "--telemetry", snap_path,
            ]
        )
        == 0
    )
    snapshot = telemetry.load_snapshot(snap_path)
    assert snapshot["counters"]["oracle.instances"] >= 2
    capsys.readouterr()
    assert main(["stats", snap_path]) == 0
    assert "oracle.instances" in capsys.readouterr().out


def test_cli_stats_missing_file_is_an_error(tmp_path, capsys) -> None:
    assert main(["stats", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err
