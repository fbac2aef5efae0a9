"""Incremental engines on integer numerators over one common denominator.

A :class:`StreamingEvaluator` over exact inputs (a monitor watch's
occurrence evaluator included) keeps its layer as integer numerators
plus a running denominator
(the scale) and divides only when it is read. These tests hold it to the
``Fraction`` referee (the same layered DP run on the values as they
are): exact streams read ``==`` rationals, float streams read the very
same floats, and everything that saves or restores a frontier —
checkpoints, rollbacks, ``restore`` and store snapshots — keeps
numerators and scale together.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from repro import semiring
from repro.automata.nfa import NFA
from repro.automata.regex import regex_to_dfa
from repro.confidence.layered import forward
from repro.core.engine import evaluate
from repro.errors import ReproError
from repro.io.json_format import query_from_dict, query_to_dict
from repro.lahar.database import MarkovStreamDatabase
from repro.lahar.monitor import occurrence_profile, occurrence_query, query_pattern
from repro.markov import sequence as sequence_module
from repro.markov.builders import homogeneous
from repro.runtime.cache import plan_for
from repro.runtime.incremental import StreamingEvaluator
from repro.serve.alerts import AlertEngine
from repro.serve.sharding import ShardedDatabase
from repro.store import Store, replay, verify_recovery
from repro.store.recovery import capture_state
from repro.transducers.library import accept_filter
from repro.transducers.transducer import Transducer

F = Fraction
ALPHABET = "ab"

#: Timesteps whose rows mix the denominators 2, 3, 7 and 11 with 0/1
#: entries, given as ints and as Fractions.
PALETTE = (
    {"a": {"a": F(1, 2), "b": F(1, 2)}, "b": {"a": F(1, 3), "b": F(2, 3)}},
    {"a": {"a": F(3, 7), "b": F(4, 7)}, "b": {"a": 1, "b": 0}},
    {"a": {"a": F(5, 11), "b": F(6, 11)}, "b": {"a": F(2, 7), "b": F(5, 7)}},
    {"a": {"a": F(1), "b": F(0)}, "b": {"a": F(10, 11), "b": F(1, 11)}},
    {"a": {"a": F(2, 3), "b": F(1, 3)}, "b": {"a": F(1, 2), "b": F(1, 2)}},
)
FLOAT_ROWS = {"a": {"a": 0.25, "b": 0.75}, "b": {"a": 0.6, "b": 0.4}}
#: A float row beside an exact one: cells at ``b``, reached only from
#: ``b``, keep exact values once the layer has dropped back to Fractions.
MIXED_ROWS = {"a": {"a": 1.0, "b": 0.0}, "b": {"a": F(1, 2), "b": F(1, 2)}}


def pattern_query(pattern: str) -> Transducer:
    return accept_filter(regex_to_dfa(f"(a|b)*{pattern}(a|b)*", ALPHABET))


def first_symbol() -> Transducer:
    """Emits the stream's first symbol: two answers, a bounded frontier."""
    states = ("start", "seen")
    nfa = NFA(
        ALPHABET,
        states,
        "start",
        {"seen"},
        {(state, symbol): {"seen"} for state in states for symbol in ALPHABET},
    )
    return Transducer(nfa, {("start", s, "seen"): (s,) for s in ALPHABET})


def queries() -> dict[str, Transducer]:
    return {"ab": pattern_query("ab"), "bba": pattern_query("bba"), "first": first_symbol()}


def timesteps(count: int, seed: int = 7) -> list[dict]:
    rng = random.Random(seed)
    return [rng.choice(PALETTE) for _ in range(count)]


def exact_stream():
    return homogeneous({"a": F(3, 7), "b": F(4, 7)}, PALETTE[2], 2)


def float_stream():
    return homogeneous({"a": 0.3, "b": 0.7}, FLOAT_ROWS, 2)


def referee(query, sequence) -> dict:
    """The frontier DP with the values as they are: ``Fraction`` arithmetic
    on exact streams, the same float operations in the same order on
    float ones."""
    plan = plan_for(query)
    moves = plan.execution.moves
    accepting = plan.execution.nfa.accepting

    def advance(cell, target):
        _symbol, state, output = cell
        return [(target, nxt, output + emitted) for nxt, emitted in moves(state, target)]

    conf: dict = {}
    layer: dict = {}
    for layer in forward(sequence, (plan.compiled.nfa.initial, ()), advance):
        pass
    for (_symbol, state, output), mass in layer.items():
        if state in accepting:
            conf[output] = conf.get(output, 0) + mass
    return conf


def monitor_query() -> Transducer:
    """What a monitor watch on the pattern ``ab`` evaluates."""
    return occurrence_query(accept_filter(regex_to_dfa("ab", ALPHABET)))


def monitor_referee(sequence) -> object:
    return occurrence_profile(sequence, regex_to_dfa("ab", ALPHABET))[-1]


def monitor_value(monitor: StreamingEvaluator) -> object:
    return monitor.confidences().get((), 0)


def streaming_db(sequence) -> tuple[MarkovStreamDatabase, dict, StreamingEvaluator]:
    db = MarkovStreamDatabase()
    db.register_stream("s", sequence)
    evaluators = {name: db.streaming_evaluator("s", q) for name, q in queries().items()}
    return db, evaluators, db.streaming_evaluator("s", monitor_query())


def assert_matches_referee(db, evaluators, monitor) -> None:
    """Equal values of equal types: ``==`` alone would let a float stand
    in for a ``Fraction``."""
    sequence = db.stream("s")
    for name, query in queries().items():
        got, want = evaluators[name].confidences(), referee(query, sequence)
        assert got == want, name
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()], name
    got, want = monitor_value(monitor), monitor_referee(sequence)
    assert got == want and type(got) is type(want)


def test_thousand_mixed_denominator_appends_equal_the_fraction_referee() -> None:
    db, evaluators, monitor = streaming_db(exact_stream())
    for count, transition in enumerate(timesteps(1000), start=1):
        db.append("s", transition)
        if count in (1, 10, 250, 1000):
            assert_matches_referee(db, evaluators, monitor)
    sequence = db.stream("s")
    assert sequence.length == 1002
    # The referee is itself checked against the from-scratch evaluation.
    for name, query in queries().items():
        want = {a.output: a.confidence for a in evaluate(sequence, query)}
        assert evaluators[name].confidences() == want, name
    # Exact values stay exact and canonical.
    for evaluator in evaluators.values():
        assert evaluator._scale is not None
        assert all(type(v) is Fraction for v in evaluator.confidences().values())
    assert type(monitor_value(monitor)) is Fraction


def test_nondeterministic_frontier_equals_the_referee() -> None:
    nfa = NFA(
        ALPHABET,
        ["p", "q"],
        "p",
        {"p", "q"},
        {("p", "a"): {"p", "q"}, ("p", "b"): {"p"}, ("q", "a"): {"q"}, ("q", "b"): {"q"}},
    )
    omega = {move: ("x",) for move in nfa.transitions()}
    omega[("p", "a", "q")] = ()
    query = Transducer(nfa, omega)
    evaluator = StreamingEvaluator(query, exact_stream())
    for transition in timesteps(12):
        evaluator.append(transition)
    want = {a.output: a.confidence for a in evaluate(evaluator.sequence, query)}
    assert evaluator.confidences() == want


def test_float_stream_reads_bit_identical_floats() -> None:
    db, evaluators, monitor = streaming_db(float_stream())
    float_steps = [
        {"a": {"a": 0.1 * k, "b": 1 - 0.1 * k}, "b": {"a": 0.35, "b": 0.65}}
        for k in range(1, 10)
    ]
    for transition in float_steps * 4:
        db.append("s", transition)
        assert_matches_referee(db, evaluators, monitor)
    for evaluator in evaluators.values():
        assert evaluator._scale is None
        assert all(type(v) is float for v in evaluator.confidences().values())


def test_float_row_on_an_exact_stream_drops_back_to_todays_values() -> None:
    db, evaluators, monitor = streaming_db(exact_stream())
    for transition in timesteps(20):
        db.append("s", transition)
    assert evaluators["ab"]._scale is not None
    db.append("s", MIXED_ROWS)
    assert evaluators["ab"]._scale is None
    assert_matches_referee(db, evaluators, monitor)
    assert any(type(v) is Fraction for v in evaluators["ab"].frontier.values())
    db.append("s", FLOAT_ROWS)
    assert_matches_referee(db, evaluators, monitor)
    for transition in timesteps(20, seed=8):
        db.append("s", transition)
        assert_matches_referee(db, evaluators, monitor)
    assert type(monitor_value(monitor)) is float


def test_rejected_appends_roll_back_numerators_and_scale() -> None:
    db, evaluators, _monitor = streaming_db(exact_stream())
    for transition in timesteps(30):
        db.append("s", transition)
    before = {
        name: (e._frontier, e._scale, e.confidences()) for name, e in evaluators.items()
    }

    # An invalid timestep is rejected before anything moves.
    with pytest.raises(ReproError):
        db.append("s", {"a": {"a": F(1, 2)}, "b": {"b": 1}})
    # A failure inside one evaluator's layer push rolls back the others.
    poisoned = evaluators["first"]
    poisoned._advance = lambda *_args: (_ for _ in ()).throw(RuntimeError("meltdown"))
    with pytest.raises(RuntimeError, match="meltdown"):
        db.append("s", PALETTE[0])
    del poisoned._advance

    for name, evaluator in evaluators.items():
        frontier, scale, confidences = before[name]
        assert evaluator._frontier == frontier and evaluator._scale == scale, name
        assert evaluator.confidences() == confidences, name
        assert evaluator.length == db.stream("s").length == 32
    for transition in timesteps(5, seed=9):
        db.append("s", transition)
    sequence = db.stream("s")
    for name, query in queries().items():
        assert evaluators[name].confidences() == referee(query, sequence), name


def test_checkpoint_and_rollback_carry_the_scale() -> None:
    evaluator = StreamingEvaluator(pattern_query("ab"), exact_stream())
    frontier, scale = evaluator.frontier, evaluator._scale
    evaluator.checkpoint()
    evaluator.append(PALETTE[1])
    assert evaluator._scale != scale
    evaluator.rollback()
    assert (evaluator.frontier, evaluator._scale) == (frontier, scale)


def test_restore_from_a_fraction_frontier_reproduces_later_confidences() -> None:
    query = first_symbol()
    live = StreamingEvaluator(query, exact_stream())
    for transition in timesteps(25):
        live.append(transition)
    frontier = live.frontier
    assert all(type(value) is Fraction for value in frontier.values())
    restored = StreamingEvaluator.restore(query, live.sequence, frontier)
    assert restored._scale is not None
    assert restored.frontier == frontier
    for transition in timesteps(40, seed=3):
        assert restored.append(transition) == live.append(transition)
    assert restored.confidences() == referee(query, restored.sequence)


def test_monitor_restore_relifts_its_layer() -> None:
    monitor = StreamingEvaluator(monitor_query(), exact_stream())
    for transition in timesteps(15):
        monitor.append(transition)
    restored = StreamingEvaluator.restore(monitor_query(), monitor.sequence, monitor.frontier)
    assert restored._scale is not None and restored.frontier == monitor.frontier
    for transition in timesteps(15, seed=4):
        assert restored.append(transition) == monitor.append(transition)


def test_one_append_lifts_its_timestep_once_for_24_evaluators(monkeypatch) -> None:
    calls = []
    original = semiring.scale_rows

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(sequence_module, "scale_rows", counting)
    db = MarkovStreamDatabase()
    db.register_stream("s", exact_stream())
    # Two from-scratch reads: the first runs on Fractions, the second
    # lifts the rows, and the stream keeps that lift from then on.
    for _ in range(2):
        assert list(evaluate(db.stream("s"), first_symbol()))
    patterns = ["".join(p) for n in (3, 4) for p in itertools.product(ALPHABET, repeat=n)]
    evaluators = [db.streaming_evaluator("s", pattern_query(p)) for p in patterns]
    assert len({e.plan.fingerprint for e in evaluators}) == 24
    calls.clear()
    grown = db.append("s", PALETTE[2])
    assert len(calls) == 1
    assert all(e.length == 3 for e in evaluators)
    # A from-scratch read of the grown stream reuses the same lift.
    assert list(evaluate(grown, first_symbol()))
    assert calls == [grown.transition_rows(2)]


# ---------------------------------------------------------------------------
# Store snapshots written before the frontiers moved to integer numerators
# ---------------------------------------------------------------------------

#: A durable session written by ``write_store`` at the revision before
#: this representation (``cf37086``): a snapshot after 40 appends, then 10
#: more appends in the log.
OLD_STORE = Path(__file__).parent / "fixtures" / "store_fraction_frontier"


def canonical(query):
    return query_from_dict(query_to_dict(query))


def write_store(data_dir: Path) -> None:
    """Journal a server-shaped session with an answer and a monitor watch."""
    store = Store(data_dir, fsync=False)
    db = ShardedDatabase()
    db.attach_store(store)
    alerts = AlertEngine()
    db.register_stream("s", exact_stream())
    query = canonical(pattern_query("ab"))
    db.register_query("q", query)
    alerts.register_standing(db, "answer", "s", "answer", "q", query, (), F(1, 2), F(1, 4))
    occurrence = canonical(pattern_query("bb"))
    alerts.register_standing(
        db, "monitor", "s", "monitor", "bb", occurrence, (), F(1, 2), F(1, 4)
    )
    for count, transition in enumerate(timesteps(50, seed=11), start=1):
        grown = db.append("s", transition)
        alerts.observe_append("s", grown.length)
        if count == 40:
            store.compact(capture_state(db, alerts))
    store.close()


def test_a_snapshot_written_before_integer_frontiers_still_recovers(tmp_path) -> None:
    old = tmp_path / "old"
    shutil.copytree(OLD_STORE, old)
    new = tmp_path / "new"
    write_store(new)
    (old_snapshot,) = (old / "snapshots").iterdir()
    (new_snapshot,) = (new / "snapshots").iterdir()
    assert old_snapshot.name == new_snapshot.name
    # The integer representation is in memory only, so everything but the
    # monitor watch is the same document. The old file keeps the monitor's
    # product-DP layer on its standing entry; today's snapshot drops that
    # field and holds the watch's occurrence evaluator beside the others.
    old_doc = json.loads(old_snapshot.read_text())
    new_doc = json.loads(new_snapshot.read_text())
    assert old_doc["streams"] == new_doc["streams"]
    assert old_doc["queries"] == new_doc["queries"]
    (answer_entry,) = old_doc["evaluators"]
    assert answer_entry in new_doc["evaluators"] and len(new_doc["evaluators"]) == 2
    old_monitor = {entry["name"]: entry for entry in old_doc["standing"]}["monitor"]
    assert old_monitor["monitor"]["layer"] and old_monitor["monitor"]["length"] == 42
    for entry in old_doc["standing"]:
        entry.pop("monitor")
    assert old_doc["standing"] == new_doc["standing"]

    assert verify_recovery(old)["ok"]
    recovered, fresh = replay(old), replay(new)
    sequence = recovered.database.stream("s")
    assert sequence.length == 52
    for name in ("answer", "monitor"):
        standing, twin = recovered.alerts.get(name), fresh.alerts.get(name)
        assert standing.current_value() == twin.current_value()
        assert standing.watch.armed == twin.watch.armed
        assert standing.alerts_fired == twin.alerts_fired
    answer = recovered.alerts.get("answer")
    assert answer.evaluator._scale is not None
    assert answer.current_value() == referee(pattern_query("ab"), sequence)[()]
    monitor = recovered.alerts.get("monitor")
    assert monitor.evaluator._scale is not None
    assert monitor.current_value() == occurrence_profile(
        sequence, query_pattern(monitor.query)
    )[-1]
    # The old snapshot had no evaluator for the monitor: recovery built
    # one, so both stores now hold the same evaluators.
    assert len(recovered.database.attached_evaluators()) == 2
