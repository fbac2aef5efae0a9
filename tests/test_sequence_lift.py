"""A Markov sequence's lift of its rows to integer numerators.

:meth:`MarkovSequence.scaled_rows` lifts a row to numerators over one
denominator. A sequence keeps every row's lift once a from-scratch exact
DP (``layered.final_layer`` over ``REAL``) has read it, and
:meth:`MarkovSequence.extended` hands a kept lift on, so later reads of
the stream and its evaluators share one lift per timestep; before that,
only the newest row's lift is kept. These tests count the lifts with a
spy (``tests/test_scaled_frontier.py`` counts those of a database append
followed by a read), hold ``final_layer`` to draining ``layered.forward``
(the ``Fraction`` referee) through each of its callers, and check that
pickles and copies leave the lift out.
"""

from __future__ import annotations

import copy
import pickle
import random
import sys
import threading
from fractions import Fraction as F

import pytest

from repro.automata.regex import regex_to_dfa
from repro.confidence import batch as batch_module
from repro.confidence import deterministic as deterministic_module
from repro.confidence import language as language_module
from repro.confidence import uniform_subset as uniform_module
from repro.confidence.batch import confidence_deterministic_batch
from repro.confidence.brute_force import brute_force_answers
from repro.confidence.deterministic import confidence_deterministic
from repro.confidence.layered import forward
from repro.confidence.sprojector import confidence_sprojector
from repro.confidence.uniform_subset import confidence_uniform
from repro.core.engine import compute_confidence
from repro.lahar.database import MarkovStreamDatabase
from repro.markov import sequence as sequence_module
from repro.markov.builders import homogeneous
from repro.markov.sequence import MarkovSequence
from repro.oracle.generators import (
    make_fraction_sequence,
    make_fraction_timestep,
    make_random_deterministic_transducer,
    make_random_dfa,
    make_random_uniform_transducer,
    make_sequence,
)
from repro.semiring import REAL, scale_rows
from repro.transducers.library import accept_filter
from repro.transducers.sprojector import SProjector

ALPHABET = "ab"
FLOAT_STEP = {"a": {"a": 0.25, "b": 0.75}, "b": {"a": 0.6, "b": 0.4}}


@pytest.fixture
def lifts(monkeypatch) -> list:
    """The rows every ``scale_rows`` call of a sequence lifted, in order."""
    calls: list = []

    def counting(rows):
        calls.append(rows)
        return scale_rows(rows)

    monkeypatch.setattr(sequence_module, "scale_rows", counting)
    return calls


def pattern_query(pattern: str):
    return accept_filter(regex_to_dfa(f"(a|b)*{pattern}(a|b)*", ALPHABET))


def rebuilt(sequence: MarkovSequence) -> MarkovSequence:
    """A fresh, never-lifted sequence with the same rows."""
    return MarkovSequence(
        sequence.symbols,
        dict(sequence.initial_support()),
        [sequence.transition_rows(i) for i in range(1, sequence.length)],
    )


def test_a_repeat_read_lifts_no_timestep(lifts) -> None:
    sequence = make_fraction_sequence(ALPHABET, 12, random.Random(1))
    query = pattern_query("ab")
    # A one-shot read runs on Fractions; it lifts only the initial row,
    # to learn that the sequence is exact.
    first = compute_confidence(sequence, query, ())
    assert lifts == [{None: dict(sequence.initial_support())}]
    assert sequence.keeps_lift
    lifts.clear()
    assert compute_confidence(sequence, query, ()) == first
    assert len(lifts) == sequence.length - 1
    lifts.clear()
    assert compute_confidence(sequence, query, ()) == first
    assert compute_confidence(sequence, pattern_query("bba"), ()) is not None
    assert lifts == []


def test_a_read_after_extended_lifts_exactly_the_new_timestep(lifts) -> None:
    rng = random.Random(2)
    sequence = make_fraction_sequence(ALPHABET, 10, rng)
    query = pattern_query("ab")
    for _ in range(2):
        compute_confidence(sequence, query, ())
    steps = [make_fraction_timestep(ALPHABET, rng) for _ in range(2)]
    # Two siblings grown from one parent each lift only their own step.
    for timestep in steps:
        grown = sequence.extended(timestep)
        lifts.clear()
        value = compute_confidence(grown, query, ())
        assert lifts == [grown.transition_rows(grown.length - 1)]
        assert value == compute_confidence(rebuilt(grown), query, ())


def test_streams_without_from_scratch_reads_keep_only_the_newest_lift(lifts) -> None:
    rng = random.Random(3)
    db = MarkovStreamDatabase()
    db.register_stream("exact", make_fraction_sequence(ALPHABET, 8, rng))
    db.register_stream("float", make_sequence(ALPHABET, 8, rng))
    for name in ("exact", "float"):
        evaluators = [db.streaming_evaluator(name, pattern_query(p)) for p in ("ab", "bba")]
        lifts.clear()
        grown = db.append(name, make_fraction_timestep(ALPHABET, rng))
        # The evaluators share one lift of the appended timestep; the
        # float stream's frontiers are on Fractions and lift nothing.
        assert len(lifts) == (name == "exact")
        assert not grown.keeps_lift and grown._lifted is None
        assert [e.length for e in evaluators] == [grown.length] * 2
    floats = db.stream("float")
    for _ in range(2):
        compute_confidence(floats, pattern_query("ab"), ())
    # A float stream's DPs never run on numerators: it keeps no lift and
    # hands none on.
    assert not floats.keeps_lift and floats._lifted == ()
    assert db.append("float", FLOAT_STEP)._lifted == ()


def test_concurrent_reads_of_grown_streams_share_one_correct_lift() -> None:
    rng = random.Random(5)
    base = make_fraction_sequence(ALPHABET, 30, rng)
    steps = [make_fraction_timestep(ALPHABET, rng) for _ in range(6)]
    query = pattern_query("aba")
    want = {}
    for i, timestep in enumerate(steps):
        grown = rebuilt(base.extended(timestep))
        want[i] = compute_confidence(grown, query, ())
    got: dict = {}

    def read(i: int) -> None:
        grown = base.extended(steps[i])
        got[i] = [compute_confidence(grown, query, ()) for _ in range(3)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(steps))]
        for thread in threads:
            thread.start()
        compute_confidence(base, query, ())
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {i: [value] * 3 for i, value in want.items()}


def drained_forward(sequence, start, advance, semiring=REAL):
    """The last layer of :func:`forward`: the DP on the values as they are."""
    layer: dict = {}
    for layer in forward(sequence, start, advance, semiring):
        pass
    return layer


def exact_stream(rng: random.Random) -> MarkovSequence:
    return make_fraction_sequence(ALPHABET, 6, rng)


def float_stream(rng: random.Random) -> MarkovSequence:
    return make_sequence(ALPHABET, 6, rng)


def exact_then_float_stream(rng: random.Random) -> MarkovSequence:
    sequence = make_fraction_sequence(ALPHABET, 4, rng).extended(FLOAT_STEP)
    return sequence.extended(make_fraction_timestep(ALPHABET, rng))


def same(got, want) -> bool:
    """Bit for bit: equal values of equal types (``==`` alone would let a
    float stand in for a ``Fraction``)."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(same(got[k], want[k]) for k in want)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("stream", [exact_stream, float_stream, exact_then_float_stream])
@pytest.mark.parametrize("seed", range(4))
def test_final_layer_equals_draining_forward_through_every_caller(
    monkeypatch, stream, seed
) -> None:
    rng = random.Random(seed)
    sequence = stream(rng)
    deterministic = make_random_deterministic_transducer(ALPHABET, 3, rng)
    uniform = make_random_uniform_transducer(ALPHABET, 3, rng)
    projector = SProjector(*(make_random_dfa(ALPHABET, 2, rng) for _ in range(3)))
    cases = [
        (confidence_deterministic, pattern_query("a")),
        (confidence_deterministic, deterministic),
        (confidence_uniform, uniform),
        (confidence_sprojector, projector),
    ]

    def run() -> list:
        values = []
        for confidence, query in cases:
            outputs = sorted(brute_force_answers(sequence, query), key=repr)
            values.append({output: confidence(sequence, query, output) for output in outputs})
        outputs = sorted(brute_force_answers(sequence, deterministic), key=repr)
        values.append(confidence_deterministic_batch(sequence, deterministic, outputs))
        return values

    sequence.keep_lift()
    lifted = run()
    for module in (deterministic_module, uniform_module, language_module, batch_module):
        monkeypatch.setattr(module, "final_layer", drained_forward)
    assert same(lifted, run())
    assert lifted[0][()] > 0


@pytest.mark.parametrize(
    "sequence",
    [
        make_fraction_sequence(ALPHABET, 5, random.Random(4)),
        homogeneous({"a": 0.3, "b": 0.7}, FLOAT_STEP, 5),
        homogeneous({"a": F(1, 3), "b": F(2, 3)}, FLOAT_STEP, 3),
    ],
    ids=["exact", "float", "exact-then-float"],
)
def test_pickle_and_copy_round_trip_without_the_lift(sequence) -> None:
    unlifted = pickle.dumps(sequence)
    sequence.keep_lift()
    lifted = [sequence.scaled_rows(i) for i in range(sequence.length)]
    assert pickle.dumps(sequence) == unlifted
    clones = [pickle.loads(unlifted), copy.copy(sequence), copy.deepcopy(sequence)]
    for clone in clones:
        assert not clone.keeps_lift
        assert clone.symbols == sequence.symbols and clone.length == sequence.length
        assert dict(clone.initial_support()) == dict(sequence.initial_support())
        assert all(
            clone.transition_rows(i) == sequence.transition_rows(i)
            for i in range(1, sequence.length)
        )
        assert [clone.scaled_rows(i) for i in range(clone.length)] == lifted
        grown = clone.extended(FLOAT_STEP)
        assert grown.length == sequence.length + 1 and grown.scaled_rows(grown.length - 1) is None
    with pytest.raises(IndexError):
        sequence.scaled_rows(sequence.length)
