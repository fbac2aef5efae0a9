"""Prefix constraints and the layered product DP (has_answer / best_evidence /
best_children)."""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.confidence.brute_force import brute_force_answers, brute_force_emax
from repro.enumeration.constraints import (
    END,
    PrefixConstraint,
    best_children,
    best_evidence,
    has_answer,
)
from repro.transducers.transducer import Transducer

from tests.conftest import (
    make_fraction_sequence,
    make_random_deterministic_transducer,
    make_random_nfa,
    make_sequence,
)


def test_admits_semantics() -> None:
    c = PrefixConstraint(prefix=("x",), forbidden=frozenset({"y"}))
    assert c.admits(("x",))
    assert c.admits(("x", "x"))
    assert not c.admits(("x", "y"))
    assert not c.admits(("y",))
    assert not c.admits(())

    end_forbidden = PrefixConstraint(prefix=("x",), forbidden=frozenset({END}))
    assert not end_forbidden.admits(("x",))
    assert end_forbidden.admits(("x", "y"))

    exact = PrefixConstraint.exact_string(("x", "y"))
    assert exact.admits(("x", "y"))
    assert not exact.admits(("x", "y", "z"))
    assert not exact.admits(("x",))


def test_advance_and_final_ok() -> None:
    c = PrefixConstraint(prefix=("x", "y"), forbidden=frozenset({"z"}))
    assert c.advance(0, ("x",)) == 1
    assert c.advance(0, ("x", "y")) == 2
    assert c.advance(0, ("y",)) is None
    assert c.advance(2, ("z",)) is None  # forbidden next
    assert c.advance(2, ("x",)) == 3  # past
    assert c.advance(3, ("z",)) == 3  # anything past the boundary
    assert not c.final_ok(1)
    assert c.final_ok(2)
    assert c.final_ok(3)


def test_advance_multi_symbol_emission_crossing_boundary() -> None:
    c = PrefixConstraint(prefix=("x",), forbidden=frozenset({"y"}))
    # Emission "xy": matches prefix then hits forbidden next symbol.
    assert c.advance(0, ("x", "y")) is None
    assert c.advance(0, ("x", "z")) == 2


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_partition_is_a_partition(data) -> None:
    """partition_after splits the subspace exactly (checked extensionally)."""
    alphabet = ("p", "q")
    prefix = tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=2)))
    forbidden = frozenset(data.draw(st.sets(st.sampled_from([*alphabet, END]), max_size=2)))
    constraint = PrefixConstraint(prefix=prefix, forbidden=forbidden)
    answer_pool = [
        tuple(candidate)
        for length in range(4)
        for candidate in __import__("itertools").product(alphabet, repeat=length)
    ]
    admitted = [o for o in answer_pool if constraint.admits(o)]
    if not admitted:
        return
    answer = data.draw(st.sampled_from(admitted))
    children = constraint.partition_after(answer)
    for candidate in answer_pool:
        memberships = sum(1 for child in children if child.admits(candidate))
        if candidate == answer:
            assert memberships == 0
        elif constraint.admits(candidate):
            assert memberships == 1, (candidate, answer, constraint)
        else:
            assert memberships == 0, (candidate, answer, constraint)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_has_answer_matches_brute_force(seed: int) -> None:
    rng = random.Random(seed)
    sequence = make_sequence("ab", 4, rng)
    transducer = make_random_deterministic_transducer("ab", 3, rng)
    answers = set(brute_force_answers(sequence, transducer))
    assert has_answer(sequence, transducer) == bool(answers)
    for answer in list(answers)[:5]:
        assert has_answer(
            sequence, transducer, PrefixConstraint.exact_string(answer)
        )
        assert has_answer(
            sequence, transducer, PrefixConstraint.with_prefix(answer[:1])
        )
    assert not has_answer(
        sequence, transducer, PrefixConstraint.exact_string(("nope",) * 3)
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_best_evidence_unconstrained_matches_brute(seed: int) -> None:
    rng = random.Random(seed)
    sequence = make_sequence("ab", 4, rng)
    transducer = make_random_deterministic_transducer("ab", 3, rng)
    emax = brute_force_emax(sequence, transducer)
    found = best_evidence(sequence, transducer)
    if not emax:
        assert found is None
        return
    score, output, world = found
    assert math.isclose(score, max(emax.values()), abs_tol=1e-9)
    # The witness world really is transduced into the output with that prob.
    assert output in transducer.transduce(world)
    assert math.isclose(sequence.prob_of(world), score, abs_tol=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_best_evidence_respects_constraints(seed: int) -> None:
    rng = random.Random(seed)
    sequence = make_sequence("ab", 4, rng)
    transducer = make_random_deterministic_transducer("ab", 3, rng)
    emax = brute_force_emax(sequence, transducer)
    for answer in list(emax)[:3]:
        constraint = PrefixConstraint.exact_string(answer)
        found = best_evidence(sequence, transducer, constraint)
        assert found is not None
        score, output, _world = found
        assert output == answer
        assert math.isclose(score, emax[answer], abs_tol=1e-9)


def _nondeterministic_transducer(rng: random.Random) -> Transducer:
    """A random NFA transducer with emissions of length 0-2."""
    nfa = make_random_nfa("ab", 3, rng, density=0.5)
    omega = {
        move: tuple(rng.choice("xy") for _ in range(rng.choice((0, 1, 1, 2))))
        for move in nfa.transitions()
    }
    return Transducer(nfa, omega)


def _lawler_walk(sequence, transducer, pops: int):
    """The ``(constraint, answer)`` pairs of the first ``pops`` Lawler–Murty
    pops, driven by per-child :func:`best_evidence` (the reference)."""
    seed = best_evidence(sequence, transducer)
    queue = [] if seed is None else [(seed[0], PrefixConstraint(), seed[1])]
    popped = []
    while queue and len(popped) < pops:
        queue.sort(key=lambda item: item[0])
        _score, constraint, answer = queue.pop()
        popped.append((constraint, answer))
        for child in constraint.partition_after(answer):
            found = best_evidence(sequence, transducer, child)
            if found is not None:
                queue.append((found[0], child, found[1]))
    return popped


def _check_children(sequence, transducer, constraint, answer) -> None:
    expected = []
    for child in constraint.partition_after(answer):
        found = best_evidence(sequence, transducer, child)
        if found is not None:
            expected.append((child, found[0]))
    got = best_children(sequence, transducer, constraint, answer)
    assert [(child, score) for child, (score, _o, _w) in got] == expected
    for child, (score, output, world) in got:
        assert child.admits(output)
        assert output in transducer.transduce(world)
        assert sequence.prob_of(world) == score


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    length=st.integers(1, 4),
    deterministic=st.booleans(),
    pops=st.integers(1, 8),
)
def test_best_children_equals_best_evidence_per_child(
    seed: int, length: int, deterministic: bool, pops: int
) -> None:
    """One pass answers every Lawler–Murty child exactly as a pass per
    child does: the same non-empty children, bit-identical exact scores,
    and outputs (with witness worlds) inside their child."""
    rng = random.Random(seed)
    sequence = make_fraction_sequence("ab", length, rng)
    transducer = (
        make_random_deterministic_transducer("ab", 3, rng)
        if deterministic
        else _nondeterministic_transducer(rng)
    )
    for constraint, answer in _lawler_walk(sequence, transducer, pops):
        _check_children(sequence, transducer, constraint, answer)
        exact = PrefixConstraint.exact_string(answer)
        assert best_children(sequence, transducer, exact, answer) == []


def test_best_children_covers_end_forbidden_constraints() -> None:
    """A full walk reaches popped constraints that forbid END (the
    "extends the answer" children) and checks them like the rest."""
    rng = random.Random(3)
    sequence = make_fraction_sequence("ab", 4, rng)
    transducer = make_random_deterministic_transducer("ab", 3, rng)
    walk = _lawler_walk(sequence, transducer, 64)
    assert any(END in constraint.forbidden for constraint, _answer in walk)
    for constraint, answer in walk:
        _check_children(sequence, transducer, constraint, answer)
