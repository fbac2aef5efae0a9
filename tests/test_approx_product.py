"""The answer-product automaton (repro.approx.product)."""

from __future__ import annotations

from repro.approx.product import AnswerProduct, state_key
from repro.automata.nfa import NFA
from repro.hardness.counting import two_dnf_counting_instance
from repro.hardness.gap_instances import mealy_gap_instance
from repro.transducers.transducer import Transducer


def _ambiguous_transducer() -> Transducer:
    """Two accepting runs on 'a' both emitting 'x' (ambiguity 2), plus a
    'b' path emitting 'y' — the minimal union-of-runs test subject."""
    nfa = NFA.from_transitions(
        ("a", "b"),
        "q0",
        {"q1", "q2", "q3"},
        [
            ("q0", "a", "q1"),
            ("q0", "a", "q2"),
            ("q0", "b", "q3"),
            ("q1", "a", "q1"),
            ("q2", "a", "q1"),
        ],
    )
    omega = {
        ("q0", "a", "q1"): "x",
        ("q0", "a", "q2"): "x",
        ("q0", "b", "q3"): "y",
        ("q1", "a", "q1"): "x",
        ("q2", "a", "q1"): "x",
    }
    return Transducer(nfa, omega)


def test_moves_filter_on_the_answer_prefix() -> None:
    product = AnswerProduct(_ambiguous_transducer(), ("x",))
    # On 'a', both emitting-x transitions extend the answer prefix...
    targets = product.moves(product.initial, "a")
    assert targets == (("q1", 1), ("q2", 1))
    # ...on 'b' the emission 'y' does not match the answer 'x'.
    assert product.moves(product.initial, "b") == ()
    # Once the answer is fully emitted, emitting moves are dead ends.
    assert product.moves(("q1", 1), "a") == ()


def test_moves_are_sorted_by_state_key() -> None:
    product = AnswerProduct(_ambiguous_transducer(), ("x",))
    targets = product.moves(product.initial, "a")
    assert list(targets) == sorted(targets, key=state_key)


def test_acceptance_needs_full_emission_and_accepting_state() -> None:
    product = AnswerProduct(_ambiguous_transducer(), ("x", "x"))
    assert product.is_accepting(("q1", 2))
    assert not product.is_accepting(("q1", 1))  # answer not fully emitted
    assert not product.is_accepting(("q0", 2))  # q0 not accepting


def test_determinism_detection() -> None:
    transducer = _ambiguous_transducer()
    assert not AnswerProduct(transducer, ("x",)).is_deterministic(("a", "b"))
    # The 'y' answer only ever uses the deterministic b-path.
    assert AnswerProduct(transducer, ("y",)).is_deterministic(("a", "b"))
    # Gap-family transducers are deterministic, hence so is any product.
    gap = mealy_gap_instance(4)
    product = AnswerProduct(gap.query, gap.emax_top_answer)
    assert product.is_deterministic(gap.sequence.symbols)


def test_canonical_run_is_the_least_accepting_run() -> None:
    transducer = _ambiguous_transducer()
    product = AnswerProduct(transducer, ("x", "x"))
    canonical = product.canonical_run(("a", "a"))
    runs = [
        tuple((state, i + 1) for i, state in enumerate(run))
        for run, output in transducer.transductions(("a", "a"))
        if output == ("x", "x")
    ]
    assert canonical in runs
    assert canonical == min(runs, key=lambda run: tuple(map(state_key, run)))


def test_canonical_run_is_none_without_accepting_runs() -> None:
    product = AnswerProduct(_ambiguous_transducer(), ("x", "x"))
    assert product.canonical_run(("b", "b")) is None
    assert product.canonical_run(("a", "b")) is None


def test_viable_sets_prune_to_accepting_paths() -> None:
    product = AnswerProduct(_ambiguous_transducer(), ("x", "x"))
    viable = product.viable_sets(("a", "a"))
    assert viable[0] == {product.initial}
    assert viable[1] == {("q1", 1), ("q2", 1)}
    assert viable[2] == {("q1", 2)}
    # A rejected world leaves the initial state non-viable.
    assert product.initial not in product.viable_sets(("b", "b"))[0]


def test_counting_instance_products_are_genuinely_ambiguous() -> None:
    # The 2-DNF reduction guesses a clause up front: a world satisfying
    # several clauses carries one accepting run per clause, which is the
    # double-counting hazard the union-of-runs estimator exists for.
    instance = two_dnf_counting_instance([(1, 1), (2, 2)], 2, 2)
    product = AnswerProduct(instance.transducer, instance.answer)
    all_ones = ("1",) * instance.sequence.length
    runs = [
        run
        for run, output in instance.transducer.transductions(all_ones)
        if output == tuple(instance.answer)
    ]
    assert len(runs) == 2
    assert not product.is_deterministic(instance.sequence.symbols)
