"""Semantics-preserving transforms, asserted invariant (the metamorphic layer).

Each :class:`Transform` rewrites an instance into one that denotes the
*same* distribution over answers — up to an explicit answer bijection —
so the full brute-force answer maps of the original and the transformed
instance must agree:

* **relabel-states** — rename every automaton state (automata semantics
  is anonymous in state identity);
* **relabel-symbols** — apply one bijection to the Markov node set and
  the query's input alphabet (answers of s-projectors, which emit input
  symbols, are mapped through the same bijection);
* **pad-prefix** — prepend a probability-1 step to the sequence and a
  silent pad state to the query; indexed answers shift ``(o, i)`` to
  ``(o, i + 1)`` because the occurrence index is a start *position*;
* **korder-roundtrip** — re-express the first-order sequence as an
  order-2 spec and route it through footnote 3's sliding-window
  reduction (:meth:`KOrderMarkovSequence.to_first_order` +
  :func:`lift_transducer`); answers come back unchanged.

Three further relations compare *evaluation paths* rather than rewritten
instances: :func:`check_semiring_swap` (the real, log, Viterbi,
tropical and counting runs of every Table-2 DP that takes
``semiring=``, against each other and the world count),
:func:`check_execution_equivalence`
(serial vs batched and vectorized execution of the same plan), and
:func:`check_shrink_swap` (the plan-time shrink pass on and off, both
routes against the referee).
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.confidence.brute_force import brute_force_answers, world_table
from repro.markov.korder import KOrderMarkovSequence, lift_transducer
from repro.markov.sequence import MarkovSequence
from repro.oracle.differential import Diff, pick_probes
from repro.oracle.generators import Instance, _classify
from repro.oracle.registry import SEMIRING_ENGINES, VerifyContext, semiring_confidence
from repro.vectorized import dense_batch_eligible
from repro.runtime.cache import plan_for
from repro.runtime.executor import batch_confidence, plan_confidence
from repro.runtime.plan import QueryPlan
from repro.semiring import COUNTING, LOG, REAL, TROPICAL, VITERBI
from repro.transducers.sprojector import IndexedSProjector, SProjector
from repro.transducers.transducer import Transducer

#: ``apply`` returns the transformed instance plus the answer bijection
#: mapping original answers to transformed answers.
Mapper = Callable[[object], object]


@dataclass(frozen=True)
class Transform:
    """One semantics-preserving rewrite of an instance."""

    name: str
    apply: Callable[[Instance, random.Random], tuple[Instance, Mapper]]
    applies: Callable[[Instance], bool] = lambda instance: True


def _values_close(got, want) -> bool:
    """Exact for rational pairs, tight ``isclose`` once floats are involved
    (world-sum association can differ between the two runs)."""
    if isinstance(got, (int, Fraction)) and isinstance(want, (int, Fraction)):
        return got == want
    return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-12)


def _identity(answer):
    return answer


def _derived(instance: Instance, note: str, sequence: MarkovSequence, query) -> Instance:
    """Wrap a transformed pair, re-deriving the Table-2 label (a transform
    may leave the class — e.g. padding breaks k-uniformity)."""
    return Instance(
        label=_classify(query),
        sequence=sequence,
        query=query,
        seed=instance.seed,
        trial=instance.trial,
        note=f"{instance.note}+{note}" if instance.note else note,
    )


# ---------------------------------------------------------------------------
# relabel-states
# ---------------------------------------------------------------------------


def _relabel_nfa_states(nfa: NFA) -> tuple[NFA, dict]:
    order = sorted(nfa.states, key=repr)
    mapping = {state: ("r", i) for i, state in enumerate(order)}
    delta = {
        (mapping[state], symbol): {mapping[target] for target in targets}
        for (state, symbol), targets in nfa.delta_dict().items()
    }
    renamed = NFA(
        nfa.alphabet,
        mapping.values(),
        mapping[nfa.initial],
        {mapping[state] for state in nfa.accepting},
        delta,
    )
    return renamed, mapping


def _relabel_dfa_states(dfa: DFA) -> DFA:
    order = sorted(dfa.states, key=repr)
    mapping = {state: ("r", i) for i, state in enumerate(order)}
    delta = {
        (mapping[state], symbol): mapping[target]
        for (state, symbol), target in dfa.delta_dict().items()
    }
    return DFA(
        dfa.alphabet,
        mapping.values(),
        mapping[dfa.initial],
        {mapping[state] for state in dfa.accepting},
        delta,
    )


def _apply_relabel_states(instance: Instance, rng: random.Random):
    query = instance.query
    if isinstance(query, SProjector):
        renamed = type(query)(
            _relabel_dfa_states(query.prefix),
            _relabel_dfa_states(query.pattern),
            _relabel_dfa_states(query.suffix),
        )
    else:
        nfa, mapping = _relabel_nfa_states(query.nfa)
        omega = {
            (mapping[source], symbol, mapping[target]): emission
            for (source, symbol, target), emission in query.omega_dict().items()
        }
        renamed = Transducer(nfa, omega)
    return _derived(instance, "relabel-states", instance.sequence, renamed), _identity


# ---------------------------------------------------------------------------
# relabel-symbols
# ---------------------------------------------------------------------------


def _relabel_symbols_sequence(sequence: MarkovSequence, mapping: dict) -> MarkovSequence:
    initial = {mapping[s]: p for s, p in sequence.initial_support()}
    transitions = []
    for i in range(1, sequence.length):
        transitions.append(
            {
                mapping[source]: {mapping[t]: p for t, p in row.items()}
                for source, row in sequence.transition_rows(i).items()
            }
        )
    return MarkovSequence(
        [mapping[s] for s in sequence.symbols], initial, transitions
    )


def _relabel_symbols_dfa(dfa: DFA, mapping: dict) -> DFA:
    delta = {
        (state, mapping[symbol]): target
        for (state, symbol), target in dfa.delta_dict().items()
    }
    return DFA(mapping.values(), dfa.states, dfa.initial, dfa.accepting, delta)


def _apply_relabel_symbols(instance: Instance, rng: random.Random):
    mapping = {symbol: ("sym", symbol) for symbol in instance.sequence.symbols}
    sequence = _relabel_symbols_sequence(instance.sequence, mapping)
    query = instance.query
    if isinstance(query, SProjector):
        relabeled = type(query)(
            _relabel_symbols_dfa(query.prefix, mapping),
            _relabel_symbols_dfa(query.pattern, mapping),
            _relabel_symbols_dfa(query.suffix, mapping),
        )
        if isinstance(query, IndexedSProjector):
            def mapper(answer):
                output, index = answer
                return tuple(mapping[s] for s in output), index
        else:
            def mapper(answer):
                return tuple(mapping[s] for s in answer)
    else:
        nfa = query.nfa
        delta = {
            (state, mapping[symbol]): targets
            for (state, symbol), targets in nfa.delta_dict().items()
        }
        relabeled = Transducer(
            NFA(mapping.values(), nfa.states, nfa.initial, nfa.accepting, delta),
            {
                (source, mapping[symbol], target): emission
                for (source, symbol, target), emission in query.omega_dict().items()
            },
        )
        # Emissions live in the (untouched) output alphabet.
        mapper = _identity
    return _derived(instance, "relabel-symbols", sequence, relabeled), mapper


# ---------------------------------------------------------------------------
# pad-prefix
# ---------------------------------------------------------------------------


def _fresh_state(taken) -> tuple:
    state = ("pad", 0)
    index = 0
    while state in taken:
        index += 1
        state = ("pad", index)
    return state


def _apply_pad_prefix(instance: Instance, rng: random.Random):
    sequence = instance.sequence
    anchor = rng.choice(sequence.symbols)
    padded_sequence = MarkovSequence(
        sequence.symbols, {anchor: 1}, []
    ).concat_independent(sequence)
    query = instance.query
    if isinstance(query, SProjector):
        # Prefix language B becomes Sigma.B: one fresh initial state whose
        # every move lands on B's old initial state.
        prefix = query.prefix
        pad = _fresh_state(prefix.states)
        delta = prefix.delta_dict()
        for symbol in prefix.alphabet:
            delta[(pad, symbol)] = prefix.initial
        padded_prefix = DFA(
            prefix.alphabet,
            set(prefix.states) | {pad},
            pad,
            prefix.accepting,
            delta,
        )
        padded_query = type(query)(padded_prefix, query.pattern, query.suffix)
        if isinstance(query, IndexedSProjector):
            def mapper(answer):
                output, index = answer
                return output, index + 1
        else:
            mapper = _identity
    else:
        nfa = query.nfa
        pad = _fresh_state(nfa.states)
        delta = dict(nfa.delta_dict())
        for symbol in nfa.alphabet:
            delta[(pad, symbol)] = {nfa.initial}
        padded_query = Transducer(
            NFA(
                nfa.alphabet,
                set(nfa.states) | {pad},
                pad,
                nfa.accepting,
                delta,
            ),
            query.omega_dict(),
        )
        mapper = _identity
    return _derived(instance, "pad-prefix", padded_sequence, padded_query), mapper


# ---------------------------------------------------------------------------
# korder-roundtrip (footnote 3)
# ---------------------------------------------------------------------------


def _korder_applies(instance: Instance) -> bool:
    # The lifted machine's window alphabet is all of Sigma^2, and
    # Transducer.check_alphabet demands equality with the reduced node
    # set — which only covers Sigma^2 once the spec has at least one
    # transition step (n >= 3) keyed on every window.
    return (
        instance.label == "deterministic"
        and isinstance(instance.query, Transducer)
        and instance.query.is_deterministic()
        and instance.sequence.length >= 3
    )


def _apply_korder_roundtrip(instance: Instance, rng: random.Random):
    sequence = instance.sequence
    symbols = sequence.symbols
    initial = {}
    for first, p_first in sequence.initial_support():
        for second, p_second in sequence.successors(1, first):
            initial[(first, second)] = p_first * p_second
    steps = []
    for i in range(2, sequence.length):
        rows = sequence.transition_rows(i)
        step = {}
        for a in symbols:
            for b in symbols:
                row = rows.get(b)
                # Every Sigma^2 window gets a row so the reduced node set
                # equals the lifted machine's window alphabet; windows
                # whose trailing symbol is unreachable get a point mass.
                step[(a, b)] = dict(row) if row else {symbols[0]: 1}
        steps.append(step)
    spec = KOrderMarkovSequence(symbols, 2, initial, steps)
    reduced = spec.to_first_order()
    lifted = lift_transducer(instance.query, 2)
    return _derived(instance, "korder-roundtrip", reduced, lifted), _identity


#: The registered instance rewrites, applied by the harness in order.
TRANSFORMS: tuple[Transform, ...] = (
    Transform("relabel-states", _apply_relabel_states),
    Transform("relabel-symbols", _apply_relabel_symbols),
    Transform("pad-prefix", _apply_pad_prefix),
    Transform("korder-roundtrip", _apply_korder_roundtrip, applies=_korder_applies),
)


def check_transform(
    instance: Instance,
    transform: Transform,
    rng: random.Random | None = None,
) -> list[Diff]:
    """Assert one transform's invariance; returns the (ideally empty) diffs."""
    if not transform.applies(instance):
        return []
    rng = rng if rng is not None else random.Random(0)
    transformed, mapper = transform.apply(instance, rng)
    base = brute_force_answers(instance.sequence, instance.query)
    derived = brute_force_answers(transformed.sequence, transformed.query)
    mapped = {mapper(answer): confidence for answer, confidence in base.items()}

    diffs: list[Diff] = []
    missing = sorted(set(mapped) - set(derived), key=repr)
    spurious = sorted(set(derived) - set(mapped), key=repr)
    if missing or spurious:
        diffs.append(
            Diff(
                instance=transformed,
                engine=f"metamorphic:{transform.name}",
                answer=None,
                got=f"spurious={spurious!r}",
                want=f"missing={missing!r}",
            )
        )
        return diffs
    for answer, want in mapped.items():
        got = derived[answer]
        if not _values_close(got, want):
            diffs.append(
                Diff(
                    instance=transformed,
                    engine=f"metamorphic:{transform.name}",
                    answer=answer,
                    got=got,
                    want=want,
                )
            )
    return diffs


# ---------------------------------------------------------------------------
# Path relations (same instance, different evaluation route)
# ---------------------------------------------------------------------------


def check_semiring_swap(instance: Instance, probe_limit: int = 3) -> list[Diff]:
    """One Table-2 DP carried in five semirings, for every DP that takes
    ``semiring=``.

    ``exp`` of the LOG run must match the REAL run, ``exp`` of the
    TROPICAL run must match the VITERBI run, and the COUNTING run must
    equal the brute-force number of positive-probability worlds that
    produce the answer. Through :func:`confidence_indexed` this runs
    the backward layer step in each of them too.
    """
    label = _classify(instance.query)
    if label not in SEMIRING_ENGINES:
        return []
    sequence, query = instance.sequence, instance.query
    reference = brute_force_answers(sequence, query)
    table = world_table(sequence, query)
    diffs: list[Diff] = []
    for answer in pick_probes(instance, reference, probe_limit):
        value = {
            semiring: semiring_confidence(label, sequence, query, answer, semiring)
            for semiring in (REAL, LOG, VITERBI, TROPICAL, COUNTING)
        }
        worlds = sum(1 for _world, prob, answers in table if prob != 0 and answer in answers)
        pairs = (
            ("semiring-swap", math.exp(value[LOG]), value[REAL]),
            ("semiring-swap[tropical]", math.exp(value[TROPICAL]), value[VITERBI]),
            ("semiring-swap[counting]", value[COUNTING], worlds),
        )
        for engine, got, want in pairs:
            if engine.endswith("[counting]"):
                agrees = got == want
            else:
                agrees = math.isclose(got, float(want), rel_tol=1e-6, abs_tol=1e-9)
            if not agrees:
                diffs.append(
                    Diff(
                        instance=instance,
                        engine=f"metamorphic:{engine}",
                        answer=answer,
                        got=got,
                        want=want,
                    )
                )
    return diffs


def check_execution_equivalence(
    instance: Instance,
    context: VerifyContext | None = None,
    probe_limit: int = 2,
) -> list[Diff]:
    """Serial vs batched execution of the same plan.

    :func:`batch_confidence` over two copies of the instance must match
    serial :func:`plan_confidence`: bit-for-bit on the exact corpus
    (which it runs per stream), and within float tolerance on the float
    copy whenever the plan is dense-eligible (which it runs through the
    vectorized DP).
    """
    context = context if context is not None else VerifyContext()
    diffs: list[Diff] = []
    plan = plan_for(instance.query, context.plan_cache)
    reference = brute_force_answers(instance.sequence, instance.query)
    corpus = {"left": instance.sequence, "right": instance.sequence}
    float_corpus = {name: seq.as_float() for name, seq in corpus.items()}
    vector_ok = dense_batch_eligible(plan, list(float_corpus.values()))
    for answer in pick_probes(instance, reference, probe_limit):
        serial = plan_confidence(plan, instance.sequence, answer, allow_exponential=True)
        batched = batch_confidence(plan, corpus, answer)
        routes = {"batch:left": batched["left"], "batch:right": batched["right"]}
        if vector_ok:
            vectorized = batch_confidence(plan, float_corpus, answer)
            routes["vectorized:left"] = vectorized["left"]
            routes["vectorized:right"] = vectorized["right"]
        for route, got in routes.items():
            exact_route = route.startswith("batch")
            matches = (
                got == serial
                if exact_route and not isinstance(serial, float)
                else math.isclose(float(got), float(serial), rel_tol=1e-9, abs_tol=1e-9)
            )
            if not matches:
                diffs.append(
                    Diff(
                        instance=instance,
                        engine=f"metamorphic:execution[{route}]",
                        answer=answer,
                        got=got,
                        want=serial,
                    )
                )
    return diffs


def check_shrink_swap(instance: Instance, probe_limit: int = 3) -> list[Diff]:
    """Shrink-on↔shrink-off: the plan-time trim/push pass is invisible.

    Builds the query's plan with and without the shrink pass and
    requires :func:`plan_confidence` through both routes to agree with
    the brute-force referee (bit-for-bit over rational streams). On
    deterministic plans the shrink-on route also runs the DP with the
    weight-pushing filter on moves.
    """
    query = instance.query
    reference = brute_force_answers(instance.sequence, query)
    plans = {
        "on": QueryPlan.build(query, shrink=True),
        "off": QueryPlan.build(query, shrink=False),
    }
    diffs: list[Diff] = []
    for answer in pick_probes(instance, reference, probe_limit):
        want = reference.get(answer, 0)
        for route, plan in plans.items():
            got = plan_confidence(plan, instance.sequence, answer, allow_exponential=True)
            if not _values_close(got, want):
                diffs.append(
                    Diff(
                        instance=instance,
                        engine=f"metamorphic:shrink[{route}]",
                        answer=answer,
                        got=got,
                        want=want,
                    )
                )
    return diffs
