"""Seeded random-instance factories for the conformance harness.

Two layers live here:

* the **object factories** (``make_random_dfa`` & co.) that build small
  random automata, transducers and Markov sequences whose brute-force
  semantics stay cheap — these used to live in ``tests/conftest.py``;
  the conftest now delegates here so that library code (the oracle
  harness, benchmarks) can import them without reaching into the test
  tree;
* the **instance generators**, one per Table-2 class, that pair a random
  sequence with a random query of exactly that class and wrap them in an
  :class:`Instance` the differential runner consumes.

Everything is driven by an explicit ``random.Random`` so any instance is
reproducible from ``(class label, seed)`` alone — which is what the
``repro verify`` failure reports print.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from repro.errors import ReproError
from repro.markov.builders import random_sequence
from repro.markov.sequence import MarkovSequence
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.runtime.plan import PlanKind
from repro.transducers.sprojector import IndexedSProjector, SProjector
from repro.transducers.transducer import Transducer

#: The five Table-2 classes, in the paper's row order.
CLASS_LABELS = ("general", "uniform", "deterministic", "sprojector", "indexed")

#: Table-2 class label per plan kind (the harness's matrix row key).
LABEL_BY_KIND = {
    PlanKind.GENERAL: "general",
    PlanKind.UNIFORM: "uniform",
    PlanKind.DETERMINISTIC: "deterministic",
    PlanKind.SPROJECTOR: "sprojector",
    PlanKind.INDEXED_SPROJECTOR: "indexed",
}


# ---------------------------------------------------------------------------
# Object factories (promoted from tests/conftest.py)
# ---------------------------------------------------------------------------


def make_random_dfa(alphabet, num_states: int, rng: random.Random, accept_prob: float = 0.4) -> DFA:
    """A random total DFA over ``alphabet``."""
    states = [f"q{i}" for i in range(num_states)]
    delta = {
        (state, symbol): rng.choice(states) for state in states for symbol in alphabet
    }
    accepting = {state for state in states if rng.random() < accept_prob}
    if not accepting:
        accepting = {rng.choice(states)}
    return DFA(alphabet, states, states[0], accepting, delta)


def make_random_nfa(
    alphabet, num_states: int, rng: random.Random, density: float = 0.35
) -> NFA:
    """A random NFA: each (state, symbol, state) triple present w.p. density."""
    states = [f"q{i}" for i in range(num_states)]
    delta: dict = {}
    for state in states:
        for symbol in alphabet:
            targets = {t for t in states if rng.random() < density}
            if targets:
                delta[(state, symbol)] = targets
    accepting = {state for state in states if rng.random() < 0.4}
    if not accepting:
        accepting = {states[-1]}
    return NFA(alphabet, states, states[0], accepting, delta)


def make_random_deterministic_transducer(
    alphabet, num_states: int, rng: random.Random, out_alphabet=("x", "y")
) -> Transducer:
    """A random deterministic transducer with emissions of length 0-2."""
    dfa = make_random_dfa(alphabet, num_states, rng)
    omega = {}
    for state, symbol, target in dfa.transitions():
        length = rng.choice((0, 1, 1, 2))
        omega[(state, symbol, target)] = tuple(
            rng.choice(out_alphabet) for _ in range(length)
        )
    # Randomly make it selective or not.
    nfa = dfa.to_nfa()
    if rng.random() < 0.5:
        nfa = NFA(nfa.alphabet, nfa.states, nfa.initial, nfa.states, nfa.delta_dict())
    return Transducer(nfa, omega)


def make_random_uniform_deterministic_transducer(
    alphabet, num_states: int, rng: random.Random, k: int = 1, out_alphabet=("x", "y")
) -> Transducer:
    """A random deterministic transducer with k-uniform emission.

    This is the class the vectorized fast path requires, so the
    harness's deterministic-class generator alternates between this and
    the varied-emission factory above.
    """
    dfa = make_random_dfa(alphabet, num_states, rng)
    omega = {}
    for state, symbol, target in dfa.transitions():
        omega[(state, symbol, target)] = tuple(
            rng.choice(out_alphabet) for _ in range(k)
        )
    nfa = dfa.to_nfa()
    if rng.random() < 0.5:
        nfa = NFA(nfa.alphabet, nfa.states, nfa.initial, nfa.states, nfa.delta_dict())
    return Transducer(nfa, omega)


def make_random_uniform_transducer(
    alphabet, num_states: int, rng: random.Random, k: int = 1, out_alphabet=("x", "y")
) -> Transducer:
    """A random (generally nondeterministic) k-uniform transducer."""
    nfa = make_random_nfa(alphabet, num_states, rng)
    omega = {}
    for state, symbol, target in nfa.transitions():
        omega[(state, symbol, target)] = tuple(
            rng.choice(out_alphabet) for _ in range(k)
        )
    return Transducer(nfa, omega)


def make_sequence(alphabet, length: int, rng: random.Random, branching: int = 2) -> MarkovSequence:
    """A small random Markov sequence with sparse rows."""
    return random_sequence(tuple(alphabet), length, rng, branching=branching)


def make_fraction_row(alphabet, rng: random.Random) -> dict:
    """A random exactly-stochastic distribution over ``alphabet``."""
    weights = [rng.randint(0, 3) for _ in alphabet]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    return {
        symbol: Fraction(weight, total)
        for symbol, weight in zip(alphabet, weights)
        if weight
    }


def make_fraction_timestep(alphabet, rng: random.Random) -> dict:
    """A random transition function with exact ``Fraction`` rows."""
    return {source: make_fraction_row(alphabet, rng) for source in alphabet}


def make_fraction_sequence(alphabet, length: int, rng: random.Random) -> MarkovSequence:
    """A random Markov sequence with exact ``Fraction`` probabilities."""
    alphabet = tuple(alphabet)
    return MarkovSequence(
        alphabet,
        make_fraction_row(alphabet, rng),
        [make_fraction_timestep(alphabet, rng) for _ in range(length - 1)],
    )


# ---------------------------------------------------------------------------
# Harness instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One conformance-test case: a Markov sequence plus a query.

    ``label`` is the Table-2 class (a :data:`CLASS_LABELS` entry) the
    query was generated to be — the harness asserts the runtime planner
    classifies it identically. ``seed``/``trial`` reproduce the instance
    via :func:`generate_instance`; ``note`` is free-form provenance
    (e.g. which metamorphic transform produced it).
    """

    label: str
    sequence: MarkovSequence
    query: object
    seed: int | None = None
    trial: int | None = None
    note: str = ""

    def with_sequence(self, sequence: MarkovSequence) -> "Instance":
        """The same case over a different sequence (used by the shrinker)."""
        return replace(self, sequence=sequence)

    def describe(self) -> str:
        parts = [
            f"class={self.label}",
            f"n={self.sequence.length}",
            f"|Sigma|={len(self.sequence.symbols)}",
        ]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.trial is not None:
            parts.append(f"trial={self.trial}")
        if self.note:
            parts.append(self.note)
        return " ".join(parts)


def _random_projector(cls, alphabet, rng: random.Random):
    return cls(
        make_random_dfa(alphabet, rng.randint(1, 3), rng),
        make_random_dfa(alphabet, rng.randint(1, 3), rng),
        make_random_dfa(alphabet, rng.randint(1, 3), rng),
    )


def _make_query(label: str, alphabet, rng: random.Random, trial: int):
    if label == "sprojector":
        return _random_projector(SProjector, alphabet, rng)
    if label == "indexed":
        return _random_projector(IndexedSProjector, alphabet, rng)
    states = rng.randint(2, 4)
    if label == "deterministic":
        # Alternate k-uniform (feeds the vectorized matrix cell)
        # with varied-length emissions (the general Theorem 4.6 DP).
        if trial % 2 == 0:
            return make_random_uniform_deterministic_transducer(
                alphabet, states, rng, k=rng.randint(1, 2)
            )
        return make_random_deterministic_transducer(alphabet, states, rng)
    if label == "uniform":
        return make_random_uniform_transducer(
            alphabet, states, rng, k=rng.randint(1, 2)
        )
    if label == "general":
        # Nondeterministic with mixed emission lengths: the FP^#P cell.
        nfa = make_random_nfa(alphabet, states, rng)
        omega = {}
        for state, symbol, target in nfa.transitions():
            length = rng.choice((0, 1, 1, 2))
            omega[(state, symbol, target)] = tuple(
                rng.choice(("x", "y")) for _ in range(length)
            )
        return Transducer(nfa, omega)
    raise ReproError(f"unknown query class {label!r}")


def _classify(query) -> str:
    """The Table-2 label the runtime planner would assign to ``query``."""
    if isinstance(query, IndexedSProjector):
        return "indexed"
    if isinstance(query, SProjector):
        return "sprojector"
    if query.is_deterministic():
        return "deterministic"
    if query.is_uniform():
        return "uniform"
    return "general"


def generate_instance(label: str, seed: int, trial: int = 0) -> Instance:
    """A reproducible random instance of the given Table-2 class.

    Resamples (deterministically, continuing the seeded stream) until the
    query genuinely falls into ``label`` — a random NFA can accidentally
    be deterministic, which would put the instance in the wrong matrix
    row. Every third trial draws an exact-``Fraction`` sequence so the
    exact engines are diffed under exact arithmetic too.
    """
    if label not in CLASS_LABELS:
        raise ReproError(
            f"unknown query class {label!r} (expected one of {', '.join(CLASS_LABELS)})"
        )
    rng = random.Random(f"{seed}/{label}/{trial}")
    length = rng.randint(2, 5)
    alphabet = "abc"[: rng.randint(2, 3)]
    if trial % 3 == 2:
        sequence = make_fraction_sequence(alphabet, length, rng)
    else:
        sequence = make_sequence(alphabet, length, rng, branching=rng.choice([2, None]))
    for _attempt in range(64):
        query = _make_query(label, alphabet, rng, trial)
        if _classify(query) == label:
            return Instance(
                label=label, sequence=sequence, query=query, seed=seed, trial=trial
            )
    raise ReproError(f"could not generate a {label!r} query in 64 attempts")


# ---------------------------------------------------------------------------
# Large-sparse corpus factories (the shrink/push conformance seeds)
# ---------------------------------------------------------------------------


def make_sparse_transducer(
    num_states: int = 64, alphabet=("a", "b", "c"), seed: int = 0
) -> Transducer:
    """A large, low-density deterministic transducer (density ``1/|Q|``).

    A total single-successor machine over ``num_states`` states: symbol 0
    hops ``+1``, symbol 1 doubles-and-shifts, later symbols hop by a
    fixed odd offset — so the whole state space is reachable and the
    transition structure has no repeated rows. Every state accepts
    (non-selective), so trimming keeps all ``num_states`` states and the
    DP runs on the full machine. Emissions are 1-uniform over
    ``("x", "y")``, seeded deterministically.
    """
    rng = random.Random(f"sparse-transducer/{seed}")
    alphabet = tuple(alphabet)
    states = tuple(f"q{i:03d}" for i in range(num_states))

    def step(i: int, si: int) -> int:
        if si == 0:
            return (i + 1) % num_states
        if si == 1:
            return (2 * i + 1) % num_states
        return (i + 7 + si) % num_states

    delta = {}
    omega = {}
    for i, state in enumerate(states):
        for si, symbol in enumerate(alphabet):
            target = states[step(i, si)]
            delta[(state, symbol)] = {target}
            omega[(state, symbol, target)] = (rng.choice(("x", "y")),)
    nfa = NFA(alphabet, states, states[0], set(states), delta)
    return Transducer(nfa, omega)


def make_failure_arc_transducer(num_states: int = 64, seed: int = 0) -> Transducer:
    """A sparse deterministic transducer with heavily shared rows.

    States come in pairs with *identical* transition rows (same targets,
    same emissions) — ``num_states`` rows with only ``num_states / 2``
    distinct ones, the shape failure/default arcs factor out. Pair
    ``2m/2m+1`` steps to ``2m+2`` on the first symbol (an even-cycle)
    and to the odd state ``2m + num_states/2 + 1`` on the second, so
    every state stays reachable; all states accept, so trimming keeps
    the machine intact. ``num_states`` must be a positive multiple of 4
    (keeps the odd offset odd).
    """
    if num_states % 4 != 0 or num_states <= 0:
        raise ReproError("make_failure_arc_transducer needs num_states % 4 == 0")
    alphabet = ("a", "b")
    odd_offset = num_states // 2 + 1
    states = tuple(f"q{i:03d}" for i in range(num_states))
    rng = random.Random(f"failure-arc/{seed}")
    # One emission choice per (pair, symbol) so paired rows stay identical.
    pair_emissions = {
        (base, symbol): (rng.choice(("x", "y")),)
        for base in range(0, num_states, 2)
        for symbol in alphabet
    }
    delta = {}
    omega = {}
    for i, state in enumerate(states):
        base = (i // 2) * 2
        for symbol, offset in (("a", 2), ("b", odd_offset)):
            target = states[(base + offset) % num_states]
            delta[(state, symbol)] = {target}
            omega[(state, symbol, target)] = pair_emissions[(base, symbol)]
    nfa = NFA(alphabet, states, states[0], set(states), delta)
    return Transducer(nfa, omega)
