"""Plan-time automaton shrinking: trim and weight pushing.

Every engine in this repo runs some DP over the compiled transducer, so
work removed from the automaton *once at plan time* speeds up serial,
vectorized, streaming and FPRAS execution together. Two
passes, both exactly confidence-preserving:

* **trim** — drop states that are unreachable from the initial state or
  dead (no accepting state reachable from them). Accepting runs only
  ever visit live states, and ``conf(o)`` sums over accepting runs, so
  the trimmed machine computes bit-identical confidences while its DPs
  carry strictly fewer cells;
* **weight pushing** — compute, per live state ``q``, the longest common
  prefix of the emissions of *all* accepting continuations from ``q``
  (the string-semiring analogue of pushing weights toward the initial
  state). :func:`repro.confidence.deterministic.confidence_deterministic`
  takes the table as a filter on moves, discarding DP cells whose
  remaining target output cannot start with that guaranteed prefix —
  cells that provably contribute zero, so dropping them changes nothing.

This module is inside the RX01 exact zone and never touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable

from repro.automata.nfa import NFA
from repro.transducers.transducer import Transducer

State = Hashable
Symbol = Hashable

#: Guaranteed-emission prefixes are truncated to this length: pushing is
#: a pruning heuristic, and any prefix of a sound guarantee is sound, so
#: the cap only bounds fixed-point work on emission-heavy cycles.
PUSH_CAP = 32


@dataclass(frozen=True)
class ShrinkReport:
    """What one shrink pass removed (the plan card / telemetry record)."""

    states_before: int
    states_after: int
    transitions_before: int
    transitions_after: int
    pruned_unreachable: int
    pruned_dead: int
    #: Total guaranteed-prefix symbols over live states — the weight
    #: pushing savings the DP's move filter can prune against.
    push_symbols: int

    def pruned(self) -> int:
        return self.pruned_unreachable + self.pruned_dead


def _coreachable(nfa: NFA) -> frozenset:
    """States from which some accepting state is reachable."""
    predecessors: dict[State, set[State]] = {}
    for source, _symbol, target in nfa.transitions():
        predecessors.setdefault(target, set()).add(source)
    live: set[State] = set(nfa.accepting)
    stack = list(live)
    while stack:
        state = stack.pop()
        for pred in predecessors.get(state, ()):
            if pred not in live:
                live.add(pred)
                stack.append(pred)
    return frozenset(live)


def _lcp(left: tuple, right: tuple) -> tuple:
    """Longest common prefix of two emission tuples."""
    limit = min(len(left), len(right))
    i = 0
    while i < limit and left[i] == right[i]:
        i += 1
    return left[:i]


def push_table(transducer: Transducer) -> dict:
    """Guaranteed future-emission prefix per state (weight pushing).

    For each state ``q`` with at least one accepting continuation, maps
    ``q`` to a tuple that is a prefix of the emission of *every* path
    from ``q`` to an accepting state (the longest such common prefix, up
    to :data:`PUSH_CAP`). States with no accepting continuation (dead
    states) are absent — the DP treats absence as "prune always", which
    is exact because such cells can never contribute to a confidence.

    Computed as a decreasing fixed point: accepting states start at the
    empty guarantee; each relaxation replaces ``push[q]`` by the lcp
    over its moves of ``emission + push[target]``. Values only ever
    shorten (in prefix order), so the iteration terminates.
    """
    nfa = transducer.nfa
    push: dict = {state: () for state in nfa.accepting}
    moves_by_state: dict[State, list[tuple[State, tuple]]] = {}
    for source, symbol, target in nfa.transitions():
        moves_by_state.setdefault(source, []).append(
            (target, transducer.emission(source, symbol, target))
        )
    changed = True
    while changed:
        changed = False
        for state in sorted(nfa.states, key=repr):
            best: tuple | None = () if state in nfa.accepting else None
            for target, emission in moves_by_state.get(state, ()):
                if target not in push:
                    continue
                candidate = (emission + push[target])[:PUSH_CAP]
                best = candidate if best is None else _lcp(best, candidate)
            if best is not None and push.get(state) != best:
                # First definition, or a strictly shorter refinement.
                if state not in push or len(best) < len(push[state]):
                    push[state] = best
                    changed = True
    return push


def shrink_transducer(transducer: Transducer) -> tuple[Transducer, dict, ShrinkReport]:
    """Trim + push; returns ``(shrunk, push_table, report)``.

    The shrunk transducer keeps the full input alphabet and the original
    state identities (so persisted streaming frontiers keyed on state
    objects stay value-equal across rebuilds), restricted to live
    states. The initial state is always kept — when it is dead the
    machine denotes the empty relation and the shrunk automaton has no
    transitions at all.
    """
    nfa = transducer.nfa
    states_before = len(nfa.states)
    transitions_before = nfa.num_transitions

    reachable = nfa.reachable_states()
    coreachable = _coreachable(nfa)
    live = reachable & coreachable
    kept = live | {nfa.initial}
    pruned_unreachable = states_before - len(reachable)
    pruned_dead = len(reachable) - len(reachable & coreachable) - (
        1 if nfa.initial in reachable and nfa.initial not in coreachable else 0
    )

    delta = {
        (state, symbol): targets & live
        for (state, symbol), targets in nfa.delta_dict().items()
        if state in live
    }
    delta = {key: targets for key, targets in delta.items() if targets}
    shrunk_nfa = NFA(nfa.alphabet, kept, nfa.initial, nfa.accepting & kept, delta)
    omega = {
        (source, symbol, target): emission
        for (source, symbol, target), emission in transducer.omega_dict().items()
        if source in live and target in live
    }
    shrunk = Transducer(shrunk_nfa, omega)

    push = push_table(shrunk)
    report = ShrinkReport(
        states_before=states_before,
        states_after=len(kept),
        transitions_before=transitions_before,
        transitions_after=shrunk_nfa.num_transitions,
        pruned_unreachable=pruned_unreachable,
        pruned_dead=pruned_dead,
        push_symbols=sum(len(prefix) for prefix in push.values()),
    )
    return shrunk, push, report
