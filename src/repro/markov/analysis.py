"""Analytics over Markov sequences.

Utilities a Markov-sequence warehouse needs around the core query engine:
the most likely world (chain Viterbi), conditioning on observed nodes,
time reversal, entropy, and distribution distances — all respecting the
Equation (1) semantics and usable with float or exact probabilities.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping, Sequence

from repro.errors import InvalidMarkovSequenceError
from repro.markov.sequence import MarkovSequence, Number

Symbol = Hashable


def most_likely_world(sequence: MarkovSequence) -> tuple[tuple[Symbol, ...], Number]:
    """The modal world and its probability (Viterbi over the chain).

    This is also ``E_max`` of the identity query's top answer.
    """
    scores: dict[Symbol, tuple[Number, tuple[Symbol, ...]]] = {
        symbol: (prob, (symbol,)) for symbol, prob in sequence.initial_support()
    }
    for i in range(1, sequence.length):
        nxt: dict[Symbol, tuple[Number, tuple[Symbol, ...]]] = {}
        for source, (score, path) in scores.items():
            for target, prob in sequence.successors(i, source):
                candidate = score * prob
                current = nxt.get(target)
                if current is None or candidate > current[0]:
                    nxt[target] = (candidate, path + (target,))
        scores = nxt
    if not scores:
        raise InvalidMarkovSequenceError("sequence has empty support")
    best_symbol = max(scores, key=lambda s: scores[s][0])
    score, path = scores[best_symbol]
    return path, score


def k_best_worlds(
    sequence: MarkovSequence, k: int
) -> list[tuple[tuple[Symbol, ...], Number]]:
    """The ``k`` most probable worlds, in decreasing probability.

    Lawler–Murty over world-prefix subspaces: the constrained optimum
    "most likely world extending prefix ``w`` whose next node avoids a
    forbidden set" is a Viterbi pass, and partitioning around each output
    keeps subspaces disjoint. (The same engine that powers Theorem 4.3,
    instantiated on the identity query.)
    """
    from repro.enumeration.lawler import each_part, lawler_enumerate

    def best(space: tuple[tuple[Symbol, ...], frozenset]):
        prefix, forbidden = space
        # Viterbi completion of the prefix.
        if len(prefix) > sequence.length:
            return None
        if prefix:
            score: Number = sequence.initial_prob(prefix[0])
            for i in range(1, len(prefix)):
                score = score * sequence.transition_prob(i, prefix[i - 1], prefix[i])
            if score == 0:
                return None
            frontier: dict[Symbol, tuple[Number, tuple[Symbol, ...]]] = {
                prefix[-1]: (score, prefix)
            }
            start = len(prefix)
        else:
            frontier = {
                s: (p, (s,))
                for s, p in sequence.initial_support()
                if s not in forbidden
            }
            if not frontier:
                return None
            start = 1
        for i in range(start, sequence.length):
            nxt: dict[Symbol, tuple[Number, tuple[Symbol, ...]]] = {}
            for source, (mass, path) in frontier.items():
                for target, prob in sequence.successors(i, source):
                    if i == len(prefix) and target in forbidden:
                        continue
                    candidate = mass * prob
                    current = nxt.get(target)
                    if current is None or candidate > current[0]:
                        nxt[target] = (candidate, path + (target,))
            frontier = nxt
            if not frontier:
                return None
        best_symbol = max(frontier, key=lambda s: frontier[s][0])
        mass, path = frontier[best_symbol]
        return mass, path

    def partition(space, world: tuple[Symbol, ...]):
        prefix, forbidden = space
        children = []
        for position in range(len(prefix), sequence.length):
            child_forbidden = frozenset({world[position]}) | (
                forbidden if position == len(prefix) else frozenset()
            )
            children.append((world[:position], child_forbidden))
        return children

    results: list[tuple[tuple[Symbol, ...], Number]] = []
    children = each_part(best, partition)
    for score, world in lawler_enumerate(((), frozenset()), best, children):
        results.append((world, score))
        if len(results) >= k:
            break
    return results


def condition_on(
    sequence: MarkovSequence, evidence: Mapping[int, Symbol]
) -> MarkovSequence:
    """Condition the chain on observed nodes ``{position (1-based): symbol}``.

    Returns a new Markov sequence whose distribution is
    ``Pr(S = . | S_i = sigma_i for all observations)`` — conditioning a
    Markov chain on node observations yields another Markov chain, by a
    backward filtering pass analogous to the HMM translation.
    """
    n = sequence.length
    for position, symbol in evidence.items():
        if not 1 <= position <= n:
            raise InvalidMarkovSequenceError(f"evidence position {position} out of range")
        if symbol not in sequence.alphabet:
            raise InvalidMarkovSequenceError(f"evidence symbol {symbol!r} unknown")

    def allowed(position: int, symbol: Symbol) -> bool:
        return position not in evidence or evidence[position] == symbol

    # beta[j][symbol] ∝ Pr(future evidence | S_j = symbol), per-level scale.
    beta: list[dict[Symbol, float]] = [{} for _ in range(n + 1)]
    for symbol in sequence.symbols:
        beta[n][symbol] = 1.0 if allowed(n, symbol) else 0.0
    for j in range(n - 1, 0, -1):
        for symbol in sequence.symbols:
            if not allowed(j, symbol):
                beta[j][symbol] = 0.0
                continue
            total = 0.0
            for target, prob in sequence.successors(j, symbol):
                total += float(prob) * beta[j + 1][target]
            beta[j][symbol] = total

    def normalized(row: dict[Symbol, float], context: str) -> dict[Symbol, float]:
        total = sum(row.values())
        if total <= 0:
            raise InvalidMarkovSequenceError(f"evidence has probability zero ({context})")
        row = {s: p / total for s, p in row.items() if p > 0}
        drift = 1.0 - sum(row.values())
        top = max(row, key=lambda s: row[s])
        row[top] += drift
        return row

    initial = normalized(
        {
            symbol: float(prob) * beta[1][symbol]
            for symbol, prob in sequence.initial_support()
        },
        "initial",
    )

    transitions: list[dict[Symbol, dict[Symbol, float]]] = []
    for i in range(1, n):
        step: dict[Symbol, dict[Symbol, float]] = {}
        for source in sequence.symbols:
            row = {
                target: float(prob) * beta[i + 1][target]
                for target, prob in sequence.successors(i, source)
            }
            if sum(row.values()) <= 0:
                # Source unreachable under the evidence: arbitrary valid row.
                step[source] = {sequence.symbols[0]: 1.0}
            else:
                step[source] = normalized(row, f"step {i}, source {source!r}")
        transitions.append(step)
    return MarkovSequence(sequence.symbols, initial, transitions)


def reverse_sequence(sequence: MarkovSequence) -> MarkovSequence:
    """The time-reversed chain: same distribution over reversed worlds.

    ``reverse(mu).prob_of(reversed(w)) == mu.prob_of(w)`` for all worlds.
    Built from the forward marginals by Bayes' rule (float arithmetic).
    """
    n = sequence.length
    marginals = sequence.marginals()
    initial = {s: float(p) for s, p in marginals[-1].items()}
    transitions: list[dict[Symbol, dict[Symbol, float]]] = []
    # Reversed step j corresponds to the forward step i = n - j.
    for j in range(1, n):
        i = n - j
        step: dict[Symbol, dict[Symbol, float]] = {}
        for target in sequence.symbols:  # "source" of the reversed chain
            target_mass = marginals[i].get(target, 0.0)
            row: dict[Symbol, float] = {}
            if target_mass > 0:
                for source, prob in sequence.predecessors(i, target):
                    source_mass = marginals[i - 1].get(source, 0.0)
                    if source_mass > 0:
                        row[source] = float(source_mass) * float(prob) / float(target_mass)
            if not row:
                step[target] = {sequence.symbols[0]: 1.0}
                continue
            total = sum(row.values())
            row = {s: p / total for s, p in row.items()}
            drift = 1.0 - sum(row.values())
            top = max(row, key=lambda s: row[s])
            row[top] += drift
            step[target] = row
        transitions.append(step)
    total = sum(initial.values())
    initial = {s: p / total for s, p in initial.items()}
    drift = 1.0 - sum(initial.values())
    top = max(initial, key=lambda s: initial[s])
    initial[top] += drift
    return MarkovSequence(sequence.symbols, initial, transitions)


def entropy(sequence: MarkovSequence) -> float:
    """Shannon entropy (bits) of the world distribution, computed by DP.

    Uses the chain rule: H(S) = H(S_1) + sum_i H(S_{i+1} | S_i), where the
    conditional entropies are weighted by the forward marginals — linear
    in the representation size, no world enumeration.
    """

    def row_entropy(row) -> float:
        total = 0.0
        for _symbol, prob in row:
            p = float(prob)
            if p > 0:
                total -= p * math.log2(p)
        return total

    marginals = sequence.marginals()
    result = row_entropy(sequence.initial_support())
    for i in range(1, sequence.length):
        for source, mass in marginals[i - 1].items():
            result += float(mass) * row_entropy(sequence.successors(i, source))
    return result


def kl_divergence(left: MarkovSequence, right: MarkovSequence) -> float:
    """``KL(left || right)`` in bits, computed by the chain rule (no world
    enumeration).

    For Markov chains the divergence decomposes positionwise:

        KL = KL(initials) + sum_i E_{s ~ left marginal i}[
                 KL(left_i(.|s) || right_i(.|s)) ]

    Returns ``inf`` when ``left`` puts mass where ``right`` has none.
    """
    if left.symbols != right.symbols or left.length != right.length:
        raise InvalidMarkovSequenceError("sequences must share node set and length")

    def row_kl(left_row, right_row: dict) -> float:
        total = 0.0
        for symbol, p in left_row:
            p = float(p)
            if p <= 0:
                continue
            q = float(right_row.get(symbol, 0))
            if q <= 0:
                return math.inf
            total += p * math.log2(p / q)
        return total

    result = row_kl(left.initial_support(), dict(right.initial_support()))
    marginals = left.marginals()
    for i in range(1, left.length):
        if result == math.inf:
            return math.inf
        for source, mass in marginals[i - 1].items():
            step = row_kl(
                left.successors(i, source), dict(right.successors(i, source))
            )
            if step == math.inf:
                return math.inf
            result += float(mass) * step
    return result


def total_variation(left: MarkovSequence, right: MarkovSequence) -> float:
    """Total-variation distance between two small Markov sequences.

    Exponential in ``n`` (enumerates both supports); intended for tests
    and for validating approximate constructions on small instances.
    """
    if left.symbols != right.symbols or left.length != right.length:
        raise InvalidMarkovSequenceError("sequences must share node set and length")
    worlds: set = set()
    left_probs = {}
    for world, prob in left.worlds():
        left_probs[world] = left_probs.get(world, 0) + prob
        worlds.add(world)
    right_probs = {}
    for world, prob in right.worlds():
        right_probs[world] = right_probs.get(world, 0) + prob
        worlds.add(world)
    return 0.5 * sum(
        abs(float(left_probs.get(w, 0)) - float(right_probs.get(w, 0))) for w in worlds
    )
