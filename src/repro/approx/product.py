"""The answer product: transducer × one fixed answer (the #NFA shape).

The confidence of an answer ``o`` for a nondeterministic transducer is
the probability that the Markov sequence emits a world with *at least
one* accepting run producing ``o``. Fixing ``o`` turns the transducer
into an ordinary NFA over the input alphabet — the **answer product** —
whose states are pairs ``(q, j)``: transducer state ``q`` having emitted
exactly the first ``j`` symbols of ``o`` so far. A move on input ``s``
follows each transducer move ``(q', e) ∈ moves(q, s)`` whose emission
``e`` extends the answer prefix (``o[j : j + |e|] == e``); a product
state accepts when ``q`` accepts and all of ``o`` has been emitted.

``conf(o)`` is then exactly the acceptance probability of this NFA under
the Markov measure — the quantity "#NFA admits an FPRAS" (Arenas et al.)
shows is approximable. The hardness is *ambiguity*: a world may carry
several accepting runs, and summing run weights overcounts it. The
union-of-runs fix used by :mod:`repro.approx.fpras` needs one canonical
representative per accepted world, which this module provides:
:meth:`AnswerProduct.canonical_run` returns the unique least accepting
run under a deterministic total order, computed greedily against
backward viability sets (no enumeration of the run set).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

from repro.transducers.transducer import Transducer

Symbol = Hashable
#: A product state: (transducer state, answer symbols emitted so far).
ProductState = tuple


def state_key(state: ProductState) -> tuple:
    """Deterministic total order on product states.

    Keyed on ``(emitted, repr(q))`` — ``repr`` because transducer states
    are arbitrary hashables; the order must be stable across processes
    (no ``hash``, which ``PYTHONHASHSEED`` perturbs).
    """
    q, emitted = state
    return (emitted, repr(q))


class AnswerProduct:
    """The NFA ``transducer × answer`` with canonical-run support."""

    __slots__ = ("transducer", "answer", "initial", "_length", "_moves")

    def __init__(self, transducer: Transducer, answer: Sequence) -> None:
        self.transducer = transducer
        self.answer = tuple(answer)
        self._length = len(self.answer)
        self.initial: ProductState = (transducer.nfa.initial, 0)
        self._moves: dict[tuple, tuple[ProductState, ...]] = {}

    def moves(self, state: ProductState, symbol: Symbol) -> tuple[ProductState, ...]:
        """Successor product states on ``symbol``, sorted by :func:`state_key`.

        Memoized per ``(state, symbol)`` — the innermost call of the
        FPRAS's dynamic programs, exactly like ``Transducer.moves``.
        """
        key = (state, symbol)
        cached = self._moves.get(key)
        if cached is None:
            q, emitted = state
            targets = []
            for target, emission in self.transducer.moves(q, symbol):
                grown = emitted + len(emission)
                if grown <= self._length and self.answer[emitted:grown] == emission:
                    targets.append((target, grown))
            targets.sort(key=state_key)
            cached = tuple(targets)
            self._moves[key] = cached
        return cached

    def advance(self, cell: tuple, symbol: Symbol) -> list[tuple]:
        """The layered-DP advance over ``(symbol, product state)`` cells:
        the cells ``(symbol, target)`` for each move of ``cell[1]``."""
        return [(symbol, target) for target in self.moves(cell[1], symbol)]

    def is_accepting(self, state: ProductState) -> bool:
        q, emitted = state
        return emitted == self._length and q in self.transducer.nfa.accepting

    def is_deterministic(self, alphabet: Iterable[Symbol]) -> bool:
        """True when every reachable product state has ≤ 1 move per symbol.

        A deterministic product has at most one run per world, so the
        run-weight DP already *is* the confidence — the FPRAS's exact
        shortcut. (Determinism is sufficient for unambiguity, not
        necessary; a nondeterministic-but-unambiguous product just takes
        the sampling path, which remains correct.)
        """
        symbols = tuple(alphabet)
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            state = frontier.pop()
            for symbol in symbols:
                targets = self.moves(state, symbol)
                if len(targets) > 1:
                    return False
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
        return True

    def viable_sets(self, world: Sequence[Symbol]) -> list[set]:
        """Per-position sets of states on some accepting run of ``world``.

        ``viable[i]`` holds the product states reachable after ``i``
        input symbols from which acceptance at position ``n`` is still
        possible — the backward pruning that makes the greedy canonical
        run correct without enumerating runs.
        """
        n = len(world)
        layers: list[set] = [{self.initial}]
        for symbol in world:
            grown: set = set()
            for state in layers[-1]:
                grown.update(self.moves(state, symbol))
            layers.append(grown)
        viable: list[set] = [set() for _ in range(n + 1)]
        viable[n] = {state for state in layers[n] if self.is_accepting(state)}
        for i in range(n - 1, -1, -1):
            viable[i] = {
                state
                for state in layers[i]
                if any(target in viable[i + 1] for target in self.moves(state, world[i]))
            }
        return viable

    def canonical_run(self, world: Sequence[Symbol]) -> tuple | None:
        """The least accepting run on ``world`` under :func:`state_key`.

        Greedy forward choice restricted to viable states picks, at each
        position, the smallest successor that can still reach acceptance;
        the result is the lexicographically least accepting run. Returns
        None when ``world`` has no accepting run at all.
        """
        viable = self.viable_sets(world)
        if self.initial not in viable[0]:
            return None
        run = []
        state = self.initial
        for i, symbol in enumerate(world):
            # moves() is sorted by state_key, so the first viable
            # successor is the least one.
            state = next(
                target for target in self.moves(state, symbol) if target in viable[i + 1]
            )
            run.append(state)
        return tuple(run)
