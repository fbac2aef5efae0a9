"""Prefix constraints over the answer space, and the layered product DP.

Both enumeration theorems for general transducers rest on one class of
constraints over output strings (the paper's *prefix constraints*): a
constraint is a pair ``(w, X)`` of a prefix ``w`` and a forbidden set
``X`` of "next symbols" (output symbols, or the end-of-string marker
:data:`END`), denoting

    { o : o[0:|w|] == w  and  next(o) not in X },

where ``next(o)`` is ``o[|w|]`` when ``|o| > |w|`` and :data:`END` when
``o == w``. The paper enforces such a constraint by transforming the
transducer; we equivalently run the layered product DP over

    (position i, Markov node sigma, transducer state q, output progress j)

with ``j`` tracking how much of ``w`` has been emitted (``j = |w| + 1``
meaning "past the prefix, with an allowed next symbol"). Two queries on
this graph power everything:

* :func:`has_answer` — boolean reachability: does the constrained answer
  space intersect ``A^omega(mu)``? (Theorem 4.1's emptiness test.)
* :func:`best_evidence` — Viterbi with backpointers: the most likely world
  whose output satisfies the constraint, together with that output.
  (Theorem 4.3's constrained optimization: the answer it returns is the
  ``E_max``-best answer in the subspace.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable, Iterator, Sequence

from repro.confidence.layered import Cell, Layer, forward
from repro.errors import AlphabetMismatchError
from repro.markov.sequence import MarkovSequence, Number
from repro.semiring import BOOLEAN
from repro.transducers.transducer import Transducer

Symbol = Hashable


class _End:
    """Sentinel marking "the answer ends here" in forbidden-next sets."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "END"


#: The end-of-answer marker usable inside ``PrefixConstraint.forbidden``.
END = _End()


@dataclass(frozen=True)
class PrefixConstraint:
    """The constraint ``{ o : o starts with prefix, next(o) not in forbidden }``.

    ``exact=True`` restricts to ``{ prefix }`` itself (equivalent to
    forbidding every output symbol but allowing :data:`END`).
    """

    prefix: tuple = ()
    forbidden: frozenset = field(default_factory=frozenset)
    exact: bool = False

    @staticmethod
    def unconstrained() -> "PrefixConstraint":
        """The whole answer space."""
        return PrefixConstraint()

    @staticmethod
    def with_prefix(prefix: Sequence) -> "PrefixConstraint":
        """All answers extending (or equal to) ``prefix``."""
        return PrefixConstraint(prefix=tuple(prefix))

    @staticmethod
    def exact_string(output: Sequence) -> "PrefixConstraint":
        """The singleton candidate ``{ output }``."""
        return PrefixConstraint(prefix=tuple(output), exact=True)

    def admits(self, output: Sequence) -> bool:
        """Membership test (used by tests; the DPs never materialize it)."""
        output = tuple(output)
        k = len(self.prefix)
        if output[:k] != self.prefix:
            return False
        if len(output) == k:
            return True if self.exact else END not in self.forbidden
        if self.exact:
            return False
        return output[k] not in self.forbidden

    def advance(self, j: int, emission: tuple) -> int | None:
        """Advance output progress ``j`` through ``emission``.

        Progress values: ``0..len(prefix)`` = that many prefix symbols
        matched; ``len(prefix) + 1`` = strictly past the prefix. Returns
        the new progress, or None if the emission violates the constraint.
        """
        k = len(self.prefix)
        past = k + 1
        for symbol in emission:
            if j < k:
                if symbol != self.prefix[j]:
                    return None
                j += 1
            elif j == k:
                if self.exact or symbol in self.forbidden:
                    return None
                j = past
            # j == past: anything goes.
        return j

    def final_ok(self, j: int) -> bool:
        """May an answer end with progress ``j``?"""
        k = len(self.prefix)
        if j < k:
            return False
        if j == k:
            return True if self.exact else END not in self.forbidden
        return True

    def partition_after(self, answer: tuple, alphabet: Sequence) -> list["PrefixConstraint"]:
        """Lawler–Murty partition of this subspace minus ``answer``.

        Returns constraints that are pairwise disjoint and whose union is
        exactly this constraint's answer set without ``answer``. (Children
        are only *candidate* subspaces — callers test them for emptiness.)
        ``alphabet`` is unused but kept for signature stability.
        """
        if self.exact:
            return []
        k = len(self.prefix)
        children: list[PrefixConstraint] = []
        for p in range(k, len(answer)):
            forbidden = frozenset({answer[p]}) | (self.forbidden if p == k else frozenset())
            children.append(PrefixConstraint(prefix=answer[:p], forbidden=forbidden))
        tail_forbidden = frozenset({END}) | (
            self.forbidden if len(answer) == k else frozenset()
        )
        children.append(PrefixConstraint(prefix=answer, forbidden=tail_forbidden))
        return children


def _check(sequence: MarkovSequence, transducer: Transducer) -> None:
    if transducer.input_alphabet != sequence.alphabet:
        raise AlphabetMismatchError(
            "transducer alphabet does not match the Markov sequence alphabet"
        )


def has_answer(
    sequence: MarkovSequence,
    transducer: Transducer,
    constraint: PrefixConstraint = PrefixConstraint(),
) -> bool:
    """Does some answer of ``A^omega(mu)`` satisfy the constraint?

    Boolean forward pass over the layered product graph — polynomial in
    the input and in ``len(constraint.prefix)``.
    """
    _check(sequence, transducer)
    nfa = transducer.nfa
    moves = transducer.moves

    def advance(cell: Cell, target: Symbol) -> Iterator[Cell]:
        _symbol, state, j = cell
        for target_state, emission in moves(state, target):
            j2 = constraint.advance(j, emission)
            if j2 is not None:
                yield (target, target_state, j2)

    layer: Layer = {}
    for layer in forward(sequence, (nfa.initial, 0), advance, BOOLEAN):
        if not layer:
            return False
    return any(
        state in nfa.accepting and constraint.final_ok(j)
        for _symbol, state, j in layer
    )


def best_evidence(
    sequence: MarkovSequence,
    transducer: Transducer,
    constraint: PrefixConstraint = PrefixConstraint(),
) -> tuple[Number, tuple, tuple] | None:
    """The most likely evidence whose output satisfies the constraint.

    Returns ``(probability, output, world)`` maximizing the world
    probability over all pairs (world, accepting run) whose emitted output
    lies in the constraint's answer set — i.e. the returned output is the
    answer of maximal ``E_max`` in the subspace, and the returned world is
    a witness attaining it. Returns None when the subspace is empty.
    """
    _check(sequence, transducer)
    nfa = transducer.nfa
    n = sequence.length

    # Viterbi layer: key -> (score, parent_key, emission). Parents refer to
    # the previous layer; layers are retained for backtracking.
    Key = tuple  # (symbol, state, j)
    layers: list[dict[Key, tuple[Number, Key | None, tuple]]] = []
    layer: dict[Key, tuple[Number, Key | None, tuple]] = {}
    for symbol, prob in sequence.initial_support():
        for state, emission in transducer.moves(nfa.initial, symbol):
            j = constraint.advance(0, emission)
            if j is None:
                continue
            key = (symbol, state, j)
            if key not in layer or prob > layer[key][0]:
                layer[key] = (prob, None, emission)
    layers.append(layer)

    for i in range(1, n):
        nxt: dict[Key, tuple[Number, Key | None, tuple]] = {}
        for key, (score, _parent, _emission) in layer.items():
            symbol, state, j = key
            for target, prob in sequence.successors(i, symbol):
                weight = score * prob
                for target_state, emission in transducer.moves(state, target):
                    j2 = constraint.advance(j, emission)
                    if j2 is None:
                        continue
                    new_key = (target, target_state, j2)
                    if new_key not in nxt or weight > nxt[new_key][0]:
                        nxt[new_key] = (weight, key, emission)
        layer = nxt
        layers.append(layer)
        if not layer:
            return None

    best_key: Key | None = None
    best_score: Number = 0
    for key, (score, _parent, _emission) in layer.items():
        _symbol, state, j = key
        if state in nfa.accepting and constraint.final_ok(j) and (
            best_key is None or score > best_score
        ):
            best_key, best_score = key, score
    if best_key is None:
        return None

    # Backtrack world and output.
    world: list[Symbol] = []
    output_parts: list[tuple] = []
    key = best_key
    for depth in range(n - 1, -1, -1):
        score, parent, emission = layers[depth][key]
        world.append(key[0])
        output_parts.append(emission)
        if parent is None:
            break
        key = parent
    world.reverse()
    output_parts.reverse()
    output: tuple = ()
    for part in output_parts:
        output = output + part
    return best_score, output, tuple(world)
