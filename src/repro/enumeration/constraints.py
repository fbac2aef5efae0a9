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
meaning "past the prefix, with an allowed next symbol"). Three queries on
this graph power everything:

* :func:`has_answer` — boolean reachability: does the constrained answer
  space intersect ``A^omega(mu)``? (Theorem 4.1's emptiness test.)
* :func:`best_evidence` — Viterbi with backpointers: the most likely world
  whose output satisfies the constraint, together with that output.
  (Theorem 4.3's constrained optimization: the answer it returns is the
  ``E_max``-best answer in the subspace.)
* :func:`best_children` — the same Viterbi, run once per Lawler–Murty
  pop: around the popped answer ``a`` the progress is either "matched
  ``a[:m]``" or "diverged from ``a`` at ``p``", and the best accepting
  cell of each ``p`` is the optimum of the child that differs from ``a``
  at ``p``. One pass over about ``2|a|`` progress values answers every
  child of :meth:`PrefixConstraint.partition_after`.

Both Viterbi queries are one back-pointer pass (``_viterbi``) that only
differs in how output progress advances and which answer set a final
progress value belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Hashable, Iterator, Sequence
from itertools import chain
from typing import Any

from repro import telemetry
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

    def partition_after(self, answer: tuple) -> list["PrefixConstraint"]:
        """Lawler–Murty partition of this subspace minus ``answer``.

        Returns constraints that are pairwise disjoint and whose union is
        exactly this constraint's answer set without ``answer``: child
        ``p - |prefix|`` agrees with ``answer`` on ``[0, p)`` and differs
        at ``p``, for ``|prefix| <= p <= |answer|`` (the last child extends
        ``answer``). Children are only *candidate* subspaces — callers
        test them for emptiness.
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
    a witness attaining it. Returns None when the subspace is empty. This
    is the one-group case of the pass behind :func:`best_children`.
    """

    def group(j: int) -> int | None:
        return 0 if constraint.final_ok(j) else None

    return _viterbi(sequence, transducer, constraint.advance, group).get(0)


def best_children(
    sequence: MarkovSequence,
    transducer: Transducer,
    constraint: PrefixConstraint,
    answer: Sequence,
) -> list[tuple[PrefixConstraint, tuple[Number, tuple, tuple]]]:
    """Every non-empty child of ``constraint.partition_after(answer)``
    with its best evidence, from one Viterbi pass.

    ``answer`` must satisfy the constraint. Each child is "agree with
    ``answer`` on ``[0, p)``, differ at ``p``" for ``|w| <= p <= |answer|``,
    so one progress value per run says which child its output falls in:

    * ``m >= 0`` — the output so far is ``answer[:m]``;
    * ``-1 - p`` — the output left ``answer`` at position ``p``: its
      symbol ``p`` differs from ``answer[p]`` (``answer`` had ended when
      ``p = |answer|``) and, at ``p = |w|``, is not forbidden.

    A run ending with ``m`` belongs to child ``m`` (the output is a
    strict prefix of ``answer``, admitted when ``m > |w|`` or ``END`` is
    allowed); one ending with ``-1 - p`` belongs to child ``p``. That is
    about ``2|answer|`` progress values in one pass, where a pass per
    child would sum to about ``|answer|^2 / 2``. The best accepting cell
    of each group is that child's ``(probability, output, world)``; the
    result lists the non-empty children in partition order.
    """
    if constraint.exact:
        return []
    answer = tuple(answer)
    k, length = len(constraint.prefix), len(answer)
    forbidden = constraint.forbidden
    end_ok = END not in forbidden

    def advance(j: int, emission: tuple) -> int | None:
        for symbol in emission:
            if j < 0:
                return j
            if j < length and symbol == answer[j]:
                j += 1
            elif j < k or (j == k and symbol in forbidden):
                return None
            else:
                j = -1 - j
        return j

    def group(j: int) -> int | None:
        if j < 0:
            return -1 - j
        if k < j < length or (j == k < length and end_ok):
            return j
        return None

    found = _viterbi(sequence, transducer, advance, group)
    children = constraint.partition_after(answer)
    return [(children[p - k], found[p]) for p in range(k, length + 1) if p in found]


def _viterbi(
    sequence: MarkovSequence,
    transducer: Transducer,
    advance: Callable[[int, tuple], int | None],
    group: Callable[[int], Hashable | None],
) -> dict[Hashable, tuple[Number, tuple, tuple]]:
    """Back-pointer Viterbi over ``(node sigma, transducer state q, progress j)``.

    ``advance(j, emission)`` is the progress after an emission (None when
    the run leaves every answer set of interest); ``group(j)`` names the
    answer set an accepting run ending with progress ``j`` lies in (None:
    none). Returns ``{group: (probability, output, world)}`` with the most
    likely evidence of each non-empty group. Among equal scores the first
    cell in layer order wins, so results are reproducible run to run.
    """
    _check(sequence, transducer)
    telemetry.count("enumeration.viterbi.passes")
    nfa = transducer.nfa
    moves = transducer.moves
    # (state, target node, progress) -> the surviving (state', emission,
    # progress') moves; memoized per pass, as advance depends on nothing else.
    # The memo and this loop (rather than layered.forward) are measured in
    # docs/ALGORITHMS.md, "One layered step".
    edges: dict[tuple, tuple[tuple[Any, tuple, int], ...]] = {}

    # Layer entries are cell -> (score, parent cell, emission); layer 0 is
    # a virtual cell whose one row is the initial distribution.
    Entry = tuple[Number, Cell | None, tuple]
    layer: dict[Cell, Entry] = {(None, nfa.initial, 0): (1, None, ())}
    layers: list[dict[Cell, Entry]] = []
    virtual = {None: dict(sequence.initial_support())}
    for rows in (virtual, *map(sequence.transition_rows, range(1, sequence.length))):
        nxt: dict[Cell, Entry] = {}
        for key, (score, _parent, _emission) in layer.items():
            row = rows.get(key[0])
            if row is None:
                continue
            _symbol, state, j = key
            for target, prob in row.items():
                edge = (state, target, j)
                out = edges.get(edge)
                if out is None:
                    out = edges[edge] = tuple(
                        (target_state, emission, j2)
                        for target_state, emission in moves(state, target)
                        if (j2 := advance(j, emission)) is not None
                    )
                weight = score * prob
                for target_state, emission, j2 in out:
                    new_key = (target, target_state, j2)
                    current = nxt.get(new_key)
                    if current is None or weight > current[0]:
                        nxt[new_key] = (weight, key, emission)
        if not nxt:
            return {}
        layers.append(nxt)
        layer = nxt

    best: dict[Hashable, tuple[Number, Cell]] = {}
    for key, (score, _parent, _emission) in layer.items():
        if key[1] not in nfa.accepting:
            continue
        name = group(key[2])
        if name is not None and (name not in best or score > best[name][0]):
            best[name] = (score, key)

    found: dict[Hashable, tuple[Number, tuple, tuple]] = {}
    for name, (score, key) in best.items():
        world: list[Symbol] = []
        emissions: list[tuple] = []
        for depth in range(len(layers) - 1, -1, -1):
            _score, parent, emission = layers[depth][key]
            world.append(key[0])
            emissions.append(emission)
            key = parent
        found[name] = (score, tuple(chain.from_iterable(reversed(emissions))), tuple(reversed(world)))
    return found
