"""Incremental streaming evaluation: append a timestep, not a re-run.

Lahar-style streams grow one timestep at a time, yet a from-scratch
``evaluate`` on a length-``n`` stream re-runs every forward DP over all
``n`` positions. A :class:`StreamingEvaluator` keeps, per (stream, plan)
pair, the only state those DPs ever carry forward — the *frontier* at
the last position — so absorbing one new timestep costs one DP layer.

Two frontier representations, both exact:

* **Deterministic plans** (the compiled transducer is deterministic):
  each world has at most one run, so the frontier maps
  ``(last node, automaton state, emitted output)`` to probability mass.
  Worlds sharing a cell evolve identically and never double count —
  this is the Theorem 4.6 DP with the output coordinate left free.
  One append costs ``O(frontier · |Sigma| )`` cell updates, i.e.
  ``O(|Sigma|^2 · |Q|)`` per distinct live output.

* **Nondeterministic plans**: summing over runs would double-count
  worlds with several accepting runs for one output (exactly the
  Theorem 4.9 obstruction), so the frontier instead maps
  ``(last node, run summary)`` to mass, where the run summary is the
  *set* of live ``(state, output)`` pairs — a weighted subset
  construction over run space. Worlds with equal last node and summary
  are indistinguishable to the future, so the partition is exact; its
  size can grow exponentially, matching the class's #P-hardness, which
  is why the database only auto-streams deterministic plans.

``conf(o)`` falls out of either frontier by summing the mass of cells
whose (summary contains an) accepting state with output ``o`` — *exactly*
equal (over ``Fraction`` inputs, bit-for-bit) to a from-scratch
``evaluate`` of the grown stream.

Either frontier is pushed through the plan's shrunk machine
(``plan.execution``) by the shared layer step of
:mod:`repro.confidence.layered`, so dead runs drop out instead of being
carried; which representation is used is decided by the compiled
machine (``plan.deterministic``), so persisted frontiers restore
identically.

:meth:`checkpoint` / :meth:`rollback` snapshot and restore the frontier,
which is how sliding windows re-anchor without replaying the stream.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Iterator, Mapping

from repro import telemetry
from repro.confidence.layered import Cell, step
from repro.errors import ReproError
from repro.markov.sequence import MarkovSequence, Number
from repro.core.results import Answer, Order
from repro.runtime.cache import PlanCache, plan_for
from repro.runtime.plan import PlanKind
from repro.transducers.sprojector import decode_indexed_output

Symbol = Hashable


class StreamingEvaluator:
    """Maintains answers-with-confidence of one query over a growing stream.

    Parameters
    ----------
    query:
        A query object or an already-built
        :class:`~repro.runtime.plan.QueryPlan`.
    sequence:
        The stream so far (length >= 1). The evaluator runs the forward
        DP once over it; every later :meth:`append` is one layer.
    cache:
        Optional :class:`~repro.runtime.cache.PlanCache` used to resolve
        ``query`` (the process default when None).
    """

    def __init__(
        self,
        query,
        sequence: MarkovSequence,
        cache: PlanCache | None = None,
    ) -> None:
        self.plan = plan_for(query, cache)
        self.plan.compiled.check_alphabet(sequence.alphabet)
        self._deterministic = self.plan.deterministic
        self._sequence = sequence
        self._frontier: dict = self._initial_frontier(sequence)
        for i in range(1, sequence.length):
            self._advance(i)
        self._checkpoints: list[tuple[MarkovSequence, dict]] = []

    @classmethod
    def restore(
        cls,
        query,
        sequence: MarkovSequence,
        frontier: Mapping,
        cache: PlanCache | None = None,
    ) -> "StreamingEvaluator":
        """Rebuild an evaluator from a persisted frontier — no DP re-run.

        ``frontier`` must be the :attr:`frontier` of an evaluator for the
        same (query, sequence) pair; plan compilation is deterministic
        per fingerprint, so the recompiled plan's state objects are
        value-equal to the ones inside the persisted keys. This is the
        restart path of :mod:`repro.store`: recovery costs one snapshot
        load plus the log suffix instead of ``sequence.length`` DP
        layers.
        """
        self = object.__new__(cls)
        self.plan = plan_for(query, cache)
        self.plan.compiled.check_alphabet(sequence.alphabet)
        self._deterministic = self.plan.deterministic
        self._sequence = sequence
        self._frontier = dict(frontier)
        self._checkpoints = []
        return self

    # ------------------------------------------------------------------
    # Frontier maintenance
    # ------------------------------------------------------------------

    def _initial_frontier(self, sequence: MarkovSequence) -> dict:
        initial = self.plan.compiled.nfa.initial
        start = (initial, ()) if self._deterministic else (frozenset({(initial, ())}),)
        return self._step({(None, *start): 1}, {None: dict(sequence.initial_support())})[0]

    def _step(self, layer: Mapping, rows: Mapping) -> tuple[dict, int]:
        """One layer of the frontier DP and the cell updates it cost.

        A deterministic cell ``(node, state, output)`` moves like the
        Theorem 4.6 DP with the output left free, one update per move. A
        nondeterministic cell ``(node, summary)`` moves its whole run
        summary at once and costs one update per live run.
        """
        moves = self.plan.execution.moves
        cells = 0
        if self._deterministic:
            def advance(cell: Cell, target: Symbol) -> Iterator[Cell]:
                nonlocal cells
                _symbol, state, output = cell
                for target_state, emission in moves(state, target):
                    cells += 1
                    yield (target, target_state, output + emission)
        else:
            def advance(cell: Cell, target: Symbol) -> Iterator[Cell]:
                nonlocal cells
                _symbol, summary = cell
                cells += len(summary)
                new_summary = frozenset(
                    (target_state, output + emission)
                    for state, output in summary
                    for target_state, emission in moves(state, target)
                )
                if new_summary:
                    yield (target, new_summary)
        return step(layer, rows, advance), cells

    def _advance(self, i: int) -> None:
        """Push the frontier across transition ``i`` (paper indexing)."""
        # The per-layer timer only runs when telemetry is enabled: one
        # recorder() call and a None check is the whole disabled cost.
        recorder = telemetry.recorder()
        start = time.perf_counter() if recorder is not None else 0.0
        nxt, cells = self._step(self._frontier, self._sequence.transition_rows(i))
        self._frontier = nxt
        self.plan.stats.record_append(cells)
        if recorder is not None:
            recorder.observe("runtime.append.seconds", time.perf_counter() - start)
            recorder.observe(
                "runtime.append.cells", float(cells), bounds=telemetry.SIZE_BOUNDS
            )
            recorder.observe(
                "runtime.append.frontier", float(len(nxt)), bounds=telemetry.SIZE_BOUNDS
            )

    # ------------------------------------------------------------------
    # Streaming API
    # ------------------------------------------------------------------

    def append(
        self, transition: Mapping[Symbol, Mapping[Symbol, Number]]
    ) -> dict:
        """Absorb one timestep and return the updated answer confidences.

        ``transition`` maps each source node to its successor
        distribution (one element of the :class:`MarkovSequence`
        ``transitions`` argument); it is validated before anything
        mutates, and the append is atomic: a rejected timestep (or a
        failure while pushing the DP layer) leaves both the absorbed
        sequence and the frontier exactly as they were. The return value
        equals
        ``{a.output: a.confidence for a in evaluate(grown_sequence, query)}``
        exactly — ``Fraction`` inputs give bit-identical rationals.
        """
        previous = self._sequence
        # ``extended`` validates the timestep before anything mutates;
        # ``_advance`` only installs the new frontier as its final step,
        # so restoring the sequence on *any* failure restores the whole
        # (sequence, frontier) pair.
        self._sequence = previous.extended(transition)
        try:
            self._advance(self._sequence.length - 1)
        except BaseException:
            self._sequence = previous
            raise
        return self.confidences()

    def confidences(self) -> dict:
        """``{answer: conf(answer)}`` for the stream so far.

        Indexed s-projector answers are decoded to ``(output, index)``
        pairs, mirroring :func:`repro.core.evaluate`.
        """
        conf = self._raw_confidences()
        if self.plan.kind is PlanKind.INDEXED_SPROJECTOR:
            return {decode_indexed_output(output): value for output, value in conf.items()}
        return conf

    def _raw_confidences(self) -> dict:
        accepting = self.plan.execution.nfa.accepting
        conf: dict = {}
        if self._deterministic:
            for (_symbol, state, output), mass in self._frontier.items():
                if state in accepting:
                    conf[output] = conf.get(output, 0) + mass
        else:
            for (_symbol, summary), mass in self._frontier.items():
                outputs = {output for state, output in summary if state in accepting}
                for output in outputs:
                    conf[output] = conf.get(output, 0) + mass
        return conf

    def answers(self, with_confidence: bool = True) -> Iterator[Answer]:
        """Stream :class:`Answer` records for the current stream.

        The order matches unranked enumeration (lexicographic in the
        canonical output-alphabet order), so the executor can substitute
        this for a from-scratch run.
        """
        raw = self._raw_confidences()
        alphabet = sorted(self.plan.compiled.output_alphabet, key=repr)
        rank = {symbol: i for i, symbol in enumerate(alphabet)}
        indexed = self.plan.kind is PlanKind.INDEXED_SPROJECTOR
        for output in sorted(raw, key=lambda o: [rank[s] for s in o]):
            payload = decode_indexed_output(output) if indexed else output
            confidence = raw[output] if with_confidence else None
            yield Answer(payload, confidence, None, Order.UNRANKED)

    # ------------------------------------------------------------------
    # Checkpoints (sliding windows)
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the stream + frontier; returns the checkpoint depth."""
        self._checkpoints.append((self._sequence, dict(self._frontier)))
        return len(self._checkpoints)

    def rollback(self) -> None:
        """Restore the most recent checkpoint (and consume it)."""
        if not self._checkpoints:
            raise ReproError("no checkpoint to roll back to")
        self._sequence, self._frontier = self._checkpoints.pop()

    def discard_checkpoint(self) -> None:
        """Drop the most recent checkpoint without restoring it.

        The commit-side twin of :meth:`rollback`: transactional callers
        (``MarkovStreamDatabase.append``) checkpoint every attached
        evaluator, advance them all, and then either roll back on the
        first failure or discard the snapshots on success.
        """
        if not self._checkpoints:
            raise ReproError("no checkpoint to discard")
        self._checkpoints.pop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def sequence(self) -> MarkovSequence:
        """The stream as absorbed so far."""
        return self._sequence

    @property
    def length(self) -> int:
        return self._sequence.length

    @property
    def frontier_size(self) -> int:
        """Live DP cells — the per-append cost driver."""
        return len(self._frontier)

    @property
    def frontier(self) -> dict:
        """A copy of the live frontier (what :mod:`repro.store` snapshots)."""
        return dict(self._frontier)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingEvaluator(n={self._sequence.length}, "
            f"frontier={len(self._frontier)}, kind={self.plan.kind.value})"
        )
