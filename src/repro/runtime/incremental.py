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

Over exact inputs the frontier's values are integer numerators over one
running denominator, the *scale*. Each timestep's rows are lifted to
numerators over their common denominator
(:meth:`~repro.markov.sequence.MarkovSequence.scaled_rows`: an appended
timestep's lift is kept on the grown sequence and shared by every
evaluator that absorbs it), the layer
step runs on ``int``s, and the scale is multiplied by the step's
denominator, so no cell pays the ``gcd`` that every ``Fraction`` add
and multiply does. Reads divide once: :meth:`confidences` per answer
and :attr:`frontier` per cell, so callers see the same canonical
``Fraction``s as before. A float row drops the frontier back to
``Fraction`` values for good, and from then on the step runs on the
values as they are, exactly as it always did on float streams.

:meth:`checkpoint` / :meth:`rollback` snapshot and restore the frontier
with its scale, which is how sliding windows re-anchor without
replaying the stream.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Iterator, Mapping
from fractions import Fraction

from repro import telemetry
from repro.confidence.layered import Cell, step_scaled
from repro.errors import ReproError
from repro.markov.sequence import MarkovSequence, Number
from repro.core.results import Answer, Order
from repro.runtime.cache import PlanCache, plan_for
from repro.runtime.plan import PlanKind
from repro.semiring import ScaledRows, scale_layer, unscale_layer
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
        self._frontier, self._scale = self._initial_frontier(sequence)
        for i in range(1, sequence.length):
            self._advance(i)
        self._checkpoints: list[tuple[MarkovSequence, dict, int | None]] = []

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
        same (query, sequence) pair; exact values are lifted back to
        numerators over their common denominator. Plan compilation is
        deterministic per fingerprint, so the recompiled plan's state
        objects are value-equal to the ones inside the persisted keys. This is the
        restart path of :mod:`repro.store`: recovery costs one snapshot
        load plus the log suffix instead of ``sequence.length`` DP
        layers.
        """
        self = object.__new__(cls)
        self.plan = plan_for(query, cache)
        self.plan.compiled.check_alphabet(sequence.alphabet)
        self._deterministic = self.plan.deterministic
        self._sequence = sequence
        self._frontier, self._scale = scale_layer(frontier)
        self._checkpoints = []
        return self

    # ------------------------------------------------------------------
    # Frontier maintenance
    # ------------------------------------------------------------------

    def _initial_frontier(self, sequence: MarkovSequence) -> tuple[dict, int | None]:
        initial = self.plan.compiled.nfa.initial
        start = (initial, ()) if self._deterministic else (frozenset({(initial, ())}),)
        rows = {None: dict(sequence.initial_support())}
        nxt, scale, _cells = self._step(
            {(None, *start): 1}, 1, rows, sequence.scaled_rows(0)
        )
        return nxt, scale

    def _step(
        self,
        layer: Mapping,
        scale: int | None,
        rows: Mapping,
        lifted: ScaledRows | None,
    ) -> tuple[dict, int | None, int]:
        """One layer of the frontier DP, its scale, and the cell updates it cost.

        ``layer`` holds numerators over ``scale`` and ``lifted`` is
        :func:`~repro.semiring.scale_rows` of ``rows``
        (:func:`~repro.confidence.layered.step_scaled`).

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
        nxt, scale = step_scaled(layer, scale, rows, lifted, advance)
        return nxt, scale, cells

    def _advance(self, i: int) -> None:
        """Push the frontier across transition ``i`` (paper indexing) of
        the absorbed stream, on the stream's lift of its rows."""
        # The per-layer timer only runs when telemetry is enabled: one
        # recorder() call and a None check is the whole disabled cost.
        # The lift is fetched first, so the timer covers the DP layer only;
        # a frontier already on Fractions needs none.
        sequence = self._sequence
        lifted = sequence.scaled_rows(i) if self._scale is not None else None
        recorder = telemetry.recorder()
        start = time.perf_counter() if recorder is not None else 0.0
        nxt, scale, cells = self._step(
            self._frontier, self._scale, sequence.transition_rows(i), lifted
        )
        self._frontier, self._scale = nxt, scale
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
        self.advance_to(self._sequence.extended(transition))
        return self.confidences()

    def advance_to(self, grown: MarkovSequence) -> None:
        """Absorb the last timestep of an already-validated ``grown`` stream.

        ``grown`` must be the absorbed stream plus one timestep, built by
        :meth:`MarkovSequence.extended` (which validated it). This is the
        database's append path: it validates the timestep once and hands
        the same grown sequence to every attached evaluator, which then
        share its lift of the new timestep
        (:meth:`MarkovSequence.scaled_rows`). Atomic like :meth:`append`:
        on failure the evaluator is left exactly as it was.
        """
        previous = self._sequence
        if grown.length != previous.length + 1:
            raise ReproError(
                f"cannot advance a {previous.length}-step evaluator to a "
                f"{grown.length}-step stream"
            )
        # ``_advance`` only installs the new frontier and scale as its
        # final step, so restoring the sequence on *any* failure restores
        # the whole (sequence, frontier, scale) triple.
        self._sequence = grown
        try:
            self._advance(grown.length - 1)
        except BaseException:
            self._sequence = previous
            raise

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
        scale = self._scale
        if scale is None:
            return conf
        return {output: Fraction(total, scale) for output, total in conf.items()}

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
        """Snapshot the stream, frontier and scale; returns the checkpoint
        depth. A step builds a new frontier and never mutates the old
        one, so the snapshot holds it without a copy."""
        self._checkpoints.append((self._sequence, self._frontier, self._scale))
        return len(self._checkpoints)

    def rollback(self) -> None:
        """Restore the most recent checkpoint (and consume it)."""
        if not self._checkpoints:
            raise ReproError("no checkpoint to roll back to")
        self._sequence, self._frontier, self._scale = self._checkpoints.pop()

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
        """A copy of the live frontier (what :mod:`repro.store` snapshots),
        exact values as canonical ``Fraction``s."""
        return unscale_layer(self._frontier, self._scale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingEvaluator(n={self._sequence.length}, "
            f"frontier={len(self._frontier)}, kind={self.plan.kind.value})"
        )
