"""Hidden Markov models and their translation into Markov sequences.

The paper's data arrive as Markov sequences, which "represent the output of
statistical models such as HMMs; in particular, the distribution encoded by
an HMM and a sequence of observations can be efficiently translated into a
Markov sequence" (Section 1, with details deferred to the extended
version). This module supplies that substrate end to end:

* a standard discrete HMM and sampling from it;
* :meth:`HMM.to_markov_sequence`, the translation: conditioned on an
  observation string ``o_1 ... o_n``, the hidden-state process is a
  time-inhomogeneous Markov chain whose step-``i`` row is

      mu_i(s, t)  ∝  T(s, t) * Em(t, o_{i+1}) * beta_{i+1}(t),

  normalized per source ``s``; the initial distribution is the smoothed
  time-1 posterior. The resulting :class:`MarkovSequence` assigns every
  hidden string exactly its posterior probability given the observations —
  verified against brute force in the test suite.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Mapping, Sequence

from repro.confidence.layered import node_advance, step_back
from repro.errors import InvalidDistributionError, InvalidMarkovSequenceError
from repro.markov.sequence import MarkovSequence

State = Hashable
Observation = Hashable

_TOLERANCE = 1e-9


def _validate_rows(
    rows: Mapping[State, Mapping[Hashable, float]], context: str
) -> None:
    for source, row in rows.items():
        total = sum(row.values())
        if any(p < 0 for p in row.values()) or abs(total - 1.0) > _TOLERANCE:
            raise InvalidDistributionError(
                f"{context} row for {source!r} sums to {total}, not 1"
            )


class HMM:
    """A discrete, time-homogeneous hidden Markov model.

    Parameters
    ----------
    initial:
        Distribution over hidden states at time 1.
    transition:
        Mapping ``state -> (state -> prob)``; rows sum to one.
    emission:
        Mapping ``state -> (observation -> prob)``; rows sum to one.
    """

    __slots__ = ("states", "observations", "initial", "transition", "emission")

    def __init__(
        self,
        initial: Mapping[State, float],
        transition: Mapping[State, Mapping[State, float]],
        emission: Mapping[State, Mapping[Observation, float]],
    ) -> None:
        self.states: tuple[State, ...] = tuple(dict.fromkeys(transition))
        observations: dict[Observation, None] = {}
        for row in emission.values():
            for obs in row:
                observations[obs] = None
        self.observations: tuple[Observation, ...] = tuple(observations)
        self.initial = {s: p for s, p in initial.items() if p != 0}
        self.transition = {s: dict(row) for s, row in transition.items()}
        self.emission = {s: dict(row) for s, row in emission.items()}

        total = sum(self.initial.values())
        if abs(total - 1.0) > _TOLERANCE:
            raise InvalidDistributionError(f"HMM initial sums to {total}, not 1")
        _validate_rows(self.transition, "HMM transition")
        _validate_rows(self.emission, "HMM emission")
        missing = set(self.states) - set(self.emission)
        if missing:
            raise InvalidDistributionError(f"states {missing!r} have no emission row")

    def _emit(self, state: State, obs: Observation) -> float:
        return self.emission.get(state, {}).get(obs, 0.0)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def sample(
        self, length: int, rng: random.Random
    ) -> tuple[tuple[State, ...], tuple[Observation, ...]]:
        """Sample a hidden path and its observation string."""

        def draw(dist: Mapping[Hashable, float]) -> Hashable:
            point = rng.random()
            acc = 0.0
            last = None
            for value, prob in dist.items():
                acc += prob
                last = value
                if point <= acc:
                    return value
            return last

        hidden = [draw(self.initial)]
        observed = [draw(self.emission[hidden[-1]])]
        for _ in range(length - 1):
            hidden.append(draw(self.transition[hidden[-1]]))
            observed.append(draw(self.emission[hidden[-1]]))
        return tuple(hidden), tuple(observed)

    # ------------------------------------------------------------------
    # Translation into a Markov sequence (Section 1 / extended version)
    # ------------------------------------------------------------------

    def to_markov_sequence(self, observations: Sequence[Observation]) -> MarkovSequence:
        """The posterior hidden-state chain given ``observations``.

        The returned :class:`MarkovSequence` ``mu`` of length
        ``len(observations)`` over the hidden-state alphabet satisfies, for
        every hidden string ``h``,

            mu.prob_of(h) == Pr(H = h | O = observations)

        (up to float rounding). Rows for hidden states that cannot explain
        the remaining observations carry an arbitrary valid distribution (a
        point mass); such states have posterior probability zero, so the
        choice does not affect the distribution. Smoothed marginals are
        ``mu.marginals()``, and the most likely hidden path (the Viterbi
        decode) is the E_max top answer of the identity transducer on
        ``mu``.
        """
        if not observations:
            raise InvalidMarkovSequenceError("need at least one observation")
        # The step-i rows T(s, t) * Em(t, o_{i+1}), and the backward
        # messages over them: betas[i][(s,)] is proportional (within
        # level i) to Pr(o_{i+2} .. o_n | S_{i+1} = s), zeros left out.
        # Each level is one step_back, scaled by its largest entry so
        # long inputs do not underflow.
        cells = [(state,) for state in self.states]
        rows = [
            {
                source: {
                    target: self.transition[source].get(target, 0.0) * self._emit(target, obs)
                    for target in self.states
                }
                for source in self.states
            }
            for obs in observations[1:]
        ]
        betas = [dict.fromkeys(cells, 1.0)]
        for step in reversed(rows):
            level = step_back(betas[-1], step, cells, node_advance)
            top = max(level.values(), default=0.0)
            betas.append({cell: value / top for cell, value in level.items()})
        betas.reverse()

        fallback = self.states[0]

        def normalized(row: dict[State, float]) -> dict[State, float]:
            total = sum(row.values())
            if total <= 0:
                return {fallback: 1.0}
            row = {s: p / total for s, p in row.items() if p > 0}
            drift = 1.0 - sum(row.values())
            top = max(row, key=lambda s: row[s])
            row[top] += drift
            return row

        def posterior(weights: dict[State, float], beta: dict[tuple, float]) -> dict[State, float]:
            return {t: w * beta.get((t,), 0.0) for t, w in weights.items()}

        first = {
            s: self.initial.get(s, 0.0) * self._emit(s, observations[0])
            for s in self.states
        }
        initial = posterior(first, betas[0])
        if sum(initial.values()) == 0:
            raise InvalidMarkovSequenceError("observations have zero likelihood")
        transitions = [
            {source: normalized(posterior(row, beta)) for source, row in step.items()}
            for step, beta in zip(rows, betas[1:])
        ]
        return MarkovSequence(self.states, normalized(initial), transitions)

