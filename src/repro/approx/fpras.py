"""FPRAS (ε, δ) confidence estimation for the #P-hard Table-2 cells.

The general/nondeterministic cells of Table 2 are FP^#P-complete
(Theorem 4.9): ``conf(o)`` is the probability that the Markov sequence
emits a world with at least one accepting run of the answer product
(:mod:`repro.approx.product`). Brute force enumerates all |Σ|^n worlds;
this module gets a certified (1±ε) answer in polynomial samples via the
Karp–Luby union-of-runs scheme, the shape "#NFA admits an FPRAS"
(Arenas, Croquevielle, Jayaram, Riveros) proves approximable:

1. **Run weight** Σ = E[#accepting runs] — exact dynamic program over
   (sequence symbol, product state) pairs, a polynomial-size sum that
   *overcounts* the confidence by each world's ambiguity.
2. **Self-reducible sampling** — draw accepting (world, run) pairs
   exactly proportionally to their weight, walking the same DP forward
   with backward weights as conditionals.
3. **Union of runs** — score a sampled pair 1 only when its run is the
   world's *canonical* accepting run. Each accepted world then
   contributes exactly once, so E[score] = conf/Σ and the estimate
   Σ·mean(score) is unbiased. The success rate is ≥ 1/ambiguity, so
   polynomially-ambiguous products need polynomially many samples.
4. **DKLR stopping rule** (Dagum–Karp–Luby–Ross) — sample until the
   success count reaches Υ = 4(e−2)·ln(2/δ)·(1+ε)/ε², giving
   Pr[|μ̂ − μ| ≤ ε·μ] ≥ 1−δ without knowing μ in advance.

Two free exactness shortcuts: Σ = 0 means conf = 0 with certainty, and a
*deterministic* answer product has at most one run per world, so Σ
already equals the confidence — no sampling at all. The hardness gap
families are deterministic, so on them the "estimator" is exact; genuine
sampling kicks in on ambiguous products (e.g. ``hardness/counting.py``).
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

from repro import telemetry
from repro.approx.product import AnswerProduct, state_key
from repro.confidence.layered import backward, forward
from repro.errors import ReproError
from repro.markov.sequence import MarkovSequence
from repro.semiring import BOOLEAN, REAL
from repro.transducers.sprojector import IndexedSProjector, SProjector
from repro.transducers.transducer import Transducer

#: Worlds repeat heavily on small supports; cache their canonical runs,
#: bounded so adversarial long sequences cannot grow memory unboundedly.
_CANONICAL_CACHE_LIMIT = 65_536


def dklr_target(epsilon: float, delta: float) -> float:
    """Success count Υ₁ required by the DKLR stopping rule.

    Sampling until ``successes ≥ Υ₁`` and returning ``Υ₁ / samples``
    yields an (ε, δ) relative-error estimate of the success probability
    (Dagum–Karp–Luby–Ross 2000, "An optimal algorithm for Monte Carlo
    estimation", stopping rule AA).
    """
    _check_tolerances(epsilon, delta)
    return 1.0 + 4.0 * (math.e - 2.0) * math.log(2.0 / delta) * (1.0 + epsilon) / (
        epsilon * epsilon
    )


def _check_tolerances(epsilon: float, delta: float) -> None:
    # "not 0 < x < 1" also rejects NaN.
    if not 0.0 < epsilon < 1.0:
        raise ReproError("epsilon must satisfy 0 < epsilon < 1")
    if not 0.0 < delta < 1.0:
        raise ReproError("delta must satisfy 0 < delta < 1")
    if epsilon * epsilon == 0.0:
        raise ReproError("epsilon is too small: epsilon**2 underflows to zero")


@dataclass(frozen=True)
class ApproxConfidence:
    """An estimated confidence with its certified error interval.

    ``certified`` is True when the (ε, δ) guarantee holds: with
    probability at least 1−δ (over the sampler's randomness) the exact
    confidence lies in ``[low, high]``. The ``method`` field records how
    the estimate was produced: ``"exact-zero"`` and ``"unambiguous"``
    are exact zero-sample shortcuts, ``"dklr"`` is the certified
    sampling path, and ``"capped"`` hit ``max_samples`` first and only
    carries a weaker additive (Hoeffding) interval.
    """

    estimate: float
    low: float
    high: float
    epsilon: float
    delta: float
    samples: int
    successes: int
    run_weight: float
    certified: bool
    method: str

    @property
    def interval(self) -> tuple[float, float]:
        return (self.low, self.high)

    @property
    def relative_width(self) -> float:
        """Interval width relative to the estimate (0 for exact points)."""
        if self.estimate == 0.0:
            return 0.0 if self.high == self.low else math.inf
        return (self.high - self.low) / self.estimate

    def contains(self, value, slack: float = 1e-12) -> bool:
        """True when ``value`` lies inside the interval (tiny float slack)."""
        return self.low - slack <= float(value) <= self.high + slack

    def __float__(self) -> float:
        return self.estimate

    def describe(self) -> dict:
        """Wire/CLI rendering — plain JSON-safe types only."""
        return {
            "estimate": self.estimate,
            "low": self.low,
            "high": self.high,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "samples": self.samples,
            "successes": self.successes,
            "run_weight": self.run_weight,
            "certified": self.certified,
            "method": self.method,
        }


def _compile_query(query) -> Transducer:
    """Resolve a query object to the transducer the FPRAS runs on."""
    if isinstance(query, IndexedSProjector):
        raise ReproError(
            "indexed s-projectors have an exact polynomial algorithm "
            "(Theorem 5.8); use compute_confidence instead of the FPRAS"
        )
    if isinstance(query, SProjector):
        return query.to_transducer()
    if isinstance(query, Transducer):
        return query
    raise ReproError(f"cannot approximate confidence for query type {type(query).__name__}")


def _run_weight_layers(sequence: MarkovSequence, product: AnswerProduct):
    """Backward accepting-run weights over (symbol, product-state) cells.

    ``back[i][(s, u)]`` (``1 <= i <= n``) is the expected number of
    accepting completions given the world has symbol ``s`` at position
    ``i`` with the product in state ``u``; ``back[0]`` holds the virtual
    start cell ``(None, initial)``, whose weight is the total run weight
    Σ = E[#accepting runs]. Returns ``(back, sigma)``, exact (Fraction)
    when the sequence is exact.

    A BOOLEAN forward pass names the reachable cells of each layer, and
    the backward pass runs over them only; zero-weight cells are dropped
    so sampling never proposes a dead end. All dict orders are
    deterministic (insertion order from the sequence's own dicts and
    sorted product moves), keeping the sampler reproducible across
    processes.
    """
    start = (product.initial,)
    reachable = [{(None, *start): True}]
    reachable.extend(forward(sequence, start, product.advance, BOOLEAN))
    final = {cell: 1 for cell in reachable[-1] if product.is_accepting(cell[1])}
    back = backward(sequence, final, reachable[:-1], product.advance)
    return back, back[0].get((None, *start), 0)


def _weighted_pick(choices: list, total: float, rng: random.Random):
    """Draw one ``(item, weight)`` entry proportionally to weight."""
    point = rng.random() * total
    acc = 0.0
    for item, weight in choices:
        acc += weight
        if point < acc:
            return item
    return choices[-1][0]  # float round-off at the top end


class _PairSampler:
    """Draw accepting (world, run) pairs proportionally to run weight.

    The forward walk draws each next (symbol, state) cell with
    probability transition-prob × backward-weight, i.e. the exact
    conditional of the run-weight distribution — self-reducible
    sampling over the same DP that computed Σ. The walk starts in the
    virtual cell of ``back[0]``. Per-cell float choice lists are
    precomputed lazily and cached.
    """

    def __init__(self, sequence: MarkovSequence, product: AnswerProduct, back: list[dict]):
        initial, transitions = REAL.lift_sequence(sequence)
        self._rows = ({None: initial}, *transitions)
        self._product = product
        self._back = back
        self._choices: dict[tuple, tuple[list, float]] = {}

    def _step_choices(self, i: int, cell: tuple):
        key = (i, cell)
        cached = self._choices.get(key)
        if cached is None:
            layer = self._back[i + 1]
            choices = []
            for target, prob in self._rows[i].get(cell[0], {}).items():
                for successor in self._product.advance(cell, target):
                    entry = layer.get(successor)
                    if entry is not None:
                        choices.append((successor, float(prob * entry)))
            cached = (choices, sum(weight for _, weight in choices))
            self._choices[key] = cached
        return cached

    def sample(self, rng: random.Random) -> tuple[tuple, tuple]:
        """One (world, run) pair; the world always has ≥ 1 accepting run."""
        cell = (None, self._product.initial)
        world = []
        run = []
        for i in range(len(self._rows)):
            choices, total = self._step_choices(i, cell)
            cell = _weighted_pick(choices, total, rng)
            world.append(cell[0])
            run.append(cell[1])
        return tuple(world), tuple(run)


def approximate_confidence(
    sequence: MarkovSequence,
    query,
    answer: Sequence,
    *,
    epsilon: float = 0.1,
    delta: float = 0.05,
    seed: int | None = None,
    rng: random.Random | None = None,
    max_samples: int | None = None,
    exact_shortcut: bool = True,
) -> ApproxConfidence:
    """Estimate ``conf(answer)`` to relative error ε with probability 1−δ.

    Parameters
    ----------
    sequence, query, answer:
        As in :func:`repro.confidence.brute_force.brute_force_confidence`;
        ``query`` may be a transducer or a (non-indexed) s-projector.
    epsilon, delta:
        Relative error and failure probability, both in (0, 1).
    seed, rng:
        Randomness: pass an explicit ``rng`` or a ``seed`` for a private
        ``random.Random(seed)``. Mutually exclusive.
    max_samples:
        Hard cap on samples drawn. Defaults to 64× the DKLR success
        target; hitting the cap downgrades to an uncertified additive
        (Hoeffding) interval with ``method="capped"``.
    exact_shortcut:
        When True (default), a deterministic answer product returns the
        run weight itself as an exact zero-sample answer. Set False to
        force the sampling path (used by the conformance suite to
        exercise the estimator on instances that would short-circuit).
    """
    target = dklr_target(epsilon, delta)  # validates epsilon/delta
    if rng is not None and seed is not None:
        raise ReproError("pass either rng or seed, not both")
    if max_samples is None:
        max_samples = math.ceil(64.0 * target)
    if max_samples < 1:
        raise ReproError("max_samples must be at least 1")

    transducer = _compile_query(query)
    transducer.check_alphabet(sequence.symbols)
    product = AnswerProduct(transducer, answer)

    with telemetry.span("approx.estimate"):
        telemetry.count("approx.estimates")
        back, sigma = _run_weight_layers(sequence, product)
        sigma_float = float(sigma)

        if sigma == 0:
            # No accepting run anywhere: conf is exactly 0, and there is
            # nothing to sample from — this path holds even when
            # exact_shortcut is disabled.
            telemetry.count("approx.exact_zero")
            telemetry.observe("approx.interval_width", 0.0)
            return ApproxConfidence(
                estimate=0.0, low=0.0, high=0.0,
                epsilon=epsilon, delta=delta, samples=0, successes=0,
                run_weight=0.0, certified=True, method="exact-zero",
            )

        if exact_shortcut and product.is_deterministic(sequence.symbols):
            # ≤ 1 run per world ⇒ Σ counts each accepting world once ⇒
            # Σ is the confidence, exactly.
            telemetry.count("approx.unambiguous")
            telemetry.observe("approx.interval_width", 0.0)
            return ApproxConfidence(
                estimate=sigma_float, low=sigma_float, high=sigma_float,
                epsilon=epsilon, delta=delta, samples=0, successes=0,
                run_weight=sigma_float, certified=True, method="unambiguous",
            )

        if rng is None:
            rng = random.Random(seed)
        sampler = _PairSampler(sequence, product, back)
        canonical: dict[tuple, tuple] = {}
        successes = 0
        samples = 0
        while successes < target and samples < max_samples:
            world, run = sampler.sample(rng)
            samples += 1
            least = canonical.get(world)
            if least is None:
                least = product.canonical_run(world)
                if len(canonical) < _CANONICAL_CACHE_LIMIT:
                    canonical[world] = least
            if run == least:
                successes += 1
        telemetry.count("approx.samples", samples)

        upper = min(sigma_float, 1.0)
        if successes >= target:
            telemetry.count("approx.early_stop")
            mean = target / samples
            estimate = sigma_float * mean
            low = estimate / (1.0 + epsilon)
            high = min(estimate / (1.0 - epsilon), upper)
            estimate = min(max(estimate, low), high)
            certified = True
            method = "dklr"
        else:
            # Cap hit: fall back to the plain mean with an additive
            # Hoeffding bound — honest but uncertified relative error.
            mean = successes / samples
            half = math.sqrt(math.log(2.0 / delta) / (2.0 * samples))
            estimate = min(sigma_float * mean, upper)
            low = max(sigma_float * (mean - half), 0.0)
            high = min(sigma_float * (mean + half), upper)
            certified = False
            method = "capped"
        telemetry.observe("approx.interval_width", high - low)
        return ApproxConfidence(
            estimate=estimate, low=low, high=high,
            epsilon=epsilon, delta=delta, samples=samples, successes=successes,
            run_weight=sigma_float, certified=certified, method=method,
        )


__all__ = [
    "ApproxConfidence",
    "AnswerProduct",
    "approximate_confidence",
    "dklr_target",
    "state_key",
]
