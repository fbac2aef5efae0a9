"""The engine registry: every way this repo can compute a confidence.

Each :class:`Engine` names one implementation, states which Table-2
classes it applies to (the static matrix column) plus an optional
per-instance predicate (e.g. the vectorized path additionally needs
k-uniform emission), and knows how to compute ``conf(answer)`` on a prepared
instance. The differential runner executes every applicable engine and
diffs the results against the exact-``Fraction`` referee.

The eight engine families of the harness matrix:

==================  =====================================================
engine              implementation
==================  =====================================================
brute-force         possible-world enumeration (the semantic definition)
log-space           the Theorem-4.6 DP in the ``LOG`` semiring
fraction            class-specialized DP over exact ``Fraction`` streams
specialized         class-specialized DP as Table 2 dispatches it
runtime             :func:`repro.runtime.executor.plan_confidence`
pool                :meth:`repro.parallel.WorkerPool.batch_confidence`
vectorized          batched ``(B,S)@(B,S,S)`` numpy DP
approx              FPRAS (ε, δ) estimator (:mod:`repro.approx.fpras`)
==================  =====================================================

The approx engine is *approximate*: instead of an exact match it is
checked by certified-interval membership — the referee's exact value
must lie in the returned ``[low, high]`` interval. Its per-probe seeds
are derived deterministically (sha256 over instance coordinates), and
the default ``VerifyContext`` tolerances make a legitimate interval miss
astronomically unlikely (δ = 1e-9 per probe), so a Diff from this engine
means a real bug, not sampling noise.

For the *general* class, "specialized" and "fraction" run the
possible-world oracle — which is exactly what Table 2 dispatches there
(FP^#P-complete, Theorem 4.9).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from collections.abc import Callable
from fractions import Fraction

from repro.approx.fpras import ApproxConfidence, approximate_confidence
from repro.markov.sequence import MarkovSequence, Number
from repro.confidence.brute_force import brute_force_confidence
from repro.confidence.deterministic import confidence_deterministic
from repro.confidence.indexed import confidence_indexed
from repro.confidence.sprojector import confidence_sprojector
from repro.confidence.uniform_subset import confidence_uniform
from repro.oracle.generators import CLASS_LABELS, Instance
from repro.parallel.pool import WorkerPool
from repro.parallel.vectorized import confidence_dense_batch
from repro.runtime.cache import PlanCache, plan_for
from repro.runtime.executor import plan_confidence
from repro.runtime.plan import QueryPlan
from repro.semiring import LOG
from repro.transducers.transducer import Transducer

#: Labels whose queries are plain transducers (vs s-projectors).
_TRANSDUCER_LABELS = frozenset({"general", "uniform", "deterministic"})


class Prepared:
    """An instance plus the derived objects engines share.

    Builds the runtime plan once and caches the float / exact-``Fraction``
    twins of the sequence, so engines probing several answers do
    not re-derive them per call.
    """

    def __init__(self, instance: Instance, cache: PlanCache | None = None) -> None:
        self.instance = instance
        self.plan: QueryPlan = plan_for(instance.query, cache)
        self._float: MarkovSequence | None = None
        self._exact: MarkovSequence | None = None

    @property
    def sequence(self) -> MarkovSequence:
        return self.instance.sequence

    @property
    def sequence_float(self) -> MarkovSequence:
        if self._float is None:
            self._float = self.instance.sequence.as_float()
        return self._float

    @property
    def sequence_exact(self) -> MarkovSequence:
        if self._exact is None:
            self._exact = self.instance.sequence.as_fraction()
        return self._exact

    def is_exact(self) -> bool:
        """True when the instance's own probabilities are exact rationals."""
        return all(
            isinstance(prob, (int, Fraction))
            for _symbol, prob in self.sequence.initial_support()
        )


@dataclass
class VerifyContext:
    """Per-run resources shared across engine invocations.

    ``workers`` sizes the pool engine's :class:`WorkerPool` (1 keeps it
    serial in-process — the same chunk-execution code path, no fan-out);
    the plan cache is shared so the runtime engine exercises cache hits
    the way production callers do.

    ``epsilon``/``delta``/``approx_max_samples`` parameterize the approx
    engine. The defaults trade precision for per-probe certainty: at
    ε = 0.25 the DKLR success target is small (≈ 1.2k), while δ = 1e-9
    makes an honest interval miss essentially impossible — so the fuzz
    gate stays flake-free without retry logic.
    """

    workers: int = 1
    plan_cache: PlanCache = field(default_factory=PlanCache)
    epsilon: float = 0.25
    delta: float = 1e-9
    approx_max_samples: int = 25_000
    _pool: WorkerPool | None = None

    def pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(self.workers, cache=self.plan_cache)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "VerifyContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class Engine:
    """One registered way of computing ``conf(answer)``.

    Attributes
    ----------
    name:
        Matrix column key (stable; used in reports and coverage gates).
    classes:
        The Table-2 labels this engine can ever serve (the static matrix
        column: a cell outside ``classes`` reports ``n/a``).
    compute:
        ``(prepared, answer, context) -> value``.
    applies:
        Extra per-instance requirement beyond the class label (e.g. the
        vectorized path needs k-uniform emission). Cells whose label is in
        ``classes`` but whose generated variants never satisfy
        ``applies`` would trip the coverage gate — the generators are
        built to satisfy every predicate at least once per round.
    exact:
        Whether the engine preserves exact rational arithmetic; exact
        engines on exact instances are compared to the referee with
        ``==`` instead of a float tolerance.
    approximate:
        Whether the engine returns an :class:`ApproxConfidence` carrying
        a certified interval; such results are checked by interval
        membership instead of closeness.
    rel_tol / abs_tol:
        Float comparison tolerances against the referee.
    """

    name: str
    classes: frozenset
    compute: Callable[[Prepared, object, VerifyContext], Number]
    applies: Callable[[Prepared], bool] = lambda prepared: True
    exact: bool = False
    approximate: bool = False
    rel_tol: float = 1e-9
    abs_tol: float = 1e-9

    def applicable(self, prepared: Prepared) -> bool:
        return prepared.instance.label in self.classes and self.applies(prepared)

    def matches(self, got: Number, want: Number, instance_exact: bool) -> bool:
        """Semiring/representation-aware comparison against the referee."""
        if self.approximate and isinstance(got, ApproxConfidence):
            return got.contains(want)
        if self.exact and instance_exact:
            return got == want
        return math.isclose(
            float(got), float(want), rel_tol=self.rel_tol, abs_tol=self.abs_tol
        )


def _specialized(sequence: MarkovSequence, prepared: Prepared, answer) -> Number:
    """The Table-2 class dispatch, run directly (not through the runtime)."""
    label = prepared.instance.label
    query = prepared.instance.query
    if label == "deterministic":
        return confidence_deterministic(sequence, query, answer)
    if label == "uniform":
        return confidence_uniform(sequence, query, answer)
    if label == "sprojector":
        return confidence_sprojector(sequence, query, answer)
    if label == "indexed":
        output, index = answer
        return confidence_indexed(sequence, query, output, index)
    # General class: Table 2 dispatches the possible-world oracle.
    return brute_force_confidence(sequence, query, answer)


def _is_dense_eligible(prepared: Prepared) -> bool:
    query = prepared.instance.query
    return (
        isinstance(query, Transducer)
        and query.is_deterministic()
        and query.uniformity() is not None
    )


def _brute_force(prepared: Prepared, answer, context: VerifyContext) -> Number:
    return brute_force_confidence(prepared.sequence, prepared.instance.query, answer)


def _log_semiring(prepared: Prepared, answer, context: VerifyContext) -> float:
    return math.exp(
        confidence_deterministic(
            prepared.sequence, prepared.instance.query, answer, semiring=LOG
        )
    )


def _fraction(prepared: Prepared, answer, context: VerifyContext) -> Number:
    return _specialized(prepared.sequence_exact, prepared, answer)


def _specialized_engine(prepared: Prepared, answer, context: VerifyContext) -> Number:
    return _specialized(prepared.sequence, prepared, answer)


def _runtime(prepared: Prepared, answer, context: VerifyContext) -> Number:
    return plan_confidence(
        prepared.plan, prepared.sequence, answer, allow_exponential=True
    )


def _pool(prepared: Prepared, answer, context: VerifyContext) -> Number:
    values = context.pool().batch_confidence(
        prepared.instance.query,
        {"stream": prepared.sequence},
        answer,
        allow_exponential=True,
        vectorized=False,
    )
    return values["stream"]


def _approx_seed(prepared: Prepared, answer, context: VerifyContext) -> int:
    """A deterministic per-probe seed from the instance coordinates.

    sha256 (not ``hash``, which ``PYTHONHASHSEED`` perturbs) so the same
    harness seed replays the same sample paths everywhere — a fuzz
    failure shrinks and reproduces exactly.
    """
    token = "|".join(
        (
            "approx",
            prepared.instance.label,
            repr(prepared.instance.seed),
            repr(prepared.instance.trial),
            repr(answer),
            repr(context.epsilon),
            repr(context.delta),
        )
    )
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big")


def _approx(prepared: Prepared, answer, context: VerifyContext) -> ApproxConfidence:
    return approximate_confidence(
        prepared.sequence_exact,
        prepared.instance.query,
        answer,
        epsilon=context.epsilon,
        delta=context.delta,
        seed=_approx_seed(prepared, answer, context),
        max_samples=context.approx_max_samples,
    )


def _vectorized(prepared: Prepared, answer, context: VerifyContext) -> float:
    # A two-copy batch exercises the actual batching (stacked tensors,
    # shared step structure), not just the B=1 degenerate case.
    values = confidence_dense_batch(
        [prepared.sequence_float, prepared.sequence_float],
        prepared.instance.query,
        answer,
    )
    if values[0] != values[1]:  # pragma: no cover - would itself be a bug
        raise AssertionError("vectorized batch disagrees across identical streams")
    return values[0]


_ALL = frozenset(CLASS_LABELS)
_DENSE_CLASSES = frozenset({"deterministic"})

#: The registry, in report-column order.
ENGINES: tuple[Engine, ...] = (
    Engine("brute-force", _ALL, _brute_force, exact=True),
    Engine(
        "log-space",
        _DENSE_CLASSES,
        _log_semiring,
        applies=lambda prepared: isinstance(prepared.instance.query, Transducer)
        and prepared.instance.query.is_deterministic(),
        rel_tol=1e-6,
    ),
    Engine("fraction", _ALL, _fraction, exact=True),
    Engine("specialized", _ALL, _specialized_engine, exact=True),
    Engine("runtime", _ALL, _runtime, exact=True),
    Engine("pool", _ALL, _pool, exact=True),
    Engine("vectorized", _DENSE_CLASSES, _vectorized, applies=_is_dense_eligible),
    # Applicable exactly where brute force is the only exact option:
    # general-class transducers (Table 2's FP^#P-complete cell).
    Engine(
        "approx",
        frozenset({"general"}),
        _approx,
        applies=lambda prepared: isinstance(prepared.instance.query, Transducer),
        approximate=True,
    ),
)


def engine_matrix(engines: tuple[Engine, ...] = ENGINES) -> dict[tuple[str, str], bool]:
    """The static class × engine applicability matrix.

    Maps every ``(class label, engine name)`` cell to whether the engine
    can ever serve that class; the coverage gate requires each ``True``
    cell to have been exercised at least once.
    """
    return {
        (label, engine.name): label in engine.classes
        for label in CLASS_LABELS
        for engine in engines
    }
