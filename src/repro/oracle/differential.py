"""The differential runner: all engines, one instance, zero diffs expected.

For one :class:`~repro.oracle.generators.Instance` the runner

1. computes the **referee**: exact-``Fraction`` possible-world
   enumeration (the semantic definition of confidence, Section 3.2's
   rational-arithmetic convention — no rounding to hide behind);
2. checks the **answer set**: the runtime's unranked enumeration must
   produce exactly the referee's support;
3. checks **ranked orders**: the ``E_max`` stream must be non-increasing
   in score, and (for indexed s-projectors) the exact confidence-ranked
   stream must be non-increasing in confidence;
4. probes a handful of answers — the highest-confidence ones plus one
   guaranteed non-answer — through **every applicable engine**, diffing
   each value against the referee with the engine's representation-aware
   tolerance (exact engines on exact instances must match ``==``).

Every executed ``(class, engine)`` pair is recorded in the result's
coverage set; the harness aggregates those into the matrix the coverage
gate checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.confidence.brute_force import brute_force_answers
from repro.core.results import Order
from repro.oracle.generators import Instance
from repro.oracle.registry import ENGINES, Engine, Prepared, VerifyContext
from repro.runtime.executor import run_evaluate
from repro.transducers.sprojector import IndexedSProjector, SProjector


@dataclass(frozen=True)
class Diff:
    """One disagreement between an engine and the referee."""

    instance: Instance
    engine: str
    answer: object
    got: object
    want: object

    def describe(self) -> str:
        return (
            f"[{self.instance.describe()}] engine {self.engine!r} on answer "
            f"{self.answer!r}: got {self.got!r}, referee says {self.want!r}"
        )


@dataclass
class InstanceResult:
    """What the differential runner learned about one instance."""

    instance: Instance
    diffs: list[Diff] = field(default_factory=list)
    coverage: set = field(default_factory=set)
    probes: int = 0
    engines_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.diffs


def _impossible_answer(instance: Instance, reference: dict):
    """An answer with confidence exactly zero, probed as a negative test.

    Built from *in-alphabet* symbols but longer than any world could
    yield — s-projector components must be able to consume the probe's
    symbols, so an out-of-alphabet sentinel would crash their DFAs
    instead of scoring zero. A substring answer longer than the sequence
    is impossible; a transducer output longer than the longest emission
    times ``n`` likewise.
    """
    length = instance.sequence.length
    if isinstance(instance.query, SProjector):
        symbol = instance.sequence.symbols[0]
        output = (symbol,) * (length + 1)
        if isinstance(instance.query, IndexedSProjector):
            return (output, 1)
        return output
    alphabet = instance.query.output_alphabet
    if not alphabet:
        # Emission-free transducer: () is the only possible answer, and
        # the engines compare emissions by tuple equality, so a foreign
        # symbol is safe here.
        return ("#none",)
    longest = max(
        (
            len(instance.query.emission(source, symbol, target))
            for source, symbol, target in instance.query.nfa.transitions()
        ),
        default=0,
    )
    return (alphabet[0],) * (longest * length + 1)


def pick_probes(instance: Instance, reference: dict, limit: int = 3) -> list:
    """The answers the engines are probed on: top ``limit`` plus a zero."""
    ranked = sorted(reference.items(), key=lambda item: (-item[1], repr(item[0])))
    probes = [answer for answer, _conf in ranked[:limit]]
    probes.append(_impossible_answer(instance, reference))
    return probes


def _check_answer_set(prepared: Prepared, reference: dict, result: InstanceResult) -> None:
    enumerated = {
        answer.output
        for answer in run_evaluate(
            prepared.plan,
            prepared.sequence,
            order=Order.UNRANKED,
            with_confidence=False,
        )
    }
    expected = set(reference)
    if enumerated != expected:
        result.diffs.append(
            Diff(
                instance=prepared.instance,
                engine="answer-set",
                answer=None,
                got=sorted(enumerated - expected, key=repr),
                want=sorted(expected - enumerated, key=repr),
            )
        )


def _check_orders(prepared: Prepared, result: InstanceResult) -> None:
    ranked = list(
        run_evaluate(
            prepared.plan,
            prepared.sequence,
            order=Order.EMAX,
            with_confidence=False,
            allow_exponential=True,
        )
    )
    scores = [answer.score for answer in ranked]
    if any(scores[i] < scores[i + 1] - 1e-12 for i in range(len(scores) - 1)):
        result.diffs.append(
            Diff(prepared.instance, "emax-order", None, scores, "non-increasing")
        )
    if prepared.instance.label == "indexed":
        exact = list(
            run_evaluate(
                prepared.plan, prepared.sequence, order=Order.CONFIDENCE
            )
        )
        confidences = [answer.confidence for answer in exact]
        if any(
            confidences[i] < confidences[i + 1] for i in range(len(confidences) - 1)
        ):
            result.diffs.append(
                Diff(
                    prepared.instance,
                    "confidence-order",
                    None,
                    confidences,
                    "non-increasing",
                )
            )


def check_instance(
    instance: Instance,
    context: VerifyContext | None = None,
    engines: tuple[Engine, ...] = ENGINES,
    probe_limit: int = 3,
) -> InstanceResult:
    """Run the full differential check on one instance."""
    context = context if context is not None else VerifyContext()
    result = InstanceResult(instance=instance)
    prepared = Prepared(instance, cache=context.plan_cache)
    instance_exact = prepared.is_exact()
    reference = brute_force_answers(prepared.sequence_exact, instance.query)

    _check_answer_set(prepared, reference, result)
    _check_orders(prepared, result)

    probes = pick_probes(instance, reference, probe_limit)
    for engine in engines:
        if not engine.applicable(prepared):
            continue
        result.coverage.add((instance.label, engine.name))
        result.engines_run += 1
        for answer in probes:
            want = reference.get(answer, 0)
            got = engine.compute(prepared, answer, context)
            result.probes += 1
            if not engine.matches(got, want, instance_exact):
                result.diffs.append(
                    Diff(
                        instance=instance,
                        engine=engine.name,
                        answer=answer,
                        got=got,
                        want=want,
                    )
                )
    return result
