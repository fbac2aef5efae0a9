"""The budgeted fuzz loop behind ``repro verify``.

One :func:`verify` run:

1. **replays the corpus** — every committed regression case under
   ``tests/corpus/`` goes through the differential runner first, so a
   previously-shrunk counterexample failing again is reported before any
   budget is spent on fresh instances;
2. **fuzzes in rounds** — each round draws one fresh seeded instance per
   requested class (round index = the generator's ``trial``, so round 0
   covers the k-uniform deterministic variant and round 1 the
   varied-emission one — together they light up every applicable matrix
   cell) and differential-checks it; when enabled, the metamorphic
   transforms and the semiring/execution path relations run too;
3. **shrinks failures** — a diffing generated instance is greedily
   minimized while it keeps diffing, and (optionally) persisted as an
   ``oracle_case`` file for triage and for the regression corpus;
4. **reports the matrix** — the class × engine coverage table, with a
   gate: a cell the registry declares applicable that no instance
   exercised fails the run even with zero diffs.

Everything is reproducible from the printed ``--seed``: instance
``(class, seed, trial)`` triples fully determine the fuzzed cases.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.errors import ReproError
from repro.oracle.differential import Diff, check_instance
from repro.oracle.generators import CLASS_LABELS, Instance, generate_instance
from repro.oracle.metamorphic import (
    TRANSFORMS,
    check_execution_equivalence,
    check_semiring_swap,
    check_shrink_swap,
    check_transform,
)
from repro.oracle.registry import ENGINES, Engine, VerifyContext, engine_matrix
from repro.oracle.shrinker import save_case, shrink

#: Rounds always run even when the budget is already exhausted — two
#: rounds are what guarantee every applicable matrix cell gets exercised.
MIN_ROUNDS = 2


@dataclass
class VerifyReport:
    """Everything one :func:`verify` run learned."""

    seed: int
    classes: tuple[str, ...]
    engines: tuple[Engine, ...]
    diffs: list[Diff] = field(default_factory=list)
    coverage: set = field(default_factory=set)
    instances: int = 0
    rounds: int = 0
    corpus_cases: int = 0
    probes: int = 0
    elapsed: float = 0.0
    shrunk: list[Instance] = field(default_factory=list)
    saved: list[Path] = field(default_factory=list)

    def untested_cells(self) -> list[tuple[str, str]]:
        """Applicable matrix cells no checked instance exercised."""
        matrix = engine_matrix(self.engines)
        return [
            cell
            for cell, applicable in matrix.items()
            if applicable and cell[0] in self.classes and cell not in self.coverage
        ]

    @property
    def ok(self) -> bool:
        return not self.diffs and not self.untested_cells()

    def matrix_report(self) -> str:
        """The class × engine coverage table, Table-2 shaped."""
        names = [engine.name for engine in self.engines]
        label_width = max(len("class"), *(len(label) for label in self.classes))
        widths = [max(len(name), 4) for name in names]
        lines = [
            "  ".join(
                ["class".ljust(label_width)]
                + [name.ljust(width) for name, width in zip(names, widths)]
            )
        ]
        matrix = engine_matrix(self.engines)
        for label in self.classes:
            cells = []
            for engine, width in zip(self.engines, widths):
                if not matrix[(label, engine.name)]:
                    mark = "-"
                elif (label, engine.name) in self.coverage:
                    mark = "ok"
                else:
                    mark = "MISS"
                cells.append(mark.ljust(width))
            lines.append("  ".join([label.ljust(label_width)] + cells))
        return "\n".join(lines)

    def summary(self) -> str:
        missing = self.untested_cells()
        status = "PASS" if self.ok else "FAIL"
        parts = [
            f"{status}: {self.instances} instances "
            f"({self.corpus_cases} corpus, {self.rounds} fuzz rounds), "
            f"{self.probes} probes, {len(self.diffs)} diffs, "
            f"{len(missing)} untested cells, seed {self.seed}, "
            f"{self.elapsed:.2f}s"
        ]
        if missing:
            parts.append(
                "untested: " + ", ".join(f"{c}×{e}" for c, e in missing)
            )
        return "\n".join(parts)


def _check_metamorphic(
    instance: Instance, context: VerifyContext, rng: random.Random
) -> list[Diff]:
    diffs: list[Diff] = []
    for transform in TRANSFORMS:
        diffs.extend(check_transform(instance, transform, rng))
    diffs.extend(check_semiring_swap(instance))
    diffs.extend(check_execution_equivalence(instance, context))
    diffs.extend(check_shrink_swap(instance))
    return diffs


def verify(
    seed: int = 0,
    budget: float | None = None,
    max_rounds: int | None = None,
    classes: tuple[str, ...] = CLASS_LABELS,
    corpus: str | Path | None = None,
    corpus_cases: list[Instance] | None = None,
    save_failures: str | Path | None = None,
    engines: tuple[Engine, ...] = ENGINES,
    metamorphic: bool = True,
    probe_limit: int = 3,
    epsilon: float | None = None,
    delta: float | None = None,
) -> VerifyReport:
    """Run the conformance harness; returns the (gate-carrying) report.

    ``budget`` bounds wall-clock seconds — checked between instances, and
    never before :data:`MIN_ROUNDS` rounds completed, so a tiny budget
    still certifies the full coverage matrix. ``corpus_cases`` injects
    pre-loaded instances (tests use it); ``corpus`` points at a directory
    of ``oracle_case`` files loaded via
    :func:`repro.oracle.shrinker.load_corpus`. ``epsilon``/``delta``
    override the approx engine's tolerances (defaults live on
    :class:`VerifyContext` and are tuned to keep interval checks
    flake-free).
    """
    classes = tuple(classes)
    unknown = [label for label in classes if label not in CLASS_LABELS]
    if unknown:
        raise ReproError(
            f"unknown query class(es) {', '.join(map(repr, unknown))} "
            f"(expected a subset of {', '.join(CLASS_LABELS)})"
        )
    if not classes:
        raise ReproError("verify needs at least one query class")
    if budget is not None and budget <= 0:
        raise ReproError("--budget must be positive")
    if max_rounds is not None and max_rounds < MIN_ROUNDS:
        raise ReproError(f"--max-rounds must be at least {MIN_ROUNDS}")

    report = VerifyReport(seed=seed, classes=classes, engines=tuple(engines))
    start = time.monotonic()
    rng = random.Random(seed)

    replay: list[Instance] = list(corpus_cases or [])
    if corpus is not None:
        from repro.oracle.shrinker import load_corpus

        replay.extend(instance for _path, instance in load_corpus(corpus))

    def fails(candidate: Instance) -> bool:
        return bool(check_instance(candidate, context, tuple(engines), probe_limit).diffs)

    context_kwargs: dict = {}
    if epsilon is not None:
        context_kwargs["epsilon"] = epsilon
    if delta is not None:
        context_kwargs["delta"] = delta
    context = VerifyContext(**context_kwargs)
    with telemetry.span("verify"):
        for instance in replay:
            with telemetry.span("corpus_case"):
                result = check_instance(instance, context, tuple(engines), probe_limit)
            report.instances += 1
            report.corpus_cases += 1
            report.probes += result.probes
            report.coverage |= result.coverage
            report.diffs.extend(result.diffs)
            telemetry.count("oracle.instances")
            telemetry.count("oracle.corpus_cases")
            telemetry.count("oracle.probes", result.probes)

        round_index = 0
        while True:
            if max_rounds is not None and round_index >= max_rounds:
                break
            if (
                round_index >= MIN_ROUNDS
                and budget is not None
                and time.monotonic() - start >= budget
            ):
                break
            for label in classes:
                instance = generate_instance(label, seed, trial=round_index)
                with telemetry.span("instance"):
                    result = check_instance(
                        instance, context, tuple(engines), probe_limit
                    )
                report.instances += 1
                report.probes += result.probes
                report.coverage |= result.coverage
                telemetry.count("oracle.instances")
                telemetry.count("oracle.probes", result.probes)
                diffs = list(result.diffs)
                if metamorphic:
                    with telemetry.span("metamorphic"):
                        diffs.extend(_check_metamorphic(instance, context, rng))
                if result.diffs:
                    # Only differential diffs shrink: the predicate re-runs
                    # the differential check, not the metamorphic layer.
                    with telemetry.span("shrink"):
                        minimal = shrink(instance, fails)
                    report.shrunk.append(minimal)
                    if save_failures is not None:
                        report.saved.append(save_case(minimal, save_failures))
                if diffs:
                    telemetry.count("oracle.diffs", len(diffs))
                report.diffs.extend(diffs)
            round_index += 1
            report.rounds = round_index
            telemetry.count("oracle.rounds")
            if budget is None and max_rounds is None and round_index >= MIN_ROUNDS:
                break

    report.elapsed = time.monotonic() - start
    if report.elapsed > 0:
        telemetry.gauge("oracle.cases_per_second", report.instances / report.elapsed)
    return report
