"""The differential runner (repro.oracle.differential)."""

from __future__ import annotations

import pytest

from repro.confidence.brute_force import brute_force_answers, brute_force_confidence
from repro.oracle.differential import check_instance, pick_probes
from repro.oracle.generators import CLASS_LABELS, generate_instance
from repro.oracle.registry import ENGINES, VerifyContext


@pytest.mark.parametrize("label", CLASS_LABELS)
@pytest.mark.parametrize("trial", [0, 1, 2])
def test_all_engines_agree_on_seeded_instances(label, trial) -> None:
    instance = generate_instance(label, seed=23, trial=trial)
    result = check_instance(instance)
    assert result.ok, "\n".join(diff.describe() for diff in result.diffs)
    assert result.probes > 0
    assert (label, "brute-force") in result.coverage
    assert (label, "runtime") in result.coverage


def test_coverage_only_records_applicable_engines() -> None:
    instance = generate_instance("sprojector", seed=1)
    result = check_instance(instance)
    names = {name for _label, name in result.coverage}
    assert "vectorized" not in names
    assert "log-space" not in names
    assert result.engines_run == len(names)


def test_probe_set_includes_an_impossible_answer() -> None:
    for label in CLASS_LABELS:
        instance = generate_instance(label, seed=2)
        reference = brute_force_answers(
            instance.sequence.as_fraction(), instance.query
        )
        probes = pick_probes(instance, reference, limit=3)
        zero = probes[-1]
        assert zero not in reference, label
        # The zero probe must actually be *evaluable* by the semantic
        # definition (in-alphabet for s-projectors), scoring exactly 0.
        assert brute_force_confidence(instance.sequence, instance.query, zero) == 0


def test_probes_are_ranked_by_confidence() -> None:
    instance = generate_instance("deterministic", seed=6)
    reference = brute_force_answers(instance.sequence.as_fraction(), instance.query)
    probes = pick_probes(instance, reference, limit=2)
    confidences = [reference[answer] for answer in probes[:-1]]
    assert confidences == sorted(confidences, reverse=True)
    assert len(probes) <= 3


def test_shared_context_is_left_open() -> None:
    instance = generate_instance("uniform", seed=3)
    with VerifyContext() as context:
        first = check_instance(instance, context)
        second = check_instance(instance, context, ENGINES, probe_limit=1)
        assert first.ok and second.ok
        assert second.probes <= first.probes
