"""The metamorphic layer: semantics-preserving transforms stay invariant."""

from __future__ import annotations

import random

import pytest

from repro.oracle.generators import CLASS_LABELS, generate_instance
from repro.oracle.metamorphic import (
    TRANSFORMS,
    Transform,
    check_execution_equivalence,
    check_semiring_swap,
    check_transform,
)

TRANSFORMS_BY_NAME = {transform.name: transform for transform in TRANSFORMS}


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda t: t.name)
@pytest.mark.parametrize("label", CLASS_LABELS)
def test_transforms_preserve_the_answer_map(transform, label) -> None:
    for trial in (0, 1):
        instance = generate_instance(label, seed=31, trial=trial)
        diffs = check_transform(instance, transform, random.Random(0))
        assert not diffs, "\n".join(diff.describe() for diff in diffs)


def test_korder_roundtrip_requires_a_deterministic_long_instance() -> None:
    korder = TRANSFORMS_BY_NAME["korder-roundtrip"]
    assert not korder.applies(generate_instance("sprojector", seed=1))
    assert not korder.applies(generate_instance("general", seed=1))
    # Some deterministic seed yields length >= 3 and thus applies.
    applicable = [
        korder.applies(generate_instance("deterministic", seed=s)) for s in range(8)
    ]
    assert any(applicable)


def test_pad_prefix_shifts_indexed_answers() -> None:
    instance = generate_instance("indexed", seed=13)
    pad = TRANSFORMS_BY_NAME["pad-prefix"]
    transformed, mapper = pad.apply(instance, random.Random(0))
    assert transformed.sequence.length == instance.sequence.length + 1
    assert mapper((("a",), 2)) == (("a",), 3)


def test_a_broken_transform_is_caught() -> None:
    # Sanity check the checker itself: a rewrite that truncates the
    # sequence changes the answer distribution and must produce diffs.
    def truncate(instance, rng):
        return instance.with_sequence(instance.sequence.prefix(1)), lambda a: a

    broken = Transform("truncate", truncate)
    instance = generate_instance("deterministic", seed=17, trial=1)
    assert instance.sequence.length > 1
    diffs = check_transform(instance, broken, random.Random(0))
    assert diffs
    assert all(diff.engine == "metamorphic:truncate" for diff in diffs)


@pytest.mark.parametrize("trial", [0, 1])
def test_semiring_swap_on_deterministic_instances(trial) -> None:
    instance = generate_instance("deterministic", seed=37, trial=trial)
    assert check_semiring_swap(instance) == []


def test_semiring_swap_skips_non_deterministic_queries() -> None:
    assert check_semiring_swap(generate_instance("general", seed=5)) == []
    # The s-projector DP takes semiring= too: this one is checked, and agrees.
    assert check_semiring_swap(generate_instance("sprojector", seed=5)) == []


@pytest.mark.parametrize("label", ["uniform", "sprojector", "indexed"])
@pytest.mark.parametrize("seed", range(4))
def test_semiring_swap_on_every_semiring_engine(label, seed) -> None:
    instance = generate_instance(label, seed=seed, trial=seed)
    diffs = check_semiring_swap(instance)
    assert not diffs, "\n".join(diff.describe() for diff in diffs)


@pytest.mark.parametrize("label", CLASS_LABELS)
def test_execution_routes_agree(label) -> None:
    instance = generate_instance(label, seed=41)
    diffs = check_execution_equivalence(instance)
    assert not diffs, "\n".join(diff.describe() for diff in diffs)
