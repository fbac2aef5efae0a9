"""Shrinking failing instances and the ``oracle_case`` corpus format."""

from __future__ import annotations

import json

import pytest

from repro.confidence.brute_force import brute_force_confidence
from repro.errors import ReproError
from repro.oracle.differential import check_instance
from repro.oracle.generators import generate_instance
from repro.oracle.registry import ENGINES, Engine, VerifyContext
from repro.oracle.shrinker import (
    instance_from_dict,
    instance_to_dict,
    load_corpus,
    save_case,
    shrink,
    shrink_candidates,
)


def _off_by_one_engine() -> Engine:
    """A deliberately buggy engine: it drops the last Markov step."""

    def compute(prepared, answer, context):
        sequence = prepared.sequence
        if sequence.length > 1:
            sequence = sequence.prefix(sequence.length - 1)
        return brute_force_confidence(sequence, prepared.instance.query, answer)

    return Engine("scratch", frozenset({"deterministic"}), compute, exact=True)


def test_injected_off_by_one_is_caught_and_shrunk_to_minimal() -> None:
    scratch = _off_by_one_engine()
    engines = ENGINES + (scratch,)
    context = VerifyContext()

    def fails(candidate) -> bool:
        result = check_instance(candidate, context, engines)
        return any(diff.engine == "scratch" for diff in result.diffs)

    instance = None
    for seed in range(16):
        candidate = generate_instance("deterministic", seed, trial=1)
        if fails(candidate):
            instance = candidate
            break
    assert instance is not None, "no seeded instance tripped the injected bug"

    minimal = shrink(instance, fails)
    assert fails(minimal)
    # Local minimality: no single further simplification still fails.
    assert not any(fails(candidate) for candidate in shrink_candidates(minimal))
    assert minimal.sequence.support_size() <= instance.sequence.support_size()
    # The query is the spec under test and must be untouched.
    assert minimal.query is instance.query


def test_shrink_candidates_simplify_monotonically() -> None:
    instance = generate_instance("uniform", seed=8)
    support = instance.sequence.support_size()
    candidates = list(shrink_candidates(instance))
    assert candidates
    for candidate in candidates:
        assert candidate.query is instance.query
        assert candidate.sequence.length <= instance.sequence.length
        # Sparsifying an unreachable source's row leaves the support as
        # is; every other candidate strictly simplifies.
        assert candidate.sequence.support_size() <= support
    assert any(c.sequence.support_size() < support for c in candidates)


def test_shrink_without_failure_returns_the_instance() -> None:
    instance = generate_instance("general", seed=8)
    assert shrink(instance, lambda candidate: False) is instance


def test_shrink_treats_crashing_candidates_as_not_failing() -> None:
    instance = generate_instance("deterministic", seed=8)

    def fails(candidate):
        if candidate.sequence.length < instance.sequence.length:
            raise RuntimeError("boom")
        return True

    assert shrink(instance, fails).sequence.length == instance.sequence.length


@pytest.mark.parametrize("label", ["deterministic", "sprojector", "indexed"])
def test_oracle_case_roundtrip(label) -> None:
    instance = generate_instance(label, seed=19, trial=2)
    document = instance_to_dict(instance)
    assert document["type"] == "oracle_case"
    restored = instance_from_dict(document)
    assert restored.label == instance.label
    assert restored.seed == instance.seed
    assert instance_to_dict(restored) == document


def test_save_and_load_corpus(tmp_path) -> None:
    corpus_dir = tmp_path / "corpus"
    first = generate_instance("deterministic", seed=19)
    second = generate_instance("sprojector", seed=19)
    path_a = save_case(first, corpus_dir)
    path_b = save_case(second, corpus_dir)
    assert path_a.name.startswith("deterministic-")
    # Content-addressed: re-saving the same case does not duplicate.
    assert save_case(first, corpus_dir) == path_a
    cases = load_corpus(corpus_dir)
    assert [path for path, _ in cases] == sorted([path_a, path_b])
    labels = {instance.label for _path, instance in cases}
    assert labels == {"deterministic", "sprojector"}


def test_load_corpus_missing_directory() -> None:
    with pytest.raises(ReproError, match="does not exist"):
        load_corpus("/nonexistent/oracle-corpus")


def test_load_corpus_malformed_json(tmp_path) -> None:
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(ReproError, match="invalid JSON.*bad.json"):
        load_corpus(tmp_path)


def test_load_corpus_names_the_offending_file(tmp_path) -> None:
    (tmp_path / "wrong.json").write_text(json.dumps({"type": "not_a_case"}))
    with pytest.raises(ReproError, match="wrong.json.*not an oracle_case"):
        load_corpus(tmp_path)


def test_mislabeled_case_is_rejected() -> None:
    document = instance_to_dict(generate_instance("deterministic", seed=19))
    document["class"] = "general"
    with pytest.raises(ReproError, match="declares class 'general'"):
        instance_from_dict(document)
