"""Golden conformance: the hospital example through every oracle engine.

``tests/test_running_example.py`` pins the paper's stated numbers against
the reference implementations; this module pushes the same instance —
Figure 1's Markov sequence and Figure 2's transducer — through the
*conformance harness*, so every registered engine reproduces Table 1 and
``conf(12) = 0.4038`` digit-for-digit in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.confidence.brute_force import brute_force_answers
from repro.examples_data.hospital import (
    CONF_12,
    TABLE_1_ROWS,
    hospital_sequence,
    room_change_transducer,
)
from repro.oracle.differential import check_instance
from repro.oracle.generators import Instance, _classify
from repro.oracle.registry import ENGINES, Prepared, VerifyContext
from repro.oracle.shrinker import instance_from_dict, instance_to_dict

EXACT_ENGINES = tuple(engine for engine in ENGINES if engine.exact)


def hospital_instance() -> Instance:
    return Instance(
        label="deterministic",
        sequence=hospital_sequence(),
        query=room_change_transducer(),
        note="hospital",
    )


def test_hospital_is_a_deterministic_class_instance() -> None:
    instance = hospital_instance()
    assert _classify(instance.query) == "deterministic"
    assert Prepared(instance).is_exact()


def test_every_engine_agrees_on_the_hospital_example() -> None:
    result = check_instance(hospital_instance())
    assert result.ok, "\n".join(diff.describe() for diff in result.diffs)
    # The non-uniform Figure 2 transducer keeps the vectorized path out.
    names = {name for _label, name in result.coverage}
    assert "brute-force" in names and "runtime" in names and "pool" in names
    assert "log-space" in names
    assert "vectorized" not in names


@pytest.mark.parametrize("engine", EXACT_ENGINES, ids=lambda engine: engine.name)
def test_conf_12_is_exact_through_every_exact_engine(engine) -> None:
    prepared = Prepared(hospital_instance())
    with VerifyContext() as context:
        value = engine.compute(prepared, ("1", "2"), context)
    assert value == CONF_12
    assert value == Fraction("0.4038")


def test_referee_reproduces_table_1() -> None:
    instance = hospital_instance()
    reference = brute_force_answers(instance.sequence, instance.query)
    # conf(12) = Pr(s) + Pr(t) + Pr(u), as Example 3.4 sums Table 1.
    stated = sum(p for _name, _world, p, out in TABLE_1_ROWS if out == "12")
    assert reference[("1", "2")] == stated == CONF_12
    # World v (probability 0.0315) transduces into 21λ, so that answer's
    # confidence is at least Pr(v).
    assert reference[("2", "1", "λ")] >= Fraction("0.0315")


def test_hospital_case_survives_the_corpus_roundtrip() -> None:
    document = instance_to_dict(hospital_instance())
    restored = instance_from_dict(document)
    assert restored.sequence.prob_of(TABLE_1_ROWS[0][1]) == Fraction("0.3969")
    assert check_instance(restored).ok
