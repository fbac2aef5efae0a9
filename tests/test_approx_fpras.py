"""The FPRAS estimator (repro.approx.fpras): validation, the four
method paths, determinism, and telemetry."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from repro import telemetry
from repro.approx.fpras import (
    ApproxConfidence,
    _PairSampler,
    _run_weight_layers,
    approximate_confidence,
    dklr_target,
)
from repro.approx.product import AnswerProduct
from repro.confidence.brute_force import brute_force_confidence
from repro.errors import AlphabetMismatchError, ReproError
from repro.hardness.counting import two_dnf_counting_instance
from repro.hardness.gap_instances import mealy_gap_instance, projector_gap_instance
from repro.hardness.independent_set import occurrence_gap_instance
from repro.markov.builders import uniform_iid
from repro.transducers.sprojector import IndexedSProjector


@pytest.fixture(autouse=True)
def telemetry_disabled():
    telemetry.disable()
    yield
    telemetry.disable()


def _ambiguous_case():
    """The 2-clause 2-DNF reduction: ambiguity 2, exact confidence known."""
    instance = two_dnf_counting_instance([(1, 1), (2, 2), (1, 2)], 2, 2)
    exact = brute_force_confidence(instance.sequence, instance.transducer, instance.answer)
    return instance, exact


# ---------------------------------------------------------------- dklr_target


def test_dklr_target_matches_the_stopping_rule_formula() -> None:
    expected = 1.0 + 4.0 * (math.e - 2.0) * math.log(2.0 / 0.05) * 1.1 / 0.01
    assert dklr_target(0.1, 0.05) == pytest.approx(expected)


def test_dklr_target_grows_as_tolerances_tighten() -> None:
    assert dklr_target(0.05, 0.05) > dklr_target(0.1, 0.05)
    assert dklr_target(0.1, 0.01) > dklr_target(0.1, 0.05)


@pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.0, 1.5, float("nan")])
def test_dklr_target_rejects_bad_epsilon(epsilon: float) -> None:
    with pytest.raises(ReproError):
        dklr_target(epsilon, 0.05)


@pytest.mark.parametrize("delta", [0.0, -0.1, 1.0, 2.0, float("nan")])
def test_dklr_target_rejects_bad_delta(delta: float) -> None:
    with pytest.raises(ReproError):
        dklr_target(0.1, delta)


def test_dklr_target_rejects_underflowing_epsilon() -> None:
    # 1e-200 is in (0, 1) but its square underflows to 0.0.
    with pytest.raises(ReproError, match="underflow"):
        dklr_target(1e-200, 0.05)


# ---------------------------------------------------------- ApproxConfidence


def _estimate(**overrides) -> ApproxConfidence:
    base = dict(
        estimate=0.5, low=0.45, high=0.55, epsilon=0.1, delta=0.05,
        samples=100, successes=50, run_weight=1.0, certified=True, method="dklr",
    )
    base.update(overrides)
    return ApproxConfidence(**base)


def test_interval_and_float_views() -> None:
    estimate = _estimate()
    assert estimate.interval == (0.45, 0.55)
    assert float(estimate) == 0.5
    assert estimate.relative_width == pytest.approx(0.2)


def test_contains_uses_the_interval_with_slack() -> None:
    estimate = _estimate()
    assert estimate.contains(Fraction(1, 2))
    assert estimate.contains(0.45)
    assert estimate.contains(0.55 + 1e-13)  # inside the slack
    assert not estimate.contains(0.56)
    assert not estimate.contains(0.2)


def test_relative_width_of_point_estimates() -> None:
    assert _estimate(estimate=0.0, low=0.0, high=0.0).relative_width == 0.0
    assert _estimate(estimate=0.0, low=0.0, high=0.1).relative_width == math.inf


def test_describe_is_json_safe() -> None:
    import json

    described = _estimate().describe()
    assert json.loads(json.dumps(described)) == described
    assert described["method"] == "dklr"
    assert described["certified"] is True


# ------------------------------------------------------------- input checks


def test_rejects_rng_and_seed_together() -> None:
    gap = mealy_gap_instance(3)
    with pytest.raises(ReproError, match="rng or seed"):
        approximate_confidence(
            gap.sequence, gap.query, gap.emax_top_answer,
            seed=1, rng=random.Random(1),
        )


def test_rejects_nonpositive_max_samples() -> None:
    gap = mealy_gap_instance(3)
    with pytest.raises(ReproError, match="max_samples"):
        approximate_confidence(
            gap.sequence, gap.query, gap.emax_top_answer, max_samples=0,
        )


def test_rejects_indexed_sprojectors() -> None:
    occ = occurrence_gap_instance(3)
    indexed = IndexedSProjector(
        occ.projector.prefix, occ.projector.pattern, occ.projector.suffix
    )
    with pytest.raises(ReproError, match="Theorem 5.8"):
        approximate_confidence(occ.sequence, indexed, occ.answer)


def test_rejects_unknown_query_types() -> None:
    gap = mealy_gap_instance(3)
    with pytest.raises(ReproError, match="query type"):
        approximate_confidence(gap.sequence, object(), gap.emax_top_answer)


def test_rejects_alphabet_mismatch() -> None:
    gap = mealy_gap_instance(3)
    other = uniform_iid(("x", "y"), 3)
    with pytest.raises(AlphabetMismatchError):
        approximate_confidence(other, gap.query, gap.emax_top_answer)


# ------------------------------------------------------------- method paths


def test_exact_zero_path_needs_no_samples() -> None:
    gap = mealy_gap_instance(3)
    impossible = ("Z", "Z", "Z")  # 'Z' is outside the emission range
    estimate = approximate_confidence(
        gap.sequence, gap.query, impossible, seed=0,
    )
    assert estimate.method == "exact-zero"
    assert estimate.estimate == 0.0
    assert estimate.interval == (0.0, 0.0)
    assert estimate.samples == 0
    assert estimate.certified


def test_exact_zero_holds_even_without_the_shortcut() -> None:
    gap = mealy_gap_instance(3)
    estimate = approximate_confidence(
        gap.sequence, gap.query, ("Z", "Z", "Z"), seed=0, exact_shortcut=False,
    )
    assert estimate.method == "exact-zero"
    assert estimate.samples == 0


def test_unambiguous_path_is_exact() -> None:
    for gap in (mealy_gap_instance(4), projector_gap_instance(4)):
        estimate = approximate_confidence(
            gap.sequence, gap.query, gap.emax_top_answer, seed=0,
        )
        assert estimate.method == "unambiguous"
        assert estimate.samples == 0
        assert estimate.certified
        assert estimate.low == estimate.high == estimate.estimate
        assert estimate.estimate == pytest.approx(float(gap.emax_top_confidence))


def test_dklr_path_on_an_ambiguous_product() -> None:
    instance, exact = _ambiguous_case()
    estimate = approximate_confidence(
        instance.sequence, instance.transducer, instance.answer,
        epsilon=0.1, delta=0.05, seed=42,
    )
    assert estimate.method == "dklr"
    assert estimate.certified
    assert estimate.samples > 0
    assert estimate.contains(exact)
    assert estimate.low <= estimate.estimate <= estimate.high
    # The certified relative window is (1+ε)/(1−ε) wide at most.
    assert estimate.high / estimate.low <= (1.1 / 0.9) + 1e-9
    # Σ overcounts the confidence by the ambiguity (here between 1 and 2).
    assert estimate.run_weight > float(exact)


def test_forced_sampling_agrees_with_the_exact_shortcut() -> None:
    gap = mealy_gap_instance(4)
    exact = float(gap.emax_top_confidence)
    forced = approximate_confidence(
        gap.sequence, gap.query, gap.emax_top_answer,
        epsilon=0.2, delta=0.1, seed=7, exact_shortcut=False,
    )
    assert forced.method == "dklr"
    # The product is unambiguous, so every sampled run is canonical.
    assert forced.successes == forced.samples
    assert forced.contains(exact)


def test_capped_path_downgrades_honestly() -> None:
    instance, exact = _ambiguous_case()
    estimate = approximate_confidence(
        instance.sequence, instance.transducer, instance.answer,
        epsilon=0.05, delta=0.05, seed=3, max_samples=50,
    )
    assert estimate.method == "capped"
    assert not estimate.certified
    assert estimate.samples == 50
    assert 0.0 <= estimate.low <= estimate.high <= 1.0
    # The Hoeffding band is additive, hence wide — but still anchored.
    assert estimate.low <= float(exact) <= estimate.high


def test_estimate_never_exceeds_the_run_weight_or_one() -> None:
    instance, _ = _ambiguous_case()
    for seed in range(5):
        estimate = approximate_confidence(
            instance.sequence, instance.transducer, instance.answer,
            epsilon=0.3, delta=0.2, seed=seed,
        )
        assert estimate.high <= min(estimate.run_weight, 1.0) + 1e-12


# -------------------------------------------------------------- determinism


def test_same_seed_means_identical_estimates() -> None:
    instance, _ = _ambiguous_case()
    first = approximate_confidence(
        instance.sequence, instance.transducer, instance.answer, seed=99,
    )
    second = approximate_confidence(
        instance.sequence, instance.transducer, instance.answer, seed=99,
    )
    assert first == second


def test_different_seeds_vary_the_sample_path() -> None:
    instance, _ = _ambiguous_case()
    estimates = {
        approximate_confidence(
            instance.sequence, instance.transducer, instance.answer, seed=seed,
        ).samples
        for seed in range(8)
    }
    assert len(estimates) > 1  # the sampler really consumes the seed


def test_explicit_rng_is_honoured() -> None:
    instance, _ = _ambiguous_case()
    by_seed = approximate_confidence(
        instance.sequence, instance.transducer, instance.answer, seed=5,
    )
    by_rng = approximate_confidence(
        instance.sequence, instance.transducer, instance.answer,
        rng=random.Random(5),
    )
    assert by_seed == by_rng


# ------------------------------------------------------- pinned sample stream
#
# Literal values recorded from the hand-typed run-weight DP that preceded
# ``layered.backward``. The run-weight DP must keep the exact Σ and the
# dict orders the sampler walks, so one seed keeps giving one sample
# stream.

PINNED_2DNF = {
    1: {"estimate": 0.489723657614867, "low": 0.4452033251044245,
        "high": 0.5441373973498522, "samples": 1787},
    2: {"estimate": 0.49054718394493696, "low": 0.4459519854044881,
        "high": 0.5450524266054855, "samples": 1784},
    3: {"estimate": 0.5058590613628714, "low": 0.4598718739662467,
        "high": 0.5620656237365238, "samples": 1730},
}


@pytest.mark.parametrize("seed", sorted(PINNED_2DNF))
def test_ambiguous_sample_stream_is_pinned(seed: int) -> None:
    instance, _ = _ambiguous_case()
    product = AnswerProduct(instance.transducer, instance.answer)
    _back, sigma = _run_weight_layers(instance.sequence, product)
    assert sigma == Fraction(3, 4) and isinstance(sigma, Fraction)
    estimate = approximate_confidence(
        instance.sequence, instance.transducer, instance.answer,
        seed=seed, exact_shortcut=False,
    )
    assert estimate.describe() == {
        **PINNED_2DNF[seed],
        "epsilon": 0.1, "delta": 0.05, "successes": 1167, "run_weight": 0.75,
        "certified": True, "method": "dklr",
    }


def test_float_gap_sample_stream_is_pinned() -> None:
    gap = projector_gap_instance(4)
    sequence = gap.sequence.as_float()
    product = AnswerProduct(gap.query, gap.best_answer)
    back, sigma = _run_weight_layers(sequence, product)
    assert sigma == 0.34560000000000013
    rng = random.Random(5)
    sampler = _PairSampler(sequence, product, back)
    worlds = [sampler.sample(rng)[0] for _ in range(4)]
    assert worlds == [
        ("c", "c", "c", "a"), ("c", "d", "a", "c"),
        ("d", "c", "d", "a"), ("b", "a", "c", "c"),
    ]
    estimate = approximate_confidence(
        sequence, gap.query, gap.best_answer, seed=1, exact_shortcut=False
    )
    assert estimate.describe() == {
        "estimate": 0.3455550556756636, "low": 0.31414095970514866,
        "high": 0.34560000000000013, "epsilon": 0.1, "delta": 0.05,
        "samples": 1167, "successes": 1167, "run_weight": 0.34560000000000013,
        "certified": True, "method": "dklr",
    }


# ---------------------------------------------------------------- telemetry


def test_telemetry_counts_estimates_and_samples() -> None:
    instance, _ = _ambiguous_case()
    gap = mealy_gap_instance(3)
    telemetry.enable()
    approximate_confidence(
        instance.sequence, instance.transducer, instance.answer, seed=1,
    )
    approximate_confidence(gap.sequence, gap.query, gap.emax_top_answer, seed=1)
    approximate_confidence(gap.sequence, gap.query, ("Z", "Z", "Z"), seed=1)
    snapshot = telemetry.snapshot()
    counters = snapshot["counters"]
    assert counters["approx.estimates"] == 3
    assert counters["approx.unambiguous"] == 1
    assert counters["approx.exact_zero"] == 1
    assert counters["approx.samples"] > 0
    assert counters["approx.early_stop"] == 1
    assert "approx.estimate" in snapshot["spans"]
