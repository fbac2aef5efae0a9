"""The engine registry and its class × engine matrix (repro.oracle.registry)."""

from __future__ import annotations

from fractions import Fraction

from repro.oracle.generators import CLASS_LABELS, generate_instance
from repro.oracle.registry import ENGINES, Prepared, VerifyContext, engine_matrix

ENGINE_NAMES = tuple(engine.name for engine in ENGINES)


def test_registry_has_the_seven_engine_families() -> None:
    assert ENGINE_NAMES == (
        "brute-force",
        "log-space",
        "fraction",
        "specialized",
        "runtime",
        "vectorized",
        "approx",
    )


def test_matrix_covers_every_cell() -> None:
    matrix = engine_matrix()
    assert set(matrix) == {
        (label, name) for label in CLASS_LABELS for name in ENGINE_NAMES
    }


def test_dense_columns_serve_only_the_deterministic_row() -> None:
    matrix = engine_matrix()
    applicable = {label for label in CLASS_LABELS if matrix[(label, "vectorized")]}
    assert applicable == {"deterministic"}


def test_log_space_column_serves_every_semiring_dp() -> None:
    # Every Table-2 DP that takes ``semiring=`` runs in LOG; the general
    # class has no such DP.
    matrix = engine_matrix()
    applicable = {label for label in CLASS_LABELS if matrix[(label, "log-space")]}
    assert applicable == {"deterministic", "uniform", "sprojector", "indexed"}


def test_exact_engines_serve_every_class() -> None:
    matrix = engine_matrix()
    for name in ("brute-force", "fraction", "specialized", "runtime"):
        assert all(matrix[(label, name)] for label in CLASS_LABELS), name


def test_dense_applicability_needs_uniform_emission() -> None:
    # trial 0 generates the k-uniform deterministic variant, trial 1 the
    # varied-emission one; the vectorized (dense batch) predicate must
    # split them.
    uniform = Prepared(generate_instance("deterministic", seed=4, trial=0))
    varied = Prepared(generate_instance("deterministic", seed=4, trial=1))
    by_name = {engine.name: engine for engine in ENGINES}
    assert by_name["vectorized"].applicable(uniform)
    assert not by_name["vectorized"].applicable(varied)
    # log-space needs determinism only, not uniformity.
    assert by_name["log-space"].applicable(varied)


def test_prepared_detects_exact_instances() -> None:
    exact = Prepared(generate_instance("uniform", seed=5, trial=2))
    floaty = Prepared(generate_instance("uniform", seed=5, trial=0))
    assert exact.is_exact()
    assert not floaty.is_exact()


def test_exact_match_semantics() -> None:
    by_name = {engine.name: engine for engine in ENGINES}
    exact = by_name["fraction"]
    # On exact instances, exact engines are held to equality...
    assert exact.matches(Fraction(1, 3), Fraction(1, 3), instance_exact=True)
    assert not exact.matches(Fraction(1, 3) + Fraction(1, 10**12), Fraction(1, 3), True)
    # ...but fall back to isclose on float instances.
    assert exact.matches(1 / 3, Fraction(1, 3), instance_exact=False)
    approx = by_name["log-space"]
    assert approx.matches(0.25 * (1 + 1e-8), 0.25, instance_exact=True)


def test_approx_engine_scopes_to_the_general_class() -> None:
    matrix = engine_matrix()
    applicable = {label for label in CLASS_LABELS if matrix[(label, "approx")]}
    assert applicable == {"general"}


def test_approx_matches_by_interval_membership() -> None:
    from repro.approx import ApproxConfidence

    by_name = {engine.name: engine for engine in ENGINES}
    engine = by_name["approx"]
    got = ApproxConfidence(
        estimate=0.5, low=0.45, high=0.55, epsilon=0.1, delta=0.05,
        samples=10, successes=5, run_weight=1.0, certified=True, method="dklr",
    )
    # The referee value must fall inside the certified interval — the
    # estimate itself is never compared for closeness.
    assert engine.matches(got, Fraction(1, 2), instance_exact=True)
    assert engine.matches(got, 0.451, instance_exact=False)
    assert not engine.matches(got, Fraction(9, 10), instance_exact=True)


def test_approx_engine_is_deterministic_per_probe() -> None:
    from repro.confidence.brute_force import brute_force_answers
    from repro.oracle.registry import _approx

    prepared = Prepared(generate_instance("general", seed=11, trial=0))
    answers = brute_force_answers(prepared.sequence_exact, prepared.instance.query)
    answer, want = max(answers.items(), key=lambda item: (item[1], repr(item[0])))
    context = VerifyContext()
    first = _approx(prepared, answer, context)
    second = _approx(prepared, answer, context)
    assert first == second
    assert first.contains(want)
