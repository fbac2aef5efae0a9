"""Per-rule analyzer tests driven by the good/bad fixture pairs."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import MetricRegistry, lint_source

FIXTURES = Path(__file__).parent / "analysis_fixtures"

MINI_CATALOGUE = """
# Observability

## Metric catalogue

| name | kind | meaning |
|---|---|---|
| `fixture.documented` | counter | a counter |
| `fixture.histogram` | histogram | a histogram |
| span `outer/inner` | histogram | nested spans |

## Export schema

Prose below the catalogue mentioning `fixture.not_a_metric` is ignored.
"""


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def lint_fixture(name: str, virtual_path: str, **kwargs):
    return lint_source(fixture(name), virtual_path=virtual_path, **kwargs)


# ---------------------------------------------------------------- RX01


def test_rx01_bad_fixture_flags_all_taint():
    report = lint_fixture("rx01_bad.py", "repro/confidence/uniform.py")
    rules = [f.rule for f in report.violations]
    assert set(rules) == {"RX01"}
    messages = " ".join(f.message for f in report.violations)
    assert "float literal" in messages
    assert "float(...)" in messages
    assert "math.exp" in messages
    assert "import from math" in messages


def test_rx01_good_fixture_is_clean():
    report = lint_fixture("rx01_good.py", "repro/core/engine.py")
    assert report.clean, [f.render() for f in report.violations]


def test_rx01_exempts_no_confidence_file():
    # Every file under confidence/ is in scope, whatever its name.
    report = lint_fixture("rx01_bad.py", "repro/confidence/montecarlo.py")
    assert not report.clean
    assert {f.rule for f in report.violations} == {"RX01"}


def test_rx01_fpras_is_blessed_but_product_is_not():
    assert lint_fixture("rx01_bad.py", "repro/approx/fpras.py").clean
    assert not lint_fixture("rx01_bad.py", "repro/approx/product.py").clean


def test_rx01_scope_covers_store_and_runtime():
    for zone in ("store/wal.py", "runtime/plan.py"):
        assert not lint_fixture("rx01_bad.py", f"repro/{zone}").clean


# ---------------------------------------------------------------- RX02


def test_rx02_bad_fixture_flags_blocking_calls():
    report = lint_fixture("rx02_bad.py", "repro/serve/server.py")
    assert {f.rule for f in report.violations} == {"RX02"}
    messages = " ".join(f.message for f in report.violations)
    assert "time.sleep" in messages
    assert "os.fsync" in messages
    assert "open()" in messages
    assert ".write_text" in messages
    assert "subprocess.run" in messages
    # Both the top-level and the deeply-nested sleep are caught.
    assert len(report.violations) == 6


def test_rx02_good_fixture_is_clean():
    report = lint_fixture("rx02_good.py", "repro/serve/server.py")
    assert report.clean, [f.render() for f in report.violations]


def test_rx02_only_applies_in_serve():
    report = lint_fixture("rx02_bad.py", "repro/store/wal.py")
    assert not any(f.rule == "RX02" for f in report.violations)


# ---------------------------------------------------------------- RX03


def test_rx03_bad_fixture_flags_unseeded_randomness():
    report = lint_fixture("rx03_bad.py", "repro/markov/builders.py")
    assert {f.rule for f in report.violations} == {"RX03"}
    messages = " ".join(f.message for f in report.violations)
    assert "without a seed" in messages
    assert "random.seed" in messages
    assert "global RNG" in messages
    assert len(report.violations) == 7


def test_rx03_good_fixture_is_clean():
    report = lint_fixture("rx03_good.py", "repro/markov/builders.py")
    assert report.clean, [f.render() for f in report.violations]


def test_rx03_applies_everywhere():
    # Path-independent: the same violations fire outside the package.
    report = lint_fixture("rx03_bad.py", "scripts/ad_hoc.py")
    assert not report.clean


# ---------------------------------------------------------------- RX04


def test_rx04_bad_fixture_flags_unguarded_sites():
    report = lint_fixture("rx04_bad.py", "repro/runtime/cache.py")
    assert {f.rule for f in report.violations} == {"RX04"}
    flagged = {(f.line, f.message.split()[0]) for f in report.violations}
    attrs = {msg for _line, msg in flagged}
    assert attrs == {"self.hits", "self.entries", "self.appends"}
    assert len(report.violations) == 3


def test_rx04_good_fixture_is_clean():
    report = lint_fixture("rx04_good.py", "repro/runtime/cache.py")
    assert report.clean, [f.render() for f in report.violations]


def test_rx04_scope():
    assert not lint_fixture("rx04_bad.py", "repro/serve/server.py").clean
    assert not lint_fixture("rx04_bad.py", "repro/telemetry/metrics.py").clean
    # serve/ outside server.py is not in RX04 scope.
    report = lint_fixture("rx04_bad.py", "repro/serve/protocol.py")
    assert not any(f.rule == "RX04" for f in report.violations)


# ---------------------------------------------------------------- RX05


def test_rx05_bad_fixture_flags_undocumented_names():
    report = lint_fixture(
        "rx05_bad.py",
        "repro/serve/handlers.py",
        observability_text=MINI_CATALOGUE,
    )
    assert {f.rule for f in report.violations} == {"RX05"}
    messages = " ".join(f.message for f in report.violations)
    assert "fixture.renamed_counter" in messages
    assert "fixture.mystery_gauge" in messages
    assert "undocumented_phase" in messages
    assert len(report.violations) == 3


def test_rx05_good_fixture_is_clean():
    report = lint_fixture(
        "rx05_good.py",
        "repro/serve/handlers.py",
        observability_text=MINI_CATALOGUE,
    )
    assert report.clean, [f.render() for f in report.violations]


def test_rx05_reverse_pass_reports_dead_catalogue_rows():
    report = lint_source(
        "from repro import telemetry\n"
        'def f():\n    telemetry.count("fixture.documented")\n',
        virtual_path="repro/serve/handlers.py",
        observability_text=MINI_CATALOGUE,
        reverse_telemetry=True,
    )
    messages = " ".join(f.message for f in report.violations)
    assert "fixture.histogram" in messages  # documented, never emitted
    assert "outer/inner" in messages  # documented span, never opened
    assert all(f.rule == "RX05" for f in report.violations)


def test_rx05_reverse_pass_off_for_single_files():
    report = lint_source(
        "from repro import telemetry\n"
        'def f():\n    telemetry.count("fixture.documented")\n',
        virtual_path="repro/serve/handlers.py",
        observability_text=MINI_CATALOGUE,
    )
    assert report.clean


def test_rx05_silent_without_a_catalogue():
    report = lint_fixture("rx05_bad.py", "repro/serve/handlers.py")
    assert report.clean


# ------------------------------------------------------- catalogue parsing


def test_registry_parses_real_catalogue():
    doc = Path(__file__).parent.parent / "docs" / "OBSERVABILITY.md"
    registry = MetricRegistry.from_file(doc)
    # Abbreviated rows expand against the last full name.
    assert "runtime.plan_cache.hits" in registry.metrics
    assert "runtime.plan_cache.misses" in registry.metrics
    assert "runtime.plan_cache.evictions" in registry.metrics
    assert "oracle.shrink.accepted" in registry.metrics
    # Span rows land in spans, not metrics.
    assert "verify/corpus_case" in registry.spans
    assert "approx.estimate" in registry.spans
    assert "corpus_case" in registry.span_components
    # Prose outside tables (and non-first cells) contributes nothing.
    assert "PlanCache.get" not in registry.metrics
    assert "repro-telemetry/1" not in registry.metrics


def test_registry_abbreviation_expansion():
    registry = MetricRegistry.from_text(
        """
## Metric catalogue

| name | kind | meaning |
|---|---|---|
| `a.b.c` / `.d` / `.e` | counter | quoting `other.name` here |
| `x.y` | gauge | another |
"""
    )
    assert set(registry.metrics) == {"a.b.c", "a.b.d", "a.b.e", "x.y"}


def test_registry_ignores_sections_outside_catalogue():
    registry = MetricRegistry.from_text(
        """
## Quick tour

| name | kind | meaning |
|---|---|---|
| `not.a.metric` | counter | wrong section |

## Metric catalogue

| name | kind | meaning |
|---|---|---|
| `real.metric` | counter | yes |

## Export schema

| `also.not.a.metric` | counter | after the catalogue |
"""
    )
    assert set(registry.metrics) == {"real.metric"}
