"""Engine-level analyzer tests: pragmas, reporters, path scoping, and
the self-check that the tree itself lints clean."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    lint_paths,
    lint_source,
    parse_pragmas,
    render_json,
    render_pretty,
    rule_ids,
)
from repro.analysis.rules.base import package_relative

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC = Path(__file__).parent.parent / "src"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------- self-check


def test_repro_lint_src_is_clean():
    """The acceptance invariant: `repro lint src/` exits 0 at head."""
    report = lint_paths([SRC])
    assert report.clean, "\n" + "\n".join(f.render() for f in report.violations)
    assert report.files > 100  # the whole package was actually walked


def test_cli_lint_subcommand_clean_and_json():
    from repro.cli import main

    assert main(["lint", str(SRC)]) == 0
    assert main(["lint", str(SRC), "--format", "json"]) == 0


def test_ci_smoke_fixture_fails_the_gate():
    """The deliberately-broken fixture must make `repro lint` exit 1.

    The reverse RX05 pass is off here (as in the CI step): a fixture
    directory emits no telemetry, so the reverse pass would drown the
    seeded RX03 signal in documented-but-unused noise.
    """
    from repro.cli import main

    report = lint_paths([FIXTURES / "ci_smoke"], reverse_telemetry=False)
    assert not report.clean
    assert {f.rule for f in report.violations} == {"RX03"}
    assert main(["lint", str(FIXTURES / "ci_smoke"), "--no-reverse-telemetry"]) == 1


# ---------------------------------------------------------------- pragmas


def test_trailing_pragma_suppresses_own_line():
    report = lint_source(
        "SCALE = 0.5  # repro: allow[RX01] reviewed\n",
        virtual_path="repro/core/mod.py",
    )
    assert report.clean
    assert report.suppressed == 1


def test_standalone_pragma_suppresses_next_code_line():
    source = "# repro: allow[RX01] reviewed\nSCALE = 0.5\n"
    report = lint_source(source, virtual_path="repro/core/mod.py")
    assert report.clean


def test_pragma_does_not_leak_to_other_lines():
    source = "SCALE = 0.5  # repro: allow[RX01] reviewed\nOTHER = 0.25\n"
    report = lint_source(source, virtual_path="repro/core/mod.py")
    assert [f.line for f in report.violations] == [2]


def test_pragma_only_covers_named_rules():
    source = "SCALE = 0.5  # repro: allow[RX03] wrong rule for this line\n"
    report = lint_source(source, virtual_path="repro/core/mod.py")
    assert [f.rule for f in report.violations] == ["RX01"]


def test_missing_reason_is_a_violation_and_does_not_suppress():
    source = "SCALE = 0.5  # repro: allow[RX01]\n"
    report = lint_source(source, virtual_path="repro/core/mod.py")
    rules = sorted(f.rule for f in report.violations)
    assert rules == ["RX00", "RX01"]


def test_unknown_rule_is_a_violation_and_does_not_suppress():
    source = "SCALE = 0.5  # repro: allow[RX99] no such rule\n"
    report = lint_source(source, virtual_path="repro/core/mod.py")
    rules = sorted(f.rule for f in report.violations)
    assert rules == ["RX00", "RX01"]
    assert any("unknown rule RX99" in f.message for f in report.violations)


def test_malformed_pragma_syntax_is_a_violation():
    source = "SCALE = 0.5  # repro: allow no brackets\n"
    report = lint_source(source, virtual_path="repro/core/mod.py")
    assert "RX00" in {f.rule for f in report.violations}


def test_multi_rule_pragma():
    pragmas, findings = parse_pragmas(
        "X = 1  # repro: allow[RX01,RX03] spans two rules\n",
        "mod.py",
        rule_ids(),
    )
    assert not findings
    assert pragmas[0].rules == ("RX01", "RX03")
    assert pragmas[0].reason == "spans two rules"


def test_pragma_fixture_end_to_end():
    report = lint_source(
        fixture("pragmas.py"), virtual_path="repro/core/pragmas.py"
    )
    by_rule: dict[str, list[int]] = {}
    for f in report.violations:
        by_rule.setdefault(f.rule, []).append(f.line)
    # Three malformed pragmas -> three RX00s; their three float literals
    # stay flagged; the three validly-suppressed lines are quiet.
    assert len(by_rule["RX00"]) == 3
    assert len(by_rule["RX01"]) == 3
    assert report.suppressed == 3


# ---------------------------------------------------------------- reporters


def test_json_reporter_schema():
    report = lint_source(
        "SCALE = 0.5\n", virtual_path="repro/core/mod.py"
    )
    payload = json.loads(render_json(report))
    assert payload["schema"] == "repro-lint/1"
    assert payload["clean"] is False
    assert payload["files"] == 1
    assert payload["counts"] == {"RX01": 1}
    (violation,) = payload["violations"]
    assert set(violation) == {"rule", "path", "line", "col", "message"}
    assert violation["rule"] == "RX01"
    assert violation["line"] == 1


def test_json_reporter_clean_shape():
    report = lint_source("X = 1\n", virtual_path="repro/core/mod.py")
    payload = json.loads(render_json(report))
    assert payload["clean"] is True
    assert payload["violations"] == []
    assert payload["counts"] == {}


def test_pretty_reporter_lists_and_summarizes():
    report = lint_source("SCALE = 0.5\n", virtual_path="repro/core/mod.py")
    text = render_pretty(report)
    assert "repro/core/mod.py:1:" in text
    assert "RX01" in text
    assert "1 violation(s)" in text
    clean = lint_source("X = 1\n", virtual_path="repro/core/mod.py")
    assert "clean" in render_pretty(clean)


# ---------------------------------------------------------------- engine


def test_package_relative_paths():
    assert package_relative("src/repro/confidence/layered.py") == "confidence/layered.py"
    assert package_relative("/abs/src/repro/core/engine.py") == "core/engine.py"
    assert package_relative("elsewhere/script.py") == "elsewhere/script.py"


def test_scoping_out_of_zone_is_quiet():
    # The same float literal is fine outside the exact zone.
    report = lint_source("SCALE = 0.5\n", virtual_path="repro/approx/fpras.py")
    assert report.clean


def test_syntax_error_is_reported_not_raised():
    report = lint_source("def broken(:\n", virtual_path="repro/core/mod.py")
    assert [f.rule for f in report.violations] == ["RX00"]
    assert "does not parse" in report.violations[0].message


def test_rule_selection_restricts_the_run():
    source = "import random\nSCALE = 0.5\nR = random.Random()\n"
    report = lint_source(
        source, virtual_path="repro/core/mod.py", rules={"RX03"}
    )
    assert {f.rule for f in report.violations} == {"RX03"}


def test_missing_input_raises():
    with pytest.raises(FileNotFoundError):
        lint_paths([FIXTURES / "does_not_exist.py"])
