"""Helpers for the benchmark harness.

Each benchmark regenerates one paper artifact (a Table 1 row set, a
Table 2 cell, or an inapproximability curve). Beyond timing (via
pytest-benchmark), every bench *prints* the series it measured in a
paper-style table and *asserts* its qualitative shape — who wins, what
grows, where the exponential lives — so the harness doubles as a
regression check on the reproduction claims in EXPERIMENTS.md.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the
printed series).

Baseline-emitting benches (``bench_runtime``, ``bench_parallel``,
``bench_telemetry``) additionally write a ``BENCH_*.json`` file at the
repo root in the **common result schema** (:data:`RESULT_SCHEMA`)::

    {"schema": "repro-bench/1", "name": ..., "params": {...},
     "metrics": {...}, "telemetry": {...} | null, "git_rev": ...}

``benchmarks/regress.py`` re-runs those scenarios and gates fresh
metrics against the committed baselines with per-metric tolerance
floors.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import time
from collections.abc import Callable, Sequence

#: Schema marker for common-format benchmark results.
RESULT_SCHEMA = "repro-bench/1"

#: The repo root (where ``BENCH_*.json`` baselines live).
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def git_rev() -> str | None:
    """The short git revision of the working tree, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def result_record(
    name: str,
    params: dict,
    metrics: dict,
    telemetry_snapshot: dict | None = None,
) -> dict:
    """Assemble one common-schema benchmark result."""
    return {
        "schema": RESULT_SCHEMA,
        "name": name,
        "params": dict(params),
        "metrics": dict(metrics),
        "telemetry": telemetry_snapshot,
        "git_rev": git_rev(),
    }


def write_result(result: dict, path) -> pathlib.Path:
    """Write a common-schema result as pretty JSON."""
    target = pathlib.Path(path)
    target.write_text(json.dumps(result, indent=2) + "\n")
    return target


def load_result(path) -> dict:
    """Load a baseline, upgrading legacy flat-dict files to the schema.

    Pre-schema baselines were one flat dict of metrics; they come back
    wrapped as ``{"schema": ..., "metrics": <the dict>}`` so the
    regression harness can compare either generation.
    """
    source = pathlib.Path(path)
    data = json.loads(source.read_text())
    if not isinstance(data, dict):
        raise ValueError(f"benchmark baseline {source} is not an object")
    if data.get("schema") == RESULT_SCHEMA:
        return data
    metrics = {k: v for k, v in data.items() if isinstance(v, (int, float))}
    return {
        "schema": RESULT_SCHEMA,
        "name": source.stem.replace("BENCH_", ""),
        "params": {},
        "metrics": metrics,
        "telemetry": None,
        "git_rev": None,
    }


def timed(fn: Callable[[], object]) -> float:
    """Wall-clock one call (seconds). Used for the shape *series*; the
    representative operation is separately timed by pytest-benchmark."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def print_series(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Print a paper-style results table."""
    print()
    print(f"--- {title} ---")
    widths = [
        max(len(str(header[i])), max((len(_fmt(row[i])) for row in rows), default=0))
        for i in range(len(header))
    ]
    print("  " + "  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  " + "  ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) < 1e-3 or abs(cell) >= 1e5):
            return f"{cell:.3e}"
        return f"{cell:.5f}"
    return str(cell)


def growth_ratios(values: Sequence[float]) -> list[float]:
    """Consecutive ratios of a positive series (for shape assertions)."""
    return [values[i + 1] / values[i] for i in range(len(values) - 1)]


def assert_polynomialish(times: Sequence[float], factor: float) -> None:
    """Assert end-to-end growth of a timing series stays under ``factor``.

    Noise-robust form of "this scales polynomially, not exponentially":
    compares last to first with the first floored at one millisecond (tiny
    measurements are dominated by interpreter noise).
    """
    base = max(times[0], 1e-3)
    assert times[-1] < base * factor, (list(times), factor)


def timed_best(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock timing (noise reduction)."""
    return min(timed(fn) for _ in range(repeats))


def median_iqr(samples: Sequence[float]) -> tuple[float, float]:
    """The median and the interquartile range of ``samples``.

    Needs at least two samples; quartiles use the inclusive method, so
    they stay inside the observed range.
    """
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return median, q3 - q1
