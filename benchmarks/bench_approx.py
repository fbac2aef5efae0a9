"""Experiment A1: the FPRAS vs brute force on the #P-hard cells.

The general/nondeterministic Table-2 cells have no polynomial exact
algorithm; the exact referee (:func:`brute_force_confidence`) costs
``|Sigma|^n`` while the Karp–Luby estimator (:mod:`repro.approx`) costs
polynomially many samples. This bench sweeps the 2-DNF counting family
(``hardness/counting.py`` — genuinely ambiguous products, so the
union-of-runs correction is live) and records:

* per-size brute-force and FPRAS wall clocks (informational): the
  median and interquartile range of :data:`REPEATS` runs each, with
  the number of cores the process may run on;
* ``crossover_n`` — the smallest swept world length where the FPRAS is
  faster than brute force (informational: absolute clocks move across
  machines, the crossover's *existence* is the reproduction claim);
* ``approx_speedup`` — brute/FPRAS medians at the largest size (**gated** by
  ``benchmarks/regress.py``: the exponential/polynomial separation must
  not regress);
* ``unambiguous_exact`` — on a deterministic gap-family product the
  estimator must short-circuit to the closed-form confidence with zero
  samples (1.0 = held).

Every FPRAS estimate is checked against the exact referee: an interval
miss fails the bench outright — a benchmark that got faster by being
wrong is a regression, not a win. Run as a script to (re)record the
``BENCH_approx.json`` baseline::

    PYTHONPATH=src:. python benchmarks/bench_approx.py
"""

from __future__ import annotations

import os
from fractions import Fraction

from repro.approx.fpras import approximate_confidence
from repro.confidence.brute_force import brute_force_confidence
from repro.hardness.counting import two_dnf_counting_instance
from repro.hardness.gap_instances import mealy_gap_instance

from benchmarks.shape import (
    REPO_ROOT,
    result_record,
    median_iqr,
    print_series,
    timed,
    write_result,
)

EPSILON = 0.25
DELTA = 0.05
SEED = 1
#: Timed runs per size and method; the series reports their median.
REPEATS = 5

#: Swept 2-DNF sizes (nx = ny = k, so the world length is 2k).
SIZES = (2, 3, 4, 5, 6)
QUICK_SIZES = (2, 4, 6)  # same endpoints, so the gated ratio transfers


def dnf_instance(k: int):
    """An ambiguous 2-DNF: k diagonal clauses plus two overlapping ones."""
    clauses = [(i, i) for i in range(1, k + 1)] + [(1, k), (k, 1)]
    return two_dnf_counting_instance(clauses, k, k)


def measure(sizes=SIZES) -> dict:
    rows = []
    for k in sizes:
        instance = dnf_instance(k)
        exact: list[Fraction] = []
        brute_s, brute_iqr = median_iqr(
            [
                timed(
                    lambda: exact.append(
                        brute_force_confidence(
                            instance.sequence, instance.transducer, instance.answer
                        )
                    )
                )
                for _ in range(REPEATS)
            ]
        )
        estimates: list = []
        fpras_s, fpras_iqr = median_iqr(
            [
                timed(
                    lambda: estimates.append(
                        approximate_confidence(
                            instance.sequence,
                            instance.transducer,
                            instance.answer,
                            epsilon=EPSILON,
                            delta=DELTA,
                            seed=SEED,
                        )
                    )
                )
                for _ in range(REPEATS)
            ]
        )
        estimate = estimates[0]
        assert all(other == estimate for other in estimates), "one seed, one estimate"
        assert estimate.contains(exact[0]), (
            f"FPRAS interval missed the exact referee at k={k}: "
            f"{estimate.interval} vs {float(exact[0])}"
        )
        rows.append(
            {
                "n": 2 * k,
                "brute_s": brute_s,
                "brute_iqr_s": brute_iqr,
                "fpras_s": fpras_s,
                "fpras_iqr_s": fpras_iqr,
                "samples": estimate.samples,
                "speedup": brute_s / fpras_s,
            }
        )

    crossover = next((row["n"] for row in rows if row["speedup"] > 1.0), None)

    # The deterministic-product shortcut: exact, zero samples, and far
    # beyond brute force's reach (5^16 worlds).
    gap = mealy_gap_instance(16)
    shortcut = approximate_confidence(
        gap.sequence, gap.query, gap.emax_top_answer,
        epsilon=EPSILON, delta=DELTA, seed=SEED,
    )
    unambiguous_exact = float(
        shortcut.samples == 0
        and shortcut.method == "unambiguous"
        and shortcut.contains(gap.emax_top_confidence)
    )

    metrics: dict = {
        "approx_speedup": rows[-1]["speedup"],
        "crossover_n": float(crossover) if crossover is not None else -1.0,
        "unambiguous_exact": unambiguous_exact,
        "largest_n": float(rows[-1]["n"]),
        "cores": len(os.sched_getaffinity(0)),
    }
    for row in rows:
        metrics[f"brute_s_n{row['n']}"] = row["brute_s"]
        metrics[f"brute_iqr_s_n{row['n']}"] = row["brute_iqr_s"]
        metrics[f"fpras_s_n{row['n']}"] = row["fpras_s"]
        metrics[f"fpras_iqr_s_n{row['n']}"] = row["fpras_iqr_s"]
    return {"rows": rows, "metrics": metrics}


def report(results: dict) -> None:
    metrics = results["metrics"]
    print_series(
        f"FPRAS vs brute force (2-DNF family, ε={EPSILON}, δ={DELTA}; "
        f"median and IQR of {REPEATS} runs, {metrics['cores']} cores)",
        ["n", "brute (s)", "IQR", "fpras (s)", "IQR", "samples", "speedup"],
        [
            (
                row["n"], row["brute_s"], row["brute_iqr_s"], row["fpras_s"],
                row["fpras_iqr_s"], row["samples"], row["speedup"],
            )
            for row in results["rows"]
        ],
    )
    print(f"  crossover at n={metrics['crossover_n']:g}, "
          f"speedup at n={metrics['largest_n']:g}: {metrics['approx_speedup']:.1f}x")


def check(results: dict) -> None:
    metrics = results["metrics"]
    assert metrics["unambiguous_exact"] == 1.0, "shortcut must be exact"
    assert metrics["crossover_n"] > 0, "FPRAS never overtook brute force"
    assert metrics["approx_speedup"] > 1.0, results["rows"]


def common_result(sizes=SIZES, results: dict | None = None) -> dict:
    if results is None:
        results = measure(sizes)
    return result_record(
        "approx",
        {
            "epsilon": EPSILON,
            "delta": DELTA,
            "seed": SEED,
            "sizes": list(sizes),
            "repeats": REPEATS,
        },
        results["metrics"],
    )


def bench_approx_crossover(benchmark) -> None:
    results = measure()
    report(results)
    check(results)

    instance = dnf_instance(SIZES[-1])
    benchmark(
        lambda: approximate_confidence(
            instance.sequence,
            instance.transducer,
            instance.answer,
            epsilon=EPSILON,
            delta=DELTA,
            seed=SEED,
        )
    )


def main() -> None:
    results = measure()
    report(results)
    check(results)
    path = write_result(
        common_result(results=results), REPO_ROOT / "BENCH_approx.json"
    )
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
