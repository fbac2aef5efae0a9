"""Same-plan batching: one numpy forward DP over a stack of streams.

:mod:`repro.parallel.vectorized` stacks equal-length float streams that
share a dense deterministic plan into one tensor and advances them all
with a single batched contraction per timestep.
:func:`repro.runtime.executor.batch_confidence` takes this path whenever
:func:`dense_batch_eligible` holds, and runs the per-stream Table-2
dispatch otherwise.
"""

from __future__ import annotations

from repro.parallel.vectorized import (
    confidence_dense_batch,
    confidence_dense_batch_named,
    dense_batch_eligible,
)

__all__ = [
    "confidence_dense_batch",
    "confidence_dense_batch_named",
    "dense_batch_eligible",
]
