"""Shared utilities: top-k heaps, result merging, validation, retry, sanitizer."""

from repro.utils.arrays import (
    sorted_membership,
)
from repro.utils.calibrate import (
    EwmaCalibrator,
)
from repro.utils.retry import (
    RetryExhaustedError,
    RetryPolicy,
)
from repro.utils.sanitizer import (
    ThreadSanitizer,
    assert_guarded,
    maybe_sanitize,
)
from repro.utils.topk import (
    TopKCollector,
    TopKHeap,
    topk_from_scores,
    merge_topk,
    merge_topk_batch,
    merge_result_lists,
)
from repro.utils.validation import (
    ensure_matrix,
    ensure_positive,
    ensure_vector_dim,
)

__all__ = [
    "sorted_membership",
    "EwmaCalibrator",
    "RetryExhaustedError",
    "RetryPolicy",
    "ThreadSanitizer",
    "assert_guarded",
    "maybe_sanitize",
    "TopKCollector",
    "TopKHeap",
    "topk_from_scores",
    "merge_topk",
    "merge_topk_batch",
    "merge_result_lists",
    "ensure_matrix",
    "ensure_positive",
    "ensure_vector_dim",
]
