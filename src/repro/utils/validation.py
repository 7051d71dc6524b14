"""Argument validation helpers with uniform error messages."""

from __future__ import annotations

import operator

import numpy as np


def ensure_positive(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def ensure_positive_int(value, name: str) -> int:
    """Validate that ``value`` is an integer above zero and return it.

    Unlike :func:`ensure_positive`, nothing is coerced: ``1.5``, ``"8"``
    and ``True`` are refused rather than truncated, parsed or counted.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a positive integer, got {value!r}") from None
    if number <= 0:
        raise ValueError(f"{name} must be a positive integer, got {number}")
    return number


def ensure_matrix(arr: np.ndarray, name: str, dtype=np.float32) -> np.ndarray:
    """Coerce ``arr`` to a 2-D array of ``dtype`` (1-D becomes one row)."""
    out = np.asarray(arr, dtype=dtype)
    if out.ndim == 1:
        out = out[np.newaxis, :]
    if out.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {out.shape}")
    if out.shape[1] == 0:
        raise ValueError(f"{name} must have at least one column")
    return out


def ensure_vector_dim(arr: np.ndarray, dim: int, name: str) -> np.ndarray:
    """Validate that a 2-D array has exactly ``dim`` columns."""
    if arr.shape[1] != dim:
        raise ValueError(
            f"{name} has dimension {arr.shape[1]}, expected {dim}"
        )
    return arr


def ensure_int_ids(values, name: str) -> np.ndarray:
    """Coerce a sequence of integer ids to 1-D int64, refusing anything else.

    A float such as ``1.7`` is refused rather than truncated to ``1``.
    """
    arr = np.asarray(values)
    if arr.ndim > 1:
        raise ValueError(f"{name} must be a flat list, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {arr.ravel()[:3].tolist()!r}")
    return arr.reshape(-1).astype(np.int64, copy=False)
