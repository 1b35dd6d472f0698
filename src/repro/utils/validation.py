"""Small argument-validation helpers used across the public API.

These keep constructor bodies readable: each helper raises ``ValueError`` (or
``TypeError``) with a message naming the offending parameter.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

__all__ = [
    "require_positive_int",
    "require_non_negative_int",
    "require_positive",
    "require_non_negative",
    "require_unique_indices",
]


def require_positive_int(value: int, name: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def require_non_negative_int(value: int, name: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def require_positive(value: float, name: str) -> float:
    value = float(value)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def require_non_negative(value: float, name: str) -> float:
    value = float(value)
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and non-negative, got {value}")
    return value


def require_unique_indices(indices: Iterable[int], name: str, size: int) -> np.ndarray:
    """Validate a collection of FFT bin indices against a grid of ``size`` bins."""
    arr = np.asarray(list(indices), dtype=int)
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise ValueError(f"{name} indices must lie in [0, {size}), got range "
                         f"[{arr.min()}, {arr.max()}]")
    if len(set(arr.tolist())) != arr.size:
        raise ValueError(f"{name} indices must be unique")
    return arr
