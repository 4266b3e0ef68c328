"""Argument validation helpers used across the library.

Keeping validation in one place makes error messages uniform and keeps the
computational modules focused on their actual algorithms.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def check_label_map(labels: np.ndarray, name: str = "labels") -> np.ndarray:
    """Validate a 2-D integer label map and return it as an ``int64`` array.

    A label map assigns one integer class id to every pixel.  Negative values
    are allowed only for the conventional "ignore" id ``-1`` (pixels without
    ground truth, cf. the white regions in Fig. 1 of the paper).
    """
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (H, W), got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.round(arr)):
            arr = arr.astype(np.int64)
        else:
            raise TypeError(f"{name} must be an integer array, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < -1:
        raise ValueError(
            f"{name} may not contain values below -1 (the ignore id), "
            f"found {arr.min()}"
        )
    return arr


#: Default tolerance of :func:`check_probability_field` (negative entries and
#: row-sum deviations).
PROBABILITY_TOL = 1e-4


def check_probability_field(
    probs: np.ndarray, name: str = "probs", tol: float = PROBABILITY_TOL
) -> np.ndarray:
    """Validate an (H, W, C) per-pixel class probability field.

    Each pixel's class distribution must be non-negative and sum to one within
    *tol*.  Returns the field as ``float64``.
    """
    arr = np.asarray(probs, dtype=np.float64)
    check_field_shape(arr, name)
    check_field_terms(bool(np.any(arr < -tol)), arr.sum(axis=2), name, tol)
    return arr


def check_field_shape(arr: np.ndarray, name: str = "probs") -> None:
    """The shape half of :func:`check_probability_field`: (H, W, C), C >= 2."""
    if arr.ndim != 3:
        raise ValueError(f"{name} must be 3-D (H, W, C), got shape {arr.shape}")
    if arr.shape[2] < 2:
        raise ValueError(f"{name} needs at least 2 classes, got {arr.shape[2]}")


def check_field_terms(
    any_negative: bool, sums: np.ndarray, name: str = "probs", tol: float = PROBABILITY_TOL
) -> None:
    """The value half of :func:`check_probability_field`.

    Takes the field's reduced terms — whether any entry lies below ``-tol``
    and the (H, W) per-pixel class sums — so a caller that reduces the field
    band by band raises exactly the errors of a whole-field check.
    """
    if any_negative:
        raise ValueError(f"{name} contains negative probabilities")
    if not np.allclose(sums, 1.0, atol=max(tol, 1e-4)):
        bad = float(np.abs(sums - 1.0).max())
        raise ValueError(
            f"{name} rows must sum to 1 (max deviation {bad:.2e} exceeds tolerance)"
        )


def check_same_shape(
    a: np.ndarray, b: np.ndarray, name_a: str = "a", name_b: str = "b"
) -> None:
    """Raise if the leading 2-D shapes of *a* and *b* differ."""
    if a.shape[:2] != b.shape[:2]:
        raise ValueError(
            f"{name_a} and {name_b} must share the same spatial shape, "
            f"got {a.shape[:2]} vs {b.shape[:2]}"
        )


def check_in_range(
    value: float,
    low: Optional[float] = None,
    high: Optional[float] = None,
    name: str = "value",
    inclusive: Tuple[bool, bool] = (True, True),
) -> float:
    """Check that a scalar lies in the interval [low, high] (or open variants)."""
    value = float(value)
    if low is not None:
        if inclusive[0] and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        if not inclusive[0] and value <= low:
            raise ValueError(f"{name} must be > {low}, got {value}")
    if high is not None:
        if inclusive[1] and value > high:
            raise ValueError(f"{name} must be <= {high}, got {value}")
        if not inclusive[1] and value >= high:
            raise ValueError(f"{name} must be < {high}, got {value}")
    return value


def check_feature_matrix(
    x: np.ndarray, name: str = "X", allow_empty: bool = False
) -> np.ndarray:
    """Validate a 2-D feature matrix with finite float entries."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (n_samples, n_features), got {arr.shape}")
    if not allow_empty and arr.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def check_vector(
    y: np.ndarray, n: Optional[int] = None, name: str = "y"
) -> np.ndarray:
    """Validate a 1-D float vector, optionally checking its length."""
    arr = np.asarray(y, dtype=np.float64).ravel()
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def check_binary_labels(y: np.ndarray, name: str = "y") -> np.ndarray:
    """Validate a vector of binary {0, 1} labels."""
    arr = np.asarray(y).ravel()
    unique = np.unique(arr)
    if not np.all(np.isin(unique, [0, 1])):
        raise ValueError(f"{name} must contain only 0/1 labels, found {unique}")
    return arr.astype(np.int64)


def check_class_count(n_classes: int, minimum: int = 2) -> int:
    """Validate a class count."""
    n_classes = int(n_classes)
    if n_classes < minimum:
        raise ValueError(f"n_classes must be >= {minimum}, got {n_classes}")
    return n_classes


def check_fractions(fractions: Sequence[float], name: str = "fractions") -> Tuple[float, ...]:
    """Validate a sequence of non-negative fractions summing to one."""
    values = tuple(float(f) for f in fractions)
    if not values:
        raise ValueError(f"{name} must be non-empty")
    if any(v < 0 for v in values):
        raise ValueError(f"{name} must be non-negative")
    if not np.isclose(sum(values), 1.0, atol=1e-8):
        raise ValueError(f"{name} must sum to 1, got {sum(values)}")
    return values
