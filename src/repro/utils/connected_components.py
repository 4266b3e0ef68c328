"""Connected component labelling for segmentation masks.

The paper treats every connected component of a predicted (or ground-truth)
class mask as one *segment instance*; meta classification and the FP/FN
definitions all operate on these components.  This module provides:

* a self-contained union-find based labelling routine (``engine="unionfind"``)
  that only needs numpy, and
* a fast path backed by ``scipy.ndimage.label`` (``engine="scipy"``) used by
  default when scipy is importable.

Both engines produce identical partitions (component numbering may differ in
general, but we normalise ids to scan order of the first pixel so the outputs
are bit-identical); the test suite cross-checks them against each other.

Two pixels belong to the same component iff they carry the same value in the
label map and are connected through a path of equally-valued neighbours.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.utils.validation import check_label_map

try:  # pragma: no cover - import guard exercised implicitly
    from scipy import ndimage as _ndimage

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    _ndimage = None
    _HAVE_SCIPY = False


def _resolve_roots(parent: np.ndarray) -> np.ndarray:
    """Fully compress a parent-pointer forest via pointer doubling."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _normalise_ids(components: np.ndarray) -> Tuple[np.ndarray, int]:
    """Renumber component ids to 1..n in scan order of each component's first pixel."""
    flat = components.ravel()
    nonzero_mask = flat != 0
    if not np.any(nonzero_mask):
        return np.zeros_like(components), 0
    ids, first_idx = np.unique(flat[nonzero_mask], return_index=True)
    order = np.argsort(first_idx, kind="stable")
    mapping = np.zeros(int(flat.max()) + 1, dtype=np.int64)
    mapping[ids[order]] = np.arange(1, ids.size + 1)
    out = np.where(nonzero_mask, mapping[np.clip(flat, 0, None)], 0)
    return out.reshape(components.shape), int(ids.size)


def _label_unionfind(labels: np.ndarray, connectivity: int, background: int) -> np.ndarray:
    h, w = labels.shape
    n = h * w
    flat = labels.ravel()

    def _edges_shift(dr: int, dc: int):
        """Edge arrays between each pixel and its (dr, dc)-shifted neighbour."""
        rows = np.arange(max(0, -dr), h - max(0, dr))
        cols = np.arange(max(0, -dc), w - max(0, dc))
        if rows.size == 0 or cols.size == 0:
            return None
        rr, cc = np.meshgrid(rows, cols, indexing="ij")
        here = (rr * w + cc).ravel()
        there = ((rr + dr) * w + (cc + dc)).ravel()
        same = (flat[here] == flat[there]) & (flat[here] != background)
        if not np.any(same):
            return None
        return here[same], there[same]

    shifts = [(1, 0), (0, 1)]
    if connectivity == 8:
        shifts += [(1, 1), (1, -1)]
    edge_pairs = [edges for edges in (_edges_shift(dr, dc) for dr, dc in shifts) if edges]

    # Batched union-find: all edges of all shift directions are merged at once
    # by alternating full path compression (pointer doubling) with a vectorised
    # "hook the larger root under the smaller" step, instead of one Python-level
    # union call per edge.  Parent pointers only ever decrease, so the loop
    # terminates; at exit every edge connects two pixels with equal roots.
    parent = np.arange(n, dtype=np.int64)
    if edge_pairs:
        here = np.concatenate([edges[0] for edges in edge_pairs])
        there = np.concatenate([edges[1] for edges in edge_pairs])
        while True:
            parent = _resolve_roots(parent)
            root_a = parent[here]
            root_b = parent[there]
            low = np.minimum(root_a, root_b)
            high = np.maximum(root_a, root_b)
            unresolved = low != high
            if not np.any(unresolved):
                break
            np.minimum.at(parent, high[unresolved], low[unresolved])

    foreground = flat != background
    components = np.where(foreground, parent + 1, 0)
    return components.reshape(h, w)


def _class_boxes(labels: np.ndarray):
    """``(value, (rows, cols))`` bounding box of every value in ``labels``.

    One ``find_objects`` pass over the label map shifted to ``1..span`` when
    the values are dense, or over its ``np.unique`` inverse when they are
    sparse (say {-1, 0, 10**6}, where a shifted map would ask for a million
    empty slots).  Values come out in ascending order.
    """
    low, high = int(labels.min()), int(labels.max())
    span = high - low + 1
    if span <= 4 * labels.size:
        dense = labels - (low - 1)
        values = np.arange(low, high + 1)
    else:
        values, inverse = np.unique(labels, return_inverse=True)
        dense = inverse.reshape(labels.shape) + 1
    for value, box in zip(values, _ndimage.find_objects(dense, max_label=values.size)):
        if box is not None:
            yield int(value), box


def _label_scipy(labels: np.ndarray, connectivity: int, background: int) -> np.ndarray:
    """Per-class ``ndimage.label``, each inside that class's bounding box.

    A component never leaves its class's bounding box, so labelling the box
    gives the same partition as labelling the whole image at a fraction of
    the pixels; ids are renormalised to scan order afterwards, so only the
    partition matters.
    """
    structure = (
        np.ones((3, 3), dtype=bool)
        if connectivity == 8
        else np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    )
    components = np.zeros(labels.shape, dtype=np.int64)
    offset = 0
    for value, box in _class_boxes(labels):
        if value == background:
            continue
        mask = labels[box] == value
        labelled, count = _ndimage.label(mask, structure=structure)
        components[box][mask] = labelled[mask] + offset
        offset += int(count)
    return components


def connected_components(
    labels: np.ndarray,
    connectivity: int = 8,
    background: int = -1,
    engine: str = "auto",
) -> Tuple[np.ndarray, int]:
    """Label connected components of equal-valued pixels.

    Parameters
    ----------
    labels:
        2-D integer array of class ids per pixel.
    connectivity:
        4 or 8.
    background:
        Value treated as background / ignore (component id 0).
    engine:
        ``"auto"`` (scipy when available, otherwise union-find), ``"scipy"``
        or ``"unionfind"``.

    Returns
    -------
    components:
        2-D ``int64`` array; background pixels are 0, components are numbered
        1..n_components in scan order of their first pixel.
    n_components:
        Number of non-background components.
    """
    labels = check_label_map(labels)
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    if engine not in ("auto", "scipy", "unionfind"):
        raise ValueError(f"unknown engine {engine!r}")
    use_scipy = engine == "scipy" or (engine == "auto" and _HAVE_SCIPY)
    if engine == "scipy" and not _HAVE_SCIPY:
        raise RuntimeError("scipy is not available but engine='scipy' was requested")
    if use_scipy:
        raw = _label_scipy(labels, connectivity, background)
    else:
        raw = _label_unionfind(labels, connectivity, background)
    return _normalise_ids(raw)


def pair_contingency(
    a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse contingency table of two aligned integer arrays.

    Counts, for every pair of values ``(a[i], b[i])``, how often it occurs.
    This is the single-pass primitive behind the vectorised segment matching:
    with ``a`` the predicted component image and ``b`` the ground-truth
    component image, the table holds every pairwise intersection size at once.

    Returns
    -------
    a_values, b_values, counts:
        Aligned 1-D arrays; ``counts[i]`` is the number of positions where
        ``a == a_values[i]`` and ``b == b_values[i]``.  Rows are sorted by
        ``(a_value, b_value)``.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"arrays must be aligned, got sizes {a.size} and {b.size}")
    empty = np.zeros(0, dtype=np.int64)
    if a.size == 0:
        return empty, empty.copy(), empty.copy()
    a_min = int(a.min())
    b_min = int(b.min())
    a_shift = a.astype(np.int64) - a_min
    b_shift = b.astype(np.int64) - b_min
    span = int(b_shift.max()) + 1
    codes = a_shift * span + b_shift
    n_codes = (int(a_shift.max()) + 1) * span
    # Dense bincount is one O(size) pass but allocates the full table; fall
    # back to sort-based np.unique when the value ranges make it too large.
    if n_codes <= max(1 << 20, 4 * a.size):
        dense = np.bincount(codes, minlength=n_codes)
        nonzero = np.nonzero(dense)[0]
        counts = dense[nonzero].astype(np.int64)
        code_values = nonzero
    else:
        code_values, counts = np.unique(codes, return_counts=True)
        counts = counts.astype(np.int64)
    a_values = code_values // span + a_min
    b_values = code_values % span + b_min
    return a_values.astype(np.int64), b_values.astype(np.int64), counts


def component_sizes(components: np.ndarray) -> np.ndarray:
    """Pixel counts per component id (index 0 is the background count)."""
    components = np.asarray(components)
    if components.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(components.ravel().astype(np.int64))


def relabel_sequential(components: np.ndarray) -> Tuple[np.ndarray, int]:
    """Relabel component ids to a dense 1..n range preserving 0 as background."""
    components = np.asarray(components, dtype=np.int64)
    unique = np.unique(components)
    unique = unique[unique != 0]
    max_id = int(components.max()) if components.size else 0
    mapping = np.zeros(max_id + 1 if max_id >= 0 else 1, dtype=np.int64)
    mapping[unique] = np.arange(1, unique.size + 1, dtype=np.int64)
    out = np.where(components > 0, mapping[np.clip(components, 0, None)], 0)
    return out, int(unique.size)


def component_slices(components: np.ndarray) -> Dict[int, Tuple[slice, slice]]:
    """Bounding-box slices per component id (excluding background 0).

    Useful for cheaply iterating over segments without scanning the full
    image for every segment.
    """
    components = np.asarray(components, dtype=np.int64)
    out: Dict[int, Tuple[slice, slice]] = {}
    if components.size == 0:
        return out
    n = int(components.max())
    if n <= 0:
        return out
    if _HAVE_SCIPY:
        slices = _ndimage.find_objects(components, max_label=n)
        for comp_id, slc in enumerate(slices, start=1):
            if slc is not None:
                out[comp_id] = (slc[0], slc[1])
        return out
    # Fallback without scipy: one pass over the foreground pixel coordinates
    # with unbuffered min/max scatter reductions, instead of a full-image
    # ``np.nonzero`` scan per component.
    width = components.shape[1]
    foreground = np.nonzero(components.ravel())[0]
    if foreground.size == 0:
        return out
    ids = components.ravel()[foreground]
    rows = foreground // width
    cols = foreground % width
    top = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
    left = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
    bottom = np.full(n + 1, -1, dtype=np.int64)
    right = np.full(n + 1, -1, dtype=np.int64)
    np.minimum.at(top, ids, rows)
    np.maximum.at(bottom, ids, rows)
    np.minimum.at(left, ids, cols)
    np.maximum.at(right, ids, cols)
    for comp_id in range(1, n + 1):
        if bottom[comp_id] < 0:
            continue
        out[comp_id] = (
            slice(int(top[comp_id]), int(bottom[comp_id]) + 1),
            slice(int(left[comp_id]), int(right[comp_id]) + 1),
        )
    return out
