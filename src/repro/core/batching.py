"""Shared batched execution layer for the extraction pipelines.

All three pipelines (`core.pipeline.MetaSegPipeline`,
`timedynamic.pipeline.TimeDynamicPipeline`, `decision.pipeline.
DecisionRuleComparison`) walk a stream of independent work items — images,
video sequences, evaluation samples — through a pure per-item function.  This
module provides the common machinery for doing that in batches:

* :func:`chunked` splits any iterable into fixed-size chunks so results can be
  streamed (and memory bounded) instead of accumulated in one Python list;
* :func:`map_ordered` applies a function to every item, optionally fanning out
  across a ``concurrent.futures`` thread pool, while **always** returning the
  results in input order so batched runs are bit-identical to serial runs.

Thread fan-out is safe for the simulated networks and the metric extractor:
``predict_probabilities`` derives its RNG from ``(master_seed, index)`` per
call, the extractor's grid cache is written idempotently and its band work
buffers are per thread.  NumPy
releases the GIL inside the heavy array kernels, so threads give real
parallelism without requiring the work items to be picklable.
"""

from __future__ import annotations

import inspect
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Default number of work items per streamed chunk.
DEFAULT_CHUNK_SIZE = 8


def extraction_defaults(extraction) -> "tuple[int, Optional[int]]":
    """(chunk_size, max_workers) defaults from an optional ExtractionConfig.

    Shared by the three pipelines' constructors so the fallback semantics
    (library default chunk size, serial execution) live in one place.  The
    config object is duck-typed (``chunk_size``/``max_workers`` attributes)
    to keep this module import-light.
    """
    if extraction is None:
        return DEFAULT_CHUNK_SIZE, None
    chunk_size = (
        DEFAULT_CHUNK_SIZE if extraction.chunk_size is None else int(extraction.chunk_size)
    )
    return chunk_size, normalize_max_workers(extraction.max_workers)


def normalize_max_workers(
    max_workers: Optional[int], default: Optional[int] = None
) -> Optional[int]:
    """The library-wide worker-count contract, in one place.

    ``None`` falls back to *default* (itself normalised); ``None``, 0 and 1
    all mean serial execution; negative values raise :class:`ValueError`.
    All three pipelines route their ``max_workers`` keyword arguments through
    this function, so the contract cannot drift between call sites.
    """
    if max_workers is None:
        if default is None:
            return None
        max_workers = default
    max_workers = int(max_workers)
    if max_workers < 0:
        raise ValueError(
            f"max_workers must be >= 0 (None, 0 and 1 run serially), got {max_workers}"
        )
    return max_workers


def supports_cache_kwarg(accessor: Callable) -> bool:
    """Whether a dataset accessor accepts the ``cache`` keyword argument.

    The built-in substrates' sample accessors do (``cache=False`` powers the
    memory-bounded streaming walks); custom registered substrates may not,
    in which case callers fall back to the default cached accessor — still
    correct, just without the memory bound.  One probe shared by every
    streaming call site so the capability contract cannot drift.
    """
    try:
        return "cache" in inspect.signature(accessor).parameters
    except (TypeError, ValueError):  # builtins / exotic callables
        return False


def chunked(items: Iterable[ItemT], chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[List[ItemT]]:
    """Yield successive lists of at most ``chunk_size`` items.

    Works on arbitrary (lazy) iterables; only one chunk is materialised at a
    time, so a streaming producer is never fully buffered.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    chunk: List[ItemT] = []
    for item in items:
        chunk.append(item)
        if len(chunk) == chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def iter_indexed_chunks(
    items: Iterable[ItemT],
    chunk_size: int,
    max_workers: Optional[int],
    index_offset: int = 0,
) -> Iterator[List["tuple[int, ItemT]"]]:
    """Yield ``(global_index, item)`` pairs, one pool-ready chunk at a time.

    The shared walk of every streamed fan-out path: items are consumed
    lazily (memory stays bounded by one chunk), each item is paired with its
    global index (``index_offset`` + position, which seeds the per-item
    RNG), and chunks widen to several pool-widths so a ThreadPoolExecutor is
    amortised over many items and the per-chunk barrier rarely idles a
    worker.  One implementation keeps the widening/bookkeeping contract from
    drifting between pipelines.
    """
    position = index_offset
    for chunk in chunked(items, max(chunk_size, 4 * (max_workers or 0))):
        indexed = list(zip(range(position, position + len(chunk)), chunk))
        position += len(chunk)
        yield indexed


def map_ordered(
    fn: Callable[[ItemT], ResultT],
    items: Sequence[ItemT],
    max_workers: Optional[int] = None,
) -> List[ResultT]:
    """Apply ``fn`` to every item, preserving input order in the results.

    ``max_workers`` follows the library-wide contract of
    :func:`normalize_max_workers`: ``None``, 0 and 1 run serially
    (deterministic default), larger values fan the items out across a thread
    pool, and negative values raise :class:`ValueError`.  Either way the
    returned list is ordered like ``items``, so downstream reductions (metric
    concatenation, accuracy sums) produce bit-identical results regardless of
    the worker count.
    """
    items = list(items)
    max_workers = normalize_max_workers(max_workers)
    if max_workers is None or max_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(max_workers, len(items))) as pool:
        return list(pool.map(fn, items))
