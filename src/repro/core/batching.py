"""Small helpers shared by the execution core and the pipelines.

* :func:`normalize_max_workers` — the library-wide worker-count contract
  (``None`` falls back to a default, 0 and 1 mean serial, negative values
  are rejected);
* :func:`map_ordered` — apply a function to every item, optionally on a
  ``concurrent.futures`` thread pool, **always** returning the results in
  input order so parallel runs are bit-identical to serial ones;
* :func:`supports_cache_kwarg` — whether a dataset accessor can fetch an
  item without caching it.

Thread fan-out is safe for the simulated networks and the metric extractor:
``predict_probabilities`` derives its RNG from ``(master_seed, index)`` per
call, the extractor's grid cache is written idempotently and its band work
buffers are per thread.  NumPy releases the GIL inside the heavy array
kernels, so threads give real parallelism without requiring the work items
to be picklable.
"""

from __future__ import annotations

import inspect
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def normalize_max_workers(
    max_workers: Optional[int], default: Optional[int] = None
) -> Optional[int]:
    """The library-wide worker-count contract, in one place.

    ``None`` falls back to *default* (itself normalised); ``None``, 0 and 1
    all mean serial execution; negative values raise :class:`ValueError`.
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

    The built-in substrates' sample accessors do (``cache=False`` keeps a
    walk from holding more than the items it is working on); custom
    registered substrates may not, in which case callers fall back to the
    default cached accessor — still correct, just without the memory bound.
    """
    try:
        return "cache" in inspect.signature(accessor).parameters
    except (TypeError, ValueError):  # builtins / exotic callables
        return False


def map_ordered(
    fn: Callable[[ItemT], ResultT],
    items: Sequence[ItemT],
    max_workers: Optional[int] = None,
) -> List[ResultT]:
    """Apply ``fn`` to every item, preserving input order in the results.

    ``max_workers`` follows the contract of :func:`normalize_max_workers`:
    ``None``, 0 and 1 run serially, larger values fan the items out across
    a thread pool, and negative values raise :class:`ValueError`.  Either
    way the returned list is ordered like ``items``, so downstream
    reductions produce bit-identical results regardless of the worker count.
    """
    items = list(items)
    max_workers = normalize_max_workers(max_workers)
    if max_workers is None or max_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(max_workers, len(items))) as pool:
        return list(pool.map(fn, items))
