"""Process-wide helper lanes for splitting one call's row bands across cores.

:func:`run_bands` runs ``band(0) … band(n - 1)`` on the calling thread and
lets the process's helper threads take bands off the same counter.  Three
rules keep it safe to call from anywhere:

* **The caller never waits on a band that has not begun.**  Helpers only
  take bands nobody has started; once the caller finds the counter
  exhausted it waits only for bands a helper is already running.  A call
  therefore never runs slower than serial by more than the claim overhead,
  even when every helper is busy with other callers' bands (the
  ``extraction.max_workers`` threads, the serve worker threads).
* **One pool per process.**  The helpers are created lazily on first use,
  ``len(os.sched_getaffinity(0)) - 1`` of them (the caller is the remaining
  lane), and are daemon threads, so they never keep an interpreter alive.
* **Fork-aware.**  The pool is keyed on the PID: a forked child (the
  ``process`` and ``distributed`` backends fork their workers) inherits no
  running threads, so its first call builds a fresh pool.  The pool lock is
  re-created in the child, in case a parent thread held it at fork time.

Band functions write disjoint slices of preallocated outputs; the first
exception raised by any band stops further claims and is re-raised on the
caller once the running bands are done.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Callable, Optional, Tuple


def lane_count() -> int:
    """Cores this process may run on (the caller plus the helpers)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return max(1, os.cpu_count() or 1)


_POOL_LOCK = threading.Lock()
#: ``(pid, task queue, helper count)`` of this process's pool, or None.
_POOL: Optional[Tuple[int, "queue.SimpleQueue", int]] = None


def _reset_after_fork() -> None:
    global _POOL_LOCK, _POOL
    _POOL_LOCK = threading.Lock()  # repro: allow[concurrency-shared-state] -- runs single-threaded in the freshly forked child before any other code
    _POOL = None  # repro: allow[concurrency-shared-state] -- runs single-threaded in the freshly forked child before any other code


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def _helper_loop(tasks: "queue.SimpleQueue") -> None:
    while True:
        tasks.get().work()


def _helpers() -> Tuple["queue.SimpleQueue", int]:
    """This process's helper task queue and helper count (built on first use)."""
    global _POOL
    pid = os.getpid()
    pool = _POOL
    if pool is None or pool[0] != pid:
        with _POOL_LOCK:
            pool = _POOL
            if pool is None or pool[0] != pid:
                tasks: "queue.SimpleQueue" = queue.SimpleQueue()
                n_helpers = lane_count() - 1
                for index in range(n_helpers):
                    threading.Thread(
                        target=_helper_loop, args=(tasks,),
                        name=f"repro-lane-{index}", daemon=True,
                    ).start()
                pool = _POOL = (pid, tasks, n_helpers)
    return pool[1], pool[2]


class _BandJob:
    """One call's band counter, shared by the caller and the helpers."""

    def __init__(self, n_bands: int, band: Callable[[int], None]) -> None:
        self.n_bands = n_bands
        self.band = band
        self.next_band = 0
        self.running = 0
        self.error: Optional[BaseException] = None
        self.lock = threading.Condition()

    def _claim(self) -> Optional[int]:
        with self.lock:
            if self.next_band >= self.n_bands:
                return None
            index = self.next_band
            self.next_band += 1
            self.running += 1
            return index

    def work(self) -> None:
        """Run bands until none is left unstarted (caller and helpers alike)."""
        while True:
            index = self._claim()
            if index is None:
                return
            error: Optional[BaseException] = None
            try:
                self.band(index)
            except BaseException as exc:  # re-raised on the caller by join()
                error = exc
            with self.lock:
                self.running -= 1
                if error is not None and self.error is None:
                    self.error = error
                    self.next_band = self.n_bands
                self.lock.notify_all()

    def join(self) -> None:
        with self.lock:
            while self.running:
                self.lock.wait()
        if self.error is not None:
            raise self.error


def run_bands(n_bands: int, band: Callable[[int], None]) -> None:
    """Run ``band(i)`` for ``i in range(n_bands)``, sharing bands with helpers.

    A single band, or a process with a single core, runs on the caller.
    """
    if n_bands <= 1:
        for index in range(n_bands):
            band(index)
        return
    tasks, n_helpers = _helpers()
    job = _BandJob(n_bands, band)
    for _ in range(min(n_helpers, n_bands - 1)):
        tasks.put(job)
    job.work()
    job.join()


__all__ = ["lane_count", "run_bands"]
