"""The ``distributed`` execution backend: range fan-out over the work queue.

:class:`DistributedBackend` is a transport of the execution core
(:mod:`repro.api.execution`): it only overrides where range specs run.  A
:class:`~repro.dispatch.coordinator.Coordinator` serves the specs over
localhost TCP to ``multiprocessing`` workers running
:func:`~repro.dispatch.worker.worker_main` (externally attached
``python -m repro worker`` processes can join the same queue), and each
worker computes them with :func:`repro.api.execution.run_shard`.  The walk
itself — specs, the single-flight shard cache, trace absorption, the fold
and the single-range fallback — is inherited, so the bitwise-parity
contract carries over verbatim; the queue adds worker-loss tolerance, lease
timeouts, retry with backoff, dedup and inline graceful degradation on top.

Queue stats accumulate on ``self.dispatch_stats`` (the Runner copies them
into ``report.cache["dispatch"]``) and mirror to ``METRICS`` under
``dispatch.*`` — the counters the fault-injection suite asserts exactly.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Dict, List, Optional

from repro.api.config import ExecutionConfig
from repro.api.execution import ProcessBackend
from repro.api.registry import EXECUTION_BACKENDS
from repro.dispatch.coordinator import STAT_NAMES, Coordinator
from repro.dispatch.faults import FaultPlan
from repro.dispatch.worker import worker_main
from repro.store import shard_key

#: Grace period for spawned workers to exit after the queue winds down.
JOIN_TIMEOUT = 10.0


def _worker_context():
    """The multiprocessing context used for spawned queue workers.

    Fork is preferred where available (no import re-execution, cheap
    startup); the platform default otherwise.  Workers never share state
    with the parent beyond the spec they receive over the socket, so the
    start method cannot influence results.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@EXECUTION_BACKENDS.register("distributed")
class DistributedBackend(ProcessBackend):
    """Sharded execution over the fault-tolerant dispatch queue; see module doc."""

    name = "distributed"

    def __init__(self, execution: ExecutionConfig) -> None:
        super().__init__(execution)
        #: Aggregated queue counters of this run (see ``STAT_NAMES``); the
        #: Runner exposes them as ``report.cache["dispatch"]``.
        self.dispatch_stats: Dict[str, int] = {name: 0 for name in STAT_NAMES}

    # ------------------------------------------------------------- the queue
    @staticmethod
    def _dedup_keys(specs: List[Dict]) -> Optional[List[Optional[str]]]:
        """Shard-content keys for queue-level dedup, where derivable.

        Two specs with the same (config, index range) produce byte-identical
        payloads, so the coordinator may compute one and fan the result out.
        Specs without the shard fields (e.g. sweep points) get ``None``.
        """
        keys: List[Optional[str]] = []
        for spec in specs:
            try:
                keys.append(shard_key(spec["config"], spec["start"], spec["stop"]))
            except (KeyError, TypeError):
                keys.append(None)
        return keys if any(key is not None for key in keys) else None

    def _compute_shards(self, worker: Callable, specs: List[Dict]) -> List:
        """Compute shard specs through the dispatch queue (results in order)."""
        if len(specs) == 1:
            return [worker(spec) for spec in specs]
        fn = f"{worker.__module__}:{worker.__qualname__}"
        fault_plan = FaultPlan.from_env()
        n_workers = min(self.workers, len(specs))
        context = _worker_context()
        execution = self.execution
        with Coordinator(
            lease_timeout=execution.lease_timeout,
            max_retries=execution.max_retries,
            backoff=execution.backoff,
        ) as coordinator:
            host, port = coordinator.address
            spawned = []
            for index in range(n_workers):
                process = context.Process(
                    target=worker_main,
                    args=(host, port),
                    kwargs={"worker_id": f"w{index}", "fault_plan": fault_plan},
                    daemon=True,
                )
                process.start()
                spawned.append(process)
            try:
                results = coordinator.run(
                    fn, specs, keys=self._dedup_keys(specs), spawned=spawned
                )
            finally:
                for name, value in coordinator.stats.items():
                    self.dispatch_stats[name] += value
                coordinator.close()  # EOF tells lingering workers to exit
                for process in spawned:
                    process.join(timeout=JOIN_TIMEOUT)
                for process in spawned:
                    if process.is_alive():
                        process.terminate()
                        process.join(timeout=JOIN_TIMEOUT)
        return results


__all__ = ["DistributedBackend", "JOIN_TIMEOUT"]
