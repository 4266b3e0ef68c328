"""Execution backends: where the ranges of a dataset walk run.

Every experiment kind (:mod:`repro.api.kinds`) is one walk: its items are
split into contiguous ``[start, stop)`` index ranges (:func:`shard_ranges`),
each range yields a partial result, and the kind folds the partials in range
order.  A backend is a plain transport for those ranges; this module
provides the string-keyed ``execution_backends`` registry's built-in
entries,

* ``serial``  — one in-process range (the default);
* ``thread``  — one range per worker on a thread pool (numpy releases the
  GIL in the heavy kernels);
* ``process`` — one range per worker on a process pool;

and :mod:`repro.dispatch.backend` adds ``distributed``, which sends the same
range specs over its fault-tolerant work queue.  ``execution.workers`` is
the one worker knob: ``None`` uses every core this process may run on
(:func:`repro.utils.lanes.lane_count`), 0 and 1 run a single range.

A range that leaves the parent travels as a picklable spec
``{config, start, stop, prepared[, trace]}`` and is computed by the one
module-level :func:`run_shard`, which rebuilds the experiment from the
config.  With a store attached, those ranges are cached under
:func:`repro.store.shard_key` and computed once machine-wide (single-flight
claims).

The reproducibility contract is absolute: **backends only change where the
work runs, never the numbers.**  Per-item results are pure functions of
``(config, item index)``, every fold preserves item order, and the
evaluation protocols always run in the parent — so every backend and worker
count is bitwise identical to serial.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Tuple

from repro.api.config import ExecutionConfig, ExperimentConfig
from repro.api.kinds import KINDS
from repro.api.registry import EXECUTION_BACKENDS
from repro.core.batching import map_ordered, normalize_max_workers
from repro.obs import NULL_TRACER, Tracer
from repro.store import shard_key
from repro.utils.lanes import lane_count


def shard_ranges(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced, deterministic ``[start, stop)`` index ranges.

    The first ``n_items % n_shards`` shards get one extra item; empty shards
    are dropped.  Contiguity is what keeps the shard merge order-preserving
    (shard *k* holds exactly the items serial execution would have processed
    at positions ``start_k .. stop_k``).
    """
    if n_items < 0:
        raise ValueError(f"n_items must be non-negative, got {n_items}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, n_items) or 1
    base, remainder = divmod(n_items, n_shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for shard in range(n_shards):
        stop = start + base + (1 if shard < remainder else 0)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    return ranges


def run_shard(spec: Dict):
    """Compute one range spec: rebuild the experiment from its config.

    The worker never consults the config's execution section, so there is
    no recursive fan-out.  A spec without a ``"trace"`` entry returns the
    partial itself.  With one, the worker continues the parent trace: it
    builds a child :class:`~repro.obs.Tracer` on the shipped trace id (with
    a per-shard span-id prefix so merged timelines never collide), runs the
    range under a span parented to the remote parent span, and returns
    ``{"__trace__": export, "payload": partial}``; the parent unwraps the
    envelope before the partial is cached or folded.
    """
    from repro.api.runner import Runner

    def compute():
        config = ExperimentConfig.from_dict(spec["config"])
        resolved = Runner().resolve(config)
        return KINDS[config.kind].run_range(
            resolved, spec["start"], spec["stop"], spec["prepared"]
        )

    trace = spec.get("trace")
    if trace is None:
        return compute()
    tracer = Tracer(trace_id=trace["trace_id"], id_prefix=trace["id_prefix"])
    with tracer.span(
        trace["name"], parent_id=trace["parent_span_id"], start=spec["start"], stop=spec["stop"]
    ):
        payload = compute()
    return {"__trace__": tracer.export(), "payload": payload}


def _in_dispatch_worker() -> bool:
    # Imported late: repro.dispatch imports this module.
    from repro.dispatch.worker import is_worker_process

    return is_worker_process()


@EXECUTION_BACKENDS.register("serial")
class SerialBackend:
    """One in-process range; the base class of every transport.

    The base class owns the whole walk — size, parent-side preparation,
    range specs, the shard cache, trace absorption and the fold — and the
    subclasses only override :meth:`_compute_shards`, the place where specs
    run.  Every transport falls back to one in-process range when it has
    one worker or the workload has one item, and a dispatch worker never
    fans out again.
    """

    name = "serial"
    #: Whether the transport spreads ranges over ``execution.workers``.
    parallel = False

    def __init__(self, execution: ExecutionConfig) -> None:
        self.execution = execution
        workers = max(1, normalize_max_workers(execution.workers, lane_count()))
        self.workers = workers if self.parallel and not _in_dispatch_worker() else 1
        #: Set by the Runner before the walk (parent thread only).
        self.store = None
        self.tracer = NULL_TRACER
        #: Run counters, copied into ``report.cache`` by the Runner.
        self.shard_cache = {"hits": 0, "misses": 0}
        self.fit_cache = {"hits": 0, "misses": 0}
        self.dispatch_stats: Dict[str, int] = {}

    # --------------------------------------------------------------- walk
    def walk(self, kind, resolved):
        """Size, prepare, map the ranges, and fold; returns the kind's folded result."""
        size = kind.size(resolved)
        prepared = kind.prepare(resolved, self)
        with self.tracer.span(kind.stage, backend=self.name):
            ranges = shard_ranges(size, self.workers)
            if len(ranges) <= 1:
                partials = [kind.run_range(resolved, 0, size, prepared)]
            else:
                partials = self._map_shards(self._specs(resolved, ranges, prepared))
            return kind.fold(resolved, partials, size, prepared)

    def extract_metaseg(self, resolved):
        """The metaseg walk: ``(metrics dataset, n_images)``."""
        return self.walk(KINDS["metaseg"], resolved)

    # ------------------------------------------------------------- shards
    def _specs(self, resolved, ranges, prepared) -> List[Dict]:
        config_dict = resolved.config.to_dict()
        specs = [
            {"config": config_dict, "start": start, "stop": stop, "prepared": prepared}
            for start, stop in ranges
        ]
        # Continue the parent trace across the transport: each spec carries
        # the open stage span as remote parent plus a per-shard id prefix.
        # ``shard_key`` hashes only config + index range, so traced and
        # untraced partials share cache entries.
        context = self.tracer.current_context()
        if context is not None:
            for index, spec in enumerate(specs):
                spec["trace"] = {
                    "trace_id": context["trace_id"],
                    "parent_span_id": context["parent_span_id"],
                    "id_prefix": f"{context['parent_span_id']}.{index}.",
                    "name": f"shard{index}",
                }
        return specs

    def _compute_shards(self, fn, specs: List[Dict]) -> List:
        """Apply *fn* to every spec, results in spec order; the transport seam."""
        return [fn(spec) for spec in specs]

    def _absorb(self, result):
        """Unwrap a traced shard envelope, merging its child timeline."""
        if isinstance(result, dict) and "__trace__" in result:
            self.tracer.merge(result["__trace__"])
            return result["payload"]
        return result

    def _publish(self, key: str, spec: Dict, result):
        result = self._absorb(result)
        self.store.put(
            key,
            result,
            codec="pickle",
            provenance={
                "type": "shard",
                "kind": spec["config"]["kind"],
                "start": spec["start"],
                "stop": spec["stop"],
                "config_hash": key,
            },
        )
        return result

    def _map_shards(self, specs: List[Dict]) -> List:
        """Partials of the specs in range order, single-flight with a store.

        Without a store this is the transport fan-out.  With one, cached
        ranges are served without touching the transport; every missing key
        is either *claimed* (computed in one transport batch, then
        published) or already claimed by another process, in which case it
        is waited on and re-read — and rescued inline if that producer died
        without publishing.  The key excludes every field that cannot change
        the partial, so a sweep over protocol-side fields reuses every range.
        """
        if self.store is None:
            return [self._absorb(result) for result in self._compute_shards(run_shard, specs)]
        keys = [shard_key(spec["config"], spec["start"], spec["stop"]) for spec in specs]
        results: List = [self.store.get(key, codec="pickle") for key in keys]
        missing = [index for index, result in enumerate(results) if result is None]
        self.shard_cache["hits"] += len(specs) - len(missing)  # repro: allow[concurrency-shared-state] -- shard results are consumed on the parent thread only
        self.shard_cache["misses"] += len(missing)  # repro: allow[concurrency-shared-state] -- shard results are consumed on the parent thread only
        claimed = [index for index in missing if self.store.try_claim(keys[index])]
        waiting = [index for index in missing if index not in claimed]
        try:
            if claimed:
                computed = self._compute_shards(run_shard, [specs[i] for i in claimed])
                for index, result in zip(claimed, computed):
                    results[index] = self._publish(keys[index], specs[index], result)
        finally:
            for index in claimed:
                self.store.release(keys[index])
        for index in waiting:
            value = self.store.wait_for(keys[index], codec="pickle")
            if value is None:
                # The claiming producer died without publishing: rescue the
                # range inline (a pure function of the spec — same bytes).
                value = self._publish(keys[index], specs[index], run_shard(specs[index]))
            results[index] = value
        return results


@EXECUTION_BACKENDS.register("thread")
class ThreadBackend(SerialBackend):
    """One range per worker on a thread pool (order-preserving)."""

    name = "thread"
    parallel = True

    def _compute_shards(self, fn, specs: List[Dict]) -> List:
        return map_ordered(fn, specs, max_workers=len(specs))


@EXECUTION_BACKENDS.register("process")
class ProcessBackend(SerialBackend):
    """One range per worker on a process pool (order-preserving).

    Each worker receives a picklable spec, rebuilds the substrate / network
    / pipeline from the config, and computes only its own index range.
    """

    name = "process"
    parallel = True

    def _compute_shards(self, fn, specs: List[Dict]) -> List:
        with ProcessPoolExecutor(max_workers=len(specs)) as pool:
            return list(pool.map(fn, specs))
