"""Outside-in layer tracing for the benchmark's traced mode.

The program has stage spans only (``run``/``extract``/``evaluate``), so the
traced mode times each layer from the benchmark's own files: it replaces a
layer's public entry point *where its callers look the name up* with a
wrapper that opens a :class:`repro.obs.Tracer` span, and puts every original
back afterwards.  Methods are wrapped on their class (every caller goes
through the class), module-level functions in the namespace of the module
that calls them (``repro.core.metrics.extract_segments``, not
``repro.core.segments.extract_segments``).

Rules the wrappers keep:

* only the outermost call of a layer on a thread opens a span, so a layer
  that re-enters itself is counted once;
* they record only in the process that installed them: forked dispatch
  workers inherit the wrappers but call straight through, so worker-side
  layers show up in the parent only as shard time;
* a layer's busy time is its *self* time: span duration minus the part of
  the span covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import Tracer


def _probs_bytes(args, kwargs, result) -> Dict[str, float]:
    """Heatmap input size: H·W·C float64 values of the softmax field."""
    probs = args[0] if args else kwargs["probs"]
    return {"bytes": float(probs.size * 8)}


def _segment_count(args, kwargs, result) -> Dict[str, float]:
    return {"segments": float(result.n_segments)}


def _logistic_iterations(args, kwargs, result) -> Dict[str, float]:
    return {"iterations": float(getattr(result, "n_iter_", 0))}


def _request_bytes(args, kwargs, result) -> Dict[str, float]:
    body = args[1] if len(args) > 1 else kwargs["body"]
    return {"bytes": float(len(body))}


def _encoded_frame(args, kwargs, result) -> Dict[str, float]:
    return {"frames": 1.0, "frame_bytes": float(len(result))}


def _fed_frames(args, kwargs, result) -> Dict[str, float]:
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"frames": float(len(result)), "frame_bytes": float(len(data))}


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point: ``owner.attribute`` timed as ``layer``."""

    layer: str
    owner: str
    attribute: str
    attrs: Optional[Callable] = None
    cpu: bool = False


#: Every wrapped entry point.  ``owner`` is ``module`` or ``module:Class``.
HOOKS: Tuple[Hook, ...] = (
    Hook("serve.protocol", "repro.serve.protocol", "parse_score_request", _request_bytes),
    Hook("api.fitted", "repro.api.fitted:FittedModel", "score_frame"),
    Hook("core.metrics", "repro.core.metrics:SegmentMetricsExtractor", "extract_full"),
    Hook("utils.validation", "repro.core.metrics", "check_probability_field"),
    Hook("utils.validation", "repro.core.metrics", "check_label_map"),
    Hook("utils.validation", "repro.core.metrics", "check_same_shape"),
    Hook("utils.validation", "repro.timedynamic.time_series", "check_label_map"),
    Hook("core.heatmaps", "repro.core.metrics", "fused_dispersion_heatmaps", _probs_bytes),
    Hook("core.segments", "repro.core.metrics", "extract_segments", _segment_count),
    Hook("core.segments", "repro.timedynamic.time_series", "extract_segments", _segment_count),
    Hook("core.segments.iou", "repro.core.metrics", "segment_ious"),
    Hook("core.segments.iou", "repro.timedynamic.time_series", "segment_ious"),
    Hook("core.meta_classification", "repro.core.meta_classification:MetaClassifier", "predict_proba"),
    Hook("core.meta_regression", "repro.core.meta_regression:MetaRegressor", "predict"),
    Hook("segmentation.network", "repro.segmentation.network:SimulatedSegmentationNetwork",
         "predict_probabilities"),
    Hook("timedynamic.tracking", "repro.timedynamic.tracking:SegmentTracker", "update"),
    Hook("timedynamic.time_series", "repro.timedynamic.time_series:TimeSeriesBuilder",
         "process_sequence"),
    Hook("timedynamic.time_series", "repro.timedynamic.pipeline", "build_time_series_dataset"),
    Hook("models.tree.fit", "repro.models.tree:DecisionTreeRegressor", "fit"),
    Hook("models.tree.predict", "repro.models.tree:DecisionTreeRegressor", "predict"),
    Hook("models.logistic.fit", "repro.models.logistic:LogisticRegression", "fit",
         _logistic_iterations),
    Hook("store.get", "repro.store.store:ResultStore", "get"),
    Hook("store.put", "repro.store.store:ResultStore", "put"),
    Hook("dispatch.send", "repro.dispatch.protocol", "encode_frame", _encoded_frame),
    Hook("dispatch.recv", "repro.dispatch.protocol:FrameBuffer", "feed", _fed_frames),
    Hook("api.execution", "repro.api.execution:ProcessBackend", "extract_metaseg", cpu=True),
)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class LayerProbe:
    """Installs the hooks around a traced phase.

    Use as a context manager; spans go to ``self.tracer``.  Outside the
    ``with`` block every hooked attribute is the original object again.
    """

    def __init__(self, tracer: Optional[Tracer] = None, hooks: Tuple[Hook, ...] = HOOKS) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.hooks = hooks
        self._installed: List[Tuple[object, str, object, bool]] = []
        self._local = threading.local()
        self._pid = os.getpid()

    # --------------------------------------------------------------- install
    def _open_layers(self) -> set:
        layers = getattr(self._local, "layers", None)
        if layers is None:
            layers = self._local.layers = set()
        return layers

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        probe = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            open_layers = probe._open_layers()
            if os.getpid() != probe._pid or hook.layer in open_layers:
                return original(*args, **kwargs)
            open_layers.add(hook.layer)
            cpu_start = time.process_time() if hook.cpu else 0.0
            try:
                with probe.tracer.span(hook.layer) as span:
                    result = original(*args, **kwargs)
                    if hook.attrs is not None:
                        span.set(**hook.attrs(args, kwargs, result))
                    if hook.cpu:
                        span.set(cpu_s=time.process_time() - cpu_start)
                return result
            finally:
                open_layers.discard(hook.layer)

        return wrapper

    def install(self) -> "LayerProbe":
        for hook in self.hooks:
            owner = _resolve_owner(hook.owner)
            own = hook.attribute in vars(owner)
            # The raw class-dict entry, so the wrapper binds like the method.
            original = inspect.getattr_static(owner, hook.attribute)
            self._installed.append((owner, hook.attribute, original, own))
            setattr(owner, hook.attribute, self._wrap(hook, original))
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original, own = self._installed.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def __enter__(self) -> "LayerProbe":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


# --------------------------------------------------------------------------
def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(records: List[Dict[str, object]]) -> Dict[str, float]:
    """Self time per span id: duration minus the union of its children.

    Children running in parallel (two dispatch shards under one ``extract``
    span) are counted once, so self time never goes negative.
    """
    children: Dict[object, List[Tuple[float, float]]] = {}
    for record in records:
        if record.get("duration_s") is None:
            continue
        start = float(record["start_s"])
        children.setdefault(record.get("parent_id"), []).append(
            (start, start + float(record["duration_s"]))
        )
    out: Dict[str, float] = {}
    for record in records:
        if record.get("duration_s") is None:
            continue
        start = float(record["start_s"])
        end = start + float(record["duration_s"])
        out[record["span_id"]] = end - start - _covered(
            start, end, children.get(record["span_id"], [])
        )
    return out


def layer_totals(records: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (self), ``span_s`` and attr sums."""
    selfs = self_times(records)
    totals: Dict[str, Dict[str, float]] = {}
    for record in records:
        if record.get("duration_s") is None:
            continue
        entry = totals.setdefault(
            str(record["name"]), {"calls": 0.0, "busy_s": 0.0, "span_s": 0.0}
        )
        entry["calls"] += 1
        entry["busy_s"] += selfs[record["span_id"]]
        entry["span_s"] += float(record["duration_s"])
        for key, value in (record.get("attrs") or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[key] = entry.get(key, 0.0) + float(value)
    return totals
