"""The three benchmark workloads, each against the library's public API.

A workload is built from ``--seed`` alone; the library only ever sees the
inputs generated here.  Each one offers:

* ``setup()`` — everything before timing (inputs, fitted model, reference
  outputs, warm-up);
* ``op(tracer)`` — one operation of the closed loop, returning its output;
* ``check(output)`` — the per-op correctness check behind ``failed``;
* ``quality()`` — ``(test_auroc, test_r2)`` of the op's meta models;
* ``extras(output)`` — counters the traced run reads off the output;
* ``inputs()`` — input sizes for the record; ``close()`` — remove files.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.api.config import ExperimentConfig
from repro.api.execution import shard_ranges
from repro.api.registry import EXECUTION_BACKENDS
from repro.api.runner import Runner
from repro.dispatch.backend import DistributedBackend
from repro.evaluation.classification import auroc
from repro.evaluation.regression import r2_score
from repro.io.fixture import disk_config_payload, write_disk_fixture
from repro.serve import protocol
from repro.serve.service import ScoringService
from repro.store import ResultStore
from repro.sweep import SweepConfig, run_sweep

#: Scoring resolution (H, W) and classes of score_stream and metaseg_sweep.
FRAME_SHAPE = (256, 512)
N_CLASSES = 19
FRAME_BYTES = FRAME_SHAPE[0] * FRAME_SHAPE[1] * N_CLASSES * 8


def _row(table: List[Dict[str, object]], metric: str, **keys: object) -> float:
    """The ``mean`` of the one table row matching *metric* and *keys*."""
    matches = [
        row["mean"] for row in table
        if row["metric"] == metric and all(row.get(k) == v for k, v in keys.items())
    ]
    if len(matches) != 1:
        raise ValueError(f"expected one {metric} row for {keys}, found {len(matches)}")
    return float(matches[0])


# --------------------------------------------------------------------------
@dataclass
class _PoolFrame:
    image_id: str
    body: bytes
    labels: np.ndarray
    reference: str


class ScoreStream:
    """Deployment path: npy request -> parse -> ``score_frame`` -> JSON.

    Set-up fits one serving model with ``Runner.fit`` on ``FIT_FRAMES``
    frames and builds a pool of ``POOL_FRAMES`` held-out frames of the same
    substrate (larger than the last-level cache together).  The MobilenetV2
    profile runs with a raised hallucination rate so every frame carries
    hundreds of segments.  One op scores the next pool frame.
    """

    name = "score_stream"
    FIT_FRAMES = 6
    POOL_FRAMES = 6
    #: A few hundred segments per frame instead of ~70, so the per-segment
    #: layers carry the weight they have on real scenes.
    HALLUCINATION_RATE = 400.0
    WARMUP_OPS = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.frames_per_op = 1
        self.pool: List[_PoolFrame] = []
        self._cursor = 0

    def _config(self, n_val: int) -> Dict[str, object]:
        height, width = FRAME_SHAPE
        return {
            "kind": "metaseg",
            "name": "score-stream",
            "seed": self.seed,
            "data": {"dataset": "cityscapes_like", "n_val": n_val,
                     "height": height, "width": width},
            "network": {"profile": "mobilenetv2",
                        "overrides": {"hallucination_rate": self.HALLUCINATION_RATE}},
            "meta_models": {"classifiers": ["logistic"], "regressors": ["linear"]},
        }

    def setup(self) -> None:
        runner = Runner()
        self.model = runner.fit(self._config(self.FIT_FRAMES))
        self.service = ScoringService(self.model)
        n_total = self.FIT_FRAMES + self.POOL_FRAMES
        resolved = runner.resolve(ExperimentConfig.from_dict(self._config(n_total)))
        for index in range(self.FIT_FRAMES, n_total):
            sample = resolved.dataset.val_sample(index)
            probs = resolved.network.predict_probabilities(sample.labels, index=index)
            buffer = io.BytesIO()
            np.save(buffer, probs)
            reference = self.model.score_frame(probs, image_id=sample.image_id)
            self.pool.append(
                _PoolFrame(sample.image_id, buffer.getvalue(), np.asarray(sample.labels),
                           json.dumps(reference))
            )
        for _ in range(self.WARMUP_OPS):
            self.check(self.op())
        self._cursor = 0

    def op(self, tracer=None) -> Tuple[_PoolFrame, str]:
        frame = self.pool[self._cursor % len(self.pool)]
        self._cursor += 1
        [(image_id, probs)] = protocol.parse_score_request(
            "application/x-npy", frame.body, frame.image_id
        )
        return frame, json.dumps(self.service.score_frame(probs, image_id=image_id))

    def check(self, output) -> bool:
        frame, text = output
        return text == frame.reference

    def extras(self, output) -> Dict[str, float]:
        return {}

    def quality(self) -> Tuple[float, float]:
        """AUROC / R² of the served scores against the pool's ground truth."""
        extractor = self.model.build_extractor()
        truth, tp_probability, predicted_iou = [], [], []
        for frame in self.pool:
            probs = np.load(io.BytesIO(frame.body))
            dataset = extractor.extract(probs, gt_labels=frame.labels)
            response = json.loads(frame.reference)
            if response["segment_ids"] != dataset.segment_ids.tolist():
                raise ValueError(f"{frame.image_id}: segment ids differ from ground truth")
            truth.append(dataset.target_iou())
            tp_probability.extend(response["tp_probability"])
            predicted_iou.extend(response["predicted_iou"])
        iou = np.concatenate(truth)
        return (
            auroc((iou > 0).astype(np.int64), np.asarray(tp_probability)),
            r2_score(iou, np.asarray(predicted_iou)),
        )

    def inputs(self) -> Dict[str, object]:
        segments = [json.loads(frame.reference)["n_segments"] for frame in self.pool]
        return {
            "frame_shape": [*FRAME_SHAPE, N_CLASSES],
            "request_bytes": len(self.pool[0].body),
            "pool_frames": len(self.pool),
            "pool_bytes": sum(len(frame.body) for frame in self.pool),
            "fit_frames": self.FIT_FRAMES,
            "hallucination_rate": self.HALLUCINATION_RATE,
            "segments_per_frame": statistics.mean(segments),
        }

    def close(self) -> None:
        self.pool = []


# --------------------------------------------------------------------------
class TimeDynamicSim:
    """One Table II ``Runner.run`` (kind ``timedynamic``, serial backend).

    KITTI-like video, MobilenetV2 under test and Xception65 as the
    pseudo-label reference, gradient-boosting meta models.  The seed
    generates ``VIDEOS`` independent short videos; one op runs the Table II
    protocol on the next of them.  A short op puts a few dozen ops in one
    timed phase, and averaging AUROC and R² over the videos keeps them
    steady from seed to seed.  Set-up runs each video once: those reference
    reports are what every op must reproduce bitwise.
    """

    name = "timedynamic_sim"
    SHAPE = (64, 128)
    VIDEOS = 4
    SEQUENCES = 8
    FRAMES = 3
    GB_PARAMS = {"n_estimators": 15, "max_depth": 3, "max_features": "sqrt",
                 "subsample": 0.8}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.frames_per_op = self.SEQUENCES * self.FRAMES
        self.configs = [self._config(seed * self.VIDEOS + video)
                        for video in range(self.VIDEOS)]
        self.references: List[Tuple[str, object]] = []
        self._cursor = 0

    def _config(self, video_seed: int) -> Dict[str, object]:
        height, width = self.SHAPE
        return {
            "kind": "timedynamic",
            "name": "timedynamic-sim",
            "seed": video_seed,
            "data": {"dataset": "kitti_like", "height": height, "width": width,
                     "n_sequences": self.SEQUENCES, "n_frames": self.FRAMES,
                     "labeled_stride": 2},
            "meta_models": {"classifiers": ["gradient_boosting"],
                            "model_params": {"gradient_boosting": dict(self.GB_PARAMS)}},
            "evaluation": {"n_runs": 1, "n_frames_list": [2],
                           "compositions": ["R", "RP"]},
        }

    @staticmethod
    def _digest(report) -> str:
        return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()

    def setup(self) -> None:
        for config in self.configs:
            report = Runner().run(config)
            self.references.append((self._digest(report), report))

    def op(self, tracer=None):
        video = self._cursor % self.VIDEOS
        self._cursor += 1
        return video, Runner(tracer=tracer).run(self.configs[video])

    def check(self, output) -> bool:
        video, report = output
        return self._digest(report) == self.references[video][0]

    def extras(self, output) -> Dict[str, float]:
        return {}

    def quality(self) -> Tuple[float, float]:
        """Mean AUROC / R² over the videos' reference reports."""
        keys = {"composition": "R", "method": "gradient_boosting", "n_frames": 2}
        tables = [report.tables for _, report in self.references]
        return (statistics.mean(_row(t["classification"], "auroc", **keys) for t in tables),
                statistics.mean(_row(t["regression"], "r2", **keys) for t in tables))

    def inputs(self) -> Dict[str, object]:
        provenance = [report.provenance for _, report in self.references]
        return {
            "frame_shape": list(self.SHAPE),
            "videos": self.VIDEOS,
            "sequences_per_video": self.SEQUENCES,
            "frames_per_sequence": self.FRAMES,
            "real_segments": sum(p.get("n_real_segments", 0) for p in provenance),
            "pseudo_segments": sum(p.get("n_pseudo_segments", 0) for p in provenance),
        }

    def close(self) -> None:
        self.references = []


# --------------------------------------------------------------------------
#: ``run_sweep`` ships whole points to queue workers when every point names
#: the ``distributed`` backend, and inside a worker a point walks its frames
#: serially, so no extraction shard is ever cached.  Registering the same
#: DistributedBackend class under a second name keeps the sweep driver in the
#: parent (points in order) while each point still extracts in shards over
#: the dispatch queue: point 0 publishes the shards, later points hit them.
SHARDED_BACKEND = "distributed_shards"


class MetaSegSweep:
    """A ``run_sweep`` over classification penalties on a softmax-dump tree.

    Set-up writes a Cityscapes-layout tree with float64 softmax dumps
    (``write_disk_fixture``), computes each point's reference tables with a
    serial, store-less ``Runner.run``, and runs one warm-up op (which also
    leaves the dump files in the page cache).  One op is a whole sweep with
    a fresh ``ResultStore`` and two dispatch workers.
    """

    name = "metaseg_sweep"
    VAL_FRAMES = 8
    WORKERS = 2
    PENALTIES = [0.25, 1.0, 4.0]
    N_RUNS = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tree = workdir / f"tree-seed{seed}"
        self.frames_per_op = self.VAL_FRAMES * len(self.PENALTIES)
        self.n_shards = len(shard_ranges(self.VAL_FRAMES, self.WORKERS))
        self._ops = 0
        self.references: List[str] = []
        self.first_report = None

    def setup(self) -> None:
        if SHARDED_BACKEND not in EXECUTION_BACKENDS:
            EXECUTION_BACKENDS.register(SHARDED_BACKEND, DistributedBackend)
        shutil.rmtree(self.tree, ignore_errors=True)
        height, width = FRAME_SHAPE
        write_disk_fixture(self.tree, seed=self.seed, n_train=0, n_val=self.VAL_FRAMES,
                           height=height, width=width, write_images=False)
        self.sweep = SweepConfig.from_dict(self.sweep_payload())
        for point in self.sweep.points():
            config = point.config.to_dict()
            config["execution"] = {"backend": "serial"}
            self.references.append(self._tables(Runner().run(config)))
        self.check(self.op())

    def sweep_payload(self) -> Dict[str, object]:
        base = disk_config_payload(self.tree, seed=self.seed, name="metaseg-sweep")
        base["execution"] = {"backend": SHARDED_BACKEND, "workers": self.WORKERS}
        base["meta_models"] = {"classifiers": ["logistic"], "regressors": ["linear"]}
        base["evaluation"] = {"n_runs": self.N_RUNS}
        return {
            "name": "penalty-sweep",
            "base": base,
            "grid": {"meta_models.classification_penalty": list(self.PENALTIES)},
        }

    @staticmethod
    def _tables(report) -> str:
        return json.dumps(report.tables, sort_keys=True)

    def op(self, tracer=None):
        self._ops += 1
        store_root = self.workdir / f"store-{self._ops}"
        return store_root, run_sweep(self.sweep, store=ResultStore(store_root), tracer=tracer)

    def check(self, output) -> bool:
        store_root, result = output
        shutil.rmtree(store_root, ignore_errors=True)
        points = result.points
        if self.first_report is None:
            self.first_report = points[0].report
        hits = sum(point.shard_cache.get("hits", 0) for point in points)
        retries = sum(point.report.cache.get("dispatch", {}).get("retries", 0)
                      for point in points)
        return (
            [self._tables(point.report) for point in points] == self.references
            and points[0].shard_cache.get("misses") == self.n_shards
            and hits == (len(points) - 1) * self.n_shards
            and retries == 0
        )

    def extras(self, output) -> Dict[str, float]:
        _, result = output
        out = {"fits_hits": 0.0, "fits_misses": 0.0, "retries": 0.0,
               "worker_lost": 0.0, "inline": 0.0}
        for point in result.points:
            fits = point.report.cache.get("fits", {})
            out["fits_hits"] += fits.get("hits", 0)
            out["fits_misses"] += fits.get("misses", 0)
            dispatch = point.report.cache.get("dispatch", {})
            for name in ("retries", "worker_lost", "inline"):
                out[name] += dispatch.get(name, 0)
        out["cold_point_s"] = result.points[0].seconds
        out["warm_point_s"] = statistics.mean(point.seconds for point in result.points[1:])
        return out

    def quality(self) -> Tuple[float, float]:
        tables = self.first_report.tables
        return (_row(tables["classification"], "test_auroc", variant="logistic_penalized"),
                _row(tables["regression"], "test_r2", variant="linear_all_metrics"))

    def inputs(self) -> Dict[str, object]:
        return {
            "frame_shape": [*FRAME_SHAPE, N_CLASSES],
            "val_frames": self.VAL_FRAMES,
            "segments_per_frame": self.first_report.provenance["n_segments"] / self.VAL_FRAMES,
            "dump_bytes": self.VAL_FRAMES * FRAME_BYTES,
            "sweep_points": len(self.PENALTIES),
            "shards_per_point": self.n_shards,
            "workers": self.WORKERS,
            "n_runs": self.N_RUNS,
            "page_cache": "dump files were written and read during set-up, "
                          "so timed reads hit the page cache",
        }

    def close(self) -> None:
        shutil.rmtree(self.tree, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ScoreStream, TimeDynamicSim, MetaSegSweep)}
