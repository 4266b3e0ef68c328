"""Tests for repro.api.execution: the one range walk and its transports.

The acceptance criterion of the execution layer is absolute: every
transport (``serial`` / ``thread`` / ``process`` / ``distributed``), worker
count and store setting produces **bitwise identical** reports on all three
experiment kinds.  The parity tests below are seeded cases with exact
(float-equal) table comparison; the memory test pins, with ``tracemalloc``,
that the walk streams its items by index instead of materialising a split.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.__main__ import main
from repro.api.config import ExecutionConfig, ExperimentConfig
from repro.api.execution import ProcessBackend, SerialBackend, ThreadBackend, shard_ranges
from repro.api.kinds import KINDS, build_metaseg_pipeline
from repro.api.registry import EXECUTION_BACKENDS, RegistryError
from repro.api.runner import Runner
from repro.dispatch.backend import DistributedBackend
from repro.dispatch.worker import WORKER_ENV
from repro.store import ResultStore

TINY_HEIGHT = 48
TINY_WIDTH = 96


# --------------------------------------------------------------- workloads --
def metaseg_payload(seed: int) -> dict:
    return {
        "kind": "metaseg", "seed": seed,
        "data": {"dataset": "cityscapes_like", "n_val": 5,
                 "height": TINY_HEIGHT, "width": TINY_WIDTH},
        "evaluation": {"n_runs": 2},
    }


def timedynamic_payload(seed: int) -> dict:
    return {
        "kind": "timedynamic", "seed": seed,
        "data": {"dataset": "kitti_like", "n_sequences": 2, "n_frames": 5,
                 "labeled_stride": 2, "height": TINY_HEIGHT, "width": TINY_WIDTH},
        "meta_models": {
            "classifiers": ["gradient_boosting"],
            "regressors": ["gradient_boosting"],
            "model_params": {"gradient_boosting": {"n_estimators": 4, "max_depth": 2}},
        },
        "evaluation": {"n_runs": 1, "n_frames_list": [0, 1], "compositions": ["R"]},
    }


def decision_payload(seed: int) -> dict:
    return {
        "kind": "decision", "seed": seed,
        "data": {"dataset": "cityscapes_like", "n_train": 4, "n_val": 4,
                 "height": TINY_HEIGHT, "width": TINY_WIDTH},
    }


PAYLOADS = {
    "metaseg": metaseg_payload,
    "timedynamic": timedynamic_payload,
    "decision": decision_payload,
}

#: Execution-section variants that must all be bitwise identical to serial.
VARIANTS = (
    {"backend": "thread", "workers": 2},
    {"backend": "process", "workers": 2},
    {"backend": "distributed", "workers": 2},
)

TRANSPORTS = ("serial", "thread", "process", "distributed")


def run_with_execution(payload: dict, execution: dict):
    config = ExperimentConfig.from_dict({**payload, "execution": execution})
    return Runner().run(config)


def assert_reports_identical(left, right, context: str):
    assert left.tables == right.tables, f"{context}: tables differ"
    assert left.provenance == right.provenance, f"{context}: provenance differs"


# ------------------------------------------------------------ shard_ranges --
class TestShardRanges:
    def test_balanced_split(self):
        assert shard_ranges(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_shards_than_items(self):
        assert shard_ranges(2, 8) == [(0, 1), (1, 2)]

    def test_single_shard(self):
        assert shard_ranges(5, 1) == [(0, 5)]

    def test_zero_items(self):
        assert shard_ranges(0, 4) == []

    def test_ranges_are_contiguous_and_complete(self):
        for n_items in (1, 7, 16, 33):
            for n_shards in (1, 2, 3, 5, 50):
                ranges = shard_ranges(n_items, n_shards)
                covered = [i for start, stop in ranges for i in range(start, stop)]
                assert covered == list(range(n_items))
                assert all(stop > start for start, stop in ranges)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            shard_ranges(-1, 2)
        with pytest.raises(ValueError):
            shard_ranges(4, 0)


# ----------------------------------------------------------------- parity --
@pytest.fixture(scope="module")
def serial_reports():
    """Serial-backend reference reports, one per experiment kind (seed 3)."""
    return {
        kind: Runner().run(ExperimentConfig.from_dict(make(3)))
        for kind, make in PAYLOADS.items()
    }


class TestBackendParity:
    """thread / process / distributed == serial, bitwise, on all three kinds."""

    @pytest.mark.parametrize("execution", VARIANTS, ids=lambda e: "-".join(
        f"{k}={v}" for k, v in e.items()))
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_variant_matches_serial(self, kind, execution, serial_reports):
        report = run_with_execution(PAYLOADS[kind](3), execution)
        assert_reports_identical(report, serial_reports[kind], f"{kind}/{execution}")

    def test_config_echo_reflects_the_variant(self, serial_reports):
        report = run_with_execution(metaseg_payload(3), {"backend": "thread", "workers": 2})
        assert report.config["execution"]["backend"] == "thread"
        assert serial_reports["metaseg"].config["execution"]["backend"] == "serial"

    def test_process_shards_merge_in_index_order(self):
        # 3 shards over 5 images: uneven shard sizes must still merge to the
        # serial image order.
        serial = run_with_execution(metaseg_payload(4), {"backend": "serial"})
        sharded = run_with_execution(
            metaseg_payload(4), {"backend": "process", "workers": 3}
        )
        assert_reports_identical(sharded, serial, "metaseg/3-shards")


class TestTransportMatrix:
    """Every transport x kind x worker count x store setting == serial."""

    @pytest.mark.parametrize("backend", TRANSPORTS)
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_matches_serial_with_and_without_store(self, kind, backend, serial_reports, tmp_path):
        for workers in (1, 2, 3):
            for use_store in (False, True):
                store = ResultStore(tmp_path / f"{workers}") if use_store else None
                execution = {"backend": backend, "workers": workers}
                config = {**PAYLOADS[kind](3), "execution": execution}
                context = f"{kind}/{backend}/workers={workers}/store={use_store}"
                cold = Runner(store=store).run(config)
                assert_reports_identical(cold, serial_reports[kind], context)
                if store is not None:
                    warm = Runner(store=store).run(config)
                    assert warm.cache["hit"] is True
                    assert warm.to_json() == cold.to_json()

    @pytest.mark.parametrize("backend", TRANSPORTS)
    def test_fit_state_matches_serial(self, backend):
        payload = metaseg_payload(3)
        reference = Runner().fit(payload).to_state()
        for workers in (2, 3):
            config = {**payload, "execution": {"backend": backend, "workers": workers}}
            assert Runner().fit(config).to_state() == reference, f"{backend}/{workers}"

    @pytest.mark.parametrize("backend", ("thread", "process", "distributed"))
    def test_shard_cache_is_shared_across_transports(self, backend, tmp_path):
        store = ResultStore(tmp_path)
        execution = {"backend": "thread", "workers": 2}
        cold = Runner(store=store).run({**metaseg_payload(3), "execution": execution})
        assert cold.cache["shards"] == {"hits": 0, "misses": 2}
        # A protocol-side change misses the report but hits both ranges,
        # whichever transport published them.
        payload = metaseg_payload(3)
        payload["evaluation"] = {"n_runs": 3}
        warm = Runner(store=store).run(
            {**payload, "execution": {"backend": backend, "workers": 2}}
        )
        assert warm.cache["hit"] is False
        assert warm.cache["shards"] == {"hits": 2, "misses": 0}


@pytest.mark.fuzz
class TestBackendParityFuzz:
    """Extended seeded sweep (select with ``-m fuzz``, run by scripts/ci.sh).

    Every transport walks its items by index, uncached (the streaming walk).
    """

    @pytest.mark.parametrize("seed", [1, 9, 23])
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_seeded_process_and_streaming_parity(self, kind, seed):
        serial = Runner().run(ExperimentConfig.from_dict(PAYLOADS[kind](seed)))
        for execution in (
            {"backend": "process", "workers": 2},
            {"backend": "thread", "workers": 3},
            {"backend": "distributed", "workers": 2},
        ):
            report = run_with_execution(PAYLOADS[kind](seed), execution)
            assert_reports_identical(report, serial, f"{kind}/seed{seed}/{execution}")


# ------------------------------------------------------- backend semantics --
class TestBackendSemantics:
    def test_builtin_backends_registered(self):
        assert set(TRANSPORTS) <= set(EXECUTION_BACKENDS.available())

    def test_unknown_backend_fails_fast_at_resolve(self):
        config = ExperimentConfig.from_dict(
            {**metaseg_payload(0), "execution": {"backend": "gpu"}}
        )
        with pytest.raises(RegistryError, match="unknown execution_backends entry 'gpu'"):
            Runner().resolve(config)

    def test_workers_zero_and_one_degenerate_to_serial(self, serial_reports):
        for workers in (0, 1):
            report = run_with_execution(
                metaseg_payload(3), {"backend": "process", "workers": workers}
            )
            assert_reports_identical(report, serial_reports["metaseg"], f"workers={workers}")

    def test_backend_factories_honour_worker_contract(self):
        # execution.workers is the one knob; serial always runs one range.
        assert SerialBackend(ExecutionConfig(workers=4)).workers == 1
        assert ThreadBackend(ExecutionConfig(workers=3)).workers == 3
        assert ProcessBackend(ExecutionConfig(workers=5)).workers == 5
        assert DistributedBackend(ExecutionConfig(workers=2)).workers == 2
        with pytest.raises(ValueError, match="max_workers"):
            SerialBackend(ExecutionConfig(workers=-1))

    def test_explicit_zero_and_one_workers_never_fan_out(self):
        # Explicit 0/1 mean serial — they must NOT fall back to the core count.
        for backend_cls in (SerialBackend, ThreadBackend, ProcessBackend, DistributedBackend):
            for workers in (0, 1):
                assert backend_cls(ExecutionConfig(workers=workers)).workers == 1

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch):
        # workers=None means every core this process may run on, not
        # os.cpu_count(): under an affinity mask the latter oversubscribes.
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        for backend_cls in (ThreadBackend, ProcessBackend, DistributedBackend):
            assert backend_cls(ExecutionConfig()).workers == 3
        assert SerialBackend(ExecutionConfig()).workers == 1

    def test_dispatch_worker_never_fans_out_again(self, monkeypatch):
        monkeypatch.setenv(WORKER_ENV, "1")
        for backend_cls in (ThreadBackend, ProcessBackend, DistributedBackend):
            assert backend_cls(ExecutionConfig(workers=4)).workers == 1

    def test_sharded_size_errors_distinguish_capability_from_emptiness(self):
        class NoIndexAccess:
            n_train = 2
            n_val = 3

        resolved = SimpleNamespace(dataset=NoIndexAccess())
        for kind in ("metaseg", "decision"):
            with pytest.raises(ValueError, match="walks index ranges"):
                KINDS[kind].size(resolved)
        indexed_but_empty = SimpleNamespace(n_val=0, val_sample=lambda index: None)
        with pytest.raises(ValueError, match="n_val >= 1"):
            KINDS["metaseg"].size(SimpleNamespace(dataset=indexed_but_empty))

    def test_fold_rejects_ranges_that_drop_or_duplicate_items(self):
        with pytest.raises(RuntimeError, match="folded 1 sequences"):
            KINDS["timedynamic"].fold(None, [["only-one"]], 2, None)
        config = ExperimentConfig.from_dict(metaseg_payload(0))
        resolved = Runner().resolve(config)
        kind = KINDS["metaseg"]
        # Image 2 is missing from the ranges.
        partials = [kind.run_range(resolved, 0, 2, None), kind.run_range(resolved, 3, 5, None)]
        with pytest.raises(RuntimeError, match="folded 4 images"):
            kind.fold(resolved, partials, 5, None)

    def test_empty_decision_train_split_is_a_config_error_everywhere(self):
        payload = decision_payload(0)
        payload["data"]["n_train"] = 0
        for execution in ({"backend": "serial"}, {"backend": "thread", "workers": 2},
                          {"backend": "process", "workers": 2}):
            with pytest.raises(ValueError, match="data.n_train >= 1"):
                run_with_execution(payload, execution)

    def test_empty_metaseg_val_split_still_a_clear_error(self):
        payload = metaseg_payload(0)
        payload["data"]["n_val"] = 0
        for execution in ({"backend": "serial"}, {"backend": "process", "workers": 2},
                          {"backend": "thread", "workers": 2}):
            with pytest.raises(ValueError, match="n_val >= 1"):
                run_with_execution(payload, execution)


# ------------------------------------------------------------- peak memory --
class TestStreamingPeakMemory:
    """The walk streams its items by index; pinned with tracemalloc."""

    N_VAL = 24

    def _resolved(self):
        return Runner().resolve(ExperimentConfig.from_dict({
            "kind": "metaseg", "seed": 11,
            "data": {"dataset": "cityscapes_like", "n_val": self.N_VAL,
                     "height": TINY_HEIGHT, "width": TINY_WIDTH},
        }))

    def test_streaming_peak_below_batched_peak(self):
        # Warm up allocator caches / lazy imports outside the measurement.
        resolved = self._resolved()
        build_metaseg_pipeline(resolved).extract_dataset(resolved.dataset.val_samples()[:2])

        gc.collect()
        resolved = self._resolved()
        tracemalloc.start()
        batched = build_metaseg_pipeline(resolved).extract_dataset(resolved.dataset.val_samples())
        peak_batched = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        gc.collect()
        resolved = self._resolved()
        tracemalloc.start()
        walked, n_images = SerialBackend(ExecutionConfig()).walk(KINDS["metaseg"], resolved)
        peak_walk = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        # Same numbers ...
        assert n_images == self.N_VAL
        np.testing.assert_array_equal(walked.features, batched.features)
        np.testing.assert_array_equal(walked.target_iou(), batched.target_iou())
        # ... at measurably lower peak memory: materialising the split holds
        # every sample, the walk only the one it is extracting plus the
        # per-image rows.  Gated at 0.95x so allocator/platform variance on
        # the small workload cannot flake the tier-1 suite while a real
        # regression (>= 1x) still fails clearly.
        assert peak_walk < 0.95 * peak_batched, (
            f"walk peak {peak_walk} not below materialised peak {peak_batched}"
        )


# ------------------------------------------------------------------- CLI --
class TestCliExecutionOverrides:
    def _write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_backend_and_workers_override_bitwise(self, tmp_path, capsys):
        path = self._write(tmp_path, metaseg_payload(3))
        serial_out = tmp_path / "serial.json"
        sharded_out = tmp_path / "sharded.json"
        assert main(["run", str(path), "--output", str(serial_out)]) == 0
        assert main([
            "run", str(path), "--backend", "process", "--workers", "2",
            "--output", str(sharded_out),
        ]) == 0
        capsys.readouterr()
        serial = json.loads(serial_out.read_text())
        sharded = json.loads(sharded_out.read_text())
        # Tables and provenance are bitwise equal; only the config echo may
        # differ (it records the requested execution section).
        assert sharded["tables"] == serial["tables"]
        assert sharded["provenance"] == serial["provenance"]
        assert sharded["config"]["execution"]["backend"] == "process"

    @pytest.mark.parametrize("command", ["run", "trace", "sweep"])
    def test_streaming_flag_is_gone(self, tmp_path, capsys, command):
        path = self._write(tmp_path, metaseg_payload(3))
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(path), "--streaming"])
        assert exit_info.value.code == 2
        assert "--streaming" in capsys.readouterr().err

    def test_removed_keys_in_a_config_file_exit_2(self, tmp_path, capsys):
        payload = metaseg_payload(3)
        payload["extraction"] = {"max_workers": 2}
        assert main(["run", str(self._write(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert "extraction: max_workers was removed" in err and "execution.workers" in err

    def test_unknown_backend_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, metaseg_payload(0))
        assert main(["run", str(path), "--backend", "gpu"]) == 2
        assert "unknown execution_backends entry" in capsys.readouterr().err

    def test_negative_workers_exit_2(self, tmp_path, capsys):
        path = self._write(tmp_path, metaseg_payload(0))
        assert main(["run", str(path), "--workers", "-1"]) == 2
        assert "execution: workers" in capsys.readouterr().err

    def test_override_can_fix_the_overridden_field(self, tmp_path, capsys):
        # A bad config value must be fixable by the CLI flag that owns it.
        payload = metaseg_payload(3)
        payload["execution"] = {"workers": -1}
        path = self._write(tmp_path, payload)
        out = tmp_path / "report.json"
        assert main(["run", str(path), "--workers", "2", "--output", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["config"]["execution"]["workers"] == 2

    def test_negative_workers_in_config_exit_2(self, tmp_path, capsys):
        payload = metaseg_payload(0)
        payload["execution"] = {"workers": -2}
        path = self._write(tmp_path, payload)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and "execution: workers" in err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, metaseg_payload(3))
        # The output path collides with an existing directory: mkdir/write
        # must fail with a one-line diagnostic, not a traceback.
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        assert main(["run", str(path), "--output", str(blocked)]) == 2
        assert "cannot write report" in capsys.readouterr().err
