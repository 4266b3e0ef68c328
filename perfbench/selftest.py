"""Self-tests of the benchmark harness (not of the library).

    python3 perfbench/selftest.py            # plain runner
    python3 -m pytest -q perfbench/selftest.py

The file is named so that the repository's own test run does not collect it.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
for entry in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _countdown(n: int) -> int:
    """Module-level recursive function the re-entry test hooks."""
    return n if n == 0 else _countdown(n - 1)


# --------------------------------------------------------------------------
def test_metric_names_are_well_formed():
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert harness.check_metric_name(name) == name
    for bad in ("", "has space", "_leading", "x" * 65, "slash/name"):
        try:
            harness.check_metric_name(bad)
        except ValueError:
            continue
        raise AssertionError(f"{bad!r} was accepted")


def test_p90_needs_ten_samples_beyond_it():
    assert harness.tail_percentile([float(v) for v in range(99)], 90) is None
    values = [float(v) for v in range(100)]
    assert harness.samples_beyond(100, 90) == 10
    assert harness.tail_percentile(values, 90) == 89.0
    assert harness.percentile(values, 50) == 49.0


def test_self_time_subtracts_the_union_of_children():
    records = [
        {"span_id": "p", "parent_id": None, "name": "parent", "start_s": 0.0,
         "duration_s": 10.0, "attrs": {}},
        # Two overlapping children (parallel shards) count once: [1, 5].
        {"span_id": "a", "parent_id": "p", "name": "child", "start_s": 1.0,
         "duration_s": 2.0, "attrs": {"bytes": 3}},
        {"span_id": "b", "parent_id": "p", "name": "child", "start_s": 2.0,
         "duration_s": 3.0, "attrs": {"bytes": 4}},
        {"span_id": "c", "parent_id": "p", "name": "child", "start_s": 8.0,
         "duration_s": 1.0, "attrs": {}},
    ]
    selfs = layers.self_times(records)
    assert selfs["p"] == 10.0 - 4.0 - 1.0
    assert selfs["a"] == 2.0
    totals = layers.layer_totals(records)
    assert totals["parent"] == {"calls": 1.0, "busy_s": 5.0, "span_s": 10.0}
    assert totals["child"]["calls"] == 3.0
    assert totals["child"]["bytes"] == 7.0


def _snapshot(hooks):
    out = []
    for hook in hooks:
        owner = layers._resolve_owner(hook.owner)
        out.append((owner, hook.attribute, inspect.getattr_static(owner, hook.attribute),
                    hook.attribute in vars(owner)))
    return out


def test_wrappers_restore_every_original():
    before = _snapshot(layers.HOOKS)
    with layers.LayerProbe() as probe:
        wrapped = _snapshot(layers.HOOKS)
        assert all(w[2] is not b[2] for w, b in zip(wrapped, before))
    assert _snapshot(layers.HOOKS) == before
    assert not probe._installed


def test_only_the_outermost_call_is_recorded():
    module = sys.modules[_countdown.__module__]
    original = module._countdown
    hook = layers.Hook("selftest.countdown", _countdown.__module__, "_countdown")
    with layers.LayerProbe(hooks=(hook,)) as probe:
        assert module._countdown(5) == 0
    assert module._countdown is original
    names = [record["name"] for record in probe.tracer.records()]
    assert names == ["selftest.countdown"]


def test_seed_changes_the_inputs_and_nothing_else(tmp_path=None):
    workdir = Path(tmp_path or BENCH_DIR / "out")

    def differing(a, b, path=""):
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            return [p for key in a for p in differing(a[key], b[key], f"{path}.{key}")]
        return [] if a == b else [path]

    one, two = (workloads.ScoreStream(seed, workdir) for seed in (1, 2))
    assert differing(one._config(4), two._config(4)) == [".seed"]
    one, two = (workloads.TimeDynamicSim(seed, workdir) for seed in (1, 2))
    for video_one, video_two in zip(one.configs, two.configs):
        assert differing(video_one, video_two) == [".seed"]
    seeds = [config["seed"] for w in (one, two) for config in w.configs]
    assert len(set(seeds)) == len(seeds)
    one, two = (workloads.MetaSegSweep(seed, workdir) for seed in (1, 2))
    # The softmax-dump tree is generated from the seed, so its paths name it.
    assert differing(one.sweep_payload(), two.sweep_payload()) == [
        ".base.seed", ".base.data.root", ".base.network.dump_root"
    ]
    # ... and the generated inputs really differ.
    from repro.api.config import ExperimentConfig
    from repro.api.runner import Runner

    samples = [
        Runner().resolve(ExperimentConfig.from_dict(w._config(1))).dataset.val_sample(0).labels
        for w in (workloads.ScoreStream(1, workdir), workloads.ScoreStream(2, workdir))
    ]
    assert (samples[0] != samples[1]).any()


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
