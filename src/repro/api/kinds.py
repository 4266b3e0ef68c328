"""The three experiment kinds as walks over index ranges.

The paper's protocols work on independent items: MetaSeg (Table I) extracts
segment metrics per validation image, the time-dynamic extension (Table II)
processes each video sequence on its own, and the decision-rule study
(Fig. 5) scores each evaluation sample separately.  Every kind is therefore
one map over ``[start, stop)`` index ranges followed by an ordered fold, and
each entry of :data:`KINDS` holds the five pieces of that walk in one place:

* ``size(resolved)`` — the number of items, or an actionable error;
* ``prepare(resolved, backend)`` — work done once in the parent before the
  walk (the decision priors); its result travels to every range;
* ``run_range(resolved, start, stop, prepared)`` — the partial result of
  items ``start..stop``, fetched by index and uncached so a walk never holds
  more than one item per worker;
* ``fold(resolved, partials, size, prepared)`` — the ordered reduction of
  the partials, which also checks that they cover exactly ``size`` items;
* ``evaluate(resolved, folded, tracer, fit_cache)`` — the protocol and its
  report tables, always in the parent (it consumes one RNG stream).

The execution backends (:mod:`repro.api.execution`) only decide where the
ranges run.  Per-item results are pure functions of ``(config, item index)``
and every fold preserves item order, so the result is bitwise identical for
every backend and range split.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Tuple

from repro.core.batching import supports_cache_kwarg
from repro.core.dataset import MetricsDataset
from repro.core.pipeline import MetaSegPipeline
from repro.decision.pipeline import DecisionRuleComparison
from repro.store import priors_key
from repro.timedynamic.pipeline import TimeDynamicPipeline
from repro.utils.arrays import mean_std

#: A table is a list of flat rows; every row is JSON-serialisable.
Table = List[Dict[str, object]]


def _table_rows(cells) -> Table:
    """Flatten (key-fields, {metric: (mean, std)}) cells into table rows.

    Every report table shares this row shape — the key fields of the cell
    plus ``metric``/``mean``/``std`` columns — so downstream consumers need
    no kind-specific handling.
    """
    rows: Table = []
    for keys, metrics_by_name in cells:
        for metric, (mean, std) in metrics_by_name.items():
            rows.append({**keys, "metric": metric, "mean": mean, "std": std})
    return rows


def _by_index(accessor, start: int, stop: int):
    """Items ``start..stop`` of a per-index accessor, uncached where supported."""
    uncached = supports_cache_kwarg(accessor)
    for index in range(start, stop):
        yield accessor(index, cache=False) if uncached else accessor(index)


def _indexed_size(resolved, kind: str, size_attribute: str, accessor: str) -> int:
    """Size of a kind's index range, or the capability error."""
    dataset = resolved.dataset
    size = getattr(dataset, size_attribute, None)
    if size is None or not hasattr(dataset, accessor):
        raise ValueError(
            f"experiment kind {kind!r} walks index ranges and needs a dataset "
            f"substrate exposing {size_attribute!r} and {accessor!r}"
        )
    return int(size)


def _check_folded(folded: int, size: int, what: str, size_attribute: str) -> None:
    if folded != size:
        raise RuntimeError(
            f"range merge folded {folded} {what} but the dataset advertises "
            f"{size_attribute}={size}; a range dropped or duplicated work"
        )


# ------------------------------------------------------------ pipelines
def build_metaseg_pipeline(resolved) -> MetaSegPipeline:
    """The MetaSeg pipeline of a resolved config."""
    config = resolved.config
    return MetaSegPipeline(
        resolved.network,
        connectivity=config.extraction.connectivity,
        classification_penalty=config.meta_models.classification_penalty,
        regression_penalty=config.meta_models.regression_penalty,
    )


def build_timedynamic_pipeline(resolved) -> TimeDynamicPipeline:
    """The time-dynamic pipeline of a resolved config."""
    config = resolved.config
    params = config.meta_models.model_params
    pipeline_kwargs = {}
    if resolved.feature_subset is not None:
        # The metric-group restriction maps to the base features tracked
        # over time (the full time-series vector is built from them).
        pipeline_kwargs["base_features"] = resolved.feature_subset
    return TimeDynamicPipeline(
        test_network=resolved.network,
        reference_network=resolved.reference_network,
        classification_penalty=config.meta_models.classification_penalty,
        regression_penalty=config.meta_models.regression_penalty,
        gradient_boosting_params=params.get("gradient_boosting"),
        neural_network_params=params.get("neural_network"),
        **pipeline_kwargs,
    )


def build_decision_comparison(resolved) -> DecisionRuleComparison:
    """The decision-rule comparison of a resolved config."""
    return DecisionRuleComparison(
        resolved.network, category=resolved.config.evaluation.category
    )


# ---------------------------------------------------------------- kinds
class MetaSegKind:
    """Section II / Table I: segment metrics per validation image."""

    name = "metaseg"
    #: Span name of the walk; the report timings key of stage 1.
    stage = "extract"

    def size(self, resolved) -> int:
        n_val = _indexed_size(resolved, self.name, "n_val", "val_sample")
        if not n_val:
            raise ValueError("metaseg needs data.n_val >= 1 evaluation samples")
        return n_val

    def prepare(self, resolved, backend) -> None:
        return None

    def run_range(self, resolved, start: int, stop: int, prepared) -> MetricsDataset:
        samples = _by_index(resolved.dataset.val_sample, start, stop)
        return build_metaseg_pipeline(resolved).extract_dataset(samples, index_offset=start)

    def fold(self, resolved, partials, size: int, prepared) -> Tuple[MetricsDataset, int]:
        metrics = MetricsDataset.concatenate(partials)
        _check_folded(len(set(metrics.image_ids.tolist())), size, "images", "n_val")
        return metrics, size

    def evaluate(self, resolved, folded, tracer, fit_cache):
        config = resolved.config
        metrics, n_images = folded
        with tracer.span("evaluate", n_runs=config.evaluation.n_runs):
            result = build_metaseg_pipeline(resolved).run_table1_protocol(
                metrics,
                n_runs=config.evaluation.n_runs,
                train_fraction=config.evaluation.train_fraction,
                random_state=resolved.seeds.protocol,
                classification_methods=resolved.classifiers,
                regression_methods=resolved.regressors,
                feature_subset=resolved.feature_subset,
                model_params=config.meta_models.model_params,
                fit_cache=fit_cache,
            )
        provenance = {
            "network": result.network_name,
            "n_images": n_images,
            "n_segments": result.n_segments,
            "false_positive_fraction": result.false_positive_fraction,
            "n_runs": result.n_runs,
        }
        classification = _table_rows(
            ({"variant": variant}, metrics_by_name)
            for variant, metrics_by_name in result.classification.items()
        )
        classification.append(
            {"variant": "naive", "metric": "accuracy", "mean": result.naive_accuracy, "std": 0.0}
        )
        regression = _table_rows(
            ({"variant": variant}, metrics_by_name)
            for variant, metrics_by_name in result.regression.items()
        )
        return provenance, {"classification": classification, "regression": regression}


class TimeDynamicKind:
    """Section III / Table II: tracked segment metrics per video sequence."""

    name = "timedynamic"
    stage = "process"

    def size(self, resolved) -> int:
        return _indexed_size(resolved, self.name, "n_sequences", "samples")

    def prepare(self, resolved, backend) -> None:
        return None

    def run_range(self, resolved, start: int, stop: int, prepared) -> List:
        return build_timedynamic_pipeline(resolved).process_dataset(
            resolved.dataset, start=start, stop=stop
        )

    def fold(self, resolved, partials, size: int, prepared) -> List:
        sequences = list(chain.from_iterable(partials))
        _check_folded(len(sequences), size, "sequences", "n_sequences")
        return sequences

    def evaluate(self, resolved, folded, tracer, fit_cache):
        config = resolved.config
        with tracer.span("evaluate", n_runs=config.evaluation.n_runs):
            result = build_timedynamic_pipeline(resolved).run_protocol(
                folded,
                n_frames_list=config.evaluation.n_frames_list,
                compositions=config.evaluation.compositions,
                methods=resolved.classifiers,
                n_runs=config.evaluation.n_runs,
                split_fractions=config.evaluation.split_fractions,
                augmentation_factor=config.evaluation.augmentation_factor,
                random_state=resolved.seeds.protocol,
                fit_cache=fit_cache,
            )
        provenance = {
            "network": resolved.network.profile.name,
            "reference_network": resolved.reference_network.profile.name,
            "n_sequences": resolved.dataset.n_sequences,
            "n_real_segments": result.n_real_segments,
            "n_pseudo_segments": result.n_pseudo_segments,
            "n_runs": result.n_runs,
        }

        def cells(nested):
            for composition, by_method in nested.items():
                for method, by_frames in by_method.items():
                    for n_frames, metrics_by_name in sorted(by_frames.items()):
                        yield (
                            {"composition": composition, "method": method,
                             "n_frames": n_frames},
                            metrics_by_name,
                        )

        return provenance, {
            "classification": _table_rows(cells(result.classification)),
            "regression": _table_rows(cells(result.regression)),
        }


class DecisionKind:
    """Section IV / Fig. 5: per-sample Bayes vs. ML rule statistics.

    The walk itself is the comparison, so its span is the ``evaluate``
    stage; the priors are fitted (or loaded) once in the parent before it
    under a ``fit_priors`` span and shipped to every range.
    """

    name = "decision"
    stage = "evaluate"

    def size(self, resolved) -> int:
        n_train = _indexed_size(resolved, self.name, "n_train", "train_sample")
        n_val = _indexed_size(resolved, self.name, "n_val", "val_sample")
        if not n_train or not n_val:
            raise ValueError("decision needs data.n_train >= 1 and data.n_val >= 1")
        return n_val

    def prepare(self, resolved, backend) -> Dict[str, object]:
        """Fit the priors, or load them from the store; ``{priors, n_train}``.

        The priors are a pure function of the training labels, so with a
        store attached they are cached under :func:`repro.store.priors_key`
        (which excludes the rule/strength/category fields — a rule sweep on
        a fixed substrate reuses one fit).
        """
        store = backend.store
        key = None
        if store is not None:
            key = priors_key(resolved.config.to_dict())
            cached = store.get(key, codec="pickle")
            if (
                isinstance(cached, dict)
                and "priors" in cached
                and int(cached.get("n_train", 0)) > 0
            ):
                with backend.tracer.span("fit_priors"):
                    prepared = {"priors": cached["priors"], "n_train": int(cached["n_train"])}
                backend.fit_cache["hits"] += 1
                return prepared
        n_train = resolved.dataset.n_train
        comparison = build_decision_comparison(resolved)
        with backend.tracer.span("fit_priors"):
            comparison.fit_priors(_by_index(resolved.dataset.train_sample, 0, n_train))
        prepared = {"priors": comparison.priors, "n_train": n_train}
        if store is not None:
            backend.fit_cache["misses"] += 1
            store.put(
                key,
                prepared,
                codec="pickle",
                provenance={
                    "type": "priors",
                    "kind": self.name,
                    "n_train": n_train,
                    "config_hash": key,
                },
            )
        return prepared

    def run_range(self, resolved, start: int, stop: int, prepared) -> List:
        comparison = build_decision_comparison(resolved)
        comparison.set_priors(prepared["priors"])
        return list(
            comparison.iter_compare_samples(
                _by_index(resolved.dataset.val_sample, start, stop),
                rules=resolved.rules,
                index_offset=start,
                strengths=resolved.config.evaluation.strengths,
            )
        )

    def fold(self, resolved, partials, size: int, prepared) -> Tuple:
        result, folded = build_decision_comparison(resolved).fold_compare_results(
            chain.from_iterable(partials), rules=resolved.rules
        )
        _check_folded(folded, size, "samples", "n_val")
        return result, prepared["n_train"], size

    def evaluate(self, resolved, folded, tracer, fit_cache):
        result, n_train, n_val = folded
        provenance = {
            "network": result.network_name,
            "category": result.category,
            "n_train_images": n_train,
            "n_val_images": n_val,
        }
        tables = {
            "rules": _table_rows(
                (
                    {"rule": rule},
                    {
                        "precision": mean_std(stats.precision_values),
                        "recall": mean_std(stats.recall_values),
                        "non_detection_rate": (stats.non_detection_rate(), 0.0),
                        "pixel_accuracy": (result.pixel_accuracy[rule], 0.0),
                    },
                )
                for rule, stats in result.per_rule.items()
            )
        }
        return provenance, tables


#: The experiment kinds by ``config.kind`` (see :data:`repro.api.config.EXPERIMENT_KINDS`).
KINDS = {kind.name: kind for kind in (MetaSegKind(), TimeDynamicKind(), DecisionKind())}
