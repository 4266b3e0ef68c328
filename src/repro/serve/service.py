"""The scoring service: a warm FittedModel behind a frame-scoring API.

The service owns the model and one shared
:class:`~repro.core.metrics.SegmentMetricsExtractor` built at startup, so
the schema-drift check runs once per server, not once per request.  The
extractor holds no per-request state: each worker thread's extraction reads
the softmax field band by band through the process-wide helper lanes of
:mod:`repro.utils.lanes`, so concurrent requests share the cores instead of
each keeping its own full-field work space.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.api.fitted import FittedModel


class ScoringService:
    """Stateless-per-request scoring facade over a :class:`FittedModel`."""

    def __init__(self, model: FittedModel) -> None:
        self.model = model
        # Built once: validates the feature schema.
        self.extractor = model.build_extractor()

    def info(self) -> Dict[str, object]:
        """Compact model descriptor served on ``/`` and ``/model``."""
        provenance = self.model.provenance
        out: Dict[str, object] = {
            key: provenance[key]
            for key in (
                "kind", "name", "seed", "network", "classifier", "regressor",
                "n_images", "n_segments",
            )
            if key in provenance
        }
        out["n_classes"] = self.model.label_space.n_classes
        out["n_features"] = len(self.model.feature_names)
        out["connectivity"] = self.model.connectivity
        return out

    def score_frame(self, probs: np.ndarray, image_id: str = "frame") -> Dict[str, object]:
        """Score one softmax field; raises ValueError for invalid fields."""
        return self.model.score_frame(probs, extractor=self.extractor, image_id=image_id)

    def score_frames(
        self, frames: Sequence[Tuple[str, np.ndarray]]
    ) -> Dict[str, object]:
        """Score an ordered batch; response shape matches ``Runner.score``."""
        scored: List[Dict[str, object]] = [
            self.score_frame(probs, image_id=image_id) for image_id, probs in frames
        ]
        return {"frames": scored, "n_frames": len(scored)}


__all__ = ["ScoringService"]
