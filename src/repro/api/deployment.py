"""The ``Deployment`` runtime: a long-lived edge serving object.

Wraps a trained :class:`~repro.gnn.MissionGNNModel` plus (optionally) the
continuous-adaptation controller behind a small serving surface:

* :meth:`ingest` — feed one arrival batch; the controller may adapt;
* :meth:`scores` — score windows without feeding the monitor;
* :meth:`serve` — drive a whole stream, yielding one event per batch;
* :meth:`save` / :meth:`load` — checkpoint the *entire* runtime (model,
  KGs, adaptation config, monitor state, window buffer, RNG states) so a
  deployment survives process restarts mid-adaptation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..adaptation.controller import (
    AdaptationConfig,
    AdaptationStepLog,
    ContinuousAdaptationController,
)
from ..embedding.joint_space import JointEmbeddingModel
from ..gnn.checkpoint import deployment_from_dict, deployment_to_dict
from ..gnn.pipeline import MissionGNNModel
from ..utils.serialization import atomic_write_json, decode_array, encode_array
from .config import config_from_dict, config_to_dict

__all__ = ["Deployment", "ServeEvent"]

_FORMAT_VERSION = 1


def _embedding_fingerprint(embedding_model: JointEmbeddingModel) -> str:
    """Digest of the frozen token vocabulary the deployment was built on.

    The joint embedding model is shipped separately from deployment
    checkpoints; this digest catches resuming against the wrong one
    (e.g. a different seed), which would otherwise silently produce
    garbage scores.
    """
    import hashlib
    vectors = np.ascontiguousarray(embedding_model.token_table.vectors,
                                   dtype=np.float64)
    return hashlib.sha256(vectors.tobytes()).hexdigest()[:16]


@dataclass
class ServeEvent:
    """One :meth:`Deployment.serve` step."""

    step: int
    scores: np.ndarray
    log: AdaptationStepLog | None = None
    active_class: str | None = None
    is_post_shift: bool | None = None


class Deployment:
    """Model + adaptation controller behind a serving interface."""

    def __init__(self, model: MissionGNNModel, mission: str | None = None,
                 adaptation_config: AdaptationConfig | None = None,
                 adaptive: bool = True,
                 normal_anchor_windows: np.ndarray | None = None):
        self.model = model
        self.mission = mission
        self.adaptive = adaptive
        self.adaptation_config = adaptation_config or AdaptationConfig()
        self.normal_anchor_windows = (
            None if normal_anchor_windows is None
            else np.asarray(normal_anchor_windows, dtype=np.float64))
        self.controller: ContinuousAdaptationController | None = None
        if adaptive:
            self.controller = ContinuousAdaptationController(
                model, self.adaptation_config,
                normal_anchor_windows=self.normal_anchor_windows)
        else:
            model.eval()
        self._static_steps = 0

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def scores(self, windows: np.ndarray) -> np.ndarray:
        """Anomaly probabilities without feeding the adaptation monitor."""
        return self.model.anomaly_scores(windows)

    def ingest(self, windows: np.ndarray,
               scores: np.ndarray | None = None) -> AdaptationStepLog:
        """Feed one arrival batch; adaptive deployments may adapt on it.

        ``scores`` may carry this model's precomputed anomaly scores for
        ``windows`` (the fleet micro-batcher scores many streams in one
        coalesced forward and dispatches the slices back here).
        Non-finite windows raise: they would score NaN and leave the
        monitor's window mean NaN until they aged out.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if not np.isfinite(windows).all():
            raise ValueError("windows hold NaN or infinite values; only "
                             "finite windows can be ingested")
        if self.controller is not None:
            return self.controller.process_batch(windows, scores=scores)
        if windows.ndim != 3:
            raise ValueError(f"expected (B, T, frame_dim), got {windows.shape}")
        if scores is None:
            scores = self.model.anomaly_scores(windows)
        else:
            # Mirror the controller's validation: a mis-sliced micro-batch
            # result must raise here, not silently log garbage scores.
            scores = np.asarray(scores, dtype=np.float64)
            if scores.shape != (windows.shape[0],):
                raise ValueError(f"expected {windows.shape[0]} precomputed "
                                 f"scores, got shape {scores.shape}")
        log = AdaptationStepLog(step=self._static_steps, scores=scores)
        self._static_steps += 1
        return log

    def serve(self, stream, tracer=None):
        """Drive ``stream`` through :meth:`ingest`, yielding one event per batch.

        ``stream`` may yield :class:`~repro.data.StreamBatch` objects (the
        repo's deployment streams) or raw ``(B, T, frame_dim)`` arrays.

        Serving runs through the canonical
        :class:`~repro.runtime.ServingEngine` round loop as a
        single-stream fleet (``batched=False``: with one stream per round
        there is nothing to coalesce, and the deployment scores inside
        :meth:`ingest` exactly as before).  ``tracer`` (an optional
        :class:`repro.obs.TraceRecorder`) records one ``engine.round``
        span per served round.
        """
        # Imported here: repro.serving builds on repro.api, not the
        # other way around — this convenience wrapper is the one upward
        # edge, deferred so the layering holds at import time.
        # repro: allow[layer-dag] deliberate lazy back-edge, see above
        from ..serving.fleet import DeploymentFleet
        fleet = DeploymentFleet()
        fleet.add("deployment", self, stream)
        if tracer is not None:
            fleet.engine.tracer = tracer
        for events in fleet.serve(batched=False):
            for event in events:
                yield ServeEvent(step=event.step, scores=event.scores,
                                 log=event.log,
                                 active_class=event.active_class,
                                 is_post_shift=event.is_post_shift)

    def freeze(self) -> None:
        """Turn an adaptive deployment into a static one.

        The model keeps whatever adaptation it has absorbed so far; the
        controller is dropped, so further :meth:`ingest` calls only score.
        """
        if self.controller is not None:
            self._static_steps = self.controller.step_count
            self.controller = None
        self.adaptive = False
        self.model.eval()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def step_count(self) -> int:
        if self.controller is not None:
            return self.controller.step_count
        return self._static_steps

    @property
    def update_count(self) -> int:
        return 0 if self.controller is None else self.controller.update_count

    @property
    def total_pruned(self) -> int:
        return 0 if self.controller is None else self.controller.total_pruned

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_dict(self, include_model: bool = True) -> dict:
        """Serialize the runtime; ``include_model=False`` omits the model
        section (the fleet checkpoint stores shared models separately)."""
        payload = {
            "format_version": _FORMAT_VERSION,
            "mission": self.mission,
            "adaptive": self.adaptive,
            "embedding_fingerprint": _embedding_fingerprint(
                self.model.embedding_model),
            "model": deployment_to_dict(self.model) if include_model else None,
            "adaptation_config": config_to_dict(self.adaptation_config),
            "anchors": (None if self.normal_anchor_windows is None
                        else encode_array(self.normal_anchor_windows)),
            "runtime": (None if self.controller is None
                        else self.controller.export_state()),
            "static_steps": self._static_steps,
        }
        return payload

    def save(self, path: str | Path) -> None:
        """Write the whole runtime (model + adaptation state) to one file."""
        atomic_write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict, embedding_model: JointEmbeddingModel,
                  model: MissionGNNModel | None = None) -> "Deployment":
        """Rebuild from :meth:`to_dict` output.

        ``model`` injects an already-restored model instance instead of
        rebuilding one from ``payload["model"]`` — the fleet checkpoint
        stores each shared scoring model once and passes it to every
        deployment that referenced it.
        """
        version = payload.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported deployment format version: {version}")
        saved_fingerprint = payload.get("embedding_fingerprint")
        if (saved_fingerprint is not None
                and saved_fingerprint != _embedding_fingerprint(embedding_model)):
            raise ValueError(
                "embedding model mismatch: this deployment was built on a "
                "different joint embedding vocabulary (check the experiment "
                "seed used to construct the embedding model)")
        if model is None:
            if payload.get("model") is None:
                raise ValueError(
                    "payload has no model section (saved with "
                    "include_model=False); pass the restored model via "
                    "the `model` argument")
            model = deployment_from_dict(payload["model"], embedding_model)
        anchors = (None if payload.get("anchors") is None
                   else decode_array(payload["anchors"]))
        adaptation = config_from_dict(AdaptationConfig,
                                      payload["adaptation_config"])
        deployment = cls(model, mission=payload.get("mission"),
                         adaptation_config=adaptation,
                         adaptive=payload.get("adaptive", True),
                         normal_anchor_windows=anchors)
        if deployment.controller is not None and payload.get("runtime"):
            deployment.controller.restore_state(payload["runtime"])
        deployment._static_steps = payload.get("static_steps", 0)
        return deployment

    @classmethod
    def load(cls, path: str | Path,
             embedding_model: JointEmbeddingModel) -> "Deployment":
        """Rebuild a deployment saved by :meth:`save`.

        The frozen joint embedding model is shared infrastructure (shipped
        once, not per deployment), so it is passed in rather than stored.
        """
        return cls.from_dict(json.loads(Path(path).read_text()), embedding_model)
