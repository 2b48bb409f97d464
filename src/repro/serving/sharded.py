"""Sharded multi-process fleet serving.

:class:`~repro.serving.DeploymentFleet` coalesces N streams into batched
forwards, but the whole fleet still runs in one Python process on one
core: throughput is capped by a single GEMM queue no matter how many
cameras attach.  :class:`ShardedFleet` partitions a fleet across worker
processes — deterministic round-robin shard assignment in stream attach
order — runs one :class:`~repro.serving.MicroBatcher` per shard, and
merges per-round :class:`~repro.serving.FleetEvent` lists back in stable
stream order.

Scores are bit-identical to single-process batched serving: shards own
disjoint streams and disjoint model instances, per-shard coalescing keeps
the row-stable GEMM guarantees, and model/stream state crosses the
process boundary through the existing fleet checkpoint format
(``to_dict``/``from_dict`` are the wire format), whose round-trip is
exact.  Workers are spawn-safe: each child rebuilds the frozen joint
embedding model and frame generator from seeds and the fleet from its
shard's checkpoint payload, so nothing unpicklable is ever shipped.

A whole sharded fleet checkpoints to a *single* file in the plain fleet
format (plus a ``"shards"`` hint), so ``DeploymentFleet.load`` can open a
sharded checkpoint and vice versa.

Like :class:`~repro.serving.DeploymentFleet`, the sharded fleet is a
facade over :class:`~repro.runtime.ServingEngine` — here with a
:class:`~repro.runtime.ShardedBackend` that scatters rounds across the
worker pool, while each worker's in-process fleet runs the same engine
loop over its own shard.

Parent<->worker payloads ride per-shard :mod:`multiprocessing.shared_memory`
ring buffers (:mod:`repro.serving.shm_ring`); the pipe is the control
plane — a ``("shm", length)`` doorbell per message (which also provides
the happens-before edge that makes the lock-free SPSC rings safe under
the fleet's strict request/response alternation), ``("inline", payload)``
fallbacks for messages that outsize a ring, and error/``stop``
signaling.  :meth:`ShardedFleet.transport_stats` counts ring traffic
and pipe fallbacks; ``ring_bytes=0`` turns the rings off entirely.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..api.config import config_from_dict, config_to_dict
from ..api.deployment import Deployment
from ..data.streams import TrendShiftConfig, TrendShiftStream
from ..data.synthetic import FrameGenerator
from ..errors import (CheckpointError, ConfigError, FleetError,
                      StateError, WorkerError, WorkerStartupError)
from ..obs.trace import new_span_id
from ..runtime.engine import FleetEvent, ServingEngine
from ..utils.serialization import atomic_write_json
from .batcher import ScoreRequest
from .fleet import FLEET_FORMAT_VERSION, DeploymentFleet, build_fleet
from .shm_ring import (DEFAULT_RING_BYTES, RingBuffer, RingError,
                       dumps_message, loads_message)

__all__ = ["FleetInfra", "ShardedFleet", "build_sharded_fleet",
           "partition_fleet_payload"]

#: FrameGenerator hyperparameters that shape generated frames; they must
#: match between the parent's streams and the workers' rebuilt generator
#: or sharded scores silently diverge from single-process serving.
_GENERATOR_PARAMS = ("anchor_weight", "normal_anchor_weight",
                     "concept_weight", "concepts_per_frame",
                     "semantic_noise", "sensor_noise")


def _generator_param_defaults() -> dict:
    signature = inspect.signature(FrameGenerator.__init__)
    return {name: signature.parameters[name].default
            for name in _GENERATOR_PARAMS}


@dataclass(frozen=True)
class FleetInfra:
    """Seeds + hyperparameters from which a worker rebuilds the shared
    infrastructure.

    The joint embedding model and the synthetic frame generator are
    infrastructure shipped once, not per deployment (see
    :meth:`Deployment.load`); across a process boundary "shipped" means
    rebuilt deterministically from seeds.  ``generator_params`` carries
    any non-default :class:`~repro.data.FrameGenerator` hyperparameters
    (which shape the frames streams emit); stream *contents* do not
    depend on the generator's own seed, so that one is carried for
    fidelity, not determinism.
    """

    embedding_seed: int = 7
    generator_seed: int = 7
    generator_params: dict = field(default_factory=dict)

    @classmethod
    def from_pipeline(cls, pipeline) -> "FleetInfra":
        return cls.from_generator(pipeline.config.experiment.seed,
                                  pipeline.generator)

    @classmethod
    def from_generator(cls, embedding_seed: int,
                       generator: FrameGenerator) -> "FleetInfra":
        return cls(embedding_seed=embedding_seed,
                   generator_seed=generator.seed,
                   generator_params={name: getattr(generator, name)
                                     for name in _GENERATOR_PARAMS})

    def effective_generator_params(self) -> dict:
        return {**_generator_param_defaults(), **self.generator_params}

    def build(self):
        """(embedding_model, frame_generator) for one process."""
        from ..embedding.joint_space import build_default_embedding_model
        embedding = build_default_embedding_model(seed=self.embedding_seed)
        return embedding, FrameGenerator(embedding, seed=self.generator_seed,
                                         **self.generator_params)

    def to_payload(self) -> dict:
        return {"embedding_seed": self.embedding_seed,
                "generator_seed": self.generator_seed,
                "generator_params": dict(self.generator_params)}

    @classmethod
    def from_payload(cls, payload: dict) -> "FleetInfra":
        return cls(embedding_seed=int(payload["embedding_seed"]),
                   generator_seed=int(payload["generator_seed"]),
                   generator_params=dict(payload.get("generator_params")
                                         or {}))


def _empty_fleet_payload(max_batch_windows: int | None) -> dict:
    return {"fleet_format_version": FLEET_FORMAT_VERSION,
            "models": [], "slots": [],
            "max_batch_windows": max_batch_windows, "rounds": 0}


def partition_fleet_payload(payload: dict, shards: int) -> list[dict]:
    """Split a whole-fleet checkpoint payload into per-shard payloads.

    Slots are assigned round-robin in stored (= attach) order; each shard
    payload keeps only the models its slots reference, with indices
    remapped, so shared models keep coalescing *within* a shard.
    """
    if shards < 1:
        raise ConfigError("need at least one shard")
    parts = []
    for shard in range(shards):
        entries = [dict(entry) for index, entry in enumerate(payload["slots"])
                   if index % shards == shard]
        model_map: dict[int, int] = {}
        models = []
        for entry in entries:
            old = entry["model_index"]
            if old not in model_map:
                model_map[old] = len(models)
                models.append(payload["models"][old])
            entry["model_index"] = model_map[old]
        parts.append({"fleet_format_version": FLEET_FORMAT_VERSION,
                      "models": models, "slots": entries,
                      "max_batch_windows": payload.get("max_batch_windows"),
                      "rounds": int(payload.get("rounds", 0))})
    return parts


def _shard_worker_main(conn, payload_json: str, infra_payload: dict,
                       ring_names: tuple[str, str] | None = None) -> None:
    """One shard's process: a private DeploymentFleet behind a pipe.

    Module-level so the ``spawn`` start method can import it; every
    request is answered with ``("ok", result)`` or ``("error", message)``
    — worker exceptions surface in the parent instead of killing the
    shard.  Startup failures (bad payload, embedding-fingerprint
    mismatch) are relayed as a ``("fatal", message)`` reply so the
    parent's next request reports the real cause rather than a bare
    EOFError.

    With ``ring_names`` the payload bytes of every request and reply
    ride the parent's shared-memory rings (see
    :mod:`repro.serving.shm_ring`); the pipe carries only transport
    tokens — ``("shm", length)`` doorbells or ``("inline", payload)``
    fallbacks for messages that outsize the ring.
    """
    ring_in = ring_out = None

    def reply(payload: tuple) -> None:
        if ring_out is not None:
            blob = dumps_message(payload)
            if ring_out.write(blob):
                conn.send(("shm", len(blob)))
                return
        conn.send(("inline", payload))

    try:
        if ring_names is not None:
            # (parent->worker, worker->parent), named from the parent's
            # point of view; attaching never unlinks (see RingBuffer).
            ring_in = RingBuffer.attach(ring_names[0])
            ring_out = RingBuffer.attach(ring_names[1])
        embedding, generator = FleetInfra.from_payload(infra_payload).build()
        fleet = DeploymentFleet.from_dict(json.loads(payload_json),
                                          embedding, generator)
    except Exception as exc:  # noqa: BLE001 — relayed to the parent
        try:
            conn.send(("inline", ("fatal", f"worker startup failed: "
                                           f"{type(exc).__name__}: {exc}")))
        finally:
            conn.close()
        return
    bench_rounds: list[list[np.ndarray]] | None = None
    models_by_token: dict[str, object] = {}  # "add"-shipped shared models

    def execute(command: str, args: list):
        """Run one worker command and return its result (dispatch is a
        function so the ``traced`` wrapper below can time any inner
        command without duplicating the table)."""
        nonlocal bench_rounds
        if command == "step":
            return fleet.step(batched=args[0])
        if command == "add":
            entry = args[0]
            # Streams sharing a scoring model in the parent keep
            # sharing it here (the parent ships each model once per
            # shard, keyed by token), so the shard's micro-batcher
            # still coalesces them and snapshots store the model once.
            token = entry.get("model_token")
            deployment = Deployment.from_dict(
                entry["deployment"], embedding,
                model=models_by_token.get(token))
            if token is not None:
                models_by_token[token] = deployment.model
            stream = TrendShiftStream(
                generator,
                config_from_dict(TrendShiftConfig,
                                 entry["stream_config"]))
            slot = fleet.add(entry["name"], deployment, stream)
            slot.cursor = int(entry.get("cursor", 0))
            slot.done = bool(entry.get("done", False))
            return None
        if command == "remove":
            return fleet.remove(args[0]).to_dict(include_model=True)
        if command == "ingest_round":
            arrivals, batched, scores = args
            if scores is not None:
                scores = {name: scores[name] for name in arrivals}
            return fleet.ingest_round(arrivals, batched=batched,
                                      scores=scores)
        if command == "score_only":
            return fleet.score_only(args[0])
        if command == "serve_round":
            # Fused score+ingest: one ring round-trip per wave instead
            # of two.  ``args`` is (arrivals, ingest_names): score every
            # arrival, then ingest the named subset with its precomputed
            # slices — identical per-shard batch composition (and so
            # bit-identical scores) to the split score_only/ingest_round
            # pair.  A clean score failure ingests nothing and reports
            # score_error so the parent falls back to per-entry
            # isolation for this shard's streams only.
            arrivals, ingest_names = args
            try:
                scored = fleet.score_only(arrivals)
            except Exception as exc:  # noqa: BLE001 — relayed as data,
                # not an error reply: the other shards' fused results
                # are still good.
                return {"scores": None, "events": None,
                        "score_error": f"{type(exc).__name__}: {exc}"}
            todo = {name: arrivals[name] for name in ingest_names}
            events = fleet.ingest_round(
                todo, batched=True,
                scores={name: scored[name] for name in todo}) \
                if todo else {}
            return {"scores": scored, "events": events,
                    "score_error": None}
        if command == "snapshot":
            return fleet.to_dict()
        if command == "stats":
            return {"batches_run": fleet.batcher.batches_run,
                    "windows_scored": fleet.batcher.windows_scored}
        if command == "prime":
            bench_rounds = [
                [np.asarray(slot.stream.batch(index).windows,
                            dtype=np.float64) for slot in fleet.slots]
                for index in range(args[0])]
            return (sum(w.shape[0] for w in bench_rounds[0])
                    if bench_rounds and fleet.slots else 0)
        if command == "score_round":
            if bench_rounds is None:
                raise StateError("score_round before prime")
            windows = bench_rounds[args[0]]
            scores = fleet.batcher.score(
                [ScoreRequest(slot.deployment.model, w)
                 for slot, w in zip(fleet.slots, windows)])
            return {slot.name: s
                    for slot, s in zip(fleet.slots, scores)}
        raise ConfigError(f"unknown worker command {command!r}")

    span_names = {"score_only": "shard.score", "ingest_round": "shard.ingest"}
    while True:
        try:
            token = conn.recv()
        except EOFError:
            break
        try:
            kind = token[0] if isinstance(token, tuple) and token else None
            if kind == "shm":
                message = loads_message(ring_in.read(token[1]))
            elif kind == "inline":
                message = token[1]
            else:
                raise RingError(f"unexpected transport token {token!r}")
        except RingError as exc:
            reply(("error", f"shared-memory transport failure: {exc}"))
            continue
        command, *args = message
        if command == "stop":
            reply(("ok", None))
            break
        try:
            if command == "traced":
                # ("traced", {trace_id, parent_id, shard}, inner_message):
                # execute the inner command timed, and ship the span dict
                # back with the result so it lands in the parent recorder
                # with shard attribution.  Wall-clock ``ts`` keeps worker
                # spans on the parent's timeline.
                tinfo, inner = args
                inner_command, *inner_args = inner
                started = time.time()
                t0 = time.perf_counter()
                inner_result = execute(inner_command, inner_args)
                attrs = {"shard": tinfo.get("shard"), "pid": os.getpid()}
                if inner_args and isinstance(inner_args[0], dict):
                    attrs["streams"] = len(inner_args[0])
                result = {"result": inner_result, "spans": [{
                    "name": span_names.get(inner_command,
                                           f"shard.{inner_command}"),
                    "trace_id": tinfo["trace_id"],
                    "span_id": new_span_id(),
                    "parent_id": tinfo["parent_id"],
                    "ts": started,
                    "dur": time.perf_counter() - t0,
                    "attrs": attrs,
                }]}
            else:
                result = execute(command, args)
            reply(("ok", result))
        except Exception as exc:  # noqa: BLE001 — relayed to the parent
            reply(("error", f"{type(exc).__name__}: {exc}"))
    for ring in (ring_in, ring_out):
        if ring is not None:
            ring.close()
    conn.close()


class ShardedFleet:
    """A :class:`DeploymentFleet` partitioned across worker processes.

    Mirrors the single-process fleet's surface — ``add``/``remove``,
    ``step``/``serve``, ``save``/``load`` — while each shard scores its
    streams in its own process.  Streams must be
    :class:`~repro.data.TrendShiftStream` instances (anything attached
    has to survive the serialized trip to its worker).

    Use as a context manager, or call :meth:`close` when done; worker
    processes otherwise linger until garbage collection.
    """

    def __init__(self, shards: int, infra: FleetInfra | None = None,
                 max_batch_windows: int | None = None,
                 ring_bytes: int | None = None):
        if shards < 1:
            raise ConfigError("need at least one shard")
        self.shards = shards
        self.infra = infra or FleetInfra()
        self.max_batch_windows = max_batch_windows
        self._order: list[str] = []        # global attach order
        self._assignment: dict[str, int] = {}
        self._attach_counter = 0           # round-robin cursor
        # Model identity tracking for add(): streams sharing a model ship
        # it once per shard (the strong reference pins the id() for the
        # fleet's lifetime so tokens can never alias a recycled object).
        self._model_tokens: dict[int, tuple[str, object]] = {}
        self._shipped_models: set[tuple[int, str]] = set()
        self._local_embedding = None       # lazily built for remove()
        self._conns: list = []
        self._procs: list = []
        self._closed = False
        self._init_transport(ring_bytes)
        self._init_engine()
        self._start_workers([_empty_fleet_payload(max_batch_windows)
                             for _ in range(shards)])

    def _init_transport(self, ring_bytes: int | None) -> None:
        """Per-shard shared-memory ring state.  ``ring_bytes`` sizes each
        direction's ring (``None`` = default, ``0`` = pure pipe)."""
        self._ring_bytes = DEFAULT_RING_BYTES if ring_bytes is None \
            else int(ring_bytes)
        if self._ring_bytes < 0:
            raise ConfigError("ring_bytes must be >= 0")
        self._rings_out: list[RingBuffer | None] = []  # parent -> worker
        self._rings_in: list[RingBuffer | None] = []   # worker -> parent
        self._transport_counters = {"shm_messages": 0, "shm_bytes": 0,
                                    "pipe_fallbacks": 0, "fused_rounds": 0}

    def _init_engine(self, policy=None, metrics=None) -> None:
        from ..runtime.backends import ShardedBackend
        self.engine = ServingEngine(ShardedBackend(self), policy=policy,
                                    metrics=metrics)

    @property
    def rounds(self) -> int:
        """Serving rounds run so far (counted by the engine)."""
        return self.engine.rounds

    @rounds.setter
    def rounds(self, value: int) -> None:
        self.engine.rounds = int(value)

    # ------------------------------------------------------------------
    # Worker plumbing
    # ------------------------------------------------------------------
    def _start_workers(self, payloads: list[dict]) -> None:
        context = multiprocessing.get_context("spawn")
        infra_payload = self.infra.to_payload()
        for payload in payloads:
            to_worker = from_worker = None
            if self._ring_bytes:
                try:
                    to_worker = RingBuffer.create(self._ring_bytes)
                    from_worker = RingBuffer.create(self._ring_bytes)
                except (OSError, ValueError):
                    # No usable /dev/shm: serve over the pipe alone.
                    if to_worker is not None:
                        to_worker.close()
                        to_worker.unlink()
                    to_worker = from_worker = None
            ring_names = None if to_worker is None \
                else (to_worker.name, from_worker.name)
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(child_conn, json.dumps(payload), infra_payload,
                      ring_names),
                daemon=True)
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)
            self._rings_out.append(to_worker)
            self._rings_in.append(from_worker)

    def _check_open(self) -> None:
        if self._closed:
            raise FleetError("fleet is closed")

    def _encode(self, shard: int, message: tuple) -> bytes | None:
        """This shard's ring framing for ``message`` (``None`` on a
        pure-pipe shard, which sends the object inline)."""
        return dumps_message(message) if self._rings_out[shard] is not None \
            else None

    def _post(self, shard: int, message: tuple, blob: bytes | None) -> None:
        # A send to a dead worker fails; its queued "fatal" reply (or an
        # EOF) is still waiting on the recv side, which reports the cause.
        #
        # The payload rides this shard's shared-memory ring when it
        # fits (the pipe carries only a ("shm", length) doorbell) and
        # falls back to an inline pipe message otherwise — capacity
        # bounds latency, never correctness.
        conn = self._conns[shard]
        ring = self._rings_out[shard]
        try:
            if ring is not None and blob is not None:
                if ring.write(blob):
                    self._transport_counters["shm_messages"] += 1
                    self._transport_counters["shm_bytes"] += len(blob)
                    conn.send(("shm", len(blob)))
                    return
                self._transport_counters["pipe_fallbacks"] += 1
            conn.send(("inline", message))
        except (BrokenPipeError, OSError, RingError):
            pass

    def _send(self, shard: int, message: tuple) -> None:
        self._post(shard, message, self._encode(shard, message))

    def _post_all(self, messages: dict[int, tuple]) -> None:
        """Scatter sends with encoding hoisted out of the send loop:
        every shard's pickle/binframe blob is built *before* the first
        doorbell rings, so the workers start as close to simultaneously
        as possible instead of shard N+1 waiting out shard N's encode."""
        blobs = {shard: self._encode(shard, message)
                 for shard, message in messages.items()}
        for shard, message in messages.items():
            self._post(shard, message, blobs[shard])

    def _recv(self, shard: int) -> tuple:
        try:
            token = self._conns[shard].recv()
        except EOFError:
            return ("error", "worker process died unexpectedly")
        kind = token[0] if isinstance(token, tuple) and token else None
        if kind == "inline":
            return token[1]
        if kind == "shm":
            ring = self._rings_in[shard]
            if ring is None:
                return ("error", "worker sent a shared-memory doorbell "
                                 "but this fleet has no ring attached")
            try:
                reply = loads_message(ring.read(token[1]))
                self._transport_counters["shm_messages"] += 1
                self._transport_counters["shm_bytes"] += int(token[1])
                return reply
            except RingError as exc:
                return ("error",
                        f"shared-memory transport failure: {exc}")
        return ("error", f"unexpected transport token {token!r}")

    @staticmethod
    def _worker_error(shard: int, status: str, value) -> WorkerError:
        """Typed exception for one shard's non-``ok`` reply: startup
        failures (the worker's ``fatal`` relay) get the narrower
        :class:`~repro.errors.WorkerStartupError`."""
        cls = WorkerStartupError if status == "fatal" else WorkerError
        return cls(f"shard {shard}: {value}", shard=shard)

    def _receive(self, shard: int):
        status, value = self._recv(shard)
        if status != "ok":
            raise self._worker_error(shard, status, value)
        return value

    def _request(self, shard: int, message: tuple):
        self._check_open()
        self._send(shard, message)
        return self._receive(shard)

    def _broadcast(self, message: tuple) -> list:
        """Send to every shard first, then gather — shards overlap."""
        self._check_open()
        # One message → one encode, reused for every ring shard.
        blob = dumps_message(message) \
            if any(ring is not None for ring in self._rings_out) else None
        for shard in range(len(self._conns)):
            self._post(shard, message, blob)
        return self._gather_replies(range(len(self._conns)))

    def _gather_replies(self, shards) -> list:
        """Receive one reply from each of ``shards`` (in order) and
        return their values.

        Every reply is drained before any error is raised; bailing on
        the first failure would leave later shards' replies queued and
        desynchronize the next command.  One shard's startup failure
        outranks run-of-the-mill errors: it is the root cause the
        others' broken pipes follow from.
        """
        replies = [(shard, *self._recv(shard)) for shard in shards]
        failed = [reply for reply in replies if reply[1] != "ok"]
        if failed:
            shard, status, value = next(
                (f for f in failed if f[1] == "fatal"), failed[0])
            cls = WorkerStartupError if status == "fatal" else WorkerError
            raise cls("; ".join(f"shard {s}: {v}" for s, _, v in failed),
                      shard=shard)
        return [value for _, _, value in replies]

    def _fan_out(self, arrivals: dict, message_for) -> list[tuple]:
        """Partition a per-stream mapping by shard assignment, post each
        involved shard ``message_for(shard, slice)`` (every send before
        any recv, so shards overlap), and gather the replies; returns
        ``(slice, reply value)`` per shard in shard order."""
        self._check_open()
        per_shard: dict[int, dict] = {}
        for name, value in arrivals.items():
            shard = self._assignment.get(name)
            if shard is None:
                raise KeyError(f"no stream named {name!r} attached")
            per_shard.setdefault(shard, {})[name] = value
        shards = sorted(per_shard)
        self._post_all({shard: message_for(shard, per_shard[shard])
                        for shard in shards})
        return list(zip((per_shard[shard] for shard in shards),
                        self._gather_replies(shards)))

    def close(self) -> None:
        """Shut down the worker processes (idempotent).

        Shared-memory segments are closed and unlinked *after* the
        workers are down — even workers that died mid-command — so a
        closed fleet never leaks ``/dev/shm`` entries.
        """
        if self._closed:
            return
        self._closed = True
        for shard, conn in enumerate(self._conns):
            try:
                # "stop" is control-plane: always inline on the pipe.
                conn.send(("inline", ("stop",)))
                self._recv(shard)
            except (BrokenPipeError, EOFError, OSError):
                pass
            conn.close()
        for process in self._procs:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        for ring in (*self._rings_out, *self._rings_in):
            if ring is not None:
                ring.close()
                ring.unlink()
        self._conns = []
        self._procs = []
        self._rings_out = []
        self._rings_in = []

    def __enter__(self) -> "ShardedFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:  # noqa: BLE001 — interpreter may be tearing down
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def add(self, name: str, deployment: Deployment, stream) -> int:
        """Attach a stream; returns the shard index it was assigned to.

        Assignment is deterministic round-robin over the attach sequence.
        Reloading a checkpoint re-derives assignments round-robin over
        the *stored* stream order — the same layout unless streams were
        removed mid-run, in which case the layout may shift (scores are
        unaffected either way; shards are disjoint).
        """
        self._check_open()
        if name in self._assignment:
            raise ConfigError(f"stream {name!r} already attached")
        if not isinstance(stream, TrendShiftStream):
            raise ConfigError(
                f"stream {name!r} is not a TrendShiftStream; only "
                "checkpointable streams can cross the process boundary")
        expected = self.infra.effective_generator_params()
        actual = {param: getattr(stream.generator, param)
                  for param in _GENERATOR_PARAMS}
        if actual != expected:
            raise ConfigError(
                f"stream {name!r} was built over a FrameGenerator whose "
                f"hyperparameters {actual} differ from this fleet's "
                f"FleetInfra {expected}; workers would regenerate "
                "different frames and scores would silently diverge — "
                "construct the fleet with FleetInfra.from_generator(...) "
                "over this stream's generator")
        shard = self._attach_counter % self.shards
        self._attach_counter += 1
        key = id(deployment.model)
        if key not in self._model_tokens:
            self._model_tokens[key] = (f"model-{len(self._model_tokens)}",
                                       deployment.model)
        token = self._model_tokens[key][0]
        ship_model = (shard, token) not in self._shipped_models
        entry = {"name": name,
                 "deployment": deployment.to_dict(include_model=ship_model),
                 "model_token": token,
                 "stream_config": config_to_dict(stream.config),
                 "cursor": 0, "done": False}
        self._request(shard, ("add", entry))
        self._shipped_models.add((shard, token))
        self._assignment[name] = shard
        self._order.append(name)
        return shard

    def remove(self, name: str) -> Deployment:
        """Detach a stream; returns its deployment, rebuilt locally."""
        shard = self._assignment.get(name)
        if shard is None:
            raise KeyError(f"no stream named {name!r} attached")
        payload = self._request(shard, ("remove", name))
        del self._assignment[name]
        self._order.remove(name)
        if self._local_embedding is None:
            self._local_embedding, _ = self.infra.build()
        return Deployment.from_dict(payload, self._local_embedding)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._assignment

    @property
    def names(self) -> list[str]:
        return list(self._order)

    @property
    def assignment(self) -> dict[str, int]:
        """Stream name -> shard index."""
        return dict(self._assignment)

    def batcher_stats(self) -> dict:
        """Summed micro-batcher counters across shards."""
        stats = self._broadcast(("stats",))
        return {"batches_run": sum(s["batches_run"] for s in stats),
                "windows_scored": sum(s["windows_scored"] for s in stats)}

    def transport_stats(self) -> dict:
        """Parent<->worker transport counters: messages/bytes over the
        shared-memory rings and how often a message outsized its ring
        and fell back to the pipe (surfaced through ``engine.stats()``
        and the gateway ``stats`` op)."""
        shm = any(ring is not None for ring in self._rings_out)
        return {"transport": "shm" if shm else "pipe",
                "ring_bytes": self._ring_bytes if shm else 0,
                **self._transport_counters}

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def step(self, batched: bool = True) -> list[FleetEvent]:
        """One serving round: every shard steps concurrently; events are
        merged back in stable (attach-order) stream order, matching the
        single-process fleet's event order exactly."""
        return self.engine.step(batched=batched)

    def serve(self, max_rounds: int | None = None, batched: bool = True):
        """Yield per-round event lists until every stream is exhausted
        (or ``max_rounds`` rounds have run)."""
        return self.engine.serve(max_rounds=max_rounds, batched=batched)

    def _scatter(self, command: str, arrivals: dict, extra: tuple = (),
                 trace=None, span_sink=None):
        """Fan ``command`` out to the shards owning ``arrivals``' streams
        (see :meth:`_fan_out`) and merge the per-shard dict replies.

        With ``trace`` (a :class:`repro.obs.TraceContext`) each shard's
        message is wrapped as ``("traced", info, inner)`` so the worker
        times the inner command and ships its span dicts back alongside
        the result; collected spans go to ``span_sink`` after the merge.
        Untraced messages carry no wrapper.
        """
        def message_for(shard, part):
            message = (command, part, *extra)
            if trace is None:
                return message
            return ("traced", {"trace_id": trace.trace_id,
                               "parent_id": trace.span_id,
                               "shard": shard}, message)

        merged: dict = {}
        spans: list[dict] = []
        for _, value in self._fan_out(arrivals, message_for):
            if trace is not None:
                spans.extend(value.get("spans") or ())
                value = value["result"]
            merged.update(value)
        if spans and span_sink is not None:
            span_sink(spans)
        return merged

    def ingest_round(self, arrivals: dict, batched: bool = True,
                     scores: dict | None = None) -> dict:
        """One serving round over externally supplied arrival windows;
        the sharded twin of :meth:`DeploymentFleet.ingest_round` (each
        involved shard micro-batches its own slice concurrently).

        Unlike the single-process fleet, a multi-shard round is not
        atomic: each shard scores-then-ingests its own slice, so if one
        shard fails (worker death) the other shards' streams have
        already ingested their windows.  Callers must treat a raised
        round as indeterminate and must not blindly re-send the same
        windows, or surviving streams double-ingest.  Pre-validating
        windows with :meth:`score_only` (stateless, safely retryable)
        and passing the result as ``scores`` confines ingest-time
        failures to genuine worker crashes.
        """
        return self.engine.ingest_round(arrivals, batched=batched,
                                        scores=scores)

    def score_only(self, arrivals: dict) -> dict:
        """Score externally supplied windows without feeding any
        monitor; the sharded twin of :meth:`DeploymentFleet.score_only`."""
        return self.engine.score_only(arrivals)

    def serve_round(self, arrivals: dict,
                    ingest: list[str]) -> tuple[dict, dict, list[str]]:
        """Fused score+ingest scatter: one ring round-trip per involved
        shard instead of the split ``score_only`` + ``ingest_round``
        pair.  Returns ``(scored, events, unscored)`` — per-stream score
        arrays, per-stream :class:`FleetEvent` results for the ``ingest``
        subset, and the streams of any shard whose coalesced score
        failed *cleanly* (that shard ingested nothing, so the caller can
        retry those streams through the split per-entry isolation path).

        Each shard scores its slice with the same batch composition the
        split scatter produces, so scores are bit-identical.  Raises
        :class:`~repro.errors.WorkerError` only on worker death — like a
        raised :meth:`ingest_round`, an indeterminate outcome the caller
        must not blindly re-send.
        """
        ingest_set = set(ingest)
        replies = self._fan_out(arrivals, lambda shard, part: (
            "serve_round", part, [name for name in part
                                  if name in ingest_set]))
        self._transport_counters["fused_rounds"] += 1
        scored: dict = {}
        events: dict = {}
        unscored: list[str] = []
        for part, value in replies:
            if value["score_error"] is not None:
                unscored.extend(part)
            else:
                scored.update(value["scores"])
                events.update(value["events"])
        return scored, events, unscored

    # ------------------------------------------------------------------
    # Benchmark hooks (see serving.bench.run_shard_benchmark)
    # ------------------------------------------------------------------
    def prime(self, rounds: int) -> int:
        """Pre-materialize ``rounds`` arrival rounds inside each worker so
        :meth:`score_round` times scoring only; returns windows/round."""
        return sum(self._broadcast(("prime", rounds)))

    def score_round(self, index: int) -> dict[str, np.ndarray]:
        """Score a primed round on every shard concurrently (no monitor
        feeding); returns per-stream score arrays."""
        merged: dict[str, np.ndarray] = {}
        for scores in self._broadcast(("score_round", index)):
            merged.update(scores)
        return merged

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Whole-fleet snapshot in the plain fleet format (slots in global
        attach order, models concatenated across shards) plus a
        ``"shards"`` hint; loadable by :class:`DeploymentFleet` too."""
        snapshots = self._broadcast(("snapshot",))
        models: list[dict] = []
        slots_by_name: dict[str, dict] = {}
        for snapshot in snapshots:
            offset = len(models)
            models.extend(snapshot["models"])
            for entry in snapshot["slots"]:
                entry = dict(entry)
                entry["model_index"] += offset
                slots_by_name[entry["name"]] = entry
        return {"fleet_format_version": FLEET_FORMAT_VERSION,
                "models": models,
                "slots": [slots_by_name[name] for name in self._order],
                "max_batch_windows": self.max_batch_windows,
                "rounds": self.rounds,
                "shards": self.shards,
                "infra": self.infra.to_payload()}

    def save(self, path: str | Path) -> None:
        atomic_write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict, shards: int | None = None,
                  infra: FleetInfra | None = None,
                  ring_bytes: int | None = None) -> "ShardedFleet":
        """Rebuild a sharded fleet from a whole-fleet payload.

        ``shards`` defaults to the payload's ``"shards"`` hint (1 for a
        checkpoint written by a plain :class:`DeploymentFleet`); passing a
        different count re-partitions the same streams.  ``infra``
        defaults to the payload's stored ``"infra"`` section (sharded
        checkpoints are self-describing); an explicit argument overrides
        it, and default seeds are the last resort for plain-fleet files.
        """
        version = payload.get("fleet_format_version")
        if version != FLEET_FORMAT_VERSION:
            raise CheckpointError(f"unsupported fleet format version: {version}")
        if shards is None:
            shards = int(payload.get("shards", 1))
        if infra is None and payload.get("infra") is not None:
            infra = FleetInfra.from_payload(payload["infra"])
        fleet = cls.__new__(cls)
        fleet.shards = shards
        fleet.infra = infra or FleetInfra()
        fleet.max_batch_windows = payload.get("max_batch_windows")
        fleet._init_transport(ring_bytes)
        fleet._init_engine()
        fleet.rounds = int(payload.get("rounds", 0))
        fleet._order = [entry["name"] for entry in payload["slots"]]
        fleet._assignment = {name: index % shards
                             for index, name in enumerate(fleet._order)}
        fleet._attach_counter = len(fleet._order)
        fleet._model_tokens = {}
        fleet._shipped_models = set()
        fleet._local_embedding = None
        fleet._conns = []
        fleet._procs = []
        fleet._closed = False
        fleet._start_workers(partition_fleet_payload(payload, shards))
        return fleet

    @classmethod
    def load(cls, path: str | Path, shards: int | None = None,
             infra: FleetInfra | None = None,
             ring_bytes: int | None = None) -> "ShardedFleet":
        return cls.from_dict(json.loads(Path(path).read_text()),
                             shards=shards, infra=infra,
                             ring_bytes=ring_bytes)

    @classmethod
    def from_fleet(cls, fleet: DeploymentFleet, shards: int,
                   infra: FleetInfra | None = None,
                   ring_bytes: int | None = None) -> "ShardedFleet":
        """Partition an in-process fleet across ``shards`` workers.

        The fleet is serialized through its checkpoint format, so every
        worker's models are exact round-trips of the originals — sharded
        scores stay bit-identical to the source fleet's.  When ``infra``
        is omitted it is derived from the first slot's stream generator
        (all slots are assumed to share one generator configuration; mix
        generators with different hyperparameters and workers would
        regenerate different frames).
        """
        if infra is None and fleet.slots:
            generator = fleet.slots[0].stream.generator
            infra = FleetInfra.from_generator(generator.model.seed,
                                              generator)
        payload = fleet.to_dict()
        return cls.from_dict(payload, shards=shards, infra=infra,
                             ring_bytes=ring_bytes)


def build_sharded_fleet(pipeline, missions: list[str], streams: int,
                        shards: int, adaptive: bool = False,
                        share_models: bool = True, windows_per_step: int = 2,
                        stream_seed: int = 100,
                        max_batch_windows: int | None = None,
                        ring_bytes: int | None = None,
                        **stream_overrides) -> ShardedFleet:
    """Assemble a sharded fleet over a :class:`~repro.api.Pipeline`.

    Mirrors :func:`~repro.serving.build_fleet` (same missions round-robin,
    same stream seeds, same names) and then partitions the result across
    ``shards`` worker processes, so sharded and single-process fleets
    built with the same arguments serve identical streams and scores.
    """
    fleet = build_fleet(pipeline, missions, streams, adaptive=adaptive,
                        share_models=share_models,
                        windows_per_step=windows_per_step,
                        stream_seed=stream_seed,
                        max_batch_windows=max_batch_windows,
                        **stream_overrides)
    return ShardedFleet.from_fleet(fleet, shards,
                                   infra=FleetInfra.from_pipeline(pipeline),
                                   ring_bytes=ring_bytes)
