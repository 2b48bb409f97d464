"""The serving engine: one canonical round loop for every serving layer.

PRs 2–4 grew three serving layers — the in-process
:class:`~repro.serving.DeploymentFleet`, the multi-process
:class:`~repro.serving.ShardedFleet`, and the network
:class:`~repro.gateway.GatewayServer` — and each re-implemented the same
round shape: gather pending arrivals, pick this round's work, micro-batch
score it, dispatch the score slices into each deployment's monitor, and
report what happened.  :class:`ServingEngine` owns that loop once:

* **gather** — either pulled from backend-owned streams (:meth:`step`)
  or pushed into bounded per-stream admission queues (:meth:`submit`);
* **schedule** — a pluggable :class:`~repro.runtime.SchedulingPolicy`
  decides which queued requests form the round (:meth:`run_round`);
* **score** — the :class:`~repro.runtime.ExecutionBackend` executes the
  coalesced, stateless scoring pass (in-process micro-batching or a
  scatter across shard workers), with per-entry isolation when a
  coalesced forward fails;
* **ingest** — deployments consume their precomputed score slices;
* **commit** — one group-commit path (durability records, fsync, then
  delivery), inline at depth 0 or on a committer thread when pipelined;
* **emit** — :class:`FleetEvent`/:class:`RoundResult` objects for the
  caller, and round/latency/queue metrics into one shared
  :class:`repro.metrics.MetricsRegistry`.

Scores are bit-identical across backends and policies: scoring is
stateless and batch-composition-independent (see
:mod:`repro.serving.batcher`), and the engine preserves per-stream FIFO
order no matter how a policy composes rounds, so every stream sees the
exact ingest sequence a plain ``DeploymentFleet.step()`` run would
produce.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from threading import Condition, Lock, Thread
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError, ReproError
from ..metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover — typing only
    from ..adaptation.controller import AdaptationStepLog

__all__ = ["FleetEvent", "make_fleet_event", "EngineRequest", "RoundResult",
           "AdmissionError", "ServingEngine"]


@dataclass
class FleetEvent:
    """One stream's result within a serving round."""

    stream: str
    mission: str | None
    step: int
    scores: np.ndarray
    log: "AdaptationStepLog | None" = None
    active_class: str | None = None
    is_post_shift: bool | None = None


def make_fleet_event(slot, log, batch=None) -> FleetEvent:
    """The one place a :class:`FleetEvent` is assembled from a slot's
    ingest log (``batch`` carries stream metadata when the round was
    pulled from the slot's own stream; externally supplied arrivals have
    none)."""
    return FleetEvent(
        stream=slot.name, mission=slot.deployment.mission,
        step=log.step, scores=log.scores, log=log,
        active_class=getattr(batch, "active_class", None),
        is_post_shift=getattr(batch, "is_post_shift", None))


@dataclass
class EngineRequest:
    """One queued ``ingest``/``scores`` request awaiting scheduling.

    ``priority`` and ``deadline`` only matter to policies that read them
    (higher priority first; ``deadline`` is an absolute
    ``time.monotonic()`` instant after which the request is expired
    instead of served).  ``tag`` is an opaque caller handle — the gateway
    stores its response future there — threaded through untouched.
    """

    op: str                        # "ingest" | "scores"
    stream: str
    windows: np.ndarray
    priority: int = 0
    deadline: float | None = None
    queued_at: float = 0.0
    tag: object = None
    wal_seq: int | None = None     # durability log seq (set at admission)
    # Optional repro.obs.TraceContext joining this request's trace to
    # the round that serves it (typed loosely: the runtime layer treats
    # it as opaque unless a tracer is attached).
    trace: object = None


@dataclass
class RoundResult:
    """What one :class:`EngineRequest` became after its round ran."""

    request: EngineRequest
    kind: str                      # "event" | "scores" | "error"
    event: FleetEvent | None = None
    scores: np.ndarray | None = None
    code: str | None = None        # typed error code for kind == "error"
    message: str | None = None


class AdmissionError(ReproError, RuntimeError):
    """A request refused at the queue door; carries a typed code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Stage:
    """One traced stage of a round (see :meth:`ServingEngine._stage`).

    :meth:`finish` closes the ``engine.<name>`` span, observes the
    ``engine.stage.<name>`` histogram and echoes a same-interval
    ``stage.<name>`` span under each traced request's own context (with
    shard attribution when the backend partitions streams).  The
    untraced stage (``span is None``) does nothing at all.
    """

    __slots__ = ("metrics", "tracer", "name", "span", "requests", "shards")

    def __init__(self, metrics, tracer, name, span, requests=(),
                 shards=None):
        self.metrics = metrics
        self.tracer = tracer
        self.name = name
        self.span = span
        self.requests = requests
        self.shards = shards

    @property
    def context(self):
        """The stage span's trace context (``None`` untraced)."""
        return None if self.span is None else self.span.context

    @property
    def trace_kw(self) -> dict:
        """Keyword arguments parenting a backend call under this stage;
        empty untraced, so backends without a ``trace`` keyword work."""
        return {} if self.span is None else {"trace": self.span.context}

    def finish(self, **attrs) -> None:
        if self.span is None:
            return
        done = self.span.finish(**attrs)
        self.metrics.histogram(f"engine.stage.{self.name}").observe(done.dur)
        shards = self.shards or {}
        for request in self.requests:
            if request.trace is None:
                continue
            echo = {"stream": request.stream}
            if request.stream in shards:
                echo["shard"] = shards[request.stream]
            self.tracer.record_span(f"stage.{self.name}",
                                    parent=request.trace, ts=done.ts,
                                    dur=done.dur, attrs=echo)


_UNTRACED = _Stage(None, None, "", None)


@dataclass
class _CommitBatch:
    """One round's results on their way through the commit path
    (:meth:`ServingEngine._commit_batch`): inline at depth 0, via the
    committer queue when pipelined.

    Batches are strictly FIFO: the committer pops them in handoff order,
    so the WAL sees watermark/skip records in round order either way.
    ``durability`` is the round's ``engine.durability`` stage, opened on
    the round thread at handoff and finished after the fsync — which is
    how ``wal.fsync`` spans stay parented under the *committing* round
    even when they are recorded from the committer thread.
    """

    results: list[RoundResult]
    durability: _Stage
    round_index: int = 0
    handed_off: float = 0.0           # perf_counter at handoff
    wal_seqs: list[int] = field(default_factory=list)


class ServingEngine:
    """Drives rounds over an :class:`~repro.runtime.ExecutionBackend`.

    Thread-safety: the admission queue (:meth:`submit` /
    :meth:`run_round` / :meth:`drop_pending`) is lock-protected, so an
    event loop may admit work while an executor thread runs the round —
    the gateway's arrangement.  The lock-step entry points (:meth:`step`,
    :meth:`ingest_round`, :meth:`score_only`) are single-caller, like the
    fleet methods they replaced.

    **Group commit** has one path, :meth:`_commit_batch`, at two
    depths.  Every round's results become a :class:`_CommitBatch`; the
    commit applies its watermark/skip records, fsyncs, and only then
    delivers the results through the ``on_commit`` callback
    (ack-after-fsync).  At depth 0 (``pipeline=False``) the commit runs
    inline and :meth:`run_round` also returns the committed results.
    Pipelined (``pipeline=True``), :meth:`run_round` hands the batch to
    a dedicated committer thread and returns ``[]`` immediately, so
    round N+1's scheduling/scoring overlaps round N's fsync.  Batches
    commit strictly FIFO; a failed fsync latches the engine (the failing
    batch *and every batch after it* deliver typed ``durability``
    errors, and :meth:`submit` refuses new ingests).
    :meth:`drain_commits` is the barrier callers (snapshots, shutdown)
    use; :meth:`stop_committer` drains and joins the thread.

    The lock discipline is machine-checked: attributes annotated
    ``# repro: guarded-by[_lock]`` (the queues, the durability latch,
    the committer's shared state) may only be touched inside
    ``with self._lock`` or in methods annotated ``# repro: lock-held`` —
    ``repro lint`` (the **lock-guard** rule) fails CI on any unguarded
    access.
    """

    def __init__(self, backend, policy=None, metrics: MetricsRegistry | None = None,
                 max_queue_depth: int | None = None, clock=time.monotonic,
                 durability=None, tracer=None, slow_round_ms: float | None = None,
                 on_slow_round=None, pipeline: bool = False, on_commit=None):
        from .policies import FairRoundRobin
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ConfigError("max_queue_depth must be >= 1")
        self.backend = backend
        self.policy = policy or FairRoundRobin()
        self.metrics = metrics or MetricsRegistry()
        self.max_queue_depth = max_queue_depth
        self.rounds = 0
        self._clock = clock
        self._queues: dict[str, deque[EngineRequest]] = {}  # repro: guarded-by[_lock]
        self._lock = Lock()
        # Duck-typed durability hook (e.g. repro.wal.WalDurability; the
        # runtime layer never imports it): record_submit(request) → seq,
        # record_applied(stream, seq), record_skip(seq),
        # flush_only(trace_parent), snapshot_due(rounds) and
        # snapshot(engine).  Accepted ingests are logged before they
        # become schedulable and fsynced once per round before results
        # reach any caller.
        self.durability = durability
        self._durability_failed = False  # repro: guarded-by[_lock]
        # Uptime baseline for stats(); always real monotonic time, never
        # the injected scheduling clock.
        self._started_monotonic = time.monotonic()
        # Tracing (repro.obs.TraceRecorder, duck-typed).  Strictly
        # opt-in: with no tracer every span call site below is skipped,
        # so the hot path is bit-identical to an untraced engine.
        self._tracer = None
        self.slow_round_ms = slow_round_ms
        self.on_slow_round = on_slow_round  # callable(list[Span]) | None
        # Group commit depth: pipelined, round N's fsync overlaps round
        # N+1's compute.  on_commit(results) is the completion sink (the
        # gateway resolves its response futures there); it runs on
        # whichever thread committed the batch.
        self.pipeline = bool(pipeline)
        self.on_commit = on_commit
        self._commit_queue: deque[_CommitBatch] = deque()  # repro: guarded-by[_lock]
        self._commit_active: _CommitBatch | None = None  # repro: guarded-by[_lock]
        self._commit_stop = False  # repro: guarded-by[_lock]
        self._snapshot_due = False  # repro: guarded-by[_lock]
        self._committer: Thread | None = None  # repro: guarded-by[_lock]
        # Shares _lock so committer waits hold the same lock the
        # guarded state lives under.
        self._commit_cv = Condition(self._lock)
        if tracer is not None:
            self.tracer = tracer

    @property
    def tracer(self):
        """The attached :class:`repro.obs.TraceRecorder` (or ``None``)."""
        return self._tracer

    @tracer.setter
    def tracer(self, recorder) -> None:
        self._tracer = recorder
        attach = getattr(self.backend, "set_tracer", None)
        if attach is not None:
            attach(recorder)

    # ------------------------------------------------------------------
    # Lock-step serving: rounds pulled from backend-owned streams
    # ------------------------------------------------------------------
    def step(self, batched: bool = True) -> list[FleetEvent]:
        """One serving round over every live backend stream: pull each
        stream's next arrival batch, score (coalesced when ``batched``),
        ingest, emit events.  With a tracer attached each non-empty pull
        becomes one ``engine.round`` span (an abandoned span on the
        empty pull is never recorded)."""
        trc = self._tracer
        round_span = trc.start("engine.round") if trc is not None else None
        start = time.perf_counter()
        events = self.backend.pull_round(batched)
        if not events:
            return []
        self._observe_round(time.perf_counter() - start, len(events),
                            sum(int(event.scores.size) for event in events))
        if round_span is not None:
            round_span.finish(round=self.rounds, streams=len(events),
                              pull=True)
        return events

    def serve(self, max_rounds: int | None = None, batched: bool = True):
        """Yield per-round event lists until every stream is exhausted
        (or ``max_rounds`` rounds have run)."""
        rounds = 0
        while max_rounds is None or rounds < max_rounds:
            events = self.step(batched=batched)
            if not events:
                return
            yield events
            rounds += 1

    def ingest_round(self, arrivals: dict, batched: bool = True,
                     scores: dict | None = None) -> dict[str, FleetEvent]:
        """One serving round over externally supplied arrival windows
        (``{stream name: (B, T, frame_dim) windows}``); ``scores`` may
        carry precomputed per-stream score slices (e.g. from a prior
        :meth:`score_only` call), in which case scoring is skipped."""
        start = time.perf_counter()
        events = self.backend.ingest(arrivals, scores=scores,
                                     batched=batched)
        if events:
            self._observe_round(
                time.perf_counter() - start, len(events),
                sum(int(event.scores.size) for event in events.values()))
        return events

    def score_only(self, arrivals: dict) -> dict[str, np.ndarray]:
        """Score externally supplied windows without feeding any
        deployment's monitor; stateless and safely retryable."""
        self.metrics.counter("engine.score_only").inc()
        return self.backend.score(arrivals)

    # ------------------------------------------------------------------
    # Queued serving: admission, scheduling, policy-composed rounds
    # ------------------------------------------------------------------
    def now(self) -> float:
        """The engine's scheduling clock (``time.monotonic`` unless one
        was injected).  ``EngineRequest.deadline`` instants must be
        computed against this clock, never ``time.monotonic`` directly,
        or deadline math silently breaks under an injected clock."""
        return self._clock()

    def submit(self, request: EngineRequest) -> None:
        """Admit a request into its stream's queue; raises
        :class:`AdmissionError` (``backpressure``) past
        ``max_queue_depth`` queued requests for that stream.

        With a durability hook attached, an accepted ``ingest`` request
        is logged *here* — after admission control, before it joins the
        queue — so exactly the accepted requests hit the log
        (backpressure rejections never do) and, because the append runs
        under the admission lock, per-stream log order equals per-stream
        queue order.  A failed append propagates and the request is not
        queued: log-before-schedule, never schedule-then-hope.
        """
        with self._lock:
            queue = self._queues.setdefault(request.stream, deque())
            if (self.max_queue_depth is not None
                    and len(queue) >= self.max_queue_depth):
                raise AdmissionError(
                    "backpressure",
                    f"stream {request.stream!r} has {len(queue)} queued "
                    f"request(s) (limit {self.max_queue_depth}); retry "
                    "after backoff")
            if self.durability is not None and request.op == "ingest":
                if self._durability_failed:
                    raise AdmissionError(
                        "durability",
                        "the durability log failed a group commit; the "
                        "engine refuses new ingests until the WAL is "
                        "healthy (restart the service and run recovery)")
                request.wal_seq = self.durability.record_submit(request)
            if not request.queued_at:
                request.queued_at = self._clock()
            queue.append(request)
            self._update_queue_gauge()

    def queued_depths(self) -> dict[str, int]:
        """Per-stream queued-but-unserved request counts (non-empty
        queues only — the gateway's ``stats`` map)."""
        with self._lock:
            return {name: len(queue)
                    for name, queue in self._queues.items() if queue}

    def has_pending(self) -> bool:
        with self._lock:
            return any(self._queues.values())

    def pending_count(self) -> int:
        """Total queued-but-unserved requests (the pipelined gateway's
        round-gather loop polls this between arrivals)."""
        with self._lock:
            return sum(len(queue) for queue in self._queues.values())

    def drop_pending(self, predicate) -> list[EngineRequest]:
        """Remove every queued request matching ``predicate`` (e.g. all
        of a disconnected connection's work); returns the dropped
        requests so the caller can cancel their handles.

        Single-pass: ``predicate`` is evaluated exactly once per queued
        request — predicates may be stateful or expensive (the gateway's
        closes over a connection object), so they must not be re-run per
        partition side."""
        dropped: list[EngineRequest] = []
        with self._lock:
            for queue in self._queues.values():
                kept: list[EngineRequest] = []
                before = len(dropped)
                for request in queue:
                    (dropped if predicate(request) else kept).append(request)
                if len(dropped) != before:
                    queue.clear()
                    queue.extend(kept)
            self._update_queue_gauge()
        if self.durability is not None:
            try:
                for request in dropped:
                    if request.wal_seq is not None:
                        self.durability.record_skip(request.wal_seq)
            except Exception:  # noqa: BLE001 — dropped work was never
                # acked; a failed skip append only costs replay applying
                # it, which is harmless extra state, not lost state.
                self.metrics.counter("engine.durability_errors").inc()
        return dropped

    def run_round(self) -> list[RoundResult]:
        """One policy-composed round over the queued requests.

        The policy selects which requests run (and which have expired);
        the engine partitions the selection into waves of at most one
        request per stream — per-stream FIFO is an invariant the policy
        cannot break, it only shapes round *composition* — and executes
        each wave score-then-ingest.  Total: every selected or expired
        request gets exactly one :class:`RoundResult`; this method never
        raises on bad client input or backend failure.

        The round's results then go through :meth:`_commit_batch`, the
        one commit path: inline here at depth 0 (``pipeline=False``,
        returning the committed results and then taking any due
        snapshot), or on the committer thread when pipelined (returning
        ``[]``; see the class docstring).  Either way ``on_commit``
        receives every committed batch.

        With a tracer attached, the round becomes its own trace
        (``engine.round`` → ``engine.schedule`` / per-wave
        ``engine.score``/``engine.ingest`` / ``engine.durability``) and
        each traced request's story gains per-request ``queue.wait`` and
        ``stage.*`` spans parented under *its* context — the join
        between a request's trace and the shared round that served it.
        Abandoned active spans (empty rounds) are never recorded.
        """
        self._maybe_snapshot()
        trc = self._tracer
        round_span = None
        mark = 0
        if trc is not None:
            mark = trc.mark()
            round_span = trc.start("engine.round")
        schedule = self._stage("schedule", round_span)
        with self._lock:
            if not any(self._queues.values()):
                return []
            now = self._clock()
            view = {name: tuple(queue)
                    for name, queue in self._queues.items() if queue}
            try:
                plan = self.policy.select(view, now)
                selected = list(plan.entries)
                expired = list(plan.expired)
            except Exception:  # noqa: BLE001 — a broken policy must not
                # wedge the server: degrade to the fair default (front of
                # every queue) so queued clients still get served.
                self.metrics.counter("engine.policy_errors").inc()
                selected = [queue[0] for queue in view.values()]
                expired = []
            # A policy may only return requests that are actually queued;
            # anything else (a buggy custom policy echoing stale objects)
            # is dropped here rather than served-but-not-dequeued.
            queued = {id(r) for queue in view.values() for r in queue}
            selected = [r for r in selected if id(r) in queued]
            expired = [r for r in expired if id(r) in queued]
            taken = {id(r) for r in selected} | {id(r) for r in expired}
            for queue in self._queues.values():
                if any(id(r) in taken for r in queue):
                    kept = [r for r in queue if id(r) not in taken]
                    queue.clear()
                    queue.extend(kept)
            self._update_queue_gauge()

        # Queue wait is only knowable at dequeue time; the histogram
        # records on every round, traced or not (the synthetic span
        # below is the traced-only part).
        dequeued_at = self._clock()
        waits = [max(0.0, dequeued_at - request.queued_at)
                 if request.queued_at else 0.0 for request in selected]
        queue_wait = self.metrics.histogram("engine.stage.queue_wait")
        for wait in waits:
            queue_wait.observe(wait)
        schedule.finish(selected=len(selected), expired=len(expired))
        if trc is not None:
            # Measured on the scheduling clock, backdated on the wall
            # clock.
            wall = time.time()
            for request, wait in zip(selected, waits):
                if request.trace is not None:
                    trc.record_span(
                        "queue.wait", parent=request.trace,
                        ts=wall - wait, dur=wait,
                        attrs={"stream": request.stream,
                               "round": self.rounds})

        results: list[RoundResult] = []
        for request in expired:
            self.metrics.counter("engine.expired").inc()
            results.append(RoundResult(
                request=request, kind="error", code="expired",
                message=f"request for stream {request.stream!r} missed its "
                        f"deadline while queued; it was never served"))
        windows = 0
        if selected:
            windows = self._serve_selected(selected, view, results,
                                           round_span)
        if results:
            # The durability stage covers every served ingest — even
            # without a WAL (a ~0-duration span), so each request's stage
            # chain is complete for the trace checker.
            batch = _CommitBatch(
                results=results, round_index=self.rounds,
                durability=self._stage(
                    "durability", round_span,
                    [result.request for result in results
                     if result.request.op == "ingest"]),
                handed_off=time.perf_counter(),
                wal_seqs=[result.request.wal_seq for result in results
                          if result.request.wal_seq is not None])
            if self.pipeline:
                # The caller's next run_round() overlaps this fsync.
                self._enqueue_commit(batch)
            else:
                self._commit_batch(batch)
        if round_span is not None:
            finished = round_span.finish(round=self.rounds,
                                         streams=len(selected),
                                         windows=windows)
            self._check_slow_round(finished, trc, mark)
        if self.pipeline:
            return []
        self._maybe_snapshot()
        return results

    def _stage(self, name: str, parent, requests=(), **attrs) -> _Stage:
        """Open round stage ``name`` under ``parent`` (the round's
        active span): the one instrumentation point per stage.  The
        returned stage's ``finish`` writes the ``engine.<name>`` span,
        the ``engine.stage.<name>`` histogram and each traced request's
        ``stage.<name>`` echo together.  Untraced (``parent is None``)
        it is a shared no-op: no span calls, no histogram."""
        trc = self._tracer
        if trc is None or parent is None:
            return _UNTRACED
        shards = None
        if requests:
            mapper = getattr(self.backend, "stream_shards", None)
            shards = mapper() if mapper is not None else None
        span = trc.start(f"engine.{name}", parent=parent.context,
                         attrs=attrs)
        return _Stage(self.metrics, trc, name, span, requests, shards)

    def _serve_selected(self, selected: list[EngineRequest], view: dict,
                        results: list[RoundResult], round_span) -> int:
        """Execute the selection wave by wave into ``results``; returns
        the windows served (telemetry only)."""
        start = time.perf_counter()
        windows = 0
        for wave in self._waves(selected, view):
            outcomes = self._execute_wave(wave, round_span=round_span)
            results.extend(outcomes)
            try:
                # Count served work from the outcomes (one score per
                # window), not from the raw request payloads — a request
                # whose windows never scored (bad shape, ragged list)
                # already carries a typed error result.
                windows += sum(
                    int(np.asarray(out.event.scores if out.kind == "event"
                                   else out.scores).shape[0])
                    for out in outcomes if out.kind != "error")
            except Exception:  # noqa: BLE001 — telemetry only: an odd
                pass           # custom-backend score shape must not lose
                               # the already-computed round results.
        try:
            self.metrics.counter("engine.requests").inc(len(selected))
            self._observe_round(time.perf_counter() - start, len(selected),
                                windows)
        except Exception:  # noqa: BLE001 — a metric name/kind collision
            pass           # on a shared registry is not worth hanging
                           # the callers awaiting these results.
        return windows

    def _check_slow_round(self, finished, trc, mark) -> None:
        """Slow-round escalation: bump the counter and hand the round's
        span window to ``on_slow_round`` when the round overran."""
        if (self.slow_round_ms is None
                or finished.dur * 1e3 < self.slow_round_ms):
            return
        self.metrics.counter("engine.slow_rounds").inc()
        hook = self.on_slow_round
        if hook is not None:
            try:
                hook(trc.since(mark))
            except Exception:  # noqa: BLE001 — a broken dump hook
                # must not fail the round's already-computed results.
                self.metrics.counter("engine.trace_errors").inc()

    # ------------------------------------------------------------------
    # Group commit: one path, inline (depth 0) or on the committer thread
    # ------------------------------------------------------------------
    def _commit_batch(self, batch: _CommitBatch) -> None:
        """Commit one round's batch and deliver its results — the only
        commit path, run inline on the round thread at depth 0 and on
        the committer thread when pipelined.

        The durability barrier: advance each applied ingest's stream
        watermark, append skip records for requests that errored or
        expired (logged but never applied, so replay must not apply them
        either), then group-commit fsync — all *before* ``on_commit``
        (or :meth:`run_round`'s return) delivers the results, which is
        what makes the gateway's acks ack-after-fsync.  The fsync is the
        hook's ``flush_only``: a due snapshot is only flagged here and
        taken on the round thread by :meth:`_maybe_snapshot`, because it
        walks live fleet state.

        A failed commit (ENOSPC, I/O error) must not turn into acks for
        requests that are not on disk: every would-be-acked ingest result
        in the batch is converted to a typed ``durability`` error in
        place, and the engine latches — :meth:`submit` refuses further
        ingests, and every later batch fails the same way — because
        retrying fsync on a file descriptor that already failed one is
        not reliable; the operator restarts and recovers from the
        durable prefix.  ``scores`` results still deliver normally:
        scoring is stateless and promises nothing about the log.
        """
        results = batch.results
        durability = self.durability
        if durability is not None:
            self._commit_records(batch, durability)
        batch.durability.finish(durable=durability is not None,
                                pipelined=self.pipeline)
        callback = self.on_commit
        if callback is not None:
            try:
                callback(results)
            except Exception:  # noqa: BLE001 — a broken completion sink
                # must not wedge the committer; later batches still
                # commit and deliver.
                self.metrics.counter("engine.commit_errors").inc()

    def _commit_records(self, batch: _CommitBatch, durability) -> None:
        """Watermark/skip records and the fsync for :meth:`_commit_batch`
        (latching and failing the batch's acks on any error)."""
        results = batch.results
        with self._lock:
            failed = self._durability_failed
        if not failed:
            try:
                for result in results:
                    request = result.request
                    if request.op != "ingest" or request.wal_seq is None:
                        continue
                    if result.kind == "event":
                        durability.record_applied(request.stream,
                                                  request.wal_seq)
                    else:
                        durability.record_skip(request.wal_seq)
                durability.flush_only(
                    trace_parent=batch.durability.context)
                if durability.snapshot_due(batch.round_index):
                    with self._lock:
                        self._snapshot_due = True
                return
            except Exception:  # noqa: BLE001 — fail the acks, keep going
                self.metrics.counter("engine.durability_errors").inc()
                with self._lock:
                    self._durability_failed = True
        # Latched (this batch or an earlier one): rounds draining the
        # already-admitted queue no longer touch the WAL — a descriptor
        # that failed one fsync cannot be trusted to report a later one
        # honestly — so their would-be acks fail too.
        for index, result in enumerate(results):
            if result.request.op != "ingest" or result.kind == "error":
                continue
            results[index] = RoundResult(
                request=result.request, kind="error", code="durability",
                message=f"the request for stream "
                        f"{result.request.stream!r} was served but its "
                        f"durability commit failed; it is NOT on disk "
                        f"and will not survive recovery — treat it as "
                        f"unacknowledged")

    def _enqueue_commit(self, batch: _CommitBatch) -> None:
        """Hand one round's batch to the committer (FIFO).  Called on
        the round thread; starts the committer lazily on first use."""
        with self._lock:
            if self._committer is None:
                self._commit_stop = False
                self._committer = Thread(target=self._committer_main,
                                         name="engine-committer",
                                         daemon=True)
                self._committer.start()
            self._commit_queue.append(batch)
            self.metrics.gauge("engine.commit_backlog") \
                .set(self._commit_backlog_locked())
            self._commit_cv.notify_all()

    def _commit_backlog_locked(self) -> int:  # repro: lock-held
        """Batches handed off but not yet committed (queued + active)."""
        return (len(self._commit_queue)
                + (1 if self._commit_active is not None else 0))

    def _committer_main(self) -> None:
        """Committer thread: pop batches FIFO and commit each outside
        the lock (the fsync must never block admission or scheduling)."""
        while True:
            with self._lock:
                while not self._commit_queue and not self._commit_stop:
                    self._commit_cv.wait()
                if not self._commit_queue:
                    return
                batch = self._commit_queue.popleft()
                self._commit_active = batch
                self.metrics.gauge("engine.commit_backlog") \
                    .set(self._commit_backlog_locked())
            try:
                self.metrics.histogram("engine.stage.commit_wait") \
                    .observe(time.perf_counter() - batch.handed_off)
                self.metrics.counter("engine.commit_batches").inc()
                self._commit_batch(batch)
            finally:
                with self._lock:
                    self._commit_active = None
                    self.metrics.gauge("engine.commit_backlog") \
                        .set(self._commit_backlog_locked())
                    self._commit_cv.notify_all()

    def drain_commits(self, timeout: float | None = 60.0) -> bool:
        """Barrier: block until every handed-off batch has committed and
        delivered (a no-op when nothing is in flight).  Returns ``False``
        on timeout instead of raising — callers decide how hard to
        fail."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._commit_queue or self._commit_active is not None:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._commit_cv.wait(timeout=remaining)
        return True

    def stop_committer(self, timeout: float | None = 60.0) -> None:
        """Drain, then stop and join the committer thread (idempotent;
        the engine may start a fresh committer on later handoffs)."""
        self.drain_commits(timeout=timeout)
        with self._lock:
            self._commit_stop = True
            self._commit_cv.notify_all()
            committer = self._committer
            self._committer = None
        if committer is not None:
            committer.join(timeout=10.0)
        with self._lock:
            self._commit_stop = False

    def _maybe_snapshot(self) -> None:
        """Take a snapshot the commit path flagged as due, on the round
        thread: right after an inline commit at depth 0, or at the start
        of the next round when pipelined.

        Snapshotting walks live fleet state, which is only safe here —
        between rounds, after a full commit drain, with the backend
        quiescent.
        """
        with self._lock:
            due = self._snapshot_due
        if not due or self.durability is None:
            return
        self.drain_commits()
        with self._lock:
            self._snapshot_due = False
            if self._durability_failed:
                return
        try:
            self.durability.snapshot(self)
        except Exception:  # noqa: BLE001 — same contract as a failed
            # commit: latch rather than keep acking against a log whose
            # truncation bookkeeping just failed.
            self.metrics.counter("engine.durability_errors").inc()
            with self._lock:
                self._durability_failed = True

    def min_pending_wal_seq(self) -> int | None:
        """Lowest durability-log seq still queued *or riding an
        unfsynced commit batch* (``None`` when neither holds one) — the
        snapshot truncation bound: segments holding a logged-but-not-yet-
        durable request must survive."""
        with self._lock:
            seqs = [request.wal_seq
                    for queue in self._queues.values()
                    for request in queue if request.wal_seq is not None]
            batches = list(self._commit_queue)
            if self._commit_active is not None:
                batches.append(self._commit_active)
            for batch in batches:
                seqs.extend(batch.wal_seqs)
        return min(seqs) if seqs else None

    @staticmethod
    def _waves(selected: list[EngineRequest],
               view: dict[str, tuple]) -> list[list[EngineRequest]]:
        """Partition a selection into waves of ≤1 request per stream,
        each stream's requests in queue (FIFO) order, streams ordered by
        first appearance in the policy's selection."""
        position = {id(request): index
                    for queue in view.values()
                    for index, request in enumerate(queue)}
        per_stream: dict[str, list[EngineRequest]] = {}
        for request in selected:
            per_stream.setdefault(request.stream, []).append(request)
        for requests in per_stream.values():
            requests.sort(key=lambda r: position.get(id(r), 0))
        waves: list[list[EngineRequest]] = []
        depth = 0
        while True:
            wave = [requests[depth] for requests in per_stream.values()
                    if len(requests) > depth]
            if not wave:
                return waves
            waves.append(wave)
            depth += 1

    def _execute_wave(self, wave: list[EngineRequest],
                      round_span=None) -> list[RoundResult]:
        """Score-then-ingest one wave (≤1 request per stream, so keying
        by stream name is unambiguous).

        The scoring pass is stateless (:meth:`score_only` semantics): if
        the coalesced forward fails — e.g. one request's windows have a
        frame_dim the models can't score, which shape checks at admission
        cannot know — each entry is re-scored alone so only the offending
        request errors while the rest of the wave proceeds.  Retrying is
        safe precisely because no deployment state was touched; the
        subsequent ingest dispatches the already-computed (bit-identical)
        slices.

        Backends exposing a fused ``serve_round`` (the sharded fleet)
        take a one-scatter fast path on untraced rounds: score and
        ingest ride a single ring round-trip per shard instead of two.
        Traced rounds keep the split commands so the per-stage span
        structure stays exact — bit parity either way, because scoring
        is batch-composition-independent.
        """
        by_stream = {request.stream: request for request in wave}
        outcomes: dict[str, RoundResult] = {}
        fused = None if round_span is not None \
            else getattr(self.backend, "serve_round", None)
        if fused is not None:
            self._execute_fused(by_stream, fused, outcomes)
        else:
            score = self._stage("score", round_span, wave,
                               streams=len(wave))
            try:
                scored = self.backend.score(
                    {name: request.windows
                     for name, request in by_stream.items()},
                    **score.trace_kw)
            except Exception:  # noqa: BLE001 — isolate the bad entry
                scored = self._score_each(wave, outcomes)
            score.finish(scored=len(scored))
            self._ingest_scored(by_stream, scored, outcomes, round_span)
        return [outcomes.get(request.stream) or RoundResult(
                    request=request, kind="error", code="internal",
                    message=f"round produced no result for stream "
                            f"{request.stream!r}")
                for request in wave]

    def _execute_fused(self, by_stream: dict[str, EngineRequest], fused,
                       outcomes: dict[str, RoundResult]) -> None:
        """One wave through the backend's fused ``serve_round`` scatter.

        Failure contract mirrors the split path exactly: a *clean*
        per-shard score failure (the shard ingested nothing) comes back
        as ``unscored`` streams, which re-run through the split
        per-entry isolation; a *raised* fused call is indeterminate for
        ingest — some shards may have applied their slice before
        another died — so ingest requests get the same typed
        ``internal`` error a raised split ingest produces, while
        stateless ``scores`` requests are retried solo.
        """
        try:
            scored, events, unscored = fused(
                {name: request.windows
                 for name, request in by_stream.items()},
                [name for name, request in by_stream.items()
                 if request.op == "ingest"])
        except Exception as exc:  # noqa: BLE001 — typed to caller
            self.metrics.counter("engine.errors").inc()
            for request in by_stream.values():
                if request.op == "ingest":
                    outcomes[request.stream] = self._round_failed(
                        request, exc)
            scored = self._score_each(
                [request for request in by_stream.values()
                 if request.op == "scores"], outcomes)
            events, unscored = {}, []
        self._deliver(by_stream, scored, events, outcomes)
        if unscored:
            self._ingest_scored(
                by_stream,
                self._score_each([by_stream[name] for name in unscored],
                                 outcomes),
                outcomes)

    def _score_each(self, requests: list[EngineRequest],
                    outcomes: dict[str, RoundResult]) -> dict:
        """Per-entry isolation: score each request alone (bit-identical
        — batch composition never changes scores); a request whose
        windows cannot score gets a typed ``bad_request`` outcome."""
        scored: dict[str, np.ndarray] = {}
        for request in requests:
            name = request.stream
            try:
                scored[name] = self.backend.score(
                    {name: request.windows})[name]
            except Exception as exc:  # noqa: BLE001 — typed to caller
                outcomes[name] = RoundResult(
                    request=request, kind="error", code="bad_request",
                    message=f"windows for stream {name!r} failed to "
                            f"score: {type(exc).__name__}: {exc}")
        return scored

    def _ingest_scored(self, by_stream: dict[str, EngineRequest],
                       scored: dict, outcomes: dict[str, RoundResult],
                       round_span=None) -> None:
        """Ingest the scored ``ingest`` requests with their precomputed
        slices, then deliver every scored request's outcome."""
        ingest = [name for name, request in by_stream.items()
                  if request.op == "ingest" and name in scored]
        events: dict = {}
        if ingest:
            stage = self._stage("ingest", round_span,
                               [by_stream[name] for name in ingest],
                               streams=len(ingest))
            try:
                events = self.backend.ingest(
                    {name: by_stream[name].windows for name in ingest},
                    scores={name: scored[name] for name in ingest},
                    **stage.trace_kw)
            except Exception as exc:  # noqa: BLE001 — typed to caller
                stage.finish(outcome="error")
                self.metrics.counter("engine.errors").inc()
                for name in ingest:
                    outcomes[name] = self._round_failed(by_stream[name], exc)
            else:
                stage.finish(outcome="ok")
        self._deliver(by_stream, scored, events, outcomes)

    @staticmethod
    def _deliver(by_stream: dict[str, EngineRequest], scored: dict,
                 events: dict, outcomes: dict[str, RoundResult]) -> None:
        """Successful outcomes: an ``event`` per ingested stream and a
        ``scores`` result per scored ``scores`` request."""
        for name, event in events.items():
            outcomes[name] = RoundResult(
                request=by_stream[name], kind="event", event=event)
        for name, scores in scored.items():
            if by_stream[name].op == "scores":
                outcomes[name] = RoundResult(
                    request=by_stream[name], kind="scores", scores=scores)

    @staticmethod
    def _round_failed(request: EngineRequest, exc: Exception) -> RoundResult:
        """The typed ``internal`` error for a request whose ingest (or
        fused scatter) raised — an indeterminate outcome."""
        return RoundResult(
            request=request, kind="error", code="internal",
            message=f"serving round failed: {type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # Metrics / introspection
    # ------------------------------------------------------------------
    def _observe_round(self, elapsed: float, streams: int,
                       windows: int) -> None:
        self.rounds += 1
        self.metrics.counter("engine.rounds").inc()
        self.metrics.counter("engine.windows").inc(windows)
        self.metrics.histogram("engine.round_latency").observe(elapsed)
        self.metrics.gauge("engine.last_round_streams").set(streams)
        self.metrics.gauge("engine.last_round_windows").set(windows)

    def _update_queue_gauge(self) -> None:  # repro: lock-held
        self.metrics.gauge("engine.queue_depth").set(
            sum(len(queue) for queue in self._queues.values()))

    def stats(self, concurrent: bool = False) -> dict:
        """Engine-level summary for the ``stats`` op and the benchmark
        payloads: backend/policy names, rounds, queue depths, and the
        backend's coalescing counters (windows per forward).

        With ``concurrent=True`` (a caller on a different thread than
        the round runner, e.g. the gateway's ``stats`` op) backends whose
        counters aren't safe to read mid-round — the sharded backend's
        go over the worker pipes — are skipped instead of queried.
        """
        # The root package only defines metadata (no subpackage imports),
        # so this upward import cannot cycle; deferred anyway so the
        # engine module stays importable mid-bootstrap.
        from .. import __version__
        out = {
            "backend": self.backend.name,
            "policy": self.policy.name,
            "rounds": self.rounds,
            "queued": self.queued_depths(),
            "version": __version__,
            "started_at": self._started_monotonic,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
        }
        # Transport counters (sharded shm rings vs pipe fallbacks) are
        # plain parent-side attribute reads — safe from any thread, so
        # they're reported even on concurrent snapshots.
        transport = getattr(self.backend, "transport_stats", None)
        if transport is not None:
            info = transport()
            if info:
                out["transport"] = info
        if self.pipeline:
            with self._lock:
                backlog = self._commit_backlog_locked()
                queued_batches = len(self._commit_queue)
            out["pipeline"] = {
                "enabled": True,
                "commit_backlog": backlog,
                "committer_queue_depth": queued_batches,
                "commit_batches": int(
                    self.metrics.counter("engine.commit_batches").value),
            }
            fused = (out.get("transport") or {}).get("fused_rounds")
            if fused is not None:
                out["pipeline"]["fused_rounds"] = fused
        if concurrent and not self.backend.concurrent_safe_stats:
            return out
        batch = self.backend.batch_stats()
        if batch:
            forwards = int(batch.get("batches_run", 0))
            scored = int(batch.get("windows_scored", 0))
            out["coalesce"] = {
                **batch,
                "windows_per_forward": (scored / forwards) if forwards
                else 0.0,
            }
        return out
