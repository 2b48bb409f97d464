"""Per-layer metrics for the traced run, measured from outside the
program.

Three sources, none of which adds code to the server:

* the server's own spans (``gateway.request``, ``queue.wait``,
  ``stage.*``, ``engine.*``, ``shard.*``, ``wal.fsync``), exported when
  a ``--trace-dir`` server drains, joined to the client's requests by
  the ``trace`` field each request carries;
* the server's ``stats`` op and the ``adapted``/``pruned`` reply fields;
* timing wrappers this module puts around layer functions
  (``MissionGNNModel.anomaly_scores``,
  ``ContinuousAdaptationController.process_batch``,
  ``TokenEmbeddingUpdater.update``, ``AnomalyScoreMonitor.observe`` and
  ``.select``) while the in-process reference replays the same inputs.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from . import stats

#: Each per-layer metric with its unit, which way is better, and the
#: end-to-end metric and workload it should move.
PER_LAYER = {
    "gateway.wire_ms": ("ms", "lower", "ingest_p50_ms on score-fanin"),
    "gateway.request_bytes": ("bytes", "lower",
                              "ingest_p50_ms on durable-shards"),
    "gateway.rejected": ("count", "lower", "slo_met_share on all"),
    "runtime.queue_wait_p95_ms": ("ms", "lower",
                                  "ingest_p95_ms on edge-adapt"),
    "runtime.round_p50_ms": ("ms", "lower", "ingest_p50_ms on score-fanin"),
    "runtime.round_p95_ms": ("ms", "lower", "ingest_p95_ms on edge-adapt"),
    "runtime.requests_per_round": ("count", "higher",
                                   "windows_per_s on score-fanin"),
    "runtime.windows_per_forward": ("count", "higher",
                                    "windows_per_s on score-fanin"),
    "runtime.commit_backlog_max": ("count", "lower",
                                   "ingest_p50_ms on durable-shards"),
    "serving.shm_bytes_per_request": ("bytes", "lower",
                                      "windows_per_s on durable-shards"),
    "serving.fused_rounds_share": ("share", "higher",
                                   "windows_per_s on durable-shards"),
    "serving.scatter_wait_ms": ("ms", "lower",
                                "ingest_p95_ms on durable-shards"),
    "serving.shard_skew_ms": ("ms", "lower",
                              "ingest_p95_ms on durable-shards"),
    "gnn.score_us_per_window": ("us", "lower",
                                "windows_per_s on score-fanin and "
                                "durable-shards"),
    "gnn.windows_per_call": ("count", "higher",
                             "windows_per_s on score-fanin and "
                             "durable-shards"),
    "gnn.gflops": ("GFLOP/s", "higher", "windows_per_s on durable-shards"),
    "adaptation.triggers": ("count", "lower", "exact repeat"),
    "adaptation.token_updates": ("count", "lower", "exact repeat"),
    "adaptation.kg_nodes_replaced": ("count", "lower", "exact repeat"),
    "adaptation.update_ms": ("ms", "lower",
                             "ingest_p95_ms and slo_met_share on "
                             "edge-adapt"),
    "adaptation.adapt_ms_per_trigger": ("ms", "lower",
                                        "ingest_p95_ms and slo_met_share "
                                        "on edge-adapt"),
    "adaptation.monitor_us": ("us", "lower", "ingest_p50_ms on edge-adapt"),
    "adaptation.gflops": ("GFLOP/s", "higher", "ingest_p95_ms on edge-adapt"),
    "wal.requests_per_fsync": ("count", "higher",
                               "ingest_p50_ms on durable-shards"),
    "wal.fsync_p95_ms": ("ms", "lower", "ingest_p50_ms on durable-shards"),
    "wal.append_p95_ms": ("ms", "lower", "ingest_p50_ms on durable-shards"),
    "wal.bytes_per_request": ("bytes", "lower",
                              "ingest_p50_ms on durable-shards"),
    "wal.snapshots": ("count", "lower", "ingest_p95_ms on edge-adapt"),
    "wal.snapshot_ms": ("ms", "lower", "ingest_p95_ms on edge-adapt"),
    "wal.snapshot_bytes": ("bytes", "lower", "ingest_p95_ms on edge-adapt"),
    "obs.overhead_share": ("share", "lower", "windows_per_s, traced vs not"),
    "bench.late_p95_ms": ("ms", "lower", "validity of the open loop"),
    "bench.unattributed_share": ("share", "lower",
                                 "coverage of the span breakdown"),
}


def client_context() -> dict:
    """The ``trace`` field of a traced request: a fresh trace whose root
    span is the client's request (never recorded server-side; its id
    joins the server's ``gateway.request`` span to the client record)."""
    from repro.obs.trace import TraceContext

    return TraceContext.root().to_wire()


# ---------------------------------------------------------------------
# Timing wrappers for the in-process replay
# ---------------------------------------------------------------------
class Timers:
    """Durations and sizes recorded by :func:`timed` wrappers (the
    replay runs on one thread)."""

    def __init__(self):
        self.calls: dict[str, list[tuple[float, object]]] = defaultdict(list)
        self.depth = 0   # > 0 while an adaptation step runs

    def record(self, name: str, seconds: float, info=None) -> None:
        self.calls[name].append((seconds, info))


@contextmanager
def timed(timers: Timers | None):
    """Wrap the layer functions with timers for the duration of the
    block (no-op for ``None``).  Scoring inside an adaptation phase is
    booked to adaptation, not to serving-path scoring."""
    if timers is None:
        yield
        return
    from repro.adaptation.controller import ContinuousAdaptationController
    from repro.adaptation.monitor import AnomalyScoreMonitor
    from repro.adaptation.token_update import TokenEmbeddingUpdater
    from repro.gnn.pipeline import MissionGNNModel

    originals = {
        (MissionGNNModel, "anomaly_scores"):
            MissionGNNModel.anomaly_scores,
        (ContinuousAdaptationController, "process_batch"):
            ContinuousAdaptationController.process_batch,
        (TokenEmbeddingUpdater, "update"): TokenEmbeddingUpdater.update,
        (AnomalyScoreMonitor, "observe"): AnomalyScoreMonitor.observe,
        (AnomalyScoreMonitor, "select"): AnomalyScoreMonitor.select,
    }

    def anomaly_scores(self, windows, *args, **kwargs):
        if timers.depth:
            return originals[(MissionGNNModel, "anomaly_scores")](
                self, windows, *args, **kwargs)
        t0 = time.perf_counter()
        out = originals[(MissionGNNModel, "anomaly_scores")](
            self, windows, *args, **kwargs)
        timers.record("gnn.score", time.perf_counter() - t0,
                      (len(windows), self))
        return out

    def process_batch(self, windows, *args, **kwargs):
        timers.depth += 1
        t0 = time.perf_counter()
        try:
            log = originals[(ContinuousAdaptationController,
                             "process_batch")](self, windows, *args, **kwargs)
        finally:
            timers.depth -= 1
        timers.record("adaptation.step", time.perf_counter() - t0,
                      bool(log.updated))
        return log

    def update(self, windows, *args, **kwargs):
        t0 = time.perf_counter()
        out = originals[(TokenEmbeddingUpdater, "update")](
            self, windows, *args, **kwargs)
        timers.record("adaptation.update", time.perf_counter() - t0,
                      (len(windows), self.model, self.config.inner_steps))
        return out

    def wrap_monitor(name):
        original = originals[(AnomalyScoreMonitor, name)]

        def wrapper(self, *args, **kwargs):
            t0 = time.perf_counter()
            out = original(self, *args, **kwargs)
            timers.record("adaptation.monitor", time.perf_counter() - t0)
            return out
        return wrapper

    replacements = {
        (MissionGNNModel, "anomaly_scores"): anomaly_scores,
        (ContinuousAdaptationController, "process_batch"): process_batch,
        (TokenEmbeddingUpdater, "update"): update,
        (AnomalyScoreMonitor, "observe"): wrap_monitor("observe"),
        (AnomalyScoreMonitor, "select"): wrap_monitor("select"),
    }
    try:
        for (cls, name), fn in replacements.items():
            setattr(cls, name, fn)
        yield
    finally:
        for (cls, name), fn in originals.items():
            setattr(cls, name, fn)


def replay_metrics(timers: Timers) -> dict[str, float]:
    from repro.edge.flops import count_adaptation_step, count_model_forward

    out: dict[str, float] = {}
    scores = timers.calls.get("gnn.score", [])
    windows = sum(n for _, (n, _) in scores)
    seconds = sum(t for t, _ in scores)
    flops = sum(n * count_model_forward(model).total
                for _, (n, model) in scores)
    out["gnn.score_us_per_window"] = seconds / windows * 1e6 if windows else 0.0
    out["gnn.windows_per_call"] = windows / len(scores) if scores else 0.0
    out["gnn.gflops"] = flops / seconds / 1e9 if seconds else 0.0

    steps = timers.calls.get("adaptation.step", [])
    triggered = [t for t, updated in steps if updated]
    updates = timers.calls.get("adaptation.update", [])
    monitor = timers.calls.get("adaptation.monitor", [])
    update_flops = sum(count_adaptation_step(model, n, inner, 1)
                       for _, (n, model, inner) in updates)
    out["adaptation.token_updates"] = float(len(updates))
    out["adaptation.update_ms"] = (sum(t for t, _ in updates) / len(updates)
                                   * 1e3 if updates else 0.0)
    out["adaptation.adapt_ms_per_trigger"] = (
        sum(triggered) / len(triggered) * 1e3 if triggered else 0.0)
    out["adaptation.monitor_us"] = (sum(t for t, _ in monitor) / len(steps)
                                    * 1e6 if steps else 0.0)
    out["adaptation.gflops"] = (update_flops / sum(triggered) / 1e9
                                if triggered else 0.0)
    return out


# ---------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------
def request_breakdown(record, spans_by_parent: dict, epoch_offset: float,
                      root_span: dict) -> dict[str, float]:
    """Partition one request's client round-trip among its spans.

    Every instant between send and ack goes to the deepest span covering
    it (the most recently started one on ties) or, when none covers it,
    to ``unattributed``; so the parts sum to the round-trip exactly.
    """
    lo = record.sent_at + epoch_offset
    hi = record.acked_at + epoch_offset
    spans = []
    frontier = [(root_span, 0)]
    while frontier:
        span, depth = frontier.pop()
        spans.append((span["ts"], span["ts"] + span["dur"], depth,
                      span["name"]))
        for child in spans_by_parent.get(span["span_id"], ()):
            frontier.append((child, depth + 1))
    points = sorted({lo, hi} | {min(max(p, lo), hi)
                                for s in spans for p in s[:2]})
    parts: dict[str, float] = defaultdict(float)
    for a, b in zip(points, points[1:]):
        if b <= a:
            continue
        mid = (a + b) / 2.0
        covering = [s for s in spans if s[0] <= mid < s[1]]
        if covering:
            name = max(covering, key=lambda s: (s[2], s[0]))[3]
        else:
            name = "unattributed"
        parts[name] += b - a
    return dict(parts)


def measured_spans(phase) -> list[dict]:
    """A traced phase's spans, less those that started before its
    measured window (the warm-up's)."""
    start = phase.result.started_at + phase.result.epoch_offset
    return [s for s in phase.spans or [] if s["ts"] >= start]


def span_metrics(phase, record_index: dict) -> tuple[dict, dict]:
    """Metrics from one traced phase's spans; also returns the summed
    round-trip breakdown for the report."""
    spans = measured_spans(phase)
    by_parent: dict[str, list] = defaultdict(list)
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span.get("parent_id"):
            by_parent[span["parent_id"]].append(span)
    result = phase.result
    breakdown: dict[str, float] = defaultdict(float)
    wire, worst_gap, rtt_total = [], 0.0, 0.0
    for root in by_name.get("gateway.request", []):
        record = record_index.get(root.get("parent_id"))
        if record is None or not record.ok:
            continue
        parts = request_breakdown(record, by_parent, result.epoch_offset,
                                  root)
        rtt = record.acked_at - record.sent_at
        worst_gap = max(worst_gap, abs(sum(parts.values()) - rtt))
        rtt_total += rtt
        for name, seconds in parts.items():
            breakdown[name] += seconds
        wire.append((rtt - root["dur"]) * 1e3)

    rounds = [s for s in by_name.get("engine.round", [])
              if s["attrs"].get("streams")]
    out = {
        "gateway.wire_ms": stats.median(wire) if wire else 0.0,
        "runtime.queue_wait_p95_ms": _pct(
            [s["dur"] * 1e3 for s in by_name.get("queue.wait", [])], 0.95),
        "runtime.round_p50_ms": _pct([s["dur"] * 1e3 for s in rounds], 0.50),
        "runtime.round_p95_ms": _pct([s["dur"] * 1e3 for s in rounds], 0.95),
        "runtime.requests_per_round": (
            sum(s["attrs"]["streams"] for s in rounds) / len(rounds)
            if rounds else 0.0),
        "runtime.commit_backlog_max": float(_max_overlap(
            by_name.get("engine.durability", []))),
        "bench.unattributed_share": (breakdown.get("unattributed", 0.0)
                                     / rtt_total if rtt_total else 0.0),
    }
    fsyncs = by_name.get("wal.fsync", [])
    out["wal.requests_per_fsync"] = (
        sum(s["attrs"].get("pending", 0) for s in fsyncs) / len(fsyncs)
        if fsyncs else 0.0)
    out["wal.fsync_p95_ms"] = _pct([s["dur"] * 1e3 for s in fsyncs], 0.95)
    skews, waits = [], []
    for parent_name in ("engine.score", "engine.ingest"):
        for parent in by_name.get(parent_name, []):
            shards = [c for c in by_parent.get(parent["span_id"], ())
                      if c["name"].startswith("shard.")]
            if not shards:
                continue
            slowest = max(c["dur"] for c in shards)
            waits.append((parent["dur"] - slowest) * 1e3)
            if parent_name == "engine.score" and len(shards) > 1:
                skews.append((slowest - min(c["dur"] for c in shards)) * 1e3)
    out["serving.scatter_wait_ms"] = (sum(waits) / len(waits)
                                      if waits else 0.0)
    out["serving.shard_skew_ms"] = (sum(skews) / len(skews)
                                    if skews else 0.0)
    report = {"rtt_total_s": rtt_total,
              "breakdown_share": {k: v / rtt_total for k, v in
                                  sorted(breakdown.items())} if rtt_total
              else {},
              "breakdown_max_gap_s": worst_gap,
              "requests_joined": len(wire)}
    return out, report


def _pct(samples: list[float], q: float) -> float:
    """Nearest-rank percentile without the ten-beyond floor: a per-layer
    figure points at where to look, and is always reported."""
    if not samples:
        return 0.0
    return stats.percentile(samples, q, min_beyond=0)


def _max_overlap(spans: list[dict]) -> int:
    events = sorted([(s["ts"], 1) for s in spans]
                    + [(s["ts"] + s["dur"], -1) for s in spans],
                    key=lambda e: (e[0], e[1]))
    level = peak = 0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    return peak


def _hist(server_stats: dict | None, name: str, key: str) -> float:
    if not server_stats:
        return 0.0
    summary = server_stats["metrics"]["histograms"].get(name) or {}
    return float(summary.get(key, 0.0))


def _counter(server_stats: dict | None, name: str) -> float:
    if not server_stats:
        return 0.0
    return float(server_stats["metrics"]["counters"].get(name, 0))


def _engine(server_stats: dict | None, section: str, key: str) -> float:
    """An engine counter from the ``stats`` reply (0 where absent)."""
    engine = (server_stats or {}).get("engine", {})
    if section:
        engine = engine.get(section) or {}
    return float(engine.get(key) or 0)


def _measured(run, read, *args) -> float:
    """What ``read(stats, *args)`` gained over the measured phase: the
    server's counters also count the warm-up's requests."""
    return read(run.stats, *args) - read(run.stats_before, *args)


def per_layer(workload, base, open_run, closed_run, timers: Timers,
              windows_per_s) -> dict:
    """Every per-layer metric, from the untraced closed phase (``base``),
    the traced open and closed phases, and the replay's timers."""
    records = open_run.result.records
    index = {r.request.trace["span_id"]: r for r in records
             if r.request.trace is not None}
    out, breakdown = span_metrics(open_run, index)
    sent = [r for r in records if r.sent_at is not None]
    ok = [r for r in records if r.ok]
    out["gateway.request_bytes"] = (sum(r.bytes_sent for r in sent)
                                    / len(sent) if sent else 0.0)
    out["gateway.rejected"] = _measured(open_run, _counter,
                                        "gateway.rejected.backpressure")

    base_requests = sum(1 for r in base.result.records if r.ok)
    rounds = _measured(base, _engine, "", "rounds")
    shm_bytes = _measured(base, _engine, "transport", "shm_bytes")
    fused = _measured(base, _engine, "transport", "fused_rounds")
    out["serving.shm_bytes_per_request"] = (
        shm_bytes / base_requests if base_requests else 0.0)
    out["serving.fused_rounds_share"] = fused / rounds if rounds else 0.0
    forwards = _measured(open_run, _engine, "coalesce", "batches_run")
    if forwards:
        out["runtime.windows_per_forward"] = _measured(
            open_run, _engine, "coalesce", "windows_scored") / forwards
    else:
        # Sharded backends do not report coalescing from the stats op;
        # count one forward per shard per traced wave instead.
        shard_scores = [s for s in measured_spans(open_run)
                        if s["name"] == "shard.score"]
        windows = sum(int(r.request.windows.shape[0]) for r in ok)
        out["runtime.windows_per_forward"] = (windows / len(shard_scores)
                                              if shard_scores else 0.0)

    out.update(replay_metrics(timers))
    out["adaptation.triggers"] = float(sum(
        1 for r in ok if r.reply.get("adapted")))
    out["adaptation.kg_nodes_replaced"] = float(sum(
        int(r.reply.get("pruned", 0)) for r in ok))

    # Warm-up requests only score, so the log's figures are the measured
    # phase's plus the start-up (genesis) snapshot.
    stats_open = open_run.stats
    out["wal.append_p95_ms"] = _hist(stats_open, "wal.append_latency",
                                     "p95_ms")
    out["wal.bytes_per_request"] = _wal_bytes_per_request(workload, ok)
    out["wal.snapshots"] = _counter(stats_open, "wal.snapshots")
    out["wal.snapshot_ms"] = _hist(stats_open, "wal.snapshot_latency",
                                   "mean_ms")
    out["wal.snapshot_bytes"] = float(open_run.snapshot_bytes)

    untraced = windows_per_s(base.result)
    traced = windows_per_s(closed_run.result)
    out["obs.overhead_share"] = ((untraced - traced) / untraced
                                 if untraced else 0.0)
    late = [r.lateness * 1e3 for r in records if r.lateness is not None]
    out["bench.late_p95_ms"] = _pct(late, 0.95)
    metrics = {name: (float(out[name]), PER_LAYER[name][0])
               for name in PER_LAYER}
    breakdown["windows_per_s_untraced"] = untraced
    breakdown["windows_per_s_traced"] = traced
    return {"metrics": metrics, "breakdown": breakdown,
            "targets": {name: spec[2] for name, spec in PER_LAYER.items()}}


def _wal_bytes_per_request(workload, records) -> float:
    """Bytes one ingest record takes in the log: the record the server
    journals, in the log's default binary body, plus the frame header
    (computed, since snapshots truncate the log on disk)."""
    if not workload.wal or not records:
        return 0.0
    from repro.utils.binframe import encode_payload
    from repro.wal import FRAME_HEADER, ingest_record

    request = records[0].request
    body = ingest_record(request.stream, request.windows)
    body["seq"] = 0
    return float(FRAME_HEADER.size + len(encode_payload(body)))
