"""End-to-end trace propagation: client -> gateway -> engine -> shard
workers -> WAL, across both wire codecs and both backends, plus v1-peer
compatibility, recorder bounding under flood, bit-parity with tracing
on, and the promoted stats/version surface."""

import numpy as np
import pytest

import repro
from repro.api import Deployment
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.gateway import GatewayClient, serve_in_thread
from repro.obs import TraceRecorder, check_trace, span_dicts
from repro.serving import DeploymentFleet, FleetInfra, ShardedFleet

INFRA = FleetInfra(embedding_seed=7, generator_seed=5)
ROUNDS = 3


def make_stream(frame_generator, seed, windows_per_step=2):
    return TrendShiftStream(frame_generator, TrendShiftConfig(
        steps_before_shift=2, steps_after_shift=2,
        windows_per_step=windows_per_step, window=4, seed=seed))


@pytest.fixture()
def fleet_factory(fresh_model, frame_generator):
    """Deterministic fleet factory (bit-identical replicas per call);
    ``shards`` > 0 partitions the replica across worker processes."""
    def make(streams=3, shards=0):
        fleet = DeploymentFleet()
        model = fresh_model("Stealing", window=4)
        model.eval()
        for index in range(streams):
            fleet.add(f"cam-{index}",
                      Deployment(model, mission="Stealing", adaptive=False),
                      make_stream(frame_generator, seed=80 + index))
        if shards:
            fleet = ShardedFleet.from_fleet(fleet, shards, infra=INFRA)
        return fleet
    return make


@pytest.fixture()
def materialized(fleet_factory):
    """(windows, reference): arrivals for ROUNDS rounds and the scores
    an untraced direct ``fleet.step()`` run produces — the bit-parity
    bar every traced run below must still hit."""
    fleet = fleet_factory()
    windows = {slot.name: [np.asarray(slot.stream.batch(r).windows,
                                      dtype=np.float64)
                           for r in range(ROUNDS)]
               for slot in fleet.slots}
    reference = {name: [] for name in fleet.names}
    for _ in range(ROUNDS):
        for event in fleet.step(batched=True):
            reference[event.stream].append(event.scores)
    return windows, reference


def drive(address, windows, reference, recorder=None, codec="binary"):
    """Serve every materialized round through one traced client,
    asserting bit parity against the untraced reference."""
    with GatewayClient(*address, codec=codec, tracer=recorder) as client:
        for name in windows:
            client.attach(name)
        for round_index in range(ROUNDS):
            for name in windows:
                reply = client.ingest(name, windows[name][round_index])
                np.testing.assert_array_equal(
                    reply["scores_array"], reference[name][round_index],
                    err_msg=f"{name} round {round_index} diverged "
                            f"under tracing")


def by_name(spans, name):
    return [span for span in spans if span["name"] == name]


class TestEndToEndPropagation:
    @pytest.mark.parametrize("codec", ["json", "binary"])
    @pytest.mark.parametrize("shards", [0, 2])
    def test_parentage_and_parity(self, fleet_factory, materialized,
                                  shards, codec):
        windows, reference = materialized
        recorder = TraceRecorder()
        with fleet_factory(shards=shards) as fleet, \
                serve_in_thread(fleet, tracer=recorder) as handle:
            drive(handle.address, windows, reference, recorder=recorder,
                  codec=codec)
        spans = span_dicts(recorder.snapshot())
        assert check_trace(spans) == []
        by_id = {span["span_id"]: span for span in spans}

        requests = ROUNDS * len(windows)
        clients = [span for span in by_name(spans, "client.request")
                   if span["attrs"]["op"] == "ingest"]
        assert len(clients) == requests
        servers = [span for span in by_name(spans, "gateway.request")
                   if span["attrs"]["op"] == "ingest"]
        assert len(servers) == requests
        # Every server span is a child of a client span, same trace,
        # and records the wire codec the request actually arrived in.
        for server in servers:
            parent = by_id[server["parent_id"]]
            assert parent["name"] == "client.request"
            assert parent["trace_id"] == server["trace_id"]
            assert server["attrs"]["outcome"] == "ok"
            assert server["attrs"]["codec"] == codec
        # Each request's stage chain hangs under *its* server span.
        for stage in ("queue.wait", "stage.score", "stage.ingest",
                      "stage.durability"):
            stage_spans = by_name(spans, stage)
            assert len(stage_spans) == requests
            for span in stage_spans:
                assert by_id[span["parent_id"]]["name"] == "gateway.request"
        # Engine rounds carry their own trace with the stage spans.
        rounds = by_name(spans, "engine.round")
        assert rounds
        for name in ("engine.schedule", "engine.score", "engine.ingest",
                     "engine.durability"):
            for span in by_name(spans, name):
                assert by_id[span["parent_id"]]["name"] == "engine.round"

        shard_spans = [span for span in spans
                       if span["name"] in ("shard.score", "shard.ingest")]
        if shards:
            # Worker spans crossed the process boundary into the parent
            # recorder, attributed to both shards, parented under the
            # engine's score/ingest spans.
            assert {span["attrs"]["shard"] for span in shard_spans} \
                == set(range(shards))
            for span in shard_spans:
                assert by_id[span["parent_id"]]["name"] in ("engine.score",
                                                            "engine.ingest")
                assert span["attrs"]["pid"] > 0
        else:
            assert shard_spans == []

    def test_wal_fsync_spans_parent_under_durability(self, fleet_factory,
                                                     materialized,
                                                     tmp_path):
        windows, reference = materialized
        recorder = TraceRecorder()
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, tracer=recorder,
                                wal_dir=tmp_path / "wal") as handle:
            drive(handle.address, windows, reference, recorder=recorder)
        spans = span_dicts(recorder.snapshot())
        assert check_trace(spans) == []
        by_id = {span["span_id"]: span for span in spans}
        fsyncs = by_name(spans, "wal.fsync")
        assert fsyncs, "durable traced rounds must record wal.fsync spans"
        # Group-commit fsyncs driven by the round's durability stage are
        # parented under it; the WAL's own append-batch fsyncs record as
        # roots (no caller context) and are fine.
        committed = [span for span in fsyncs
                     if span["parent_id"] is not None]
        assert committed, "no fsync joined a round's durability span"
        for span in committed:
            parent = by_id[span["parent_id"]]
            assert parent["name"] == "engine.durability"
            assert parent["trace_id"] == span["trace_id"]
        for span in fsyncs:
            assert span["attrs"]["pending"] >= 0
            assert span["attrs"]["segment"].endswith(".wal")

    def test_v1_peer_fallback_stays_traced_client_side(self, fleet_factory,
                                                       materialized):
        # A v1-only (json) server has never heard of the trace field;
        # the traced client falls back to v1 frames, parity holds, and
        # its own client.request spans still record.
        windows, reference = materialized
        recorder = TraceRecorder()
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, codec="json") as handle:
            drive(handle.address, windows, reference, recorder=recorder)
        spans = span_dicts(recorder.snapshot())
        clients = by_name(spans, "client.request")
        assert len(clients) == ROUNDS * len(windows)
        assert all(span["attrs"]["outcome"] == "ok" for span in clients)
        assert by_name(spans, "gateway.request") == []

    def test_untraced_client_yields_root_server_spans(self, fleet_factory,
                                                      materialized):
        # No trace field on the wire -> the server span starts a new
        # trace instead of erroring or joining anything.
        windows, reference = materialized
        recorder = TraceRecorder()
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, tracer=recorder) as handle:
            drive(handle.address, windows, reference, recorder=None)
        spans = span_dicts(recorder.snapshot())
        servers = [span for span in by_name(spans, "gateway.request")
                   if span["attrs"]["op"] == "ingest"]
        assert len(servers) == ROUNDS * len(windows)
        assert all(span["parent_id"] is None for span in servers)
        assert check_trace(spans) == []

    def test_recorder_stays_bounded_under_flood(self, fleet_factory,
                                                materialized):
        windows, reference = materialized
        recorder = TraceRecorder(capacity=16)
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, tracer=recorder) as handle:
            drive(handle.address, windows, reference, recorder=recorder)
        assert len(recorder) == 16
        assert recorder.dropped > 0
        # drop-new keeps the oldest complete traces: the very first
        # span recorded is still present.
        spans = span_dicts(recorder.snapshot())
        assert min(spans, key=lambda span: span["ts"])["name"] \
            in ("client.request", "gateway.request", "engine.round",
                "queue.wait")

    def test_tracing_off_records_nothing(self, fleet_factory, materialized):
        # The control arm of "tracing disabled -> hot path unchanged":
        # an untraced server serves the identical bits (the reference
        # was produced untraced; parity asserts equality) and no span
        # machinery is touched.
        windows, reference = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            drive(handle.address, windows, reference, recorder=None)
            assert fleet.engine.tracer is None


class TestStatsSurface:
    def test_stats_promotes_version_uptime_and_stage_histograms(
            self, fleet_factory, materialized):
        windows, reference = materialized
        recorder = TraceRecorder()
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, tracer=recorder) as handle:
            drive(handle.address, windows, reference, recorder=recorder)
            with GatewayClient(*handle.address) as observer:
                stats = observer.stats()
        assert stats["server_version"] == repro.__version__
        assert stats["uptime_seconds"] > 0
        engine = stats["engine"]
        assert engine["version"] == repro.__version__
        assert engine["uptime_seconds"] > 0
        assert engine["started_at"] > 0
        histograms = stats["metrics"]["histograms"]
        for stage in ("queue_wait", "schedule", "score", "ingest",
                      "durability"):
            name = f"engine.stage.{stage}"
            assert histograms[name]["count"] > 0, name
            assert "sampled" in histograms[name]

    def test_engine_stats_uptime_is_monotonic(self, fleet_factory):
        with fleet_factory(streams=1) as fleet:
            first = fleet.engine.stats()
            second = fleet.engine.stats()
            assert second["uptime_seconds"] >= first["uptime_seconds"]
            assert first["version"] == repro.__version__


class TestSlowRoundDump:
    def test_slow_rounds_dump_span_files(self, fleet_factory, materialized,
                                         tmp_path):
        windows, reference = materialized
        trace_dir = tmp_path / "traces"
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, trace_dir=trace_dir,
                                slow_round_ms=0.0) as handle:
            drive(handle.address, windows, reference)
        # Every round is "slow" at a 0 ms threshold: the counter moved
        # and each dump file holds that round's spans.
        assert fleet.engine.metrics.counter("engine.slow_rounds").value > 0
        dumps = sorted(trace_dir.glob("slow-round-*.jsonl"))
        assert dumps
        from repro.obs import load_jsonl
        dumped = load_jsonl(dumps[0])
        assert any(span["name"] == "engine.round" for span in dumped)
        # The drain export landed next to the dumps.
        assert (trace_dir / "trace.jsonl").exists()
        assert (trace_dir / "trace_chrome.json").exists()


class TestBenchmarkContract:
    """The span names and ``stats`` keys the out-of-process benchmark
    (``perfbench``) reads from a live server: renaming any of them
    silently zeroes a per-layer metric instead of failing a run."""

    def test_traced_sharded_durable_round(self, fleet_factory, materialized,
                                          tmp_path):
        windows, reference = materialized
        recorder = TraceRecorder()
        with fleet_factory(shards=2) as fleet, \
                serve_in_thread(fleet, tracer=recorder,
                                wal_dir=tmp_path / "wal") as handle:
            drive(handle.address, windows, reference, recorder=recorder)
            with GatewayClient(*handle.address) as observer:
                stats = observer.stats()
        spans = span_dicts(recorder.snapshot())
        assert check_trace(spans) == []
        names = {span["name"] for span in spans}
        for name in ("gateway.request", "queue.wait", "engine.round",
                     "engine.score", "engine.ingest", "engine.durability",
                     "wal.fsync"):
            assert name in names, name
        by_id = {span["span_id"]: span for span in spans}
        shard_parents = {by_id[span["parent_id"]]["name"] for span in spans
                         if span["name"].startswith("shard.")}
        assert shard_parents == {"engine.score", "engine.ingest"}
        rounds = [span for span in by_name(spans, "engine.round")
                  if span["attrs"].get("streams")]
        assert rounds
        assert all(span["attrs"]["pending"] >= 0
                   for span in by_name(spans, "wal.fsync"))

        engine = stats["engine"]
        assert engine["rounds"] > 0
        for key in ("fused_rounds", "shm_bytes"):
            assert key in engine["transport"], key
        assert engine["transport"]["shm_bytes"] > 0
        metrics = stats["metrics"]
        assert "gateway.rejected.backpressure" in metrics["counters"]
        assert metrics["counters"]["wal.snapshots"] >= 1
        for name in ("wal.append_latency", "wal.snapshot_latency"):
            assert name in metrics["histograms"], name

    def test_inline_stats_report_coalescing(self, fleet_factory,
                                            materialized):
        windows, reference = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            drive(handle.address, windows, reference)
            with GatewayClient(*handle.address) as observer:
                coalesce = observer.stats()["engine"]["coalesce"]
        assert coalesce["batches_run"] > 0
        assert coalesce["windows_scored"] >= coalesce["batches_run"]
