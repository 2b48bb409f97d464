"""Tests of the benchmark's own logic against a fake clock and a fake
server; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import itertools
import json
import queue
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import stats  # noqa: E402
from perfbench.bench import (count_mismatches, latency_block,  # noqa: E402
                             slo_met_share, snapshot_frame_bytes, tally,
                             windows_per_s)
from perfbench.layers import PER_LAYER, request_breakdown  # noqa: E402
from perfbench.loadgen import Record, Request, run_closed, run_open  # noqa: E402
from perfbench.reference import Expected, reply_matches  # noqa: E402
from perfbench.workloads import (WORKLOADS, build_inputs,  # noqa: E402
                                 stream_offsets)


class FakeClock:
    """Time moves only when the test (or the fake server) moves it."""

    def __init__(self):
        self.t = 0.0
        self.lock = threading.Lock()

    def now(self) -> float:
        with self.lock:
            return self.t

    def sleep_until(self, t: float) -> None:
        with self.lock:
            self.t = max(self.t, t)

    def advance_to(self, t: float) -> None:
        with self.lock:
            self.t = max(self.t, t)

    def set(self, t: float) -> None:
        with self.lock:
            self.t = t


class ScriptedServer:
    """Open-loop fake: a send may stall the sender (advancing the clock);
    every reply is released once the whole plan is sent, stamped at
    send time + ``service``."""

    def __init__(self, clock: FakeClock, expected: int, service: float,
                 stalls: dict[int, float] | None = None,
                 drop: set[int] | None = None):
        self.clock = clock
        self.expected = expected
        self.service = service
        self.stalls = stalls or {}
        self.drop = drop or set()
        self.pending: list[tuple[float, int]] = []
        self.all_sent = threading.Event()
        self.closed = threading.Event()

    def send(self, request: Request) -> int:
        sent = self.clock.now()
        self.clock.advance_to(sent + self.stalls.get(request.id, 0.0))
        if request.id not in self.drop:
            self.pending.append((sent + self.service, request.id))
        if len(self.pending) + len(self.drop) >= self.expected:
            self.all_sent.set()
        return 100

    def recv(self):
        self.all_sent.wait()
        if not self.pending:
            self.closed.wait()
            return None
        self.pending.sort()
        at, request_id = self.pending.pop(0)
        self.clock.set(at)   # replies land in ack order, after the sends
        return {"id": request_id, "ok": True, "scores": np.zeros(1)}

    def close(self) -> None:
        self.all_sent.set()
        self.closed.set()


def _plan(n: int, period: float) -> list[Request]:
    return [Request(id=i, stream="s", index=i, windows=np.zeros((1, 1, 1)),
                    due=i * period) for i in range(n)]


def test_open_loop_times_requests_from_their_due_time():
    clock = FakeClock()
    server = ScriptedServer(clock, expected=4, service=0.010,
                            stalls={0: 0.250})
    result = run_open(server, _plan(4, 0.100), clock, deadline=5.0, lead=0.0)
    by_id = {r.request.id: r for r in result.records}
    # Request 0 went out on time; the 250 ms stall in its send made
    # requests 1 and 2 late, and their latency includes that wait.
    assert by_id[0].lateness == pytest.approx(0.0)
    assert by_id[1].lateness == pytest.approx(0.150)
    assert by_id[2].lateness == pytest.approx(0.050)
    assert by_id[3].lateness == pytest.approx(0.0)
    assert by_id[0].latency == pytest.approx(0.010)
    assert by_id[1].latency == pytest.approx(0.160)
    assert by_id[2].latency == pytest.approx(0.060)
    assert by_id[3].latency == pytest.approx(0.010)
    assert not result.timed_out


def test_open_loop_counts_unanswered_and_unsent_requests_as_failed():
    clock = FakeClock()
    server = ScriptedServer(clock, expected=3, service=0.010, drop={1})
    # The deadline falls before request 3 is due: it is never sent.
    result = run_open(server, _plan(4, 0.100), clock, deadline=0.25,
                      lead=0.0)
    codes = [r.code for r in result.records]
    assert codes == ["ok", "no_reply", "ok", "not_sent"]
    assert result.timed_out
    attempted, failed, outcomes = tally(result.records, mismatches=0)
    assert (attempted, failed) == (4, 2)
    assert outcomes == {"ok": 2, "no_reply": 1, "not_sent": 1}
    # Failures miss the latency limit whatever it is.
    assert slo_met_share(result.records, limit_s=10.0) == pytest.approx(0.5)


class EchoServer:
    """Closed-loop fake: answers each request at once with scores equal
    to its index, except scripted errors and wrong answers."""

    def __init__(self, errors: dict[int, str], wrong: set[int]):
        self.replies: queue.Queue = queue.Queue()
        self.errors = errors
        self.wrong = wrong

    def send(self, request: Request) -> int:
        if request.id in self.errors:
            self.replies.put({"id": request.id, "ok": False,
                              "error": {"code": self.errors[request.id]}})
        else:
            value = request.index + (0.5 if request.id in self.wrong else 0)
            self.replies.put({"id": request.id, "ok": True,
                              "scores": np.full(2, float(value)),
                              "adapted": False, "pruned": 0})
        return 10

    def recv(self):
        return self.replies.get()

    def close(self) -> None:
        self.replies.put(None)


def test_closed_loop_counts_errors_and_reference_mismatches():
    server = EchoServer(errors={2: "backpressure", 5: "internal"},
                        wrong={3})
    ids = itertools.count()

    def make(stream, index):
        return Request(id=next(ids), stream=stream, index=index,
                       windows=np.zeros((2, 1, 1)))

    result = run_closed(server, ["a"], make, FakeClock(), duration=1.0,
                        deadline=5.0, limits={"a": 8})
    assert len(result.records) == 8
    assert all(r.latency is not None for r in result.records)

    def expected_of(record):
        return Expected(scores=np.full(2, float(record.request.index))
                        .tobytes(), adapted=False, pruned=0)

    mismatches = count_mismatches(result.records, expected_of)
    assert mismatches == 1
    attempted, failed, outcomes = tally(result.records, mismatches)
    assert (attempted, failed) == (8, 3)
    assert outcomes == {"ok": 6, "backpressure": 1, "internal": 1}


class TimedServer:
    """Closed-loop fake on the fake clock: each reply lands ``service``
    seconds after its request went out.  From ``stop_at`` on the server
    answers nothing more; the clock jumps to ``hang_to`` (past the
    phase's deadline) and the connection stays silent until closed."""

    def __init__(self, clock: FakeClock, service: float,
                 stop_at: float = float("inf"), hang_to: float = 0.0,
                 errors: set[int] | None = None):
        self.clock = clock
        self.service = service
        self.stop_at = stop_at
        self.hang_to = hang_to
        self.errors = errors or set()
        self.inflight: queue.Queue = queue.Queue()
        self.closed = threading.Event()

    def send(self, request: Request) -> int:
        self.inflight.put((self.clock.now() + self.service, request.id))
        return 10

    def recv(self):
        at, request_id = self.inflight.get()
        if request_id is None:
            return None
        if at > self.stop_at:
            self.clock.advance_to(self.hang_to)
            self.closed.wait()
            return None
        self.clock.advance_to(at)
        if request_id in self.errors:
            return {"id": request_id, "ok": False,
                    "error": {"code": "internal"}}
        return {"id": request_id, "ok": True}

    def close(self) -> None:
        self.closed.set()
        self.inflight.put((0.0, None))


def _two_window_requests():
    ids = itertools.count()

    def make(stream, index):
        return Request(id=next(ids), stream=stream, index=index,
                       windows=np.zeros((2, 1, 1)))
    return make


def test_throughput_counts_a_server_that_stops_answering():
    clock = FakeClock()
    healthy = run_closed(TimedServer(clock, service=0.1), ["a"],
                         _two_window_requests(), clock, duration=10.0,
                         deadline=15.0)
    assert windows_per_s([healthy], 10.0) == pytest.approx(20.0, rel=0.02)

    clock = FakeClock()
    stalled = run_closed(TimedServer(clock, service=0.1, stop_at=5.05,
                                     hang_to=100.0),
                         ["a"], _two_window_requests(), clock,
                         duration=10.0, deadline=15.0)
    assert stalled.timed_out
    assert [r.code for r in stalled.records].count("no_reply") == 1
    # Fifty replies in the first half, none in the second: the rate is
    # over the whole measured window, so the hang halves it.
    assert windows_per_s([stalled], 10.0) == pytest.approx(10.0)
    # Over two servers, one of which hung, the rate is pooled.
    assert windows_per_s([healthy, stalled], 10.0) \
        == pytest.approx(15.0, rel=0.02)


def test_throughput_of_a_capped_phase_ends_at_its_last_ack():
    clock = FakeClock()
    capped = run_closed(TimedServer(clock, service=0.1), ["a", "b"],
                        _two_window_requests(), clock, duration=10.0,
                        deadline=15.0, limits={"a": 4, "b": 4})
    assert len(capped.records) == 8
    last = max(r.acked_at for r in capped.records)
    assert windows_per_s([capped], 10.0, {"a": 4, "b": 4}) \
        == pytest.approx(16 / (last - capped.started_at))
    # A stream short of its cap (one request refused) keeps the window
    # fixed.
    clock = FakeClock()
    refused = run_closed(TimedServer(clock, service=0.1, errors={0}),
                         ["a", "b"], _two_window_requests(), clock,
                         duration=10.0, deadline=15.0,
                         limits={"a": 4, "b": 4})
    assert windows_per_s([refused], 10.0, {"a": 4, "b": 4}) \
        == pytest.approx(14 / 10.0)


def test_snapshot_size_is_the_snapshot_record_not_the_log(tmp_path):
    from repro.wal import (FRAME_HEADER, SnapshotManager, WriteAheadLog,
                           ingest_record)

    wal = WriteAheadLog(tmp_path)
    manager = SnapshotManager(wal)
    fleet = {"streams": {"s": {"tokens": list(range(500))}}}
    manager.snapshot(fleet, {}, {}, rounds=1)
    (segment,) = wal.segment_paths
    one = segment.stat().st_size
    for _ in range(4):
        wal.append(ingest_record("s", np.ones((2, 8, 192))))
    manager.snapshot(fleet, {}, {}, rounds=2)
    wal.append(ingest_record("s", np.ones((2, 8, 192))))
    wal.close()
    size = snapshot_frame_bytes(tmp_path)
    assert size == one > FRAME_HEADER.size
    assert size < sum(p.stat().st_size for p in tmp_path.iterdir())


def test_adaptive_content_is_fixed_and_the_seed_moves_offsets():
    from repro.api import Pipeline, ReproConfig

    workload = WORKLOADS["edge-adapt"]
    pipeline = Pipeline(ReproConfig())
    first = build_inputs(pipeline, workload, seed=1, steps=2)
    second = build_inputs(pipeline, workload, seed=2, steps=2)
    for name in workload.stream_names():
        for a, b in zip(first[name].windows, second[name].windows):
            assert a.tobytes() == b.tobytes()
    static = WORKLOADS["score-fanin"]
    one = build_inputs(pipeline, static, seed=1, steps=1)
    two = build_inputs(pipeline, static, seed=2, steps=1)
    name = static.stream_names()[0]
    assert one[name].windows[0].tobytes() != two[name].windows[0].tobytes()

    offsets = stream_offsets(workload, 1)
    assert offsets == stream_offsets(workload, 1)
    assert offsets != stream_offsets(workload, 2)
    n = workload.streams
    assert all(i / n <= x < (i + 1) / n for i, x in enumerate(offsets))
    assert stream_offsets(static, 1) == stream_offsets(static, 2) \
        == [i / static.streams for i in range(static.streams)]


def _acked(due: float, latency: float, ok: bool = True) -> Record:
    request = Request(id=int(due * 1000), stream="s", index=0,
                      windows=np.zeros(1), due=due)
    return Record(request=request, due_at=due, sent_at=due,
                  acked_at=due + latency,
                  reply={"ok": ok} if ok else {"ok": False, "error": {}})


def test_a_stall_in_one_slice_does_not_move_the_median_latency():
    records = [_acked(i * 0.01, 1.0 if 40 <= i < 60 else 0.010)
               for i in range(80)]
    block = latency_block([records])
    assert block["slices"]["p50_ms"] == 4
    assert block["p50_ms"] == pytest.approx(10.0)
    assert block["slices"]["p95_ms"] == 1   # 80 samples: one pooled slice
    assert block["short"] == ["p95_ms"]     # and fewer than 200 of them
    assert block["p99_ms"] is None
    # Every miss counts against the deadline share, stall or not.
    assert slo_met_share(records, limit_s=0.5) == pytest.approx(0.75)


def test_a_slow_replica_server_moves_a_minority_of_slices():
    fast = [_acked(i * 0.01, 0.010) for i in range(60)]
    also_fast = [_acked(i * 0.01, 0.012) for i in range(60)]
    slow = [_acked(i * 0.01, 0.050) for i in range(60)]
    block = latency_block([fast, slow, also_fast])
    assert block["slices"]["p50_ms"] == 9   # three slices per server
    assert block["n"] == 180
    assert block["p50_ms"] == pytest.approx(12.0)   # not 50


def test_reply_match_is_bit_exact():
    scores = np.array([0.1, 0.2])
    expected = Expected(scores=scores.tobytes(), adapted=True, pruned=1)
    assert reply_matches({"scores": scores.copy(), "adapted": True,
                          "pruned": 1}, expected)
    nudged = scores.copy()
    nudged[1] = np.nextafter(nudged[1], 1.0)
    assert not reply_matches({"scores": nudged, "adapted": True,
                              "pruned": 1}, expected)
    assert not reply_matches({"scores": scores, "adapted": False,
                              "pruned": 1}, expected)


@pytest.mark.parametrize("n, q, reported", [
    (19, 0.50, False), (20, 0.50, True),
    (199, 0.95, False), (200, 0.95, True),
    (999, 0.99, False), (1000, 0.99, True),
])
def test_percentile_needs_ten_samples_beyond_it(n, q, reported):
    value = stats.percentile(list(range(n)), q)
    assert (value is not None) == reported
    if reported:
        assert n - 1 - value == 10   # exactly ten samples rank above


def test_auc_matches_pairwise_definition():
    assert stats.roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert stats.roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    assert stats.roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 5, size=60).astype(float)   # many ties
    labels = rng.integers(0, 2, size=60)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    pairwise = ((pos[:, None] > neg[None, :]).sum()
                + 0.5 * (pos[:, None] == neg[None, :]).sum()) \
        / (len(pos) * len(neg))
    assert stats.roc_auc(list(scores), list(labels)) == pytest.approx(pairwise)


def test_span_breakdown_partitions_the_round_trip():
    record = Record(request=Request(id=0, stream="s", index=0,
                                    windows=np.zeros(1)),
                    sent_at=10.0, acked_at=10.010)
    root = {"name": "gateway.request", "span_id": "g", "ts": 1000.001,
            "dur": 0.007}
    children = {"g": [
        {"name": "queue.wait", "span_id": "q", "ts": 1000.002, "dur": 0.002},
        {"name": "stage.score", "span_id": "s", "ts": 1000.0035,
         "dur": 0.002},
    ]}
    parts = request_breakdown(record, children, epoch_offset=990.0,
                              root_span=root)
    assert sum(parts.values()) == pytest.approx(0.010)
    assert parts["unattributed"] == pytest.approx(0.003)
    assert parts["queue.wait"] == pytest.approx(0.0015)   # overlap goes
    assert parts["stage.score"] == pytest.approx(0.002)   # to the later
    assert parts["gateway.request"] == pytest.approx(0.0035)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, (unit, better, _) in
            PER_LAYER.items()]
    for workload in spec["workloads"]:
        # The offered rate is fixed in workloads.py and stated, once,
        # in the workload's description.
        rate = WORKLOADS[workload["name"]].rate
        stated = re.search(r"open at ([0-9.]+) req/s per stream",
                           workload["why"])
        assert stated and float(stated.group(1)) == rate
