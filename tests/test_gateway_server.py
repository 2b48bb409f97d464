"""Gateway server tests: round-trip parity, failure paths, admission
control, disconnects, drain, and the load generator."""

import socket
import struct
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Deployment
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.gateway import (
    GatewayClient,
    GatewayError,
    LoadGenConfig,
    LoadGenerator,
    serve_in_thread,
)
from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    recv_frame,
    request_frame,
    send_frame,
)
from repro.serving import DeploymentFleet

ROUNDS = 3


def make_stream(frame_generator, seed, windows_per_step=2):
    return TrendShiftStream(frame_generator, TrendShiftConfig(
        steps_before_shift=2, steps_after_shift=2,
        windows_per_step=windows_per_step, window=4, seed=seed))


@pytest.fixture()
def fleet_factory(fresh_model, frame_generator):
    """Deterministic fleet factory: every call rebuilds bit-identical
    models and streams, so two fleets built with the same arguments are
    exact replicas (the basis of every parity assertion here)."""
    def make(streams=3):
        fleet = DeploymentFleet()
        model = fresh_model("Stealing", window=4)
        model.eval()
        for index in range(streams):
            fleet.add(f"cam-{index}",
                      Deployment(model, mission="Stealing", adaptive=False),
                      make_stream(frame_generator, seed=40 + index))
        return fleet
    return make


@pytest.fixture()
def materialized(fleet_factory):
    """(windows, reference): per-stream arrival windows for ROUNDS rounds
    and the scores a direct in-process ``fleet.step()`` run produces."""
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


class TestRoundTrip:
    def test_single_client_parity(self, fleet_factory, materialized):
        windows, reference = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                for name in windows:
                    client.attach(name)
                for round_index in range(ROUNDS):
                    for name in windows:
                        reply = client.ingest(name,
                                              windows[name][round_index])
                        assert reply["step"] == round_index
                        assert reply["mission"] == "Stealing"
                        assert np.array_equal(
                            reply["scores_array"],
                            reference[name][round_index]), \
                            f"{name} round {round_index} diverged"

    def test_concurrent_multi_client_parity(self, fleet_factory,
                                            materialized):
        windows, reference = materialized
        names = sorted(windows)

        def drive(address, my_streams):
            served = {}
            with GatewayClient(*address) as client:
                for name in my_streams:
                    client.attach(name)
                for round_index in range(ROUNDS):
                    for name in my_streams:
                        reply = client.ingest(name,
                                              windows[name][round_index])
                        served.setdefault(name, []).append(
                            reply["scores_array"])
            return served

        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with ThreadPoolExecutor(max_workers=len(names)) as pool:
                futures = [pool.submit(drive, handle.address, [name])
                           for name in names]
                results = [future.result(timeout=120)
                           for future in futures]
        served = {}
        for part in results:
            served.update(part)
        for name in names:
            for round_index in range(ROUNDS):
                assert np.array_equal(served[name][round_index],
                                      reference[name][round_index])

    def test_scores_op_does_not_feed_the_monitor(self, fleet_factory,
                                                 materialized):
        windows, reference = materialized
        name = sorted(windows)[0]
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                client.attach(name)
                first = client.ingest(name, windows[name][0])
                assert first["step"] == 0
                peeked = client.scores(name, windows[name][1])
                assert np.array_equal(peeked, reference[name][1])
                # The scores op did not consume a deployment step.
                second = client.ingest(name, windows[name][1])
                assert second["step"] == 1

    def test_attach_detach_and_stats(self, fleet_factory):
        with fleet_factory(streams=2) as fleet, \
                serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                reply = client.attach("cam-0")
                assert reply["attached"] == ["cam-0"]
                client.attach("cam-1")
                reply = client.detach("cam-0")
                assert reply["attached"] == ["cam-1"]
                stats = client.stats()
                assert stats["fleet"]["type"] == "DeploymentFleet"
                assert stats["fleet"]["streams"] == ["cam-0", "cam-1"]
                counters = stats["metrics"]["counters"]
                assert counters["gateway.requests.attach"] == 2
                assert counters["gateway.requests.detach"] == 1
                assert not stats["draining"]


class TestFailurePaths:
    def test_unknown_stream_attach(self, fleet_factory):
        with fleet_factory(streams=1) as fleet, \
                serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                with pytest.raises(GatewayError) as err:
                    client.attach("ghost")
                assert err.value.code == "unknown_stream"

    def test_ingest_before_attach(self, fleet_factory, materialized):
        windows, _ = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                with pytest.raises(GatewayError) as err:
                    client.ingest("cam-0", windows["cam-0"][0])
                assert err.value.code == "not_attached"

    def test_detach_when_not_attached(self, fleet_factory):
        with fleet_factory(streams=1) as fleet, \
                serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                with pytest.raises(GatewayError) as err:
                    client.detach("cam-0")
                assert err.value.code == "not_attached"

    def test_unknown_op(self, fleet_factory):
        with fleet_factory(streams=1) as fleet, \
                serve_in_thread(fleet) as handle:
            sock = socket.create_connection(handle.address, timeout=10)
            try:
                send_frame(sock, {"v": PROTOCOL_VERSION, "op": "explode",
                                  "id": 1})
                reply = recv_frame(sock)
                assert reply["ok"] is False
                assert reply["error"]["code"] == "unknown_op"
                assert reply["id"] == 1
            finally:
                sock.close()

    def test_version_mismatch(self, fleet_factory):
        with fleet_factory(streams=1) as fleet, \
                serve_in_thread(fleet) as handle:
            sock = socket.create_connection(handle.address, timeout=10)
            try:
                send_frame(sock, {"v": 42, "op": "stats", "id": 2})
                reply = recv_frame(sock)
                assert reply["error"]["code"] == "version_mismatch"
            finally:
                sock.close()

    def test_malformed_frame_closes_connection(self, fleet_factory):
        with fleet_factory(streams=1) as fleet, \
                serve_in_thread(fleet) as handle:
            sock = socket.create_connection(handle.address, timeout=10)
            try:
                sock.sendall(struct.pack(">I", 7) + b"not js!")
                reply = recv_frame(sock)
                assert reply["error"]["code"] == "bad_frame"
                # The server hangs up after an unframeable stream.
                assert recv_frame(sock) is None
            finally:
                sock.close()

    def test_truncated_frame_closes_connection(self, fleet_factory):
        with fleet_factory(streams=1) as fleet, \
                serve_in_thread(fleet) as handle:
            sock = socket.create_connection(handle.address, timeout=10)
            try:
                frame = encode_frame({"v": PROTOCOL_VERSION, "op": "stats",
                                      "id": 1})
                sock.sendall(frame[:-4])
                sock.shutdown(socket.SHUT_WR)  # EOF mid-body
                reply = recv_frame(sock)
                assert reply["error"]["code"] == "bad_frame"
                assert "truncated" in reply["error"]["message"]
            finally:
                sock.close()

    def test_oversized_frame_rejected(self, fleet_factory):
        with fleet_factory(streams=1) as fleet, \
                serve_in_thread(fleet, max_frame_bytes=1024) as handle:
            sock = socket.create_connection(handle.address, timeout=10)
            try:
                sock.sendall(struct.pack(">I", 1 << 20))
                reply = recv_frame(sock)
                assert reply["error"]["code"] == "bad_frame"
            finally:
                sock.close()

    def test_bad_windows_shape(self, fleet_factory):
        with fleet_factory(streams=1) as fleet, \
                serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                client.attach("cam-0")
                with pytest.raises(GatewayError) as err:
                    client.request("ingest", stream="cam-0",
                                   windows=[[1.0, 2.0]])  # 2-D, not 3-D
                assert err.value.code == "bad_request"
                with pytest.raises(GatewayError) as err:
                    client.request("ingest", stream="cam-0",
                                   windows=[[["x"]]])
                assert err.value.code == "bad_request"

    def test_non_finite_windows_rejected_before_the_wal(
            self, fleet_factory, materialized, tmp_path):
        """A NaN/Inf window is refused at admission: typed bad_request,
        counted, never appended to the WAL, and every stream (the
        offender's included) keeps serving bit-identically."""
        windows, reference = materialized
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, wal_dir=tmp_path / "wal") as handle:
            wal = handle.server.durability.wal
            with GatewayClient(*handle.address) as client:
                for name in windows:
                    client.attach(name)
                for round_index in range(ROUNDS):
                    if round_index == 1:
                        for bad in (np.nan, np.inf):
                            poisoned = windows["cam-0"][1].copy()
                            poisoned[0, 0, 0] = bad
                            appended = wal.next_seq
                            with pytest.raises(GatewayError) as err:
                                client.ingest("cam-0", poisoned)
                            assert err.value.code == "bad_request"
                            assert "finite" in err.value.message
                            assert wal.next_seq == appended
                    for name in windows:
                        reply = client.ingest(name,
                                              windows[name][round_index])
                        assert reply["step"] == round_index
                        assert np.array_equal(
                            reply["scores_array"],
                            reference[name][round_index])
                counters = client.stats()["metrics"]["counters"]
        assert counters["gateway.rejected.bad_request"] == 2
        assert counters["gateway.rejected.backpressure"] == 0

    def test_backpressure_rejection(self, fleet_factory, materialized):
        windows, reference = materialized
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, max_queue_depth=1) as handle:
            handle.pause_rounds()
            blocked = GatewayClient(*handle.address)
            rejected = GatewayClient(*handle.address)
            try:
                blocked.attach("cam-0")
                rejected.attach("cam-0")
                with ThreadPoolExecutor(max_workers=1) as pool:
                    pending = pool.submit(blocked.ingest, "cam-0",
                                          windows["cam-0"][0])
                    _wait_for_queue(rejected, {"cam-0": 1})
                    with pytest.raises(GatewayError) as err:
                        rejected.ingest("cam-0", windows["cam-0"][0])
                    assert err.value.code == "backpressure"
                    assert "retry" in err.value.message
                    handle.resume_rounds()
                    reply = pending.result(timeout=60)
                assert np.array_equal(reply["scores_array"],
                                      reference["cam-0"][0])
                stats = rejected.stats()
                assert stats["metrics"]["counters"][
                    "gateway.rejected.backpressure"] == 1
            finally:
                blocked.close()
                rejected.close()

    def test_client_disconnect_mid_round_drops_its_work(
            self, fleet_factory, materialized):
        windows, reference = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            handle.pause_rounds()
            doomed = GatewayClient(*handle.address)
            doomed.attach("cam-0")
            with ThreadPoolExecutor(max_workers=1) as pool:
                pending = pool.submit(doomed.ingest, "cam-0",
                                      windows["cam-0"][0])
                survivor = GatewayClient(*handle.address)
                try:
                    survivor.attach("cam-1")
                    _wait_for_queue(survivor, {"cam-0": 1})
                    doomed.close()  # mid-round disconnect
                    with pytest.raises((ConnectionError, OSError)):
                        pending.result(timeout=30)
                    _wait_for_queue(survivor, {})  # queued work dropped
                    handle.resume_rounds()
                    reply = survivor.ingest("cam-1", windows["cam-1"][0])
                    assert np.array_equal(reply["scores_array"],
                                          reference["cam-1"][0])
                finally:
                    survivor.close()

    def test_bad_windows_cannot_fail_other_clients_round(
            self, fleet_factory, materialized):
        """One client's un-scoreable windows (wrong frame_dim — passes
        the admission shape check) must error alone, not poison the
        coalesced round for everyone else."""
        windows, reference = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            handle.pause_rounds()  # force both requests into one round
            saboteur = GatewayClient(*handle.address)
            victim = GatewayClient(*handle.address)
            observer = GatewayClient(*handle.address)
            try:
                saboteur.attach("cam-0")
                victim.attach("cam-1")
                with ThreadPoolExecutor(max_workers=2) as pool:
                    bad = pool.submit(saboteur.ingest, "cam-0",
                                      np.zeros((1, 4, 7)))
                    good = pool.submit(victim.ingest, "cam-1",
                                       windows["cam-1"][0])
                    _wait_for_queue(observer, {"cam-0": 1, "cam-1": 1})
                    handle.resume_rounds()
                    with pytest.raises(GatewayError) as err:
                        bad.result(timeout=60)
                    assert err.value.code == "bad_request"
                    assert "cam-0" in err.value.message
                    reply = good.result(timeout=60)
                assert np.array_equal(reply["scores_array"],
                                      reference["cam-1"][0])
            finally:
                saboteur.close()
                victim.close()
                observer.close()

    def test_internal_round_failure_is_typed(self, fleet_factory,
                                             materialized):
        windows, _ = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                client.attach("cam-0")
                # Sabotage the fleet after attach: the round itself
                # fails server-side and must come back as a typed
                # internal error, not a hung or dropped connection.
                fleet.remove("cam-0")
                with pytest.raises(GatewayError) as err:
                    client.ingest("cam-0", windows["cam-0"][0])
                assert err.value.code in ("internal", "unknown_stream")


class TestShutdown:
    def test_graceful_drain(self, fleet_factory, materialized):
        windows, reference = materialized
        with fleet_factory() as fleet:
            handle = serve_in_thread(fleet)
            client = GatewayClient(*handle.address)
            client.attach("cam-0")
            reply = client.ingest("cam-0", windows["cam-0"][0])
            assert np.array_equal(reply["scores_array"],
                                  reference["cam-0"][0])
            assert client.shutdown()["draining"] is True
            handle.thread.join(timeout=60)
            assert not handle.thread.is_alive()
            with pytest.raises((ConnectionError, OSError)):
                GatewayClient(*handle.address).stats()
            client.close()
            handle.stop()  # idempotent after a client-driven shutdown

    def test_drain_serves_queued_work(self, fleet_factory, materialized):
        windows, reference = materialized
        with fleet_factory() as fleet:
            handle = serve_in_thread(fleet)
            handle.pause_rounds()  # force the ingest to sit in the queue
            client = GatewayClient(*handle.address)
            shutter = GatewayClient(*handle.address)
            try:
                client.attach("cam-0")
                with ThreadPoolExecutor(max_workers=1) as pool:
                    pending = pool.submit(client.ingest, "cam-0",
                                          windows["cam-0"][0])
                    _wait_for_queue(shutter, {"cam-0": 1})
                    # Drain un-pauses the round loop and must serve the
                    # queued request before the server goes away.
                    shutter.shutdown()
                    reply = pending.result(timeout=60)
                assert np.array_equal(reply["scores_array"],
                                      reference["cam-0"][0])
            finally:
                client.close()
                shutter.close()
                handle.thread.join(timeout=60)
                assert not handle.thread.is_alive()

    def test_ingest_after_shutdown_rejected(self, fleet_factory,
                                            materialized):
        windows, _ = materialized
        with fleet_factory() as fleet:
            handle = serve_in_thread(fleet)
            # Pipeline attach + shutdown + ingest in one burst: the
            # server dispatches them in order, so the ingest
            # deterministically lands after draining has begun.
            sock = socket.create_connection(handle.address, timeout=10)
            try:
                burst = (
                    encode_frame(request_frame("attach", 1, stream="cam-0"))
                    + encode_frame(request_frame("shutdown", 2))
                    + encode_frame(request_frame(
                        "ingest", 3, stream="cam-0",
                        windows=np.asarray(windows["cam-0"][0]).tolist())))
                sock.sendall(burst)
                replies = {}
                for _ in range(3):
                    reply = recv_frame(sock)
                    replies[reply["id"]] = reply
                assert replies[1]["ok"] and replies[2]["ok"]
                assert replies[3]["ok"] is False
                assert replies[3]["error"]["code"] == "shutting_down"
            finally:
                sock.close()
            handle.thread.join(timeout=60)


class TestLoadGenerator:
    def test_closed_loop_parity_and_latency(self, fleet_factory,
                                            materialized):
        windows, reference = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            generator = LoadGenerator(
                handle.address, windows,
                LoadGenConfig(clients=2, rounds=ROUNDS))
            result = generator.run()
        assert not result.errors
        assert result.rejected == 0
        assert result.requests == len(windows) * ROUNDS
        assert result.latency.count == result.requests
        for name, rounds in result.scores.items():
            for round_index, scores in rounds:
                assert np.array_equal(scores,
                                      reference[name][round_index])
        summary = result.summary()
        assert summary["windows_per_sec"] > 0
        assert summary["latency"]["count"] == result.requests

    def test_open_loop_rate_paces_sends(self, fleet_factory, materialized):
        windows, _ = materialized
        one_stream = {"cam-0": windows["cam-0"]}
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            generator = LoadGenerator(
                handle.address, one_stream,
                LoadGenConfig(clients=1, rounds=ROUNDS, rate=10.0))
            start = time.perf_counter()
            result = generator.run()
            elapsed = time.perf_counter() - start
        assert not result.errors
        assert result.requests == ROUNDS
        # 3 requests at 10 req/s are due at t=0, 0.1, 0.2.
        assert elapsed >= 0.2


def _wait_for_queue(client: GatewayClient, expected: dict,
                    timeout: float = 30.0) -> None:
    """Poll the stats op (served off the event loop, so it works while
    rounds are paused) until the queued map matches."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.stats()["queued"] == expected:
            return
        time.sleep(0.01)
    raise AssertionError(f"queue never reached {expected!r}")


class TestEnginePolicies:
    """The gateway's scheduling seam: pluggable engine policies over the
    wire — parity under every policy, deadlines shed stale work."""

    @pytest.mark.parametrize("policy", ["fair", "greedy", "priority"])
    def test_parity_under_every_policy(self, fleet_factory, materialized,
                                       policy):
        windows, reference = materialized
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, policy=policy) as handle:
            with GatewayClient(*handle.address) as client:
                for name in windows:
                    client.attach(name)
                for round_index in range(ROUNDS):
                    for name in windows:
                        reply = client.ingest(name,
                                              windows[name][round_index])
                        assert np.array_equal(
                            reply["scores_array"],
                            reference[name][round_index]), \
                            f"{policy}: {name}[{round_index}] diverged"
                stats = client.stats()
                assert stats["engine"]["policy"] == policy
                assert stats["engine"]["backend"] == "inline"
                assert stats["engine"]["rounds"] >= 1

    def test_priority_request_fields_validated(self, fleet_factory,
                                               materialized):
        windows, _ = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                client.attach("cam-0")
                body = np.asarray(windows["cam-0"][0]).tolist()
                with pytest.raises(GatewayError) as err:
                    client.request("ingest", stream="cam-0", windows=body,
                                   priority="high")
                assert err.value.code == "bad_request"
                with pytest.raises(GatewayError) as err:
                    client.request("ingest", stream="cam-0", windows=body,
                                   deadline_ms=-5)
                assert err.value.code == "bad_request"

    def test_missed_deadline_answers_expired(self, fleet_factory,
                                             materialized):
        windows, reference = materialized
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, policy="priority") as handle:
            handle.pause_rounds()  # let the deadline lapse while queued
            client = GatewayClient(*handle.address)
            observer = GatewayClient(*handle.address)
            try:
                client.attach("cam-0")
                observer.attach("cam-0")
                with ThreadPoolExecutor(max_workers=1) as pool:
                    doomed = pool.submit(
                        client.request, "ingest", stream="cam-0",
                        windows=np.asarray(windows["cam-0"][0]).tolist(),
                        deadline_ms=20)
                    _wait_for_queue(observer, {"cam-0": 1})
                    time.sleep(0.1)  # 20 ms deadline long gone
                    handle.resume_rounds()
                    with pytest.raises(GatewayError) as err:
                        doomed.result(timeout=60)
                    assert err.value.code == "expired"
                # The expired request consumed no deployment step.
                reply = observer.ingest("cam-0", windows["cam-0"][0])
                assert reply["step"] == 0
                assert np.array_equal(reply["scores_array"],
                                      reference["cam-0"][0])
            finally:
                client.close()
                observer.close()


class TestFleetRoundEntryPoints:
    """DeploymentFleet.ingest_round/score_only — the server-side seam."""

    def test_ingest_round_matches_step(self, fleet_factory, materialized):
        windows, reference = materialized
        fleet = fleet_factory()
        for round_index in range(ROUNDS):
            events = fleet.ingest_round(
                {name: windows[name][round_index] for name in windows})
            for name, event in events.items():
                assert event.step == round_index
                assert np.array_equal(event.scores,
                                      reference[name][round_index])

    def test_partial_round_and_unknown_stream(self, fleet_factory,
                                              materialized):
        windows, reference = materialized
        fleet = fleet_factory()
        events = fleet.ingest_round({"cam-1": windows["cam-1"][0]})
        assert set(events) == {"cam-1"}
        assert np.array_equal(events["cam-1"].scores, reference["cam-1"][0])
        with pytest.raises(KeyError, match="ghost"):
            fleet.ingest_round({"ghost": windows["cam-1"][0]})

    def test_bad_shape_rejected(self, fleet_factory):
        fleet = fleet_factory(streams=1)
        with pytest.raises(ValueError, match="cam-0"):
            fleet.ingest_round({"cam-0": np.zeros((2, 4))})
        with pytest.raises(ValueError, match="cam-0"):
            fleet.score_only({"cam-0": np.zeros((0, 4, 8))})

    def test_score_only_leaves_steps_alone(self, fleet_factory,
                                           materialized):
        windows, reference = materialized
        fleet = fleet_factory()
        scores = fleet.score_only({"cam-0": windows["cam-0"][0]})
        assert np.array_equal(scores["cam-0"], reference["cam-0"][0])
        event = fleet.ingest_round({"cam-0": windows["cam-0"][0]})["cam-0"]
        assert event.step == 0  # score_only consumed no deployment step

    def test_fleet_context_manager_is_uniform(self, fleet_factory):
        with fleet_factory(streams=1) as fleet:
            assert isinstance(fleet, DeploymentFleet)
            assert len(fleet) == 1
        fleet.close()  # idempotent no-op, mirroring ShardedFleet.close
        assert fleet.step()  # still serviceable: close holds no resources
