"""The load generator: an open-loop sender and a closed-loop sender over
one gateway connection each, with at most two threads (the caller's and
one receiver).

Open loop: requests go out on a fixed schedule whatever the server does,
over a connection that keeps many requests in flight (the gateway matches
replies by request id).  Each request is timed from its *due* time, not
from when the sender got round to it, so a stall in the sender or the
server shows up in every request queued behind it.

Closed loop: every stream keeps exactly one request in flight; the
receiver sends a stream's next request as soon as its reply lands.

Both take a ``conn`` (``send(request) -> bytes sent``, ``recv() -> reply
dict or None``, ``close()``) and a ``clock`` (``now()``,
``sleep_until(t)``), so the tests drive them with fakes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np


class Clock:
    """Monotonic clock the generator schedules and timestamps with."""

    def now(self) -> float:
        return time.perf_counter()

    def sleep_until(self, t: float) -> None:
        while True:
            remaining = t - time.perf_counter()
            if remaining <= 0:
                return
            time.sleep(remaining)


@dataclass
class Request:
    """One windows request (``ingest``, or ``scores`` to warm up without
    touching deployment state): ``index`` is its position in the stream's
    sequence, ``due`` its offset in seconds from the start of an open
    phase."""

    id: int
    stream: str
    index: int
    windows: np.ndarray
    due: float | None = None
    trace: dict | None = None
    op: str = "ingest"


@dataclass
class Record:
    """What happened to one request."""

    request: Request
    due_at: float | None = None
    sent_at: float | None = None
    acked_at: float | None = None
    bytes_sent: int = 0
    reply: dict | None = None

    @property
    def ok(self) -> bool:
        return self.reply is not None and bool(self.reply.get("ok"))

    @property
    def code(self) -> str:
        """``ok``, the gateway's typed error code, ``no_reply`` or
        ``not_sent``."""
        if self.sent_at is None:
            return "not_sent"
        if self.reply is None:
            return "no_reply"
        if self.reply.get("ok"):
            return "ok"
        return str((self.reply.get("error") or {}).get("code", "internal"))

    @property
    def latency(self) -> float | None:
        """Due (open) or send (closed) time to ack, in seconds."""
        if self.acked_at is None or self.sent_at is None:
            return None
        start = self.due_at if self.due_at is not None else self.sent_at
        return self.acked_at - start

    @property
    def lateness(self) -> float | None:
        """How late the generator sent, in seconds (open loop only)."""
        if self.due_at is None or self.sent_at is None:
            return None
        return max(0.0, self.sent_at - self.due_at)


@dataclass
class PhaseResult:
    records: list[Record]
    started_at: float
    timed_out: bool = False
    epoch_offset: float = 0.0   # add to a clock reading to get time.time()


class Tracker:
    """Thread-safe id -> record table shared by sender and receiver."""

    def __init__(self):
        self._lock = threading.Lock()
        self._records: dict[int, Record] = {}
        self._unacked = 0
        self._idle = threading.Condition(self._lock)

    def sending(self, request: Request, due_at: float | None,
                sent_at: float) -> Record:
        record = Record(request=request, due_at=due_at, sent_at=sent_at)
        with self._lock:
            self._records[request.id] = record
            self._unacked += 1
        return record

    def unsent(self, request: Request, due_at: float | None) -> None:
        with self._lock:
            self._records[request.id] = Record(request=request, due_at=due_at)

    def acked(self, reply: dict, at: float) -> Record | None:
        """Match a reply to its request; ``None`` for an unknown id."""
        with self._lock:
            record = self._records.get(reply.get("id"))
            if record is None or record.acked_at is not None:
                return None
            record.acked_at = at
            record.reply = reply
            self._unacked -= 1
            if self._unacked == 0:
                self._idle.notify_all()
            return record

    def wait_idle(self, timeout: float) -> bool:
        with self._lock:
            return self._idle.wait_for(lambda: self._unacked == 0,
                                       timeout=max(0.0, timeout))

    def records(self) -> list[Record]:
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.request.id)


def _receive(conn, tracker: Tracker, clock, on_ack=None) -> None:
    while True:
        try:
            reply = conn.recv()
        except (OSError, ValueError):
            return
        if reply is None:
            return
        record = tracker.acked(reply, clock.now())
        if record is not None and on_ack is not None:
            on_ack(record)


def _epoch_offset(clock) -> float:
    return time.time() - clock.now()


def run_open(conn, plan: list[Request], clock, deadline: float,
             lead: float = 0.05) -> PhaseResult:
    """Send ``plan`` (requests with ``due`` offsets) on schedule.

    The phase ends when every sent request is acked or ``deadline``
    seconds after its start; requests not yet sent by then are never
    sent, and the caller counts both kinds as failed.
    """
    tracker = Tracker()
    receiver = threading.Thread(target=_receive, args=(conn, tracker, clock),
                                name="perfbench-recv", daemon=True)
    receiver.start()
    offset = _epoch_offset(clock)
    start = clock.now() + lead
    end = start + deadline
    timed_out = False
    for request in sorted(plan, key=lambda r: (r.due, r.id)):
        due_at = start + request.due
        if due_at >= end:
            timed_out = True
            tracker.unsent(request, due_at)
            continue
        clock.sleep_until(due_at)
        record = tracker.sending(request, due_at, clock.now())
        try:
            record.bytes_sent = conn.send(request)
        except OSError:
            timed_out = True
            break
    if not tracker.wait_idle(end - clock.now()):
        timed_out = True
    conn.close()
    receiver.join()
    seen = {r.request.id for r in tracker.records()}
    for request in plan:
        if request.id not in seen:
            tracker.unsent(request, start + request.due)
    return PhaseResult(records=tracker.records(), started_at=start,
                       timed_out=timed_out, epoch_offset=offset)


def run_closed(conn, streams: list[str], make_request, clock,
               duration: float, deadline: float,
               limits: dict[str, int] | None = None) -> PhaseResult:
    """Keep one request in flight per stream for ``duration`` seconds.

    ``make_request(stream, index)`` builds a stream's ``index``-th request
    (ids are the caller's business).  ``limits`` caps how many requests a
    stream sends; a stream at its cap simply stops.  After ``duration``
    no new request starts; in-flight ones get until ``deadline``.
    """
    tracker = Tracker()
    lock = threading.Lock()
    sent_count = {stream: 0 for stream in streams}
    start = clock.now()
    stop_at = start + duration
    end = start + deadline
    failed_send = threading.Event()

    def send_next(stream: str) -> None:
        # Decide and register under one lock, so the main thread never
        # sees an idle tracker while a send it allowed is still pending.
        with lock:
            index = sent_count[stream]
            if limits is not None and index >= limits[stream]:
                return
            if clock.now() >= stop_at:
                return
            sent_count[stream] = index + 1
            request = make_request(stream, index)
            record = tracker.sending(request, None, clock.now())
        try:
            record.bytes_sent = conn.send(request)
        except OSError:
            failed_send.set()

    def on_ack(record: Record) -> None:
        send_next(record.request.stream)

    receiver = threading.Thread(target=_receive,
                                args=(conn, tracker, clock, on_ack),
                                name="perfbench-recv", daemon=True)
    offset = _epoch_offset(clock)
    receiver.start()
    for stream in streams:
        send_next(stream)
    timed_out = False
    while True:
        remaining = end - clock.now()
        if remaining <= 0:
            timed_out = True
            break
        tracker.wait_idle(min(remaining, 0.05))
        with lock:
            if (clock.now() >= stop_at or _all_capped(sent_count, limits)) \
                    and tracker.wait_idle(0.0):
                break
    conn.close()
    receiver.join()
    return PhaseResult(records=tracker.records(), started_at=start,
                       timed_out=timed_out or failed_send.is_set(),
                       epoch_offset=offset)


def _all_capped(sent_count: dict[str, int],
                limits: dict[str, int] | None) -> bool:
    return limits is not None and all(
        sent_count[s] >= limits[s] for s in sent_count)
