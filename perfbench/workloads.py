"""The serving workloads and the inputs each one sends.

Every input comes from ``Pipeline.stream``; the server receives only
these windows.  A static workload draws its stream content from the
run's ``--seed``.  The adaptive workload draws it from a fixed content
seed, so every run triggers the same adaptation steps, and ``--seed``
moves only each stream's offset within the send schedule.

Offered rates are fixed here, once.  The static workloads run at about
a quarter of the closed-loop capacity the first version of this
benchmark measured on a 2-CPU host (about 1,200 requests/s on
score-fanin, 50 on durable-shards): at half that capacity, stalls of a
few hundred milliseconds on the shared host overflowed the gateway's
default 8-deep per-stream queue and requests were refused.  The
adaptive workload runs at a camera-like 1 request/s per stream.  The
rates are never recalibrated against the code under test, so a slower
server shows up as latency and missed deadlines rather than as a lower
offered load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

MISSION = "Stealing"


@dataclass(frozen=True)
class Workload:
    name: str
    streams: int
    windows: int              # windows per request
    adaptive: bool
    wal: bool
    shards: int
    rate: float               # open-phase requests/s offered per stream
    shifted: str              # anomaly class after the trend shift
    pool_steps: int           # distinct stream steps each stream cycles over
    shift_steps: tuple[int, ...]   # per-stream step of the trend shift
    content_seed: int | None = None   # fixed stream content, if set
    # Fresh servers an untraced closed phase spans, and the open phase
    # too unless the workload adapts (its schedule is played whole).
    replicas: int = 1

    @property
    def period(self) -> float:
        """A stream's inter-arrival period: its latency limit."""
        return 1.0 / self.rate

    def server_args(self) -> list[str]:
        args = ["--streams", str(self.streams), "--missions", MISSION,
                "--windows-per-step", str(self.windows)]
        if self.adaptive:
            args.append("--adaptive")
        if self.shards > 1:
            args += ["--shards", str(self.shards)]
        return args

    def stream_names(self) -> list[str]:
        # build_fleet's naming: "<mission>-<index>".
        return [f"{MISSION.lower()}-{i}" for i in range(self.streams)]


WORKLOADS = {
    w.name: w for w in (
        # The paper's mechanism: every stream owns a model and adapts it
        # when its score distribution drops after a strong
        # (Stealing -> Explosion) shift; the shifts are staggered ten
        # requests apart, so one stream's adaptation delays the others'
        # requests queued behind it.  The content is fixed: which
        # requests trigger a token update, and so how much work a run
        # does, is the same in every run.  The closed phase replays the
        # open phase's requests, a few seconds of work, on each of two
        # servers.
        Workload(
            name="edge-adapt",
            streams=4, windows=24, adaptive=True, wal=True, shards=1,
            rate=1.0, shifted="Explosion", pool_steps=0,
            shift_steps=(8, 18, 28, 38), content_seed=1, replicas=2),
        # Per-request overhead: 16 static streams share one model and
        # send 2 windows each, so framing, scheduling and coalescing
        # outweigh the forward pass; adaptation and the WAL do nothing.
        Workload(
            name="score-fanin",
            streams=16, windows=2, adaptive=False, wal=False, shards=1,
            rate=16.0, shifted="Robbery", pool_steps=64,
            shift_steps=(16,) * 16),
        # Bytes and FLOPs per request: 16-window batches cross the shm
        # ring to 2 shard workers and are journaled by group commit.  No
        # thread environment variable is set, so the BLAS thread
        # oversubscription of three processes on a small host shows.
        # That contention settles differently in each server, and some
        # run slow throughout, so each phase spans two servers.
        Workload(
            name="durable-shards",
            streams=4, windows=16, adaptive=False, wal=True, shards=2,
            rate=3.0, shifted="Robbery", pool_steps=48,
            shift_steps=(16,) * 4, replicas=2),
    )
}


def derive_seed(seed: int, *parts) -> int:
    text = "/".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


@dataclass
class StreamInputs:
    """One stream's requests: windows, ground-truth labels and whether
    each window arrived after the trend shift."""

    windows: list[np.ndarray]
    labels: list[np.ndarray]
    post_shift: list[bool]

    def step(self, index: int) -> int:
        return index % len(self.windows)


def build_inputs(pipeline, workload: Workload, seed: int,
                 steps: int) -> dict[str, StreamInputs]:
    """``steps`` distinct stream steps per stream, from the workload's
    content seed or, lacking one, the run seed."""
    content = seed if workload.content_seed is None else workload.content_seed
    out = {}
    for i, name in enumerate(workload.stream_names()):
        before = min(workload.shift_steps[i], steps)
        stream = pipeline.stream(
            MISSION, workload.shifted, windows_per_step=workload.windows,
            seed=derive_seed(content, workload.name, i),
            steps_before_shift=before, steps_after_shift=steps - before)
        batches = [stream.batch(step) for step in range(steps)]
        out[name] = StreamInputs(
            windows=[b.windows for b in batches],
            labels=[b.labels for b in batches],
            post_shift=[b.is_post_shift for b in batches])
    return out


def stream_offsets(workload: Workload, seed: int) -> list[float]:
    """Each stream's send offset within its period, as a share of it.

    Stream ``i`` sends in the ``i``-th of ``streams`` equal parts of the
    period: at its start when the content comes from the run seed, and
    at a point drawn from the run seed when the content is fixed.
    """
    n = workload.streams
    if workload.content_seed is None:
        return [i / n for i in range(n)]
    return [(i + derive_seed(seed, workload.name, "offset", i) / 2**32) / n
            for i in range(n)]
