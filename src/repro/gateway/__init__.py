"""Network serving gateway: a deployment fleet behind a TCP socket.

PRs 1–3 built the in-process serving stack — ``Deployment`` →
``DeploymentFleet`` (micro-batched) → ``ShardedFleet`` (multi-process) —
but every deployment was still driven by the caller's own loop.  This
package is the ingestion front door a production stack hangs off it,
stdlib + numpy only:

:mod:`~repro.gateway.protocol`
    Versioned wire format — length-prefixed JSON frames (protocol v1)
    and binary frames with raw float64 window/score buffers (protocol
    v2, negotiated at ``attach``, JSON fallback for old peers) — with
    ops for ``ingest``, ``scores``, ``attach``/``detach``, ``stats``
    and ``shutdown``, plus typed error frames.
:class:`GatewayServer`
    Asyncio TCP server fronting a :class:`~repro.serving.DeploymentFleet`
    or :class:`~repro.serving.ShardedFleet`: concurrently arriving
    windows coalesce into micro-batched fleet rounds (scores
    bit-identical to a direct ``fleet.step()``), bounded per-stream
    queues reject overload with ``backpressure`` frames, and shutdown
    drains gracefully.
:class:`GatewayClient` / :class:`LoadGenerator`
    Blocking client SDK and the multi-connection open-loop load
    generator behind ``repro loadgen``.
:class:`MetricsRegistry`
    Re-exported from :mod:`repro.metrics` (promoted out of the gateway):
    counters, gauges and p50/p95/p99 latency histograms shared by every
    serving layer and surfaced through the ``stats`` op.
:func:`run_gateway_benchmark`
    The latency/throughput curve over client-concurrency levels written
    as ``BENCH_5.json``, engine metrics included.
:func:`run_durability_benchmark`
    The WAL durability A/B profile written as ``BENCH_6.json``: the
    identical load served with and without ``wal_dir`` (see
    :mod:`repro.wal`), recording the ack-after-append fsync overhead
    and verifying the log it paid for actually recovers.
:func:`run_codec_ab_benchmark`
    The wire codec A/B profile written as ``BENCH_7.json``: the same
    parity-verified load served over JSON and over binary frames at
    small and large window batches (plus a shared-memory sharded side),
    recording the latency/throughput delta the binary codec buys.
:func:`run_pipeline_ab_benchmark`
    The pipelined-rounds A/B profile written as ``BENCH_10.json``: a
    serial/pipelined x codec x inline/sharded parity matrix, a
    rate-paced WAL A/B measuring what the async group commit buys, and
    a crash-recovery drill against a pipelined engine.

The server itself no longer owns a round loop: requests feed the fleet's
:class:`repro.runtime.ServingEngine` admission queues, and a pluggable
:class:`~repro.runtime.SchedulingPolicy` (``policy="fair"|"greedy"|
"priority"``) composes the rounds.
"""

from .client import (
    DEFAULT_CODEC_AB_BENCH_PATH,
    DEFAULT_DURABILITY_BENCH_PATH,
    DEFAULT_GATEWAY_BENCH_PATH,
    DEFAULT_PIPELINE_AB_BENCH_PATH,
    GatewayClient,
    GatewayError,
    LoadGenConfig,
    LoadGenerator,
    LoadGenResult,
    format_codec_ab_benchmark,
    format_durability_benchmark,
    format_gateway_benchmark,
    format_pipeline_ab_benchmark,
    run_codec_ab_benchmark,
    run_durability_benchmark,
    run_gateway_benchmark,
    run_pipeline_ab_benchmark,
)
from ..metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    percentile,
)
from .protocol import (
    CODECS,
    ERROR_CODES,
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    FrameError,
    RequestError,
)
from .server import (
    DEFAULT_MAX_QUEUE_DEPTH,
    GatewayHandle,
    GatewayServer,
    serve_in_thread,
)

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "CODECS",
    "MAX_FRAME_BYTES",
    "OPS",
    "ERROR_CODES",
    "FrameError",
    "RequestError",
    "GatewayServer",
    "GatewayHandle",
    "serve_in_thread",
    "DEFAULT_MAX_QUEUE_DEPTH",
    "GatewayClient",
    "GatewayError",
    "LoadGenConfig",
    "LoadGenerator",
    "LoadGenResult",
    "run_gateway_benchmark",
    "format_gateway_benchmark",
    "DEFAULT_GATEWAY_BENCH_PATH",
    "run_durability_benchmark",
    "format_durability_benchmark",
    "DEFAULT_DURABILITY_BENCH_PATH",
    "run_codec_ab_benchmark",
    "format_codec_ab_benchmark",
    "DEFAULT_CODEC_AB_BENCH_PATH",
    "run_pipeline_ab_benchmark",
    "format_pipeline_ab_benchmark",
    "DEFAULT_PIPELINE_AB_BENCH_PATH",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "percentile",
]
