"""One benchmark run: set-up samples, the open and closed phases, the
reference check, and the metrics they yield.

Phase layout for ``--seconds S``, each phase on a fresh server warmed
by a short burst of ``scores`` requests:

* ``open``: for ``0.75 S`` seconds each stream sends requests at its
  fixed rate (camera-like periodic arrivals, each stream at its own
  offset within the period), each timed from its due time;
* ``closed``: every stream keeps one request in flight for ``0.75 S``
  seconds (an adaptive stream replays the open phase's sequence and
  stops at its end);
* set-up: every server launch, and more launches until
  ``SETUP_SAMPLES`` are in hand.

A workload with ``replicas`` > 1 spreads each phase over that many
fresh servers in turn (open and closed alternating), each serving an
equal share of the phase, so one server that runs slow throughout
(a bad draw of thread placement on a small host) moves a share of the
samples rather than all of them.  An adaptive workload plays its open
schedule whole on one server, and replays it closed-loop on each of
the ``replicas`` servers.

The traced run (``--trace 1``) repeats the closed phase untraced and
traced (the difference is the tracing overhead), traces the open phase,
and replays the inputs in-process under timing wrappers.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from . import layers, stats
from .loadgen import Clock, PhaseResult, Request, run_closed, run_open
from .reference import replay, reply_matches
from .server import GatewayConn, ServerError, ServerProcess
from .workloads import MISSION, Workload, build_inputs, stream_offsets

LISTEN_TIMEOUT_S = 60.0
#: Wall-clock time a phase gets past its schedule before the server tree
#: is killed and its outstanding requests count as failed.
PHASE_GRACE_S = 20.0
SETUP_SAMPLES = 3
OPEN_SHARE = CLOSED_SHARE = 0.75
#: Open-phase latency is a median over at most this many consecutive
#: slices of the schedule.
SLICES = 4
#: Before each measured phase every stream sends ``scores`` requests
#: closed-loop for this long: the server's lazy state (BLAS thread pools,
#: first-touch pages) warms up, and no deployment state changes.
WARMUP_S = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    """The run could not produce a result (server missing or broken)."""


@dataclass
class PhaseRun:
    result: PhaseResult
    peak_rss_mb: float
    stats: dict | None
    clean_exit: bool
    warmup: PhaseResult | None = None
    stats_before: dict | None = None   # after the warm-up, before measuring
    snapshot_bytes: int = 0
    spans: list | None = None


def environment(source: Path) -> dict:
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, AttributeError):   # numpy without mode="dicts"
        pass
    digest = hashlib.sha256()
    for path in sorted(source.rglob("*.py")):
        digest.update(path.relative_to(source).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    root = source.parent
    if (root / ".git").exists():   # never let git search above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu_count": os.cpu_count(), "numpy": np.__version__,
            "blas": blas, "python": platform.python_version(),
            "thread_env": {k: os.environ[k] for k in THREAD_VARS
                           if k in os.environ},
            "git_commit": commit, "source_sha256": digest.hexdigest()[:16]}


def warm_pipeline(state: Path):
    """The cloud side: train (first run in a checkout) or load the
    mission model, outside every timed window."""
    from repro.api import Pipeline, ReproConfig

    config = ReproConfig()
    config.registry_dir = str(state / "registry")
    pipeline = Pipeline(config)
    pipeline.train(MISSION)
    return pipeline


class Runner:
    def __init__(self, workload: Workload, source: Path, state: Path,
                 rundir: Path):
        self.workload = workload
        self.source = source
        self.registry = state / "registry"
        self.rundir = rundir
        self.launches = 0
        self.setup_samples: list[float] = []

    def _server(self, tag: str, trace: bool) -> tuple[ServerProcess, Path]:
        self.launches += 1
        workdir = self.rundir / f"{self.launches:02d}-{tag}"
        args = self.workload.server_args() + [
            "--set", f"registry_dir={self.registry}"]
        if self.workload.wal:
            args += ["--wal-dir", str(workdir / "wal")]
        if trace:
            args += ["--trace-dir", str(workdir / "trace")]
        return ServerProcess(args, workdir, self.source), workdir

    def _connect(self, address: tuple[str, int]) -> GatewayConn:
        conn = GatewayConn(address, timeout=LISTEN_TIMEOUT_S)
        try:
            conn.attach(self.workload.stream_names())
        except BaseException:
            conn.close()
            raise
        conn.set_timeout(PHASE_GRACE_S)
        return conn

    def _start(self, server: ServerProcess) -> tuple[tuple[str, int],
                                                     GatewayConn]:
        """Launch and attach every stream: one set-up sample."""
        server.start()
        address = server.wait_listening(LISTEN_TIMEOUT_S)
        conn = self._connect(address)
        self.setup_samples.append(time.perf_counter() - server.launched_at)
        return address, conn

    def setup_only(self) -> None:
        server, _ = self._server("setup", trace=False)
        try:
            address, conn = self._start(server)
            conn.close()
            server.stop(address, timeout=PHASE_GRACE_S)
        except (ServerError, OSError) as exc:
            raise BenchError(f"set-up server failed: {exc}")
        finally:
            server.kill()

    def phase(self, tag: str, drive, warm, trace: bool = False) -> PhaseRun:
        """Launch a fresh server, warm it with ``warm(conn)``, measure
        ``drive(conn)`` over a second connection, collect the server
        side, and stop the tree (killing it if it will not drain)."""
        server, workdir = self._server(tag, trace)
        try:
            # No collector pauses in the generator while it measures;
            # the records hold no reference cycles.
            gc.disable()
            try:
                address, conn = self._start(server)
                warmup = warm(conn)
                before = None if warmup.timed_out else server_stats(address)
                conn = self._connect(address)
                result = drive(conn)
            except (ServerError, OSError) as exc:
                raise BenchError(f"{tag} server failed: {exc}")
            finally:
                gc.enable()
                gc.collect()
            rss = server.peak_rss_mb()
            after = None if result.timed_out else server_stats(address)
            if result.timed_out:
                server.kill()
                clean = False
            else:
                clean = server.stop(address, timeout=PHASE_GRACE_S)
        finally:
            server.kill()
        run = PhaseRun(result=result, peak_rss_mb=rss, stats=after,
                       clean_exit=clean, warmup=warmup, stats_before=before)
        wal = workdir / "wal"
        if wal.is_dir():
            run.snapshot_bytes = snapshot_frame_bytes(wal)
        trace_file = workdir / "trace" / "trace.jsonl"
        if trace and trace_file.is_file():
            from repro.obs.export import load_jsonl
            run.spans = load_jsonl(trace_file)
        return run


#: A snapshot record is a JSON object that starts with its kind.
SNAPSHOT_HEAD = b'{"kind": "snapshot"'


def snapshot_frame_bytes(wal_dir: Path) -> int:
    """Size in the log of the newest snapshot record, frame header
    included (0 if none).  A snapshot always opens a fresh segment, so
    only each segment's first frame is read."""
    from repro.wal import FRAME_HEADER

    size = 0
    for path in sorted(p for p in wal_dir.iterdir() if p.is_file()):
        with open(path, "rb") as segment:
            header = segment.read(FRAME_HEADER.size)
            head = segment.read(len(SNAPSHOT_HEAD))
        if len(header) == FRAME_HEADER.size and head == SNAPSHOT_HEAD:
            size = FRAME_HEADER.size + FRAME_HEADER.unpack(header)[0]
    return size


def server_stats(address: tuple[str, int]) -> dict | None:
    """The server's ``stats`` reply, or ``None`` if it will not give one."""
    try:
        control = GatewayConn(address, timeout=PHASE_GRACE_S)
        try:
            return control.call("stats")
        finally:
            control.close()
    except (OSError, ServerError):
        return None


def open_plan(workload: Workload, inputs, steps: range, offsets,
              traced: bool) -> list[Request]:
    """Each stream's requests ``steps`` on its schedule, which starts at
    the first of them."""
    names = workload.stream_names()
    plan = []
    for k in steps:
        for i, name in enumerate(names):
            stream = inputs[name]
            request = Request(
                id=k * len(names) + i, stream=name, index=k,
                windows=stream.windows[stream.step(k)],
                due=(k - steps.start + offsets[i]) / workload.rate)
            if traced:
                request.trace = layers.client_context()
            plan.append(request)
    return plan


def closed_maker(workload: Workload, inputs, traced: bool,
                 op: str = "ingest"):
    names = workload.stream_names()
    position = {name: i for i, name in enumerate(names)}

    def make(name: str, index: int) -> Request:
        stream = inputs[name]
        request = Request(id=index * len(names) + position[name],
                          stream=name, index=index,
                          windows=stream.windows[stream.step(index)], op=op)
        if traced:
            request.trace = layers.client_context()
        return request
    return make


def accepted_sequences(records) -> dict[str, list[int]]:
    """Per stream, the indices the server accepted, in send order: an
    adaptive stream's state evolves over exactly these."""
    out: dict[str, list[int]] = {}
    for record in sorted(records, key=lambda r: r.request.id):
        if record.ok:
            out.setdefault(record.request.stream, []).append(
                record.request.index)
    return out


def check_replies(pipeline, workload: Workload, inputs,
                  phases: list[PhaseResult], timers=None) -> int:
    """Replay the inputs in-process and count replies that differ from
    the reference in any bit."""
    names = workload.stream_names()
    if not workload.adaptive:
        pool = len(next(iter(inputs.values())).windows)
        with layers.timed(timers):
            expected = replay(pipeline, workload, inputs,
                              {name: list(range(pool)) for name in names})
        return sum(count_mismatches(
            phase.records,
            lambda r: expected[r.request.stream][r.request.index % pool])
            for phase in phases)
    # Adaptive: one replay per distinct accepted history; a phase whose
    # histories are prefixes of another's shares its replay.
    sequences = [accepted_sequences(phase.records) for phase in phases]
    longest = {name: max((seq.get(name, []) for seq in sequences), key=len)
               for name in names}
    mismatches = 0
    cache: dict[int, dict] = {}
    for phase, seq in zip(phases, sequences):
        prefix = all(longest[n][:len(seq.get(n, []))] == seq.get(n, [])
                     for n in names)
        key = 0 if prefix else id(seq)
        if key not in cache:
            with layers.timed(timers if not cache else None):
                cache[key] = replay(pipeline, workload, inputs,
                                    longest if prefix else seq)
        expected = cache[key]
        rank: dict[int, int] = {}
        seen: dict[str, int] = {}
        for record in sorted(phase.records, key=lambda r: r.request.id):
            if record.ok:
                name = record.request.stream
                rank[record.request.id] = seen.get(name, 0)
                seen[name] = rank[record.request.id] + 1
        mismatches += count_mismatches(
            phase.records,
            lambda r: expected[r.request.stream][rank[r.request.id]])
    return mismatches


def count_mismatches(records, expected_of) -> int:
    """Acked replies whose scores or adaptation fields differ from
    ``expected_of(record)``."""
    return sum(1 for r in records
               if r.ok and not reply_matches(r.reply, expected_of(r)))


def tally(records, mismatches: int) -> tuple[int, int, dict[str, int]]:
    """``(attempted, failed, outcome counts)``: a request fails when it
    errored, was refused, got no reply, was never sent before the
    deadline, or was answered with output that differs from the
    reference."""
    codes: dict[str, int] = {}
    for r in records:
        codes[r.code] = codes.get(r.code, 0) + 1
    failed = sum(1 for r in records if not r.ok) + mismatches
    return len(records), failed, codes


def schedule_slices(records, need: int, most: int = SLICES) -> list[list]:
    """Consecutive slices of the open schedule (in due order): ``most``
    of them, or fewer so that each holds at least ``need`` requests."""
    ordered = sorted(records, key=lambda r: r.request.due)
    k = max(1, min(most, len(ordered) // need))
    n = len(ordered)
    return [ordered[i * n // k:(i + 1) * n // k] for i in range(k)]


def slo_met_share(records, limit_s: float) -> float:
    """Share of offered requests acked within ``limit_s`` of their due
    time; failed and unsent requests miss."""
    met = sum(1 for r in records if r.ok and r.latency <= limit_s)
    return met / len(records)


def latency_block(groups) -> dict:
    """Open-phase latency percentiles of acked requests; ``groups`` holds
    each replica server's records.

    p50 and p95 are taken in every slice of a replica's schedule big
    enough for ten samples beyond the percentile, and the median over
    all slices is reported, so a stall of a few seconds on a shared
    host moves one slice rather than the figure.  When failures thin a
    slice below that, the pooled value is reported and flagged
    ``short``.  p99 is pooled, and reported only from 1,000 samples.
    """
    lat = [r.latency * 1e3 for group in groups for r in group if r.ok]
    block = {"n": len(lat), "short": [], "slices": {}}
    for key, q in (("p50_ms", 0.50), ("p95_ms", 0.95)):
        need = math.ceil(stats.MIN_BEYOND / (1 - q))
        parts = [part for group in groups
                 for part in schedule_slices(group, need)]
        values = [stats.percentile([r.latency * 1e3 for r in part if r.ok], q)
                  for part in parts]
        if None in values:
            value = stats.percentile(lat, q, min_beyond=0) if lat else None
            block["short"].append(key)
        else:
            value = stats.median(values)
        block[key] = value
        block["slices"][key] = len(parts)
        block.setdefault("slice_values", {})[key] = values
    block["p99_ms"] = stats.percentile(lat, 0.99)
    return block


def post_shift_auc(workload: Workload, inputs, records) -> float | None:
    scores, labels = [], []
    for r in records:
        if not r.ok:
            continue
        stream = inputs[r.request.stream]
        step = stream.step(r.request.index)
        if stream.post_shift[step]:
            scores.extend(float(s) for s in r.reply["scores"])
            labels.extend(int(x) for x in stream.labels[step])
    if len(set(labels)) < 2:
        return None   # the phase never reached the trend shift
    return stats.roc_auc(scores, labels)


def windows_per_s(phases: list[PhaseResult], duration: float,
                  limits: dict[str, int] | None = None) -> float:
    """Closed-loop throughput: windows acked within each phase's measured
    window ``[start, start + duration]``, per second of those windows.

    With ``limits`` (an adaptive workload replays a fixed number of
    requests per stream), a phase in which every stream had all of its
    requests acked ends at the last ack instead.  Otherwise the window
    is fixed, so a server that stalls or stops answering part way
    through loses that time from the figure.
    """
    windows = seconds = 0.0
    for phase in phases:
        acked, measured = _acked_windows(phase, duration, limits)
        windows += acked
        seconds += measured
    return windows / seconds


def _acked_windows(phase: PhaseResult, duration: float,
                   limits: dict[str, int] | None) -> tuple[int, float]:
    ok = [r for r in phase.records if r.ok]
    end = phase.started_at + duration
    if limits is not None:
        acked: dict[str, int] = {}
        for r in ok:
            acked[r.request.stream] = acked.get(r.request.stream, 0) + 1
        if ok and all(acked.get(s, 0) >= n for s, n in limits.items()):
            end = min(end, max(r.acked_at for r in ok))
    windows = sum(int(r.request.windows.shape[0]) for r in ok
                  if r.acked_at <= end)
    return windows, end - phase.started_at


def run(workload: Workload, seed: int, seconds: float, traced: bool,
        source: Path, state: Path, rundir: Path) -> tuple[dict, dict]:
    clock = Clock()
    marks = {"start": clock.now()}
    env = environment(source)
    pipeline = warm_pipeline(state)
    marks["warm"] = clock.now()
    open_s = seconds * OPEN_SHARE
    per_stream = max(1, int(round(open_s * workload.rate)))
    steps = workload.pool_steps or per_stream
    inputs = build_inputs(pipeline, workload, seed, steps)
    offsets = stream_offsets(workload, seed)
    runner = Runner(workload, source, state, rundir)
    marks["inputs"] = clock.now()
    closed_s = seconds * CLOSED_SHARE
    limits = ({name: per_stream for name in workload.stream_names()}
              if workload.adaptive else None)
    replicas = 1 if traced else workload.replicas

    def drive_open(steps: range, trace=False):
        def drive(conn):
            plan = open_plan(workload, inputs, steps, offsets, trace)
            return run_open(conn, plan, clock,
                            deadline=len(steps) / workload.rate
                            + PHASE_GRACE_S)
        return drive

    def warm(conn):
        return run_closed(conn, workload.stream_names(),
                          closed_maker(workload, inputs, False, op="scores"),
                          clock, duration=WARMUP_S,
                          deadline=WARMUP_S + PHASE_GRACE_S)

    def drive_closed(duration: float, trace=False):
        def drive(conn):
            return run_closed(conn, workload.stream_names(),
                              closed_maker(workload, inputs, trace), clock,
                              duration=duration,
                              deadline=duration + PHASE_GRACE_S,
                              limits=limits)
        return drive

    report = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "traced": traced, "replicas": replicas, "environment": env,
              "offered_rps_per_stream": workload.rate,
              "latency_limit_ms": workload.period * 1e3}
    whole = range(per_stream)
    if traced:
        base = runner.phase("closed-untraced", drive_closed(closed_s), warm)
        open_run = runner.phase("open-traced", drive_open(whole, True),
                                warm, trace=True)
        closed_run = runner.phase("closed-traced",
                                  drive_closed(closed_s, True), warm,
                                  trace=True)
        opens = [open_run]
        phases = [base, open_run, closed_run]
    else:
        # Each closed replica of an adaptive workload replays the whole
        # capped sequence; a static one serves its share of the time.
        spread = 1 if workload.adaptive else replicas
        bounds = [j * per_stream // spread for j in range(spread + 1)]
        closed_each = closed_s / spread
        opens, closeds = [], []
        for j in range(replicas):
            if j < spread:
                opens.append(runner.phase(
                    f"open-{j}", drive_open(range(bounds[j], bounds[j + 1])),
                    warm))
            closeds.append(runner.phase(f"closed-{j}",
                                        drive_closed(closed_each), warm))
        phases = opens + closeds
    marks["phases"] = clock.now()
    while len(runner.setup_samples) < SETUP_SAMPLES:
        runner.setup_only()
    marks["setups"] = clock.now()

    timers = layers.Timers() if traced else None
    mismatches = check_replies(pipeline, workload, inputs,
                               [p.result for p in phases], timers)
    marks["reference"] = clock.now()
    names = list(marks)
    report["timings_s"] = {b: marks[b] - marks[a]
                           for a, b in zip(names, names[1:])}
    # Warm-up requests count as attempted and, if refused, as failed;
    # only the measured phases' replies are checked against the replay.
    records = [r for p in phases
               for r in p.warmup.records + p.result.records]
    attempted, failed, codes = tally(records, mismatches)
    measured = [r for run in opens for r in run.result.records]
    report.update({
        "attempted": attempted, "failed": failed,
        "mismatches": mismatches, "outcomes": codes,
        "timed_out_phases": sum(1 for p in phases if p.result.timed_out),
        "unclean_exits": sum(1 for p in phases if not p.clean_exit),
        "setup_samples_s": runner.setup_samples,
        "warmup_requests": sum(len(p.warmup.records) for p in phases),
        "first_failures": [
            {"stream": r.request.stream, "index": r.request.index,
             "op": r.request.op, "due_s": r.request.due, "code": r.code}
            for r in records if not r.ok][:10],
        "open": latency_block([run.result.records for run in opens]),
        # Every open-phase request: server, stream, index, due offset,
        # outcome and latency in ms (None unless acked).
        "open_requests": [
            [j, r.request.stream, r.request.index, r.request.due, r.code,
             r.latency * 1e3 if r.ok else None]
            for j, run in enumerate(opens) for r in run.result.records],
    })
    if traced:
        layer = layers.per_layer(
            workload, base, open_run, closed_run, timers,
            lambda phase: windows_per_s([phase], closed_s, limits))
        metrics = layer.pop("metrics")
        report["per_layer"] = layer
    else:
        metrics = {
            "setup_s": (stats.median(runner.setup_samples), "s"),
            "ingest_p50_ms": (report["open"]["p50_ms"], "ms"),
            "slo_met_share": (slo_met_share(measured, workload.period),
                              "share"),
            "windows_per_s": (windows_per_s(
                [run.result for run in closeds], closed_each, limits),
                "1/s"),
            "post_shift_auc": (post_shift_auc(workload, inputs, measured),
                               "auc"),
            "server_rss_mb": (stats.median([run.peak_rss_mb
                                            for run in phases]), "MB"),
        }
        report["fail_share"] = failed / attempted
        report["late_p95_ms"] = stats.percentile(
            [r.lateness * 1e3 for r in measured if r.lateness is not None],
            0.95)
    missing = [name for name, (value, _) in metrics.items()
               if value is None or not math.isfinite(value)]
    if missing:
        raise BenchError(f"no finite value for {', '.join(missing)}: "
                         f"{report['outcomes']}")
    report["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    result = {"correct": mismatches == 0, "attempted": attempted,
              "failed": failed, "metrics": report["metrics"]}
    return result, report


def summary_lines(report: dict) -> list[str]:
    env = report["environment"]
    lines = [
        f"# {report['workload']} seed={report['seed']} "
        f"seconds={report['seconds']} traced={report['traced']} "
        f"servers_per_phase={report['replicas']}",
        f"# host: cpu_count={env['cpu_count']} numpy={env['numpy']} "
        f"blas={env['blas'].get('name')} {env['blas'].get('version')} "
        f"python={env['python']} thread_env={env['thread_env'] or 'unset'} "
        f"commit={env['git_commit'] or 'n/a'} "
        f"source={env['source_sha256']}",
        f"# offered {report['offered_rps_per_stream']:g} req/s per stream, "
        f"latency limit {report['latency_limit_ms']:.0f} ms",
        f"# attempted={report['attempted']} failed={report['failed']} "
        f"mismatches={report['mismatches']} outcomes={report['outcomes']}",
    ]
    block = report["open"]
    parts = [f"n={block['n']}"]
    for key, need in (("p50_ms", 20), ("p95_ms", 200), ("p99_ms", 1000)):
        value = block[key]
        if value is None:
            parts.append(f"{key}=n/a(needs n>={need})")
        elif key in block["short"]:
            parts.append(f"{key}={value:.3f}(pooled, SHORT SAMPLE)")
        elif block["slices"].get(key, 1) > 1:
            parts.append(f"{key}={value:.3f}(median of "
                         f"{block['slices'][key]} slices)")
        else:
            parts.append(f"{key}={value:.3f}(pooled)")
    lines.append("# open-phase ingest latency: "
                 + " ".join(parts))
    targets = report.get("per_layer", {}).get("targets", {})
    for name, metric in report["metrics"].items():
        target = f"  -> {targets[name]}" if name in targets else ""
        lines.append(f"# {name} = {metric['value']:.6g} {metric['unit']}"
                     f"{target}")
    breakdown = report.get("per_layer", {}).get("breakdown")
    if breakdown:
        shares = " ".join(f"{name}={share:.3f}" for name, share in
                          breakdown["breakdown_share"].items())
        lines.append(f"# round-trip breakdown over "
                     f"{breakdown['requests_joined']} traced requests "
                     f"(self-time shares, sum to 1 within "
                     f"{breakdown['breakdown_max_gap_s']:.1e} s per "
                     f"request): {shares}")
    return lines
