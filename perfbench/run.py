"""Out-of-process serving benchmark for the ``repro gateway`` server.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload score-fanin --seed 1 --seconds 20 --trace 0

Each run starts the server as its own process tree through the public
``repro gateway`` command (fresh for every phase), drives it from one
process with at most two threads and two connections, checks every
reply bit for bit against an in-process replay of the same inputs, and
prints one JSON object as its last line of output:

* ``--trace 0``: the end-to-end metrics (open-loop latency at a fixed
  offered rate, closed-loop capacity, set-up time, quality, memory);
* ``--trace 1``: the per-layer metrics, from a separate traced run (the
  server's spans and ``stats`` op, the replies' adaptation fields, and
  timing wrappers around layer functions in the in-process replay).

Exit status is nonzero, with no result line, when the source tree or the
server is missing or broken.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so every server tree it started
    # is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    source = root / "src"
    if not (source / "repro" / "cli.py").is_file():
        print(f"error: no repro source tree under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    state = root / ".perfbench"
    rundir = state / "runs" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        result, report = bench.run(workload, seed=args.seed,
                                   seconds=args.seconds,
                                   traced=bool(args.trace), source=source,
                                   state=state, rundir=rundir)
    except bench.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    reports = state / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (reports / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}"
               ".json").write_text(json.dumps(report, indent=2, default=str))
    for line in bench.summary_lines(report):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
