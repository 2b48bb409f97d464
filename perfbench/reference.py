"""The in-process reference every served reply is checked against.

The same commit builds the same fleet the server builds
(``build_fleet``) and feeds it the same windows through
``DeploymentFleet.ingest_round``, one round per request index.  The
gateway guarantees bit-identical scores whatever the batching, and an
adaptive stream's state depends only on its own accepted requests in
order, so this replay predicts every reply exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .workloads import MISSION, StreamInputs, Workload


@dataclass(frozen=True)
class Expected:
    scores: bytes          # float64 scores, as raw bytes for exact compare
    adapted: bool
    pruned: int


def replay(pipeline, workload: Workload, inputs: dict[str, StreamInputs],
           sequences: dict[str, list[int]]) -> dict[str, list[Expected]]:
    """Expected replies for each stream's ``sequences[stream]`` (indices
    into its inputs, in the order the server accepted them)."""
    from repro.serving import build_fleet

    fleet = build_fleet(pipeline, [MISSION], workload.streams,
                        adaptive=workload.adaptive,
                        windows_per_step=workload.windows)
    out: dict[str, list[Expected]] = {name: [] for name in sequences}
    rounds = max((len(seq) for seq in sequences.values()), default=0)
    for k in range(rounds):
        arrivals = {}
        for name, seq in sequences.items():
            if k < len(seq):
                stream = inputs[name]
                arrivals[name] = stream.windows[stream.step(seq[k])]
        events = fleet.ingest_round(arrivals)
        for name in arrivals:
            event = events[name]
            log = event.log
            out[name].append(Expected(
                scores=np.asarray(event.scores, dtype=np.float64).tobytes(),
                adapted=bool(log.updated) if log is not None else False,
                pruned=len(log.pruned) if log is not None else 0))
    fleet.close()
    return out


def reply_matches(reply: dict, expected: Expected) -> bool:
    """Bit-for-bit score equality plus the adaptation fields."""
    scores = np.asarray(reply.get("scores"), dtype=np.float64)
    return (scores.tobytes() == expected.scores
            and bool(reply.get("adapted")) == expected.adapted
            and int(reply.get("pruned", 0)) == expected.pruned)
