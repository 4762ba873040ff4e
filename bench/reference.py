"""Fixed reference work that tracks how fast the host runs right now.

On a shared host the same op can take 1.5x longer for minutes at a time
when neighbours are busy, and every workload slows together. The
benchmark therefore interleaves short reference ops with the workload's
ops and scales each measured time by how slow the reference ran next to
it, which cancels that common swing. The reference code never changes
with the program under test, so a change to the program still moves the
calibrated figure.

The reference mimics the simulator's event loop: a heap of tuples, dict
payloads, small allocations and random draws. It also tracks the numpy
optimizer workload: over ten seeds its calibrated op time spread less
than when calibrated by a numpy reference of the same size.
"""

from __future__ import annotations

import heapq
import random


def python_reference(events: int = 6000) -> int:
    rng = random.Random(12345)
    heap: list[tuple] = []
    seen: dict[str, int] = {}
    log = []
    for i in range(64):
        heapq.heappush(heap, (rng.randint(1, 30), i, f"c{i % 8}",
                              {"type": "checkpoint", "epoch": 1}))
    seq = 64
    while heap and len(log) < events:
        time, _, target, payload = heapq.heappop(heap)
        payload = dict(payload)
        payload["src"] = target
        seen[target] = seen.get(target, 0) + 1
        log.append((time, target, payload["type"], payload.get("epoch")))
        seq += 1
        heapq.heappush(heap, (time + rng.randint(1, 3), seq, target, payload))
    return len(log)


# Duration of the reference op on a 2-core Xeon VM (Python 3.11).
# Calibrated times are measured times scaled by NOMINAL_S / (reference time
# measured alongside); the constant only fixes the scale, so calibrated
# figures read close to that VM's seconds.
NOMINAL_S = 0.008
