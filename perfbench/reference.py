"""The reference loop: the benchmark's yardstick for the machine's speed.

On a machine shared with other work the host runs at a speed that
drifts — by up to half over minutes — and the drift reaches every
process alike, CPU time included.  The benchmark therefore times the
simulator's window against this loop, run in the same process at
intervals through the window (and kept out of the window's time): a
fixed pure-Python event loop (a heap of timed events, small
objects, a dict of records) that shares no code with the program, so no
change to the program can move it.

Never edit this file: its time is the unit of ``sim_ops_per_ref``, and
a different loop is a different unit.
"""

from __future__ import annotations

import heapq
import time

#: Events one call fires.
EVENTS = 20_000


class _Node:
    __slots__ = ("inbox", "count")

    def __init__(self) -> None:
        self.inbox: list = []
        self.count = 0


def reference_seconds() -> float:
    """Host seconds one pass of the fixed event loop takes."""
    start = time.perf_counter()
    nodes = [_Node() for _ in range(64)]
    heap = [(float(i), i, i % 64) for i in range(256)]
    heapq.heapify(heap)
    seq, log = 256, {}
    for _ in range(EVENTS):
        t, _, nid = heapq.heappop(heap)
        node = nodes[nid]
        node.count += 1
        node.inbox.append((t, nid))
        if len(node.inbox) > 8:
            node.inbox.clear()
        log[(nid, node.count * 40503 % 32)] = {"t": t, "n": node.count}
        seq += 1
        delay = 1.0 + seq * 2654435761 % 97 / 10.0
        heapq.heappush(heap, (t + delay, seq, (nid * 31 + seq) % 64))
    return time.perf_counter() - start

