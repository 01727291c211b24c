"""The benchmark's yardstick: a fixed task that uses no ``repro`` code.

``run.py`` starts this file as a fresh interpreter before and after
every timed child and divides the child's time by the printed figure,
the median of three timings of the task in seconds.  The task is shaped
like the programs (an event loop over a heap and a dict of tuples, then
a JSON export), so it slows down with the host's CPU as they do.  Its
data fit in a core's own caches: a task with a larger working set
reacted more than the programs to changes in the host's speed.  A fresh
process per checkpoint keeps one process's memory layout from biasing
a whole run.

Usage::

    python3 layerbench/yardstick.py
"""

from __future__ import annotations

import heapq
import json
import random
import statistics
import time


def task_s() -> float:
    """Seconds the task takes on this host now."""
    start = time.perf_counter()
    rng = random.Random(12345)
    table = {i: (i, rng.random(), str(i)) for i in range(2_000)}
    heap = [(rng.random(), i) for i in range(512)]
    heapq.heapify(heap)
    for step in range(100_000):
        when, who = heapq.heappop(heap)
        key = (who * 7_919 + step) % 2_000
        old = table[key]
        table[key] = (old[0] + 1, when, old[2])
        heapq.heappush(heap, (when + rng.random(), key))
    for _ in range(2):
        json.loads(json.dumps([{"k": k, "v": v[1]} for k, v in table.items()]))
    return time.perf_counter() - start


if __name__ == "__main__":
    print(statistics.median(task_s() for _ in range(3)))
