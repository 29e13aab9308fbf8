"""Submit-all FIFO dispatch of canonical micro-shards.

:class:`WorkQueue` is the scheduler behind
:class:`~repro.parallel.backend.ProcessBackend`.  It keeps the
determinism contract of :mod:`repro.parallel.scheduler`: the canonical
``plan_shards`` micro-shards are the unit of computation, each executed
by exactly the same calls a serial run makes.  Every micro-shard becomes
one pool task, and all of them are submitted at once, in plan order, to
the executor's single shared queue.  An idle worker simply takes the
next queued shard; with one shared queue that is all the work stealing
skewed shard costs need.  Outcomes are read back future by future in
index order, so completion order decides only *when* a shard runs,
never *what* is merged — bitwise identical to serial for any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class QueueStats:
    """Cumulative scheduler counters (telemetry only, never results)."""

    maps: int = 0
    tasks: int = 0
    items: int = 0

    def record(self, shards: int) -> None:
        """Count one map of ``shards`` micro-shards (one task each)."""
        self.maps += 1
        self.tasks += shards
        self.items += shards

    def as_dict(self) -> dict:
        return {"maps": self.maps, "tasks": self.tasks, "items": self.items}


class WorkQueue:
    """Parent-side FIFO scheduler over an executor.

    ``run(submit, tasks)`` drives one map: ``submit(i)`` must return a
    :class:`~concurrent.futures.Future` resolving to micro-shard ``i``'s
    outcome.  The queue owns *when* each index goes out (all of them,
    in plan order, before the first result is awaited); the caller owns
    *how* it executes (pool worker, thread, …).  Task errors propagate
    from the first failing index.  ``stats`` is updated by the owner of
    the queue, under its own lock, so concurrent maps count exactly.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.stats = QueueStats()

    @staticmethod
    def run(submit, tasks: list) -> list:
        """Submit every micro-shard; outcomes in index order."""
        futures = [submit(index) for index in range(len(tasks))]
        return [future.result() for future in futures]


__all__ = ["QueueStats", "WorkQueue"]
