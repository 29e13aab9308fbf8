"""Submit-all FIFO work queue: scheduling freedom never changes results.

The contract under test: :class:`repro.parallel.queue.WorkQueue`
submits every micro-shard up front, in plan order, and completions may
arrive in any order — yet the outcome list is still exactly
``[f(task_0), f(task_1), ...]`` with every index contributed exactly
once.  The hypothesis property drives the real scheduler over a thread
pool with generated per-item costs and worker counts, so completion
orders vary wildly across examples while the merged output may not
vary at all.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.resnet import build_model
from repro.parallel import ShardTask, WorkQueue
from repro.parallel.backend import ProcessBackend, SerialBackend, set_backend
from repro.train.trainer import evaluate_accuracy

pytestmark = pytest.mark.queue


def test_policy_validation() -> None:
    """The worker count, the queue's only parameter, is validated."""
    with pytest.raises(ValueError):
        WorkQueue(0)


# ----------------------------------------------------------------------
# The scheduler over a thread pool (in-process, fast, order-chaotic)
# ----------------------------------------------------------------------


def _expected(index: int) -> tuple:
    return (index, (index * 31 + 7) % 1009)


def _run_threaded(
    tasks: list,
    workers: int,
    sleeps_ms: list,
    execution_log: list | None = None,
):
    """Drive the real WorkQueue with a ThreadPoolExecutor backend.

    ``execution_log`` receives ``(index, thread name)`` per execution.
    """
    queue = WorkQueue(workers)
    lock = threading.Lock()

    def run_one(index: int) -> tuple:
        if sleeps_ms[index]:
            time.sleep(sleeps_ms[index] / 1e3)
        if execution_log is not None:
            with lock:
                execution_log.append((index, threading.current_thread().name))
        return (_expected(index), {"index": index})

    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = queue.run(lambda index: pool.submit(run_one, index), tasks)
    return queue, outcomes


@given(
    n=st.integers(0, 24),
    workers=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_merge_bitwise_order_independent(n, workers, seed) -> None:
    """Any completion order → identical merge, each index run once.

    Random sleeps scramble completion order; the outcome list must
    always equal the serial map.
    """
    rng = np.random.default_rng(seed)
    sleeps_ms = [float(s) for s in rng.integers(0, 4, size=n)]
    tasks = [ShardTask("synthetic", {"index": i}) for i in range(n)]
    log: list = []
    _queue, outcomes = _run_threaded(tasks, workers, sleeps_ms, log)
    assert outcomes == [(_expected(i), {"index": i}) for i in range(n)]
    assert sorted(index for index, _thread in log) == list(range(n))


def test_submits_every_shard_before_awaiting_any() -> None:
    """All ``n`` shards are in flight at once, not only ``workers`` of them.

    Each task blocks until every submit has happened.  A dispatcher that
    waits for a free slot before submitting the next shard (one parent
    round trip per task) never reaches ``n`` submits and times out.
    """
    n, workers = 6, 2
    submitted = threading.Event()
    count = 0

    def run_one(index: int) -> int:
        if not submitted.wait(timeout=5.0):
            raise TimeoutError(f"shard {index}: only {count} of {n} submitted")
        return index

    with ThreadPoolExecutor(max_workers=n) as pool:

        def submit(index):
            nonlocal count
            future = pool.submit(run_one, index)
            count += 1
            if count == n:
                submitted.set()
            return future

        outcomes = WorkQueue(workers).run(submit, list(range(n)))
    assert outcomes == list(range(n))


def test_steal_flattens_skew() -> None:
    """A head-heavy block is spread over idle workers, not serialized.

    A static contiguous partition would hand shards 0-3 to one worker
    as one task.  With one shared FIFO queue every idle worker takes
    the next heavy shard, so the heavy head runs on more than one
    worker.
    """
    n, workers = 12, 3
    sleeps_ms = [40.0, 40.0, 40.0, 40.0] + [2.0] * 8
    tasks = [ShardTask("synthetic", {"index": i}) for i in range(n)]
    log: list = []
    _queue, outcomes = _run_threaded(tasks, workers, sleeps_ms, log)
    assert outcomes == [(_expected(i), {"index": i}) for i in range(n)]
    heavy_threads = {thread for index, thread in log if index < 4}
    assert len(heavy_threads) >= 2


def test_fifo_policy_never_steals_or_resubmits() -> None:
    """One pool task per micro-shard: no grouping, no duplicates.

    The counters live on the backend's queue and are what ``perfbench``
    and ``repro top`` read.
    """
    n = 10
    tasks = [ShardTask("synthetic", {"index": i, "sleep_ms": 5.0}) for i in range(n)]
    backend = ProcessBackend(3)
    try:
        results = backend.run_tasks(None, tasks)
    finally:
        backend.close()
    assert [r["index"] for r in results] == list(range(n))
    assert backend.queue.stats.as_dict() == {"maps": 1, "tasks": n, "items": n}


def test_task_error_propagates() -> None:
    tasks = [ShardTask("synthetic", {"index": i}) for i in range(4)]
    queue = WorkQueue(2)

    def run_one(index):
        if index == 2:
            raise RuntimeError("shard exploded")
        return (_expected(index), {})

    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(RuntimeError, match="shard exploded"):
            queue.run(lambda index: pool.submit(run_one, index), tasks)


# ----------------------------------------------------------------------
# Process backend vs serial identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", (2, 3))
def test_task_queue_process_backend_identity(workers) -> None:
    """Synthetic shards through the pool's queue equal the serial map."""
    tasks = [ShardTask("synthetic", {"index": i}) for i in range(8)]
    serial = SerialBackend().run_tasks(None, tasks)
    backend = ProcessBackend(workers)
    try:
        parallel = backend.run_tasks(None, tasks)
    finally:
        backend.close()
    assert parallel == serial


def _dispatch_order(mode: str, n: int, workers: int) -> list:
    """The shard execution order a retired scheduling policy produced.

    ``fifo`` is plan order (the live scheduler).  ``partition`` walks one
    contiguous block per worker, the blocks interleaved.  ``adaptive``
    had owners pop from the front while thieves stole from the back.
    """
    if mode == "fifo":
        return list(range(n))
    if mode == "partition":
        bounds = [n * w // workers for w in range(workers + 1)]
        blocks = [list(range(bounds[w], bounds[w + 1])) for w in range(workers)]
        width = max(len(block) for block in blocks)
        return [b[i] for i in range(width) for b in blocks if i < len(b)]
    front, back, order = 0, n - 1, []
    while front <= back:
        order.append(front)
        if back != front:
            order.append(back)
        front, back = front + 1, back - 1
    return order


class _ReorderedQueue(WorkQueue):
    """A WorkQueue that submits shards in a fixed non-plan order."""

    def __init__(self, workers: int, mode: str):
        super().__init__(workers)
        self.mode = mode

    def run(self, submit, tasks: list) -> list:
        futures = {}
        for index in _dispatch_order(self.mode, len(tasks), self.workers):
            futures[index] = submit(index)
        return [futures[index].result() for index in range(len(tasks))]


@pytest.mark.parametrize("n,workers", [(0, 2), (1, 2), (5, 2), (7, 3), (8, 4)])
@pytest.mark.parametrize("mode", ["adaptive", "fifo", "partition"])
def test_dispatch_order_is_a_permutation(mode, n, workers) -> None:
    assert sorted(_dispatch_order(mode, n, workers)) == list(range(n))


@pytest.mark.parametrize("mode", ["adaptive", "fifo", "partition"])
def test_eval_identical_across_queue_policies(mode) -> None:
    """Queue-scheduled evaluation reproduces the serial accuracy bitwise.

    ``fifo`` runs the live scheduler.  The other modes replay the shard
    execution orders of the retired grouping/stealing policies, so a
    worker-side result that depended on which shards that worker ran
    before would show up as a mismatch.
    """
    model = build_model("resnet10", num_classes=4, width=4, seed=1)
    model.eval()
    rng = np.random.default_rng(0)
    x = rng.random((10, 3, 8, 8)).astype(np.float32)
    y = np.arange(10) % 4
    serial = evaluate_accuracy(model, x, y, batch_size=2)
    backend = ProcessBackend(2)
    if mode != "fifo":
        backend.queue = _ReorderedQueue(2, mode)
    previous = set_backend(backend)
    try:
        parallel = evaluate_accuracy(model, x, y, batch_size=2)
    finally:
        set_backend(previous)
        backend.close()
    assert serial == parallel
    # A pool failure falls back to the serial path, which would match
    # trivially; the maps counter only moves on the pool path.
    assert not backend._broken
    assert backend.queue.stats.maps >= 1
