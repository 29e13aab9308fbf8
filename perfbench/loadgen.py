"""Seeded request traffic for the serving workload.

Two drivers, both plain coroutines on the caller's event loop (no
threads, no sockets):

* :func:`open_loop` sends a seeded Poisson schedule from one coroutine,
  whether or not earlier requests have finished, and times every
  request from its *scheduled* send time, so a stall also counts
  against the requests queued behind it.  How late the coroutine
  actually sent is recorded per request.
* :func:`closed_loop` runs a fixed number of clients that each send
  their next request only after the previous one completed.  Each client
  sticks to one tenant, so the tenants' shares of the traffic do not
  drift with the seed.

``submit(tenant, image)`` is any coroutine function.  A request that
raises counts as failed; it is never retried.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Arrival:
    """One request of a schedule: send time (s after phase start), tenant, image index."""

    at: float
    tenant: str
    image: int


@dataclass
class Outcome:
    """One sent request: what it asked for, how long it took and what came back."""

    arrival: Arrival
    latency_s: float
    late_s: float = 0.0
    result: object = None
    error: BaseException | None = None


def poisson_schedule(seed: int, rate: float, count: int, tenants: list[str], pool: int) -> list[Arrival]:
    """``count`` arrivals with exponential gaps of mean ``1/rate``; tenant and image drawn uniformly."""
    rng = np.random.default_rng([seed, 1])
    times = np.cumsum(rng.exponential(1.0 / rate, size=count))
    who = rng.integers(len(tenants), size=count)
    images = rng.integers(pool, size=count)
    return [
        Arrival(float(t), tenants[int(w)], int(i)) for t, w, i in zip(times, who, images)
    ]


def client_picks(seed: int, client: int, tenants: list[str], pool: int, round_: int = 0):
    """Endless seeded image sequence of one closed-loop client, as ``(tenant, image)``.

    Client ``i`` always talks to tenant ``i % len(tenants)``, as a real
    client of one model would; the seed and the round pick its images.
    """
    rng = np.random.default_rng([seed, 2, client, round_])
    tenant = tenants[client % len(tenants)]
    while True:
        yield tenant, int(rng.integers(pool))


async def _timed(submit, arrival: Arrival, due: float, late: float, clock) -> Outcome:
    try:
        result = await submit(arrival.tenant, arrival.image)
    except Exception as exc:  # a refused or failed request is an outcome, not a crash
        return Outcome(arrival, clock() - due, late, error=exc)
    return Outcome(arrival, clock() - due, late, result=result)


async def open_loop(submit, schedule: list[Arrival], clock=time.perf_counter) -> tuple[list[Outcome], float]:
    """Send ``schedule`` open loop; returns the outcomes in schedule order and the phase wall time."""
    start = clock()
    tasks = []
    for arrival in schedule:
        due = start + arrival.at
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        late = max(0.0, clock() - due)
        tasks.append(asyncio.ensure_future(_timed(submit, arrival, due, late, clock)))
    outcomes = list(await asyncio.gather(*tasks))
    return outcomes, clock() - start


async def closed_loop(
    submit, seed: int, clients: int, seconds: float, tenants: list[str], pool: int, round_: int = 0, clock=time.perf_counter
) -> tuple[list[Outcome], float]:
    """``clients`` closed-loop clients sending until ``seconds`` have passed.

    Returns every outcome and the wall time until the last in-flight
    request completed, so completed / wall time is unbiased by the cut.
    """
    start = clock()
    deadline = start + seconds
    outcomes: list[Outcome] = []

    async def client(index: int) -> None:
        picks = client_picks(seed, index, tenants, pool, round_)
        while clock() < deadline:
            tenant, image = next(picks)
            sent = clock()
            outcomes.append(await _timed(submit, Arrival(sent - start, tenant, image), sent, 0.0, clock))

    await asyncio.gather(*(client(i) for i in range(clients)))
    return outcomes, clock() - start
