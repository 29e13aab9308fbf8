"""The three benchmark workloads.

Each workload builds everything it needs in :meth:`setup` (which ends
with one untimed warm-up pass), then :meth:`measure` runs timed items
for a given number of seconds.  The seed picks the eval images (an
offset into the cifar10 test split) and, for serving, the traffic; the
program only ever sees the generated inputs.

* ``table3-cell``: one Table III cell (white-box PGD, paper eps 1/255,
  crafted on the digital victim) scored on the three crossbar presets
  and the two comparison defenses with ``workers=2``.  Large no-grad
  batches on both crossbar sizes; the only workload that goes through
  ``repro.parallel``.
* ``hil-pgd``: Table IV white-box hardware-in-loop PGD against the
  converted ``64x64_100k`` model, serial.  Small-batch analog forwards
  with the autograd graph on and ideal-Jacobian backward; no pool, no
  server.
* ``serve-mixed``: an in-process ``AnalogServer`` with a float tenant
  and an int8 tenant on two lanes.  Open-loop Poisson traffic gives the
  latencies, closed-loop clients the throughput.  The only workload
  that runs the pinned-DAC serving kernels, the int8 plane path,
  micro-batching and lanes.
"""

from __future__ import annotations

import asyncio
import hashlib
import time

import numpy as np

from perfbench import loadgen
from perfbench.hostspeed import HostClock
from perfbench.stats import median

TASK = "cifar10"
#: Calibration images per converted model (the tiny evaluation scale).
CALIBRATION_SIZE = 16


def _offset(seed: int, total: int, count: int) -> int:
    """Seeded start of a contiguous ``count``-image slice of a ``total``-image split."""
    return int(np.random.default_rng([seed, 0]).integers(0, total - count + 1))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str((array.dtype.str, array.shape)).encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


class Phase:
    """What one measured phase did: items of work, wall time, per-item latencies.

    The workload splits the phase into repeated units of work and times
    the host-speed probe between them (:mod:`perfbench.hostspeed`).
    ``raw_rate`` is the median rate of the units; ``rate``, the phase's
    throughput, is the median of the units' rates each scaled to the
    nominal host speed; ``host_factor`` is the median scale factor, or
    None when the workload does not scale.
    Medians keep a slowdown over part of the phase from moving them.
    Without units, ``items / elapsed`` stands in for both rates.
    """

    def __init__(self):
        self.items = 0
        self.elapsed = 0.0
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.rate: float | None = None
        self.raw_rate: float | None = None
        self.host_factor: float | None = None
        self.units = 0
        self.notes: dict = {}

    def set_rates(self, raw: list[float], factors: list[float]) -> None:
        """Set the rates from per-unit raw rates and their host scale factors."""
        self.units = len(raw)
        if raw:
            self.raw_rate = median(raw)
            self.rate = median([r * f for r, f in zip(raw, factors)])
            self.host_factor = median(factors)

    @property
    def throughput(self) -> float:
        if self.rate is not None:
            return self.rate
        return self.items / self.elapsed if self.elapsed else 0.0


class Workload:
    name = ""
    #: What one item of ``throughput_per_s`` is.
    item = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def models(self) -> list:
        """Converted hardware models whose perf counters the traced run reads."""
        return []

    def variant_of(self, model) -> str:
        """Label of a model scored by ``adversarial_accuracy`` (table3-cell only)."""
        return "other"

    def verify(self) -> None:
        """Output checks that run once, after the measured phase."""

    def close(self) -> None:
        pass


class Table3Cell(Workload):
    name = "table3-cell"
    item = "adversarial image scored on all five variants"
    IMAGES = 24
    BATCH = 12
    PRESETS = ("64x64_300k", "32x32_100k", "64x64_100k")
    DEFENSES = ("bitwidth4", "sap")

    def setup(self) -> None:
        from repro.attacks.pgd import PGD
        from repro.core.evaluation import EvaluationScale, HardwareLab
        from repro.experiments.config import paper_eps

        lab = HardwareLab(
            EvaluationScale(
                eval_size=self.IMAGES,
                calibration_size=CALIBRATION_SIZE,
                batch_size=self.BATCH,
                workers=2,
            )
        )
        data = lab.task_data(TASK)
        start = _offset(self.seed, len(data.x_test), self.IMAGES)
        x = data.x_test[start : start + self.IMAGES]
        self.y = data.y_test[start : start + self.IMAGES]
        victim = lab.victim(TASK)
        self.variants = {p: lab.hardware(TASK, p) for p in self.PRESETS}
        self.variants.update({d: lab.defense(TASK, d) for d in self.DEFENSES})
        # Crafted exactly as AttackFactory.whitebox_pgd does for Table III.
        self.x_adv = PGD(paper_eps(TASK, 1), iterations=lab.scale.pgd_iterations, batch_size=64, seed=29).generate(
            victim, x, self.y
        ).x_adv
        self.first = self._score()  # warm-up: ships every model to the pool

    def variant_of(self, model) -> str:
        for name, candidate in self.variants.items():
            if candidate is model:
                return name
        return "other"

    def models(self) -> list:
        return [self.variants[p] for p in self.PRESETS]

    def _score(self, phase: Phase | None = None, times: dict | None = None) -> dict[str, float]:
        import repro.core.evaluation as evaluation

        accuracies = {}
        for name, model in self.variants.items():
            if phase is not None:
                phase.attempted += 1
            t0 = time.perf_counter()
            try:
                accuracies[name] = evaluation.adversarial_accuracy(model, self.x_adv, self.y, batch_size=self.BATCH)
            except Exception as exc:
                if phase is None:
                    raise
                phase.failed += 1
                self.check(False, f"scoring {name} raised {exc!r}")
            else:
                if times is not None:
                    times.setdefault(name, []).append(time.perf_counter() - t0)
        return accuracies

    def measure(self, seconds: float) -> Phase:
        """Scoring passes for ``seconds``; throughput from each variant's median scoring time.

        Not scaled by the host-speed probe: across runs the scoring
        throughput held steadier than the probe did (see README.md).
        """
        phase = Phase()
        times: dict[str, list[float]] = {}
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            accuracies = self._score(phase, times)
            phase.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            phase.items += self.IMAGES
            for name, acc in accuracies.items():
                # SAP draws fresh random masks on every call, by design.
                self.check(
                    name == "sap" or acc == self.first[name],
                    f"{name} accuracy {acc} differs from the warm-up pass {self.first[name]}",
                )
        phase.elapsed = time.perf_counter() - start
        if len(times) == len(self.variants):
            # One image counts once all five variants have scored it.
            phase.rate = phase.raw_rate = self.IMAGES / sum(median(t) for t in times.values())
            phase.units = min(len(t) for t in times.values())
        return phase

    def verify(self) -> None:
        from repro.attacks.base import predict_logits
        from repro.parallel.backend import SerialBackend, get_backend, set_backend

        model = self.variants["32x32_100k"]
        part = self.x_adv[: 2 * self.BATCH]
        pooled = predict_logits(model, part, self.BATCH)
        previous = set_backend(SerialBackend())
        try:
            serial = predict_logits(model, part, self.BATCH)
        finally:
            set_backend(previous)
        self.check(type(get_backend()).__name__ == "ProcessBackend", "table3-cell did not run on the process pool")
        self.check(np.array_equal(pooled, serial), "workers=2 logits differ from serial logits")

    def digest(self) -> str:
        deterministic = [self.first[name] for name in self.variants if name != "sap"]
        return _digest(self.x_adv, self.y, np.array(deterministic))

    def close(self) -> None:
        from repro.parallel.backend import shutdown

        shutdown()  # reaps the pool workers, so their peak RSS is counted


class HilPgd(Workload):
    name = "hil-pgd"
    item = "image-iteration of HIL-PGD"
    PRESET = "64x64_100k"
    IMAGES = 64
    BATCH = 8
    ITERATIONS = 5

    def setup(self) -> None:
        from repro.core.evaluation import EvaluationScale, HardwareLab
        from repro.experiments.config import paper_eps

        lab = HardwareLab(EvaluationScale(calibration_size=CALIBRATION_SIZE))
        data = lab.task_data(TASK)
        start = _offset(self.seed, len(data.x_test), self.IMAGES)
        self.x = data.x_test[start : start + self.IMAGES]
        self.y = data.y_test[start : start + self.IMAGES]
        self.hardware = lab.hardware(TASK, self.PRESET)
        self.eps = paper_eps(TASK, 1)
        self.first = self._attack(0)  # warm-up

    def models(self) -> list:
        return [self.hardware]

    def _attack(self, index: int) -> np.ndarray:
        from repro.attacks.hil import hil_whitebox_pgd

        lo = (index * self.BATCH) % self.IMAGES
        x, y = self.x[lo : lo + self.BATCH], self.y[lo : lo + self.BATCH]
        x_adv = hil_whitebox_pgd(
            self.hardware, x, y, self.eps, iterations=self.ITERATIONS, batch_size=self.BATCH, seed=29
        ).x_adv
        # A float32 projection may land one rounding step past eps.
        excess = float(np.abs(x_adv.astype(np.float64) - x).max()) - self.eps
        self.check(excess <= 2.0**-23, f"attack {index}: |x_adv - x|inf exceeds eps by {excess:.3g}")
        self.check(bool(((x_adv >= 0.0) & (x_adv <= 1.0)).all()), f"attack {index}: x_adv leaves [0, 1]")
        return x_adv

    def measure(self, seconds: float) -> Phase:
        """Attack calls for ``seconds``; throughput from the median call time."""
        phase = Phase()
        start = time.perf_counter()
        index = 0
        rates, factors = [], []
        clock = HostClock()
        while time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            phase.attempted += 1
            try:
                x_adv = self._attack(index)
            except Exception as exc:
                phase.failed += 1
                self.check(False, f"attack {index} raised {exc!r}")
            else:
                phase.items += self.BATCH * self.ITERATIONS
                rates.append(self.BATCH * self.ITERATIONS / (time.perf_counter() - t0))
                if index == 0:
                    self.check(np.array_equal(x_adv, self.first), "repeated attack gave different x_adv")
            phase.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            factor = clock.after_unit()
            if len(rates) > len(factors):
                factors.append(factor)
            index += 1
        phase.elapsed = time.perf_counter() - start
        phase.set_rates(rates, factors)
        return phase

    def digest(self) -> str:
        return _digest(self.first)


class ServeMixed(Workload):
    name = "serve-mixed"
    item = "request completed in the closed-loop phase"
    POOL = 16
    #: Open-loop arrival rate (req/s): a little under half the closed-loop
    #: capacity measured at the seed on a 2-vCPU host (20-35 req/s).
    RATE = 12.0
    CLIENTS = 16
    #: Length of one closed-loop round; the host probe runs between rounds.
    ROUND_S = 1.5
    #: Share of the measured seconds given to the open-loop phase; the
    #: closed loop, whose throughput is gated, gets the rest.
    OPEN_SHARE = 0.3
    TENANTS = ("fp", "q")

    def setup(self) -> None:
        from repro.core.evaluation import EvaluationScale, HardwareLab
        from repro.serve.registry import ModelRegistry, TenantSpec
        from repro.serve.server import AnalogServer, ServeConfig

        lab = HardwareLab(EvaluationScale(calibration_size=CALIBRATION_SIZE))
        data = lab.task_data(TASK)
        start = _offset(self.seed, len(data.x_test), self.POOL)
        self.images = data.x_test[start : start + self.POOL]
        self.registry = registry = ModelRegistry(lab)
        registry.register(TenantSpec("fp", TASK, "32x32_100k"))
        registry.register(TenantSpec("q", TASK, "64x64_300k", quant=True))
        registry.load_all()
        self.server = AnalogServer(registry, ServeConfig(max_batch=8), lanes=2)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.server.start())
        #: (tenant, image, logits) of every served response, checked in verify().
        self.responses: list[tuple[str, int, np.ndarray]] = []
        self.warm = self.loop.run_until_complete(self._warm_up())

    def models(self) -> list:
        return [self.registry.model(name).model for name in self.TENANTS]

    async def _warm_up(self) -> list[np.ndarray]:
        """One untimed round: every tenant serves every pool image, all at once."""
        pairs = [(tenant, i) for tenant in self.TENANTS for i in range(self.POOL)]
        results = await asyncio.gather(*(self._submit(t, i) for t, i in pairs))
        self.responses += [(t, i, r.logits) for (t, i), r in zip(pairs, results)]
        return [r.logits for r in results]

    async def _submit(self, tenant: str, image: int):
        return await self.server.submit(tenant, self.images[image])

    def _account(self, phase: Phase, outcomes) -> list:
        from repro.serve.server import ServeError

        served = []
        for outcome in outcomes:
            phase.attempted += 1
            arrival = outcome.arrival
            if outcome.error is not None:
                phase.failed += 1
                self.check(isinstance(outcome.error, ServeError), f"untyped serving failure {outcome.error!r}")
                continue
            result = outcome.result
            served.append(result)
            self.check(result.model == arrival.tenant, f"request for {arrival.tenant} served by {result.model}")
            self.responses.append((arrival.tenant, arrival.image, result.logits))
        return served

    def _lane_busy(self) -> list[float]:
        return [lane["busy_us"] for lane in self.server.lane_stats()]

    def open_phase(self, seconds: float) -> tuple[Phase, list]:
        phase = Phase()
        count = round(self.RATE * seconds)
        schedule = loadgen.poisson_schedule(self.seed, self.RATE, count, list(self.TENANTS), self.POOL)
        outcomes, phase.elapsed = self.loop.run_until_complete(loadgen.open_loop(self._submit, schedule))
        served = self._account(phase, outcomes)
        # A failed or refused request misses every latency limit.
        phase.latencies_ms = [
            o.latency_s * 1e3 if o.error is None else float("inf") for o in outcomes
        ]
        phase.notes["late_ms"] = [o.late_s * 1e3 for o in outcomes]
        return phase, served

    def _little_rate(self, outcomes) -> float | None:
        """Completed requests per second by Little's law, per tenant.

        A tenant's clients divided by the median latency of its served
        requests, summed over the tenants.  The clients never pause
        between requests, so with mean latencies this would equal
        completed / wall time.
        """
        rate = 0.0
        for index, tenant in enumerate(self.TENANTS):
            clients = len(range(index, self.CLIENTS, len(self.TENANTS)))
            latencies = [o.latency_s for o in outcomes if o.error is None and o.arrival.tenant == tenant]
            if not latencies:
                return None
            rate += clients / median(latencies)
        return rate

    def closed_phase(self, seconds: float) -> tuple[Phase, list]:
        """Closed-loop clients for ``seconds``, in rounds of ``ROUND_S`` with the host probe between them."""
        phase = Phase()
        served, rates, factors = [], [], []
        clock = HostClock()
        start = time.perf_counter()
        rounds = max(1, round(seconds / self.ROUND_S))
        for k in range(rounds):
            outcomes, _ = self.loop.run_until_complete(
                loadgen.closed_loop(
                    self._submit, self.seed, self.CLIENTS, seconds / rounds, list(self.TENANTS), self.POOL, round_=k
                )
            )
            factor = clock.after_unit()
            served += self._account(phase, outcomes)
            rate = self._little_rate(outcomes)
            if rate is not None:
                rates.append(rate)
                factors.append(factor)
        phase.elapsed = time.perf_counter() - start
        phase.items = len(served)
        phase.set_rates(rates, factors)
        return phase, served

    def measure(self, seconds: float) -> Phase:
        """Open loop for the latencies, then closed loop for the throughput."""
        before = self.server.stats()
        busy = self._lane_busy()
        t0 = time.perf_counter()
        open_phase, open_served = self.open_phase(self.OPEN_SHARE * seconds)
        t1 = time.perf_counter()
        closed, closed_served = self.closed_phase((1.0 - self.OPEN_SHARE) * seconds)
        t2 = time.perf_counter()
        wall = t2 - t0
        after = self.server.stats()
        phase = Phase()
        phase.items, phase.elapsed = closed.items, closed.elapsed
        phase.rate, phase.raw_rate, phase.host_factor, phase.units = closed.rate, closed.raw_rate, closed.host_factor, closed.units
        phase.latencies_ms = open_phase.latencies_ms
        phase.attempted = open_phase.attempted + closed.attempted
        phase.failed = open_phase.failed + closed.failed
        served = open_served + closed_served
        batches = after.batches - before.batches
        phase.notes = {
            "work_items": len(served),
            "late_ms": open_phase.notes["late_ms"],
            "queue_wait_ms": [r.queued_us / 1e3 for r in served],
            "infer_ms": [r.infer_us / 1e3 for r in served],
            "batch_size_mean": sum(r.batch_size for r in served) / max(1, len(served)),
            "batching_efficiency": (after.requests - before.requests) / batches if batches else 0.0,
            "lane_utilization": [(b - a) / 1e6 / wall for a, b in zip(busy, self._lane_busy())],
            "windows": {"open_loop": (t0, t1), "closed_loop": (t1, t2)},
        }
        return phase

    def verify(self) -> None:
        """Every response equals serial single-image ``predict_logits``, bit for bit."""
        from repro.attacks.base import predict_logits

        reference = {
            name: [predict_logits(self.registry.model(name).model, self.images[i : i + 1], 1)[0] for i in range(self.POOL)]
            for name in self.TENANTS
        }
        wrong = [(t, i) for t, i, logits in self.responses if not np.array_equal(logits, reference[t][i])]
        self.check(not wrong, f"{len(wrong)} of {len(self.responses)} served responses differ from serial logits, first {wrong[:3]}")

    def digest(self) -> str:
        return _digest(*self.warm)

    def close(self) -> None:
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()


WORKLOADS = {cls.name: cls for cls in (Table3Cell, HilPgd, ServeMixed)}


def serve_layer_metrics(phase: Phase) -> dict[str, float]:
    """The serving layer's per-layer metrics from a measured serve phase."""
    from perfbench.stats import percentile

    notes = phase.notes
    if "queue_wait_ms" not in notes:
        return {}
    out = {
        "serve.queue_wait_p50_ms": median(notes["queue_wait_ms"]),
        "serve.queue_wait_p99_ms": percentile(notes["queue_wait_ms"], 99),
        "serve.infer_p50_ms": median(notes["infer_ms"]),
        "serve.infer_p99_ms": percentile(notes["infer_ms"], 99),
        "serve.batch_size_mean": notes["batch_size_mean"],
        "serve.batching_efficiency": notes["batching_efficiency"],
        "loadgen.late_p99_ms": percentile(notes["late_ms"], 99),
    }
    for lane, share in enumerate(notes["lane_utilization"]):
        out[f"serve.lane_utilization.{lane}"] = share
    return out
