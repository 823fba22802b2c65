"""The four workloads: their seeded inputs and the load generators that
run them through the program's public surfaces.

* grid workloads call ``repro.api.Session(workers=2).solve_batch``;
* service workloads drive a ``SchedulingService`` child (see
  :mod:`launcher`) through ``ServiceClient`` and ``Session(url)``.

Load comes from this process only, with at most two threads. Every
input is generated from the seed by ``repro.workloads.generators``:
instance ``i`` of a stream depends on ``(seed, stream, i)`` alone, so it
is generated when an operation needs it, before that operation's timer
starts, and a run never runs out of inputs however fast the program is.
The program receives only the instances.
"""

from __future__ import annotations

import itertools
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import common

#: Pool width of the grid session, and drainers of the server child.
WORKERS = 2
#: Class slots per machine (the ``c`` of every instance).
SLOTS = 2
#: Instances per grid ``solve_batch`` call.
INSTANCES_PER_CALL = 2
#: Client threads of the closed loop.
CLIENT_THREADS = 2
#: Jobs per ``Session(url).solve_batch`` burst.
BURST_JOBS = 40
#: Share of a service phase spent in the closed loop; bursts get the rest.
CLOSED_LOOP_SHARE = 0.4
#: Distinct instances the repeat workload cycles through.
REPEAT_POOL = 32
#: A closed-loop job waits at most this long before it counts as failed.
WAIT_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "grid" | "service"
    algorithms: tuple[str, ...]
    n: tuple[int, int]          # jobs per instance, inclusive range
    classes: tuple[int, int]
    machines: tuple[int, int]
    #: grid: one algorithm per call, in rotation, instead of all of them
    rotate: bool = False
    #: service: jobs resubmit instances solved during set-up
    repeat: bool = False


#: The cheap solvers every service job runs. Seven cells per job keep the
#: server busy past the client's first poll: with fewer, a job finishes
#: about when ``ServiceClient.wait`` first looks, the round trip splits
#: into a first-poll mode and a second-poll mode of similar weight, and
#: its median jumps between them from run to run.
SERVICE_ALGORITHMS = ("splittable", "preemptive", "nonpreemptive", "lpt",
                      "greedy", "ffd", "round-robin")

WORKLOADS = {w.name: w for w in (
    Workload("grid-small", "grid",
             ("splittable", "preemptive", "nonpreemptive", "lpt"),
             n=(32, 64), classes=(3, 6), machines=(4, 8)),
    # one shape, so every seed draws cells of about the same cost
    Workload("grid-ptas", "grid",
             ("ptas-splittable", "ptas-nonpreemptive", "nfold-splittable"),
             n=(80, 140), classes=(4, 4), machines=(4, 4), rotate=True),
    Workload("service-fresh", "service", SERVICE_ALGORITHMS,
             n=(24, 48), classes=(3, 6), machines=(4, 8)),
    Workload("service-repeat", "service", SERVICE_ALGORITHMS,
             n=(24, 48), classes=(3, 6), machines=(4, 8), repeat=True),
)}


def instance(wl: Workload, seed: int, stream: int, i: int):
    """Instance ``i`` of ``wl``'s shape in stream ``stream``;
    ``(seed, stream, i)`` fixes it."""
    from repro.workloads.generators import uniform_instance
    rng = np.random.default_rng([seed, stream, i])
    n = int(rng.integers(wl.n[0], wl.n[1] + 1))
    C = int(rng.integers(wl.classes[0], wl.classes[1] + 1))
    m = int(rng.integers(wl.machines[0], wl.machines[1] + 1))
    return uniform_instance(rng, n, C, m, SLOTS)


def instances(wl: Workload, seed: int, stream: int, count: int) -> list:
    """The first ``count`` instances of stream ``stream``."""
    return [instance(wl, seed, stream, i) for i in range(count)]


@dataclass
class Phase:
    """What one measured phase produced."""

    t0: float = 0.0             # time.time() window
    t1: float = 0.0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    throughput_per_s: float = 0.0
    #: one ``(cells, reports or None)`` pair per operation
    ops: list = field(default_factory=list)
    #: /v1/metrics deltas over the phase (service workloads)
    scrape: dict = field(default_factory=dict)


# ---------------------------------------------------------------------- #
# grid workloads
# ---------------------------------------------------------------------- #

class GridLoad:
    """``Session(workers=2).solve_batch`` over distinct batches."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl, self.seed = wl, seed
        self.session = None
        self._calls = itertools.count()

    def setup(self, run_dir) -> None:
        from repro.api import Session
        wl = self.wl
        self.session = Session(workers=WORKERS)
        # one instance per worker, every algorithm: each worker imports
        # and warms every solver the workload uses
        self.session.solve_batch(instances(wl, self.seed, 1, WORKERS),
                                 algorithms=list(wl.algorithms))

    def teardown(self) -> None:
        from repro.engine.pool import shutdown_pool
        shutdown_pool(wait=True)
        self.session = None

    kill = teardown

    def measure(self, seconds: float, recorder=None) -> Phase:
        wl, ph = self.wl, Phase()
        ph.t0, start = time.time(), time.perf_counter()
        deadline = start + seconds
        done = []
        while not done or time.perf_counter() < deadline:
            k = next(self._calls)
            batch = [instance(wl, self.seed, 0, k * INSTANCES_PER_CALL + j)
                     for j in range(INSTANCES_PER_CALL)]
            algos = ([wl.algorithms[k % len(wl.algorithms)]] if wl.rotate
                     else list(wl.algorithms))
            cells = [(inst, a, {}) for inst in batch for a in algos]
            t = time.perf_counter()
            try:
                if recorder is None:
                    reports = self.session.solve_batch(batch,
                                                       algorithms=algos)
                else:
                    with recorder.span("api.solve_batch"):
                        reports = self.session.solve_batch(
                            batch, algorithms=algos)
            except Exception:   # noqa: BLE001 - counted as a failed op
                reports = None
            dt = time.perf_counter() - t
            ph.latencies_s.append(dt)
            ph.ops.append((cells, reports))
            done.append((dt, len(reports or ())))
        ph.wall_s = time.perf_counter() - start
        ph.t1 = time.time()
        ph.throughput_per_s = windowed_rate(done)
        return ph


#: Groups of consecutive calls a phase's throughput is the median of.
RATE_WINDOWS = 10


def windowed_rate(done: list[tuple[float, int]]) -> float:
    """Median over :data:`RATE_WINDOWS` groups of consecutive calls of
    work completed per second of call time; ``done`` holds
    ``(seconds, completed)`` per call, so input generation between
    calls is not counted. A median of windows keeps a few slow seconds
    (another tenant taking the CPU, one pathological cell) from moving
    the figure."""
    groups = min(RATE_WINDOWS, len(done))
    rates = []
    for g in range(groups):
        chunk = done[g * len(done) // groups:(g + 1) * len(done) // groups]
        rates.append(sum(c for _, c in chunk) / sum(s for s, _ in chunk))
    return common.p50(rates)


# ---------------------------------------------------------------------- #
# service workloads
# ---------------------------------------------------------------------- #

class ServiceLoad:
    """A server child driven by a closed loop, then by bursts.

    * closed loop: :data:`CLIENT_THREADS` threads, each submitting a job
      and waiting for its reports (``ServiceClient.submit`` -> ``wait``)
      before the next; gives the latency samples;
    * bursts: ``Session(url).solve_batch`` of :data:`BURST_JOBS` jobs,
      which submits every job and then waits for each; gives
      ``throughput_per_s`` by :func:`windowed_rate` over the bursts.
      Pooling consecutive bursts averages out where each one's last poll
      happens to land."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl, self.seed = wl, seed
        self.server = None
        self.store_dir = None
        self._taken = itertools.count()
        self._lock = threading.Lock()

    def setup(self, run_dir) -> None:
        from launcher import ServerChild
        wl = self.wl
        if wl.repeat:
            # set-up fills the result cache with every instance the
            # workload will resubmit
            self._pool = instances(wl, self.seed, 0, REPEAT_POOL)
            self._warm = self._pool
        else:
            self._warm = instances(wl, self.seed, 1, 2 * WORKERS)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=run_dir)
        self.server = ServerChild(self.store_dir).start()
        self._warm_up()

    def _warm_up(self) -> None:
        from repro.api import Session
        Session(self.server.url).solve_batch(
            self._warm, algorithms=list(self.wl.algorithms))

    def restart(self, spans_path) -> None:
        """Stop the server child and start one recording spans on the
        same store (its result cache survives), then warm it again."""
        from launcher import ServerChild
        self.server.stop()
        self.server = ServerChild(self.store_dir, spans=spans_path).start()
        if not self.wl.repeat:      # fresh instances keep missing
            self._warm = instances(self.wl, self.seed, 3, 2 * WORKERS)
        self._warm_up()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def kill(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None

    def _take(self):
        """The next job's instance: a fresh one of stream 0, or on the
        repeat workload a seeded draw from the pool solved in set-up."""
        with self._lock:
            i = next(self._taken)
        if self.wl.repeat:
            rng = np.random.default_rng([self.seed, 2, i])
            return self._pool[int(rng.integers(0, REPEAT_POOL))]
        return instance(self.wl, self.seed, 0, i)

    def measure(self, seconds: float, recorder=None) -> Phase:
        from repro.api import RemoteBackend, Session
        from repro.service import ServiceClient
        wl, ph = self.wl, Phase()
        algos = list(wl.algorithms)
        client_cls = ServiceClient
        if recorder is not None:
            import spans
            client_cls = spans.traced_client_class(recorder)
        before = scrape(ServiceClient(self.server.url))
        ph.t0, start = time.time(), time.perf_counter()

        # closed loop
        loop_end = start + seconds * CLOSED_LOOP_SHARE
        lock = threading.Lock()

        def client_loop() -> None:
            client = client_cls(self.server.url)
            first = True
            while first or time.perf_counter() < loop_end:
                first = False
                inst = self._take()
                cells = [(inst, a, {}) for a in algos]
                t = time.perf_counter()
                try:
                    job = client.submit(inst, algos)
                    reports = client.wait(job["id"], timeout=WAIT_TIMEOUT_S)
                except Exception:   # noqa: BLE001 - a failed op
                    reports = None
                dt = time.perf_counter() - t
                with lock:
                    ph.latencies_s.append(dt)
                    ph.ops.append((cells, reports))

        threads = [threading.Thread(target=client_loop)
                   for _ in range(CLIENT_THREADS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

        # bursts
        session = (Session(self.server.url) if recorder is None else
                   Session(RemoteBackend(client_cls(self.server.url))))
        done = []
        burst_end = start + seconds
        for burst in itertools.count():
            if burst and time.perf_counter() >= burst_end:
                break
            batch = [self._take() for _ in range(BURST_JOBS)]
            t = time.perf_counter()
            try:
                if recorder is None:
                    reports = session.solve_batch(batch, algorithms=algos)
                else:
                    with recorder.span("api.solve_batch"):
                        reports = session.solve_batch(batch,
                                                      algorithms=algos)
            except Exception:       # noqa: BLE001 - the burst's jobs fail
                reports = None
            dt = time.perf_counter() - t
            k = len(algos)
            for j, inst in enumerate(batch):
                ph.ops.append(([(inst, a, {}) for a in algos],
                               None if reports is None
                               else reports[j * k:(j + 1) * k]))
            done.append((dt, 0 if reports is None else len(batch)))
        ph.wall_s = time.perf_counter() - start
        ph.t1 = time.time()
        ph.throughput_per_s = windowed_rate(done)
        ph.scrape = delta(before, scrape(ServiceClient(self.server.url)))
        return ph


# ---------------------------------------------------------------------- #
# /v1/metrics scrapes
# ---------------------------------------------------------------------- #

def scrape(client) -> dict:
    from repro.obs.metrics import parse_exposition
    _, samples = parse_exposition(client.metrics())
    return samples


def delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def total(samples: dict, name: str, **labels) -> float:
    """Sum of ``name`` samples whose labels include ``labels``."""
    want = set(labels.items())
    return sum(v for (n, ls), v in samples.items()
               if n == name and want <= set(ls))
