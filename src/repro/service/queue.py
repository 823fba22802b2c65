"""Job intake facade over a :class:`~repro.service.worker.WorkerNode`.

Historically this module owned the whole consumption side of the
service: an in-process priority heap, the drainer threads, the retry
machinery and the lease supervisor. That machinery now lives in
:mod:`repro.service.worker` as the transport-agnostic
:class:`~repro.service.worker.WorkerNode`, which polls *any*
:class:`~repro.service.storage.StoreBackend` via its atomic
``claim_next`` — so the very same code drains jobs as embedded server
threads or as standalone ``repro worker`` processes, and the store's
``(priority DESC, submitted_at, id)`` claim order replaces the heap.

:class:`JobQueue` remains the embedded-mode API: submission (persist +
wake a drainer), recovery-on-start, and lifecycle (``start`` / ``stop``
/ ``join``) — a thin facade delegating execution to one private
``WorkerNode``; the drainer metrics live in :mod:`repro.service.worker`.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Mapping

from ..core.instance import Instance
from ..obs.metrics import REGISTRY
from ..obs.trace import current_trace_id
from .store import TERMINAL_STATUSES, JobRecord
from .worker import WorkerNode, retryable

__all__ = ["JobQueue"]

_JOBS_SUBMITTED = REGISTRY.counter(
    "repro_jobs_submitted_total", "Jobs accepted into the queue.")

#: Longest a :meth:`JobQueue.wait_job` sleeps between reads of the job:
#: embedded drainers wake it at once, this bounds how late it sees a job
#: an external ``repro worker`` process finished.
WAIT_RECHECK_S = 0.025


class JobQueue:
    """Embedded job intake + drain: a store plus one worker node.

    Parameters
    ----------
    store:
        Any :class:`~repro.service.storage.StoreBackend`; the queue
        never holds state the store does not.
    drainers:
        Number of embedded worker threads consuming jobs (0 =
        accept-only, useful for tests, maintenance pauses, and servers
        fronting external ``repro worker`` processes).
    engine_workers:
        Process fan-out per job. The default 0 solves inline on the
        drainer thread — one process, ``drainers`` concurrent solves;
        raise it to fan each job out over processes.
    default_timeout:
        Per-run timeout (seconds) for jobs submitted without their own.
    lease_seconds:
        Length of the store lease a drainer holds (and keeps
        heartbeating) while running a job. ``None`` disables leases and
        supervision — the legacy die-and-recover-on-restart behaviour.
    max_attempts:
        Attempts per job before quarantine (``None`` = store default).
    reclaim_interval:
        Supervisor tick (heartbeats, reclaims, drainer respawn).
        Default: a third of the lease, capped at 1s.
    retry_backoff_base / retry_backoff_cap:
        Exponential-backoff envelope for retries: attempt ``k`` waits
        ``uniform(0, min(cap, base * 2**(k-1)))`` seconds (full jitter).
    """

    _retryable = staticmethod(retryable)

    def __init__(self, store, *, drainers: int = 2,
                 engine_workers: int = 0,
                 default_timeout: float | None = None,
                 lease_seconds: float | None = 30.0,
                 max_attempts: int | None = None,
                 reclaim_interval: float | None = None,
                 retry_backoff_base: float = 0.2,
                 retry_backoff_cap: float = 30.0) -> None:
        if drainers < 0:
            raise ValueError(f"drainers must be >= 0, got {drainers}")
        self.store = store
        self.drainers = drainers
        self.engine_workers = engine_workers
        self.default_timeout = default_timeout
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self._node = WorkerNode(
            store, workers=drainers, engine_workers=engine_workers,
            default_timeout=default_timeout, lease_seconds=lease_seconds,
            reclaim_interval=reclaim_interval,
            retry_backoff_base=retry_backoff_base,
            retry_backoff_cap=retry_backoff_cap)
        self.reclaim_interval = self._node.reclaim_interval
        self.retry_backoff_base = retry_backoff_base
        self.retry_backoff_cap = retry_backoff_cap
        self.cache = self._node.cache
        self._session = self._node._session

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> int:
        """Recover persisted work, then start the embedded worker node.
        Returns the number of jobs re-enqueued from a previous process."""
        recovered = self.store.recover_incomplete()
        self._node.start()
        self._node.notify()
        return len(recovered)

    def stop(self, wait: bool = True, *, grace: float | None = None) -> int:
        """Stop the node; drainers exit after their current job.

        With ``grace`` set, waits at most that many seconds for in-flight
        jobs, then releases the leases of whatever is still running so
        another process (or the next start) can pick the work up without
        burning a retry attempt. Returns the number of leases released."""
        return self._node.stop(wait=wait, grace=grace)

    def join(self, timeout: float | None = None) -> bool:
        """Block until the store holds no claimable work (including
        backoff-delayed retries) and no drainer is mid-job."""
        return self._node.join(timeout)

    # ------------------------------------------------------------------ #
    # producing & introspection
    # ------------------------------------------------------------------ #

    def submit(self, inst: Instance,
               algorithms: Iterable[tuple[str, Mapping[str, Any]]],
               *, label: str = "", priority: int = 0,
               timeout: float | None = None) -> JobRecord:
        """Persist a job and wake a drainer. Safe from any thread."""
        if timeout is None:
            timeout = self.default_timeout
        kwargs: dict[str, Any] = {}
        if self.max_attempts is not None:
            kwargs["max_attempts"] = self.max_attempts
        job = self.store.create_job(inst, algorithms, label=label,
                                    priority=priority, timeout=timeout,
                                    trace_id=current_trace_id(), **kwargs)
        _JOBS_SUBMITTED.inc()
        self._node.notify()
        return job

    def wait_job(self, job_id: str, timeout: float) -> JobRecord | None:
        """The job's record once it reaches a terminal status, or as it
        stands when ``timeout`` seconds pass or the queue stops (``None``
        for an unknown id). Re-reads the job whenever an embedded drainer
        ends a job, and at least every :data:`WAIT_RECHECK_S`."""
        deadline = time.monotonic() + timeout
        while True:
            # the mark is read before the job, so a job ending between
            # the two reads cuts the wait short instead of being missed
            mark = self._node.ended()
            job = self.store.get_job(job_id)
            remaining = deadline - time.monotonic()
            if job is None or job.status in TERMINAL_STATUSES \
                    or remaining <= 0:
                return job
            if not self._node.wait_ended(mark,
                                         min(remaining, WAIT_RECHECK_S)):
                return job      # stopping: leave the store alone

    def depth(self) -> int:
        """Jobs waiting in the store (not counting in-flight ones)."""
        return self.store.count_jobs("queued")

    def active(self) -> int:
        """Jobs currently being solved by an embedded drainer."""
        return self._node.active()

    def _backoff(self, attempts: int) -> float:
        """Full-jitter exponential backoff for retry attempt ``attempts``."""
        return self._node._backoff(attempts)
