"""Crash-safe job lifecycle: leases, retries, reclaim, quarantine.

Store-level tests drive the lease protocol directly; queue-level tests
run a real :class:`JobQueue` with injected failures and assert jobs end
in the right terminal state without manual intervention — the invariant
``repro chaos`` checks at scale.
"""

import sqlite3
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import Instance
from repro.faults import injection
from repro.faults.injection import FaultInjected
from repro.service import JobQueue, JobStore
from repro.service.worker import _DRAINER_RESTARTS, LEASE_RECLAIMS


@pytest.fixture(autouse=True)
def _no_faults():
    injection.reset()
    yield
    injection.reset()


@pytest.fixture
def inst() -> Instance:
    return Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)


@pytest.fixture
def store(tmp_path) -> JobStore:
    s = JobStore(tmp_path / "jobs.db")
    yield s
    s.close()


def _wait_status(store, job_id, statuses, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = store.get_job(job_id)
        if job.status in statuses:
            return job
        time.sleep(0.01)
    raise AssertionError(
        f"job never reached {statuses}; stuck at {store.get_job(job_id)}")


class TestLeaseStore:
    def test_claim_stamps_lease_and_attempt(self, store, inst):
        job = store.create_job(inst, [("lpt", {})])
        assert store.claim_job(job.id, lease_seconds=30.0)
        back = store.get_job(job.id)
        assert back.status == "running"
        assert back.attempts == 1
        assert back.lease_expires_at == pytest.approx(time.time() + 30, abs=5)

    def test_claim_without_lease_never_expires(self, store, inst):
        job = store.create_job(inst, [("lpt", {})])
        assert store.claim_job(job.id)
        assert store.get_job(job.id).lease_expires_at is None
        assert store.reclaim_expired(lambda a: 0.0) == ([], [])

    def test_claim_respects_retry_backoff(self, store, inst):
        job = store.create_job(inst, [("lpt", {})])
        assert store.claim_job(job.id, 30.0)
        assert store.requeue_job(job.id, error="boom", delay=60.0)
        assert not store.claim_job(job.id, 30.0)    # parked until due
        back = store.get_job(job.id)
        assert back.status == "queued" and back.error == "boom"
        assert back.attempts == 1                   # attempt stays counted

    def test_heartbeat_extends_running_only(self, store, inst):
        job = store.create_job(inst, [("lpt", {})])
        assert not store.heartbeat(job.id, 30.0)    # still queued
        store.claim_job(job.id, 0.05)
        assert store.heartbeat(job.id, 30.0)
        assert store.get_job(job.id).lease_expires_at > time.time() + 10

    def test_release_lease_refunds_attempt(self, store, inst):
        job = store.create_job(inst, [("lpt", {})])
        store.claim_job(job.id, 30.0)
        assert store.release_lease(job.id)
        back = store.get_job(job.id)
        assert back.status == "queued"
        assert back.attempts == 0 and back.next_attempt_at is None
        assert store.claim_job(job.id, 30.0)        # immediately claimable

    def test_reclaim_requeues_then_quarantines(self, store, inst):
        job = store.create_job(inst, [("lpt", {})], max_attempts=2)
        store.claim_job(job.id, 0.01)
        time.sleep(0.03)
        requeued, quarantined = store.reclaim_expired(lambda a: 0.0)
        assert [r.id for r in requeued] == [job.id] and not quarantined
        assert "lease expired" in requeued[0].error

        store.claim_job(job.id, 0.01)               # attempt 2 of 2
        time.sleep(0.03)
        requeued, quarantined = store.reclaim_expired(lambda a: 0.0)
        assert not requeued and [q.id for q in quarantined] == [job.id]
        back = store.get_job(job.id)
        assert back.status == "quarantined"
        assert "attempt 2/2" in back.error

    def test_finish_refuses_stale_writer(self, store, inst):
        job = store.create_job(inst, [("lpt", {})])
        store.claim_job(job.id, 0.01)
        time.sleep(0.03)
        store.reclaim_expired(lambda a: 0.0)        # lease taken back
        assert not store.finish_job(job.id, [])     # stale drainer loses
        assert store.get_job(job.id).status == "queued"
        assert store.reports_for(job.id) == []

    def test_finish_hits_store_commit_site(self, store, inst):
        job = store.create_job(inst, [("lpt", {})])
        store.claim_job(job.id, 30.0)
        injection.configure("store_commit:1")
        with pytest.raises(FaultInjected):
            store.finish_job(job.id, [])
        assert store.get_job(job.id).status == "running"    # untouched

    def test_recover_quarantines_spent_jobs(self, store, inst):
        spent = store.create_job(inst, [("lpt", {})], max_attempts=1)
        fresh = store.create_job(inst, [("lpt", {})])
        store.claim_job(spent.id, 30.0)
        store.claim_job(fresh.id, 30.0)
        recovered = store.recover_incomplete()
        assert [j.id for j in recovered] == [fresh.id]
        assert store.get_job(fresh.id).status == "queued"
        back = store.get_job(spent.id)
        assert back.status == "quarantined"
        assert "attempts 1/1" in back.error

    def test_quarantined_listable(self, store, inst):
        job = store.create_job(inst, [("lpt", {})], max_attempts=1)
        store.claim_job(job.id, 30.0)
        store.quarantine_job(job.id, "nope")
        assert [j.id for j in store.list_jobs("quarantined")] == [job.id]
        assert store.counts()["quarantined"] == 1


class TestRetryClassification:
    @pytest.mark.parametrize("exc", [
        BrokenProcessPool("pool died"),
        FaultInjected("shm_attach"),
        OSError("disk"),
        ConnectionError("peer"),
        MemoryError(),
        sqlite3.OperationalError("locked"),
        RuntimeError("cannot schedule new futures after shutdown"),
        RuntimeError("broken pipe to worker"),
    ])
    def test_infrastructure_failures_retry(self, exc):
        assert JobQueue._retryable(exc)

    @pytest.mark.parametrize("exc", [
        ValueError("bad instance"),
        KeyError("algo"),
        RuntimeError("solver produced garbage"),
        TypeError("unhashable"),
    ])
    def test_input_failures_do_not(self, exc):
        assert not JobQueue._retryable(exc)

    def test_backoff_envelope(self, store):
        q = JobQueue(store, drainers=0, retry_backoff_base=0.2,
                     retry_backoff_cap=1.0)
        for attempt in range(1, 10):
            ceiling = min(1.0, 0.2 * 2 ** (attempt - 1))
            for _ in range(20):
                assert 0.0 <= q._backoff(attempt) <= ceiling


def _make_queue(store, **over):
    opts = dict(drainers=1, engine_workers=0, lease_seconds=5.0,
                reclaim_interval=0.02, retry_backoff_base=0.01,
                retry_backoff_cap=0.05)
    opts.update(over)
    return JobQueue(store, **opts)


class TestQueueLifecycle:
    def test_transient_failure_retries_to_done(self, store, inst):
        queue = _make_queue(store)
        real_finish = store.finish_job
        calls = []

        def flaky_finish(job_id, reports, **kw):
            if not calls:
                calls.append(job_id)
                raise FaultInjected("store_commit")
            return real_finish(job_id, reports, **kw)

        store.finish_job = flaky_finish
        queue.start()
        try:
            job = queue.submit(inst, [("lpt", {})])
            back = _wait_status(store, job.id, ("done",))
            assert back.attempts == 2       # one failure, one success
            assert len(store.reports_for(job.id)) == 1
        finally:
            queue.stop(wait=True, grace=5.0)

    def test_exhausted_retries_quarantine(self, store, inst):
        queue = _make_queue(store, max_attempts=2)
        store.finish_job = lambda *a, **k: (_ for _ in ()).throw(
            FaultInjected("store_commit"))
        queue.start()
        try:
            job = queue.submit(inst, [("lpt", {})])
            back = _wait_status(store, job.id, ("quarantined",))
            assert back.attempts == 2
            assert "no attempts left" in back.error
        finally:
            queue.stop(wait=True, grace=5.0)

    def test_non_retryable_fails_first_attempt(self, store, inst):
        queue = _make_queue(store)
        queue._session.solve_batch = lambda req: (_ for _ in ()).throw(
            ValueError("malformed"))
        queue.start()
        try:
            job = queue.submit(inst, [("lpt", {})])
            back = _wait_status(store, job.id, ("failed",))
            assert back.attempts == 1
            assert "ValueError: malformed" in back.error
        finally:
            queue.stop(wait=True, grace=5.0)

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dead_drainer_reclaimed_and_respawned(self, store, inst):
        # rate-1 drainer_loop: every drainer dies right after claiming.
        # Supervision must reclaim the lease each time and respawn the
        # drainer; with attempts exhausted the job lands in quarantine.
        queue = _make_queue(store, max_attempts=2, lease_seconds=0.1)
        restarts0 = _DRAINER_RESTARTS.value()
        reclaims0 = LEASE_RECLAIMS.value()
        injection.configure("drainer_loop:1")
        queue.start()
        try:
            job = queue.submit(inst, [("lpt", {})])
            back = _wait_status(store, job.id, ("quarantined",), timeout=30.0)
            assert "lease expired" in back.error
            assert LEASE_RECLAIMS.value() - reclaims0 >= 2
            assert _DRAINER_RESTARTS.value() - restarts0 >= 1
        finally:
            injection.reset()
            queue.stop(wait=True, grace=5.0)

    def test_graceful_stop_releases_leases(self, store, inst):
        queue = _make_queue(store)
        queue._session.solve_batch = lambda req: time.sleep(60)
        queue.start()
        try:
            job = queue.submit(inst, [("lpt", {})])
            _wait_status(store, job.id, ("running",))
            released = queue.stop(wait=True, grace=0.2)
            assert released == 1
            back = store.get_job(job.id)
            assert back.status == "queued"
            assert back.attempts == 0       # refunded, not burned
        finally:
            queue.stop(wait=False)

    def test_watchdog_timeout_on_drainer_thread(self, store, inst):
        # engine_workers=0 solves inline on the drainer thread, where
        # SIGALRM cannot arm — the watchdog-thread fallback must produce
        # a timeout report and leave the drainer alive for the next job.
        queue = _make_queue(store)
        injection.configure("solve_delay:1:0.5")
        queue.start()
        try:
            job = queue.submit(inst, [("lpt", {})], timeout=0.05)
            _wait_status(store, job.id, ("done",))
            (rep,) = store.reports_for(job.id)
            assert rep.status == "timeout"
            assert "exceeded" in rep.error

            injection.reset()               # same drainer, clean solve
            job2 = queue.submit(inst, [("lpt", {})], timeout=30.0)
            _wait_status(store, job2.id, ("done",))
            (rep2,) = store.reports_for(job2.id)
            assert rep2.status == "ok"
        finally:
            queue.stop(wait=True, grace=5.0)
