"""SQLite reference implementation of the storage layer.

One database file holds everything the service must not lose on restart:

* ``jobs`` — every submitted job with its full input (instance JSON,
  algorithm list, priority, timeout) and lifecycle timestamps, so a
  restarted server re-enqueues whatever was queued or mid-flight;
* ``reports`` — the ordered :class:`~repro.engine.report.SolveReport`
  rows a finished job produced (JSON per row, fractions stay exact via
  the report's ``num/den`` wire encoding);
* ``worker_claims`` — cumulative claims per worker node, so a server
  can expose per-worker counters for workers living in *other*
  processes (their in-process metric registries are invisible here).

The cross-client result cache lives next to the database as N shard
files (``<path>.cache-<k>``, consistent-hashed by report key — see
:class:`~repro.resultcache.ShardedReportCache`), reached through the
same ``cache_get``/``cache_put`` seam as before; a pre-shard ``results``
table found in an old database is migrated into the shards on open.

Concurrency. The store is accessed from many threads (HTTP handlers +
worker-node drainers) and, in fleet topologies, from many *processes*.
File-backed stores keep a small pool of idle connections (WAL journal +
``busy_timeout`` + ``BEGIN IMMEDIATE`` write transactions): each read or
write transaction borrows one and hands it back, so readers never block
behind writers, concurrent writers queue on SQLite's own lock instead of
racing, and a server that runs every HTTP request on a fresh thread
neither opens a connection per request nor keeps more than
:data:`_POOL_IDLE_MAX` open between requests. ``:memory:`` stores —
where every connection would see a different empty database — keep the
legacy single shared connection behind an RLock.

Records read from the database leave the job's instance JSON undecoded
until ``JobRecord.instance`` is first read, so status reads never pay for
it; ``claim_next``, whose caller runs the job, decodes it up front.

This is the reference :class:`~repro.service.storage.StoreBackend`; the
in-memory twin used by tests and chaos lives in
:mod:`repro.service.storage`.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from ..core.instance import Instance
from ..engine.report import SolveReport
from ..faults import injection
from ..io import instance_from_dict, instance_to_dict
from ..resultcache import (CACHE_HITS, CACHE_MISSES, DEFAULT_CACHE_SHARDS,
                           MemoryCacheShard, ShardedReportCache,
                           SqliteCacheShard)

__all__ = ["JobStore", "JobRecord", "SqliteReportCache", "JOB_STATUSES",
           "TERMINAL_STATUSES", "DEFAULT_MAX_ATTEMPTS"]

#: Lifecycle of a job. ``queued`` and ``running`` survive restarts as
#: ``queued`` (until their attempts run out); ``done``, ``failed`` and
#: ``quarantined`` are terminal. ``quarantined`` is where a job lands
#: after exhausting ``max_attempts`` — repeatedly crashing work must
#: neither loop forever nor masquerade as an ordinary failure.
JOB_STATUSES = ("queued", "running", "done", "failed", "quarantined")

#: The statuses a job can never leave.
TERMINAL_STATUSES = ("done", "failed", "quarantined")

#: Attempts a job gets before quarantine, unless overridden per job.
DEFAULT_MAX_ATTEMPTS = 3

#: Idle connections a file-backed store keeps for reuse. More may be
#: open while that many threads are inside a transaction at once; the
#: surplus is closed as it is handed back.
_POOL_IDLE_MAX = 8

#: How many eligible candidates ``claim_next`` races for before giving
#: up the poll — under N competing nodes, losing the first few atomic
#: claims is normal, losing eight in a row means the queue is drained.
_CLAIM_CANDIDATES = 8

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id              TEXT PRIMARY KEY,
    status          TEXT NOT NULL,
    priority        INTEGER NOT NULL DEFAULT 0,
    label           TEXT NOT NULL DEFAULT '',
    instance        TEXT NOT NULL,
    instance_digest TEXT NOT NULL,
    algorithms      TEXT NOT NULL,
    timeout         REAL,
    error           TEXT NOT NULL DEFAULT '',
    submitted_at    REAL NOT NULL,
    started_at      REAL,
    finished_at     REAL,
    trace_id        TEXT,
    lease_expires_at REAL,
    attempts        INTEGER NOT NULL DEFAULT 0,
    max_attempts    INTEGER NOT NULL DEFAULT 3,
    next_attempt_at REAL,
    claimed_by      TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs(status);

CREATE TABLE IF NOT EXISTS reports (
    job_id TEXT NOT NULL,
    seq    INTEGER NOT NULL,
    report TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);

CREATE TABLE IF NOT EXISTS worker_claims (
    worker TEXT PRIMARY KEY,
    claims INTEGER NOT NULL DEFAULT 0
);

CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class _LazyInstance:
    """Data descriptor behind :attr:`JobRecord.instance`: it takes an
    :class:`Instance`, or the row's instance JSON text, which it decodes
    on first read and keeps. Status reads never touch the instance, so
    they never pay for decoding it."""

    def __set_name__(self, owner, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, obj, owner=None) -> Instance:
        if obj is None:
            # no class-level default: the field stays a required argument
            raise AttributeError(self._slot[1:])
        value = obj.__dict__[self._slot]
        if isinstance(value, str):
            value = instance_from_dict(json.loads(value))
            obj.__dict__[self._slot] = value
        return value

    def __set__(self, obj, value: Instance | str) -> None:
        obj.__dict__[self._slot] = value


@dataclass(frozen=True)
class JobRecord:
    """One row of the ``jobs`` table, decoded (the instance lazily)."""

    id: str
    status: str
    priority: int
    label: str
    instance: Instance = _LazyInstance()
    instance_digest: str
    algorithms: tuple[tuple[str, dict], ...]
    timeout: float | None
    error: str = ""
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    trace_id: str | None = None
    lease_expires_at: float | None = None
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    next_attempt_at: float | None = None
    claimed_by: str | None = None

    def to_dict(self) -> dict:
        """JSON-safe summary (what ``GET /jobs/{id}`` returns)."""
        return {
            "id": self.id, "status": self.status, "priority": self.priority,
            "label": self.label, "instance_digest": self.instance_digest,
            "algorithms": [[name, kwargs] for name, kwargs in self.algorithms],
            "timeout": self.timeout, "error": self.error,
            "submitted_at": self.submitted_at, "started_at": self.started_at,
            "finished_at": self.finished_at, "trace_id": self.trace_id,
            "lease_expires_at": self.lease_expires_at,
            "attempts": self.attempts, "max_attempts": self.max_attempts,
            "next_attempt_at": self.next_attempt_at,
            "claimed_by": self.claimed_by,
        }


def _row_to_record(row: sqlite3.Row) -> JobRecord:
    return JobRecord(
        id=row["id"], status=row["status"], priority=row["priority"],
        label=row["label"], instance=row["instance"],
        instance_digest=row["instance_digest"],
        algorithms=tuple((name, dict(kwargs))
                         for name, kwargs in json.loads(row["algorithms"])),
        timeout=row["timeout"], error=row["error"],
        submitted_at=row["submitted_at"], started_at=row["started_at"],
        finished_at=row["finished_at"], trace_id=row["trace_id"],
        lease_expires_at=row["lease_expires_at"],
        attempts=row["attempts"], max_attempts=row["max_attempts"],
        next_attempt_at=row["next_attempt_at"],
        claimed_by=row["claimed_by"])


class _Rollback(Exception):
    """Raised inside a :meth:`JobStore._write` block to abort the
    transaction without propagating — the conditional-UPDATE-lost path."""


class JobStore:
    """Thread- and process-safe persistent job + report + cache store.

    ``cache_shards`` sets the result-cache fan-out for a *fresh*
    database; an existing one keeps the count it was created with (the
    consistent-hash ring must match the shard files on disk).
    """

    def __init__(self, path: str | os.PathLike, *,
                 cache_shards: int | None = None) -> None:
        self.path = str(path)
        self._serial = self.path == ":memory:" \
            or self.path.startswith("file::memory:")
        self._lock = threading.RLock()
        # every open connection, idle or in use, so close() reaches them
        # all; the idle ones wait in _idle for the next transaction
        self._conns: set[sqlite3.Connection] = set()
        self._idle: list[sqlite3.Connection] = []
        self._closed = False
        if self._serial:
            # every connection to :memory: is its own empty database, so
            # a pool is impossible — serialise on one connection instead
            self._shared = self._connect()
        else:
            self._shared = None
        # executescript commits on its own (autocommit mode), so schema
        # setup stays outside the explicit-transaction helpers
        with self._read() as conn:
            conn.executescript(_SCHEMA)
        with self._write() as conn:
            self._migrate(conn)
        self.cache = self._open_cache(cache_shards)
        self._migrate_legacy_results()

    # ------------------------------------------------------------------ #
    # connections & transactions
    # ------------------------------------------------------------------ #

    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False: a pooled connection serves whichever
        # thread borrows it next, and close() may run from any thread;
        # each is still used by one thread at a time (file mode) or
        # behind the RLock (memory mode). isolation_level=None puts
        # sqlite3 in autocommit so BEGIN IMMEDIATE below is explicit.
        conn = sqlite3.connect(self.path, check_same_thread=False,
                               isolation_level=None)
        conn.row_factory = sqlite3.Row
        if not self._serial:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA busy_timeout=10000")
        conn.execute("PRAGMA synchronous=NORMAL")
        with self._lock:
            self._conns.add(conn)
        return conn

    @contextlib.contextmanager
    def _read(self):
        """A connection for one read (or one :meth:`_write` transaction),
        from the idle pool when it has one; handed back afterwards, or
        closed when the pool is full, the store closed, or a transaction
        was left open."""
        if self._serial:
            with self._lock:
                yield self._shared
            return
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._connect()
        try:
            yield conn
        finally:
            with self._lock:
                keep = not self._closed and not conn.in_transaction \
                    and len(self._idle) < _POOL_IDLE_MAX
                if keep:
                    self._idle.append(conn)
                else:
                    self._conns.discard(conn)
            if not keep:
                conn.close()

    @contextlib.contextmanager
    def _write(self):
        """One atomic write transaction (`BEGIN IMMEDIATE` ... COMMIT).

        Raising :class:`_Rollback` inside the block rolls back quietly —
        the caller signals "condition not met" via its own return value.
        Any other exception rolls back and propagates."""
        with self._read() as conn:
            yield from self._tx(conn)

    @staticmethod
    def _tx(conn: sqlite3.Connection):
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except _Rollback:
            conn.execute("ROLLBACK")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        else:
            conn.execute("COMMIT")

    def _migrate(self, conn: sqlite3.Connection) -> None:
        """Bring a pre-existing database up to the current schema —
        additive columns only, so old and new processes can share one
        file during a rolling restart."""
        cols = {row["name"] for row in conn.execute("PRAGMA table_info(jobs)")}
        for name, decl in (
                ("trace_id", "TEXT"),
                ("lease_expires_at", "REAL"),
                ("attempts", "INTEGER NOT NULL DEFAULT 0"),
                ("max_attempts",
                 f"INTEGER NOT NULL DEFAULT {DEFAULT_MAX_ATTEMPTS}"),
                ("next_attempt_at", "REAL"),
                ("claimed_by", "TEXT")):
            if name not in cols:
                conn.execute(f"ALTER TABLE jobs ADD COLUMN {name} {decl}")

    @property
    def url(self) -> str:
        """The ``store_url`` this store reopens under."""
        if self._serial:
            return "sqlite:///:memory:"
        return f"sqlite:///{self.path}"

    def close(self) -> None:
        self.cache.close()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # in-use connections too: their borrowers fail on their next
            # statement, and hand back a closed connection that is not
            # pooled again
            for conn in self._conns:
                with contextlib.suppress(sqlite3.ProgrammingError):
                    conn.close()
            self._conns.clear()
            self._idle.clear()

    # ------------------------------------------------------------------ #
    # result-cache shards
    # ------------------------------------------------------------------ #

    def _meta_get(self, key: str) -> str | None:
        with self._read() as conn:
            row = conn.execute("SELECT value FROM meta WHERE key=?",
                               (key,)).fetchone()
        return row["value"] if row is not None else None

    def _meta_set(self, key: str, value: str) -> None:
        with self._write() as conn:
            conn.execute("INSERT OR REPLACE INTO meta (key, value) "
                         "VALUES (?, ?)", (key, value))

    def _open_cache(self, cache_shards: int | None) -> ShardedReportCache:
        if self._serial:
            count = cache_shards or DEFAULT_CACHE_SHARDS
            shards = [MemoryCacheShard() for _ in range(count)]
            return ShardedReportCache(shards, label="service")
        stored = self._meta_get("cache_shards")
        if stored is not None:
            # the ring must match the shard files already on disk; a
            # mismatched request would silently miss every old entry
            count = int(stored)
        else:
            count = cache_shards or DEFAULT_CACHE_SHARDS
            self._meta_set("cache_shards", str(count))
        shards = [SqliteCacheShard(f"{self.path}.cache-{k}")
                  for k in range(count)]
        return ShardedReportCache(shards, label="service")

    def _migrate_legacy_results(self) -> None:
        """Move a pre-shard ``results`` table into the shard files, then
        drop it — an old monolithic database keeps its warm cache."""
        with self._read() as conn:
            present = conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "AND name='results'").fetchone()
        if present is None:
            return
        with self._read() as conn:
            rows = conn.execute(
                "SELECT key, instance_digest, report FROM results "
                "ORDER BY stored_at").fetchall()
        for row in rows:
            try:
                rep = SolveReport.from_dict(json.loads(row["report"]))
            except (ValueError, TypeError, json.JSONDecodeError):
                continue    # corrupt legacy entry: drop it
            self.cache.store(row["key"], row["instance_digest"], rep)
        with self._write() as conn:
            conn.execute("DROP TABLE results")

    # ------------------------------------------------------------------ #
    # jobs
    # ------------------------------------------------------------------ #

    def create_job(self, inst: Instance,
                   algorithms: Iterable[tuple[str, Mapping[str, Any]]],
                   *, label: str = "", priority: int = 0,
                   timeout: float | None = None,
                   trace_id: str | None = None,
                   max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> JobRecord:
        """Persist a new ``queued`` job and return its record."""
        job_id = uuid.uuid4().hex[:16]
        algos = tuple((name, dict(kwargs or {})) for name, kwargs in algorithms)
        if not algos:
            raise ValueError("a job needs at least one algorithm")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        now = time.time()
        with self._write() as conn:
            conn.execute(
                "INSERT INTO jobs (id, status, priority, label, instance, "
                "instance_digest, algorithms, timeout, submitted_at, "
                "trace_id, max_attempts) "
                "VALUES (?, 'queued', ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (job_id, int(priority), label,
                 json.dumps(instance_to_dict(inst)), inst.digest(),
                 json.dumps([[n, k] for n, k in algos]), timeout, now,
                 trace_id, int(max_attempts)))
        return JobRecord(id=job_id, status="queued", priority=int(priority),
                         label=label, instance=inst,
                         instance_digest=inst.digest(), algorithms=algos,
                         timeout=timeout, submitted_at=now,
                         trace_id=trace_id, max_attempts=int(max_attempts))

    def get_job(self, job_id: str) -> JobRecord | None:
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        return _row_to_record(row) if row is not None else None

    def list_jobs(self, status: str | None = None,
                  limit: int = 100, offset: int = 0) -> list[JobRecord]:
        """Most recent jobs first, optionally filtered by status.

        ``offset`` skips past rows for pagination; id breaks ties in
        ``submitted_at`` so pages never overlap or skip."""
        q = "SELECT * FROM jobs"
        params: tuple = ()
        if status is not None:
            q += " WHERE status = ?"
            params = (status,)
        q += " ORDER BY submitted_at DESC, id LIMIT ? OFFSET ?"
        with self._read() as conn:
            rows = conn.execute(q, params + (int(limit),
                                             int(offset))).fetchall()
        return [_row_to_record(r) for r in rows]

    def count_jobs(self, status: str | None = None) -> int:
        """Total jobs (for one status, or overall) — pagination totals."""
        q = "SELECT COUNT(*) FROM jobs"
        params: tuple = ()
        if status is not None:
            q += " WHERE status = ?"
            params = (status,)
        with self._read() as conn:
            (n,) = conn.execute(q, params).fetchone()
        return n

    def claim_job(self, job_id: str, lease_seconds: float | None = None,
                  *, worker: str = "") -> bool:
        """Atomically flip one ``queued`` job to ``running``, counting
        the attempt and (when ``lease_seconds`` is given) stamping a
        lease plus the claiming ``worker``'s name.

        Returns False when the job is gone, already claimed, or parked
        behind its retry backoff (``next_attempt_at`` in the future) —
        any number of worker nodes may race one id, and exactly one must
        win. A claim without a lease never expires — the legacy
        single-node behaviour, recovered only by a restart."""
        now = time.time()
        lease = now + lease_seconds if lease_seconds else None
        claimed = False
        with self._write() as conn:
            cur = conn.execute(
                "UPDATE jobs SET status='running', started_at=?, "
                "lease_expires_at=?, attempts=attempts+1, claimed_by=? "
                "WHERE id=? AND status='queued' "
                "AND (next_attempt_at IS NULL OR next_attempt_at<=?)",
                (now, lease, worker or None, job_id, now))
            if cur.rowcount != 1:
                raise _Rollback
            if worker:
                conn.execute(
                    "INSERT INTO worker_claims (worker, claims) "
                    "VALUES (?, 1) ON CONFLICT(worker) "
                    "DO UPDATE SET claims=claims+1", (worker,))
            claimed = True
        return claimed

    def claim_next(self, lease_seconds: float | None = None,
                   *, worker: str = "") -> JobRecord | None:
        """Claim the most urgent eligible ``queued`` job — highest
        priority first, FIFO within a priority level — and return its
        post-claim record (attempt counted, lease stamped), or ``None``
        when nothing is currently claimable.

        This is the one-call poll a :class:`WorkerNode` loops on: the
        SELECT is a snapshot, so each candidate is confirmed with the
        atomic conditional UPDATE of :meth:`claim_job`; racing nodes
        simply fall through to the next candidate."""
        now = time.time()
        with self._read() as conn:
            rows = conn.execute(
                "SELECT id FROM jobs WHERE status='queued' "
                "AND (next_attempt_at IS NULL OR next_attempt_at<=?) "
                "ORDER BY priority DESC, submitted_at, id LIMIT ?",
                (now, _CLAIM_CANDIDATES)).fetchall()
        for row in rows:
            if self.claim_job(row["id"], lease_seconds, worker=worker):
                job = self.get_job(row["id"])
                job.instance    # the caller runs it: decode here
                return job
        return None

    def claims_by_worker(self) -> dict[str, int]:
        """Cumulative claims per worker node, across every process that
        ever claimed from this store."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT worker, claims FROM worker_claims").fetchall()
        return {row["worker"]: row["claims"] for row in rows}

    def heartbeat(self, job_id: str, lease_seconds: float) -> bool:
        """Extend a ``running`` job's lease; False when the job is no
        longer running (finished, or reclaimed out from under us)."""
        with self._write() as conn:
            cur = conn.execute(
                "UPDATE jobs SET lease_expires_at=? "
                "WHERE id=? AND status='running'",
                (time.time() + lease_seconds, job_id))
            ok = cur.rowcount == 1
        return ok

    def requeue_job(self, job_id: str, *, error: str = "",
                    delay: float = 0.0) -> bool:
        """Put a ``running`` job back in line after a retryable failure,
        due again ``delay`` seconds from now. The attempt stays counted."""
        with self._write() as conn:
            cur = conn.execute(
                "UPDATE jobs SET status='queued', started_at=NULL, "
                "lease_expires_at=NULL, next_attempt_at=?, error=? "
                "WHERE id=? AND status='running'",
                (time.time() + max(0.0, delay), error, job_id))
            ok = cur.rowcount == 1
        return ok

    def release_lease(self, job_id: str) -> bool:
        """Hand a ``running`` job back untouched — graceful shutdown's
        path for work it cannot finish in its drain grace. Unlike
        :meth:`requeue_job` the attempt is *refunded*: the job was not
        at fault, and an orderly restart must not eat its retry budget."""
        with self._write() as conn:
            cur = conn.execute(
                "UPDATE jobs SET status='queued', started_at=NULL, "
                "lease_expires_at=NULL, next_attempt_at=NULL, "
                "attempts=CASE WHEN attempts>0 THEN attempts-1 ELSE 0 END "
                "WHERE id=? AND status='running'", (job_id,))
            ok = cur.rowcount == 1
        return ok

    def quarantine_job(self, job_id: str, error: str) -> bool:
        """Terminally park a ``running`` job that exhausted its attempts."""
        with self._write() as conn:
            cur = conn.execute(
                "UPDATE jobs SET status='quarantined', error=?, "
                "finished_at=?, lease_expires_at=NULL "
                "WHERE id=? AND status='running'",
                (error, time.time(), job_id))
            ok = cur.rowcount == 1
        return ok

    def reclaim_expired(self, backoff) -> tuple[list[JobRecord],
                                                list[JobRecord]]:
        """Sweep ``running`` jobs whose lease expired (their worker died
        or hung past its heartbeat): requeue those with attempts left —
        due after ``backoff(attempts)`` seconds — and quarantine the
        rest. Returns ``(requeued, quarantined)`` records with their
        post-sweep fields, so the caller can re-index and log them."""
        now = time.time()
        requeued: list[JobRecord] = []
        quarantined: list[JobRecord] = []
        with self._write() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE status='running' "
                "AND lease_expires_at IS NOT NULL "
                "AND lease_expires_at<=?", (now,)).fetchall()
            for row in rows:
                rec = _row_to_record(row)
                note = (f"lease expired mid-run (attempt "
                        f"{rec.attempts}/{rec.max_attempts})")
                if rec.error:
                    note += f"; last error: {rec.error}"
                if rec.attempts >= rec.max_attempts:
                    conn.execute(
                        "UPDATE jobs SET status='quarantined', error=?, "
                        "finished_at=?, lease_expires_at=NULL WHERE id=?",
                        (note, now, rec.id))
                    quarantined.append(replace(
                        rec, status="quarantined", error=note,
                        finished_at=now, lease_expires_at=None))
                else:
                    due = now + max(0.0, float(backoff(rec.attempts)))
                    conn.execute(
                        "UPDATE jobs SET status='queued', started_at=NULL, "
                        "lease_expires_at=NULL, next_attempt_at=?, error=? "
                        "WHERE id=?", (due, note, rec.id))
                    requeued.append(replace(
                        rec, status="queued", error=note, started_at=None,
                        lease_expires_at=None, next_attempt_at=due))
        return requeued, quarantined

    def finish_job(self, job_id: str, reports: Iterable[SolveReport],
                   *, error: str = "") -> bool:
        """Store a job's reports and flip it to ``done`` (or ``failed``).

        The flip is conditional on the job still being ``running``:
        returns False — storing nothing — when it is not, so a worker
        whose lease was reclaimed mid-run cannot clobber the outcome of
        the retry that superseded it."""
        injection.maybe_raise("store_commit")
        status = "failed" if error else "done"
        finished = False
        with self._write() as conn:
            cur = conn.execute(
                "UPDATE jobs SET status=?, error=?, finished_at=?, "
                "lease_expires_at=NULL WHERE id=? AND status='running'",
                (status, error, time.time(), job_id))
            if cur.rowcount != 1:
                raise _Rollback
            conn.execute("DELETE FROM reports WHERE job_id=?", (job_id,))
            conn.executemany(
                "INSERT INTO reports (job_id, seq, report) VALUES (?, ?, ?)",
                [(job_id, seq, json.dumps(rep.to_dict()))
                 for seq, rep in enumerate(reports)])
            finished = True
        return finished

    def reports_for(self, job_id: str) -> list[SolveReport]:
        with self._read() as conn:
            rows = conn.execute(
                "SELECT report FROM reports WHERE job_id=? ORDER BY seq",
                (job_id,)).fetchall()
        return [SolveReport.from_dict(json.loads(r["report"])) for r in rows]

    def recover_incomplete(self) -> list[JobRecord]:
        """Flip ``running`` leftovers back to ``queued`` — except those
        already out of attempts, which are quarantined — and return every
        job the queue must pick up again, oldest submission first, so a
        restart preserves FIFO order within a priority level. Call once
        at *server* start (never from a worker node joining a live
        fleet — it would clobber its peers' leases): a crash mid-solve
        must not strand work in ``running`` forever. Recovery clears any
        retry backoff: the new process starts with a clean slate."""
        now = time.time()
        with self._write() as conn:
            conn.execute(
                "UPDATE jobs SET status='quarantined', finished_at=?, "
                "lease_expires_at=NULL, "
                "error='process died mid-run with no attempts left "
                "(attempts ' || attempts || '/' || max_attempts || ')' "
                "WHERE status='running' AND attempts>=max_attempts",
                (now,))
            conn.execute(
                "UPDATE jobs SET status='queued', started_at=NULL, "
                "lease_expires_at=NULL, next_attempt_at=NULL "
                "WHERE status='running'")
            conn.execute(
                "UPDATE jobs SET next_attempt_at=NULL "
                "WHERE status='queued'")
        with self._read() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE status='queued' "
                "ORDER BY submitted_at").fetchall()
        return [_row_to_record(r) for r in rows]

    def counts(self) -> dict[str, int]:
        """Job counts per status (zero-filled for missing statuses)."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        out = {s: 0 for s in JOB_STATUSES}
        out.update({r["status"]: r["n"] for r in rows})
        return out

    # ------------------------------------------------------------------ #
    # cross-client result cache (delegates to the shards)
    # ------------------------------------------------------------------ #

    def cache_get(self, key: str) -> SolveReport | None:
        return self.cache.peek(key)

    def cache_put(self, key: str, digest: str, report: SolveReport) -> None:
        self.cache.store(key, digest, report)

    def cached_reports_for_digest(self, digest: str) -> list[SolveReport]:
        """Every cached report for one instance content hash — the store
        doubles as a digest-indexed ReportCache across clients."""
        return self.cache.reports_for_digest(digest)

    def cache_size(self) -> int:
        return self.cache.size()


class SqliteReportCache:
    """Adapter giving a store's result cache the ``get``/``put``
    interface ``run_batch(cache=...)`` expects, with the same hit/miss
    counters :class:`~repro.resultcache.ReportCache` exposes. Kept for
    callers that count hits per-adapter; new code can hand
    ``store.cache`` (a counting :class:`ShardedReportCache`) to the
    engine directly."""

    def __init__(self, store: JobStore) -> None:
        self._store = store
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return self._store.cache_size()

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def get(self, key: str) -> SolveReport | None:
        rep = self._store.cache_get(key)
        with self._lock:
            if rep is None:
                self.misses += 1
            else:
                self.hits += 1
        # mirrored into the process-global registry so /v1/healthz and
        # /v1/metrics read the same numbers (label "service" keeps the
        # persistent store cache distinct from the engine's ReportCache)
        if rep is None:
            CACHE_MISSES.inc(cache="service")
        else:
            CACHE_HITS.inc(cache="service")
        return rep

    def put(self, key: str, report: SolveReport) -> None:
        self._store.cache_put(key, report.instance_digest, report)
