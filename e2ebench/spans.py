"""Spans recorded by the benchmark around the calls it makes into each
layer, and the delegating proxies that record them.

A span is ``(id, parent, name, rid, start, end, tag)``: ``parent`` is the
span open on the same thread when it began (``None`` at the top),
``rid`` the request id (a job id where one is known), ``tag`` a small
outcome flag (``"empty"`` for a ``claim_next`` that found no job).
Times are ``time.time()`` seconds, so spans recorded in the server child
line up with the job records' ``submitted_at`` / ``started_at`` /
``finished_at`` stamps. Spans are kept in memory and written out once,
when the run ends.

Nothing here reaches into the program: the proxies wrap the public
``StoreBackend`` protocol and the cache seam the worker nodes use, and
:class:`TracedClient` overrides public ``ServiceClient`` methods.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Thread-safe in-memory span log."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: job records as a client first saw them ``done``, by job id
        self.done_jobs: dict[str, dict] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: str | None = None):
        """Record ``name`` around the body. The yielded dict lets the
        body fill in ``rid`` and ``tag`` once it knows them."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        info = {"rid": rid, "tag": None}
        stack.append(sid)
        start = time.time()
        try:
            yield info
        finally:
            end = time.time()
            stack.pop()
            self.spans.append((sid, parent, name, info["rid"], start, end,
                               info["tag"]))

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def load(path: Path) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Seconds each span name spent outside its child spans, summed.

    Children share their parent's thread, so they never overlap each
    other and their durations can simply be subtracted."""
    child_s: dict[int, float] = defaultdict(float)
    for sid, parent, _n, _r, start, end, _t in spans:
        if parent is not None:
            child_s[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _p, name, _r, start, end, _t in spans:
        out[name] += (end - start) - child_s.get(sid, 0.0)
    return dict(out)


def within(spans: list[tuple], t0: float, t1: float) -> list[tuple]:
    """Spans that began inside ``[t0, t1)``."""
    return [s for s in spans if t0 <= s[4] < t1]


# ---------------------------------------------------------------------- #
# server side: the store backend and its result cache
# ---------------------------------------------------------------------- #

#: Every method of the ``StoreBackend`` protocol. The proxy defines each
#: one on its class, so a runtime protocol check sees them all.
STORE_METHODS = (
    "close", "create_job", "get_job", "list_jobs", "count_jobs", "counts",
    "claim_job", "claim_next", "claims_by_worker", "heartbeat",
    "requeue_job", "release_lease", "quarantine_job", "reclaim_expired",
    "finish_job", "reports_for", "recover_incomplete", "cache_get",
    "cache_put", "cached_reports_for_digest", "cache_size")


def _traced_method(name: str):
    def method(self, *args, **kwargs):
        with self._rec.span("store." + name) as info:
            if args and isinstance(args[0], str):
                info["rid"] = args[0]
            result = getattr(self._store, name)(*args, **kwargs)
            if info["rid"] is None and hasattr(result, "id"):
                info["rid"] = result.id
            if name == "claim_next" and result is None:
                info["tag"] = "empty"
            return result
    method.__name__ = name
    return method


class TracedStore:
    """Delegating ``StoreBackend`` that records a span per call."""

    def __init__(self, store, recorder: Recorder) -> None:
        self._store = store
        self._rec = recorder
        self.cache = TracedCache(store.cache, recorder)

    @property
    def url(self) -> str:
        return self._store.url


for _name in STORE_METHODS:
    setattr(TracedStore, _name, _traced_method(_name))


class TracedCache:
    """Delegating result cache recording ``cache.get`` / ``cache.put``
    spans (the counting seam ``run_batch`` calls); everything else
    passes through untimed."""

    def __init__(self, cache, recorder: Recorder) -> None:
        self._cache = cache
        self._rec = recorder

    def get(self, key):
        with self._rec.span("cache.get") as info:
            rep = self._cache.get(key)
            info["tag"] = "miss" if rep is None else "hit"
            return rep

    def put(self, key, report):
        with self._rec.span("cache.put"):
            return self._cache.put(key, report)

    def __len__(self) -> int:
        return len(self._cache)

    def __getattr__(self, name):
        return getattr(self._cache, name)


# ---------------------------------------------------------------------- #
# client side
# ---------------------------------------------------------------------- #

def traced_client_class(recorder: Recorder):
    """A ``ServiceClient`` subclass recording a span around each public
    call. ``ServiceClient.wait`` polls through ``job`` and fetches
    through ``reports``, so one round trip yields a ``client.wait`` span
    with ``client.job`` (one per poll) and ``client.reports`` children;
    the gaps between polls are the client's sleeps."""
    from repro.service import ServiceClient

    class TracedClient(ServiceClient):
        def submit(self, *args, **kwargs):
            with recorder.span("client.submit") as info:
                job = super().submit(*args, **kwargs)
                info["rid"] = job["id"]
                return job

        def job(self, job_id):
            with recorder.span("client.job", job_id) as info:
                job = super().job(job_id)
                info["tag"] = job["status"]
                if job["status"] == "done":
                    recorder.done_jobs.setdefault(job_id, job)
                return job

        def reports(self, job_id):
            with recorder.span("client.reports", job_id):
                return super().reports(job_id)

        def wait(self, job_id, **kwargs):
            with recorder.span("client.wait", job_id):
                return super().wait(job_id, **kwargs)

    return TracedClient
