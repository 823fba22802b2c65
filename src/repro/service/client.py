"""Python client for the scheduling service (stdlib ``urllib`` only).

Speaks the versioned ``/v1`` API: the uniform error envelope is decoded
into :class:`ServiceError` (with its machine-readable ``code``),
``GET /v1/jobs`` pagination is exposed via :meth:`ServiceClient.jobs_page`,
and :meth:`ServiceClient.solve` drives the synchronous ``POST /v1/solve``
endpoint with a :class:`repro.api.SolveRequest`.

Used by the test suite, ``repro submit``, the examples and the remote
backend of :class:`repro.api.Session`; any other HTTP client works just
as well — the API is plain JSON (see :mod:`repro.service.server` for the
routes and curl examples in the README).

::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8080")
    job = client.submit(inst, ["splittable", ("ptas-splittable",
                                              {"delta": 2})])
    reports = client.wait(job["id"])          # list[SolveReport]
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..core.instance import Instance
from ..engine.report import SolveReport
from ..io import instance_to_dict
from ..obs.trace import TRACE_HEADER, current_trace_id
from .queue import WAIT_RECHECK_S
from .server import LONG_POLL_MAX_S
from .store import TERMINAL_STATUSES

if TYPE_CHECKING:    # pragma: no cover - typing only
    from ..api import SolveRequest

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An HTTP error from the service, with its decoded error envelope.

    ``code`` is the machine-readable envelope code (``unknown_solver``,
    ``not_found``, ...), or ``""`` for pre-envelope/legacy bodies.
    """

    def __init__(self, status: int, message: str, *, code: str = "",
                 detail: Any = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.code = code
        self.detail = detail


def _decode_error(status: int, payload: Any) -> ServiceError:
    err = payload.get("error") if isinstance(payload, dict) else None
    if isinstance(err, dict):       # the /v1 envelope
        return ServiceError(status, str(err.get("message", "")),
                            code=str(err.get("code", "")),
                            detail=err.get("detail"))
    if isinstance(err, str):        # legacy flat shape
        return ServiceError(status, err)
    return ServiceError(status, str(payload))


class ServiceClient:
    """Minimal blocking client for one service endpoint.

    ``api_prefix`` selects the surface; the default is the versioned
    ``/v1`` routes. Pass ``api_prefix=""`` to talk to the deprecated
    legacy aliases of an old server. ``sync_solve_budget`` is how long
    the server may spend on a ``POST /v1/solve`` submitted without its
    own timeout — match it to the server's ``--timeout`` when that is
    raised above the 60s default, or the client socket closes while the
    server is still solving.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 api_prefix: str = "/v1",
                 sync_solve_budget: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.api_prefix = api_prefix
        self.sync_solve_budget = sync_solve_budget

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #

    #: Transient connection failures retried for idempotent requests.
    _RETRIABLE = (ConnectionResetError, ConnectionRefusedError,
                  ConnectionAbortedError)
    _RETRIES = 4
    _RETRY_BASE = 0.05
    _RETRY_CAP = 2.0
    _RETRY_AFTER_CAP = 30.0

    @classmethod
    def _backoff_delay(cls, attempt: int) -> float:
        """Full-jitter exponential backoff: attempt ``k`` (0-based) waits
        ``uniform(0, min(cap, base * 2**k))`` — fixed linear sleeps
        resynchronize a thundering herd; jitter spreads it out."""
        return random.uniform(0.0, min(cls._RETRY_CAP,
                                       cls._RETRY_BASE * 2 ** attempt))

    def _request(self, method: str, path: str, body: dict | None = None,
                 transport_timeout: float | None = None) -> Any:
        headers = {"Content-Type": "application/json"}
        trace_id = current_trace_id()
        if trace_id is not None:
            # propagate the caller's ambient trace so server logs, the
            # job row and the resulting reports all correlate with it
            headers[TRACE_HEADER] = trace_id
        req = urllib.request.Request(
            self.base_url + self.api_prefix + path, method=method,
            data=json.dumps(body).encode() if body is not None else None,
            headers=headers)
        # GETs are idempotent, so a connection dropped under load — or a
        # 503 from an overloaded/draining server — is safely retried with
        # exponential backoff; a POST is never resent (double-submit)
        attempts = self._RETRIES if method == "GET" else 1
        for attempt in range(attempts):
            try:
                with urllib.request.urlopen(
                        req,
                        timeout=transport_timeout or self.timeout) as resp:
                    return json.loads(resp.read())
            except urllib.error.HTTPError as exc:
                try:
                    payload = json.loads(exc.read())
                except (json.JSONDecodeError, ValueError):
                    payload = {"error": str(exc.reason)}
                if exc.code == 503 and attempt < attempts - 1 \
                        and method == "GET":
                    # honor Retry-After when the server names a delay
                    retry_after = exc.headers.get("Retry-After") \
                        if exc.headers is not None else None
                    try:
                        delay = min(float(retry_after),
                                    self._RETRY_AFTER_CAP)
                    except (TypeError, ValueError):
                        delay = self._backoff_delay(attempt)
                    time.sleep(delay)
                    continue
                raise _decode_error(exc.code, payload) from None
            except self._RETRIABLE:
                if attempt == attempts - 1:
                    raise
                time.sleep(self._backoff_delay(attempt))
            except urllib.error.URLError as exc:
                if isinstance(exc.reason, self._RETRIABLE) \
                        and attempt < attempts - 1:
                    time.sleep(self._backoff_delay(attempt))
                else:
                    raise

    # ------------------------------------------------------------------ #
    # API
    # ------------------------------------------------------------------ #

    def solve(self, request: "SolveRequest") -> SolveReport:
        """``POST /v1/solve`` — synchronous solve of one small instance."""
        return SolveReport.from_dict(self.solve_raw(request)["report"])

    def solve_raw(self, request: "SolveRequest") -> dict:
        """``POST /v1/solve``, returning the raw payload — the canonical
        echo of the request under ``"request"`` plus its ``"report"``.

        The transport deadline outlasts the server-side solve budget
        (``request.timeout``, or ``sync_solve_budget`` when unset): a
        POST is never retried, so closing the socket early would lose
        the report of a solve the server finishes anyway."""
        budget = (request.timeout if request.timeout is not None
                  else self.sync_solve_budget)
        return self._request("POST", "/solve", request.to_dict(),
                             transport_timeout=max(self.timeout,
                                                   budget + 10.0))

    def submit(self, inst: Instance | Mapping[str, Any],
               algorithms: Iterable[str | tuple[str, Mapping[str, Any]]],
               *, label: str = "", priority: int = 0,
               timeout: float | None = None) -> dict:
        """``POST /v1/jobs``; returns the created job record as a dict."""
        algos: list[Any] = []
        for item in algorithms:
            if isinstance(item, str):
                algos.append(item)
            else:
                name, kwargs = item
                algos.append([name, dict(kwargs or {})])
        body = {
            "instance": (instance_to_dict(inst)
                         if isinstance(inst, Instance) else dict(inst)),
            "algorithms": algos, "label": label, "priority": priority,
        }
        if timeout is not None:
            body["timeout"] = timeout
        return self._request("POST", "/jobs", body)

    def job(self, job_id: str) -> dict:
        """``GET /v1/jobs/{id}``."""
        return self._request("GET", f"/jobs/{job_id}")

    def jobs_page(self, status: str | None = None, limit: int = 50,
                  offset: int = 0) -> dict:
        """``GET /v1/jobs`` — one page plus pagination metadata
        (``total``, ``limit``, ``offset``, ``next_offset``)."""
        path = f"/jobs?limit={limit}&offset={offset}"
        if status is not None:
            path += f"&status={status}"
        return self._request("GET", path)

    def jobs(self, status: str | None = None, limit: int = 50,
             offset: int = 0) -> list[dict]:
        """``GET /v1/jobs``, just the records of one page."""
        return self.jobs_page(status, limit, offset)["jobs"]

    def reports(self, job_id: str) -> list[SolveReport]:
        """``GET /v1/jobs/{id}/reports``, decoded back into SolveReports
        (fractions arrive exact thanks to the num/den wire encoding)."""
        payload = self._request("GET", f"/jobs/{job_id}/reports")
        return [SolveReport.from_dict(d) for d in payload["reports"]]

    def results_for_digest(self, digest: str) -> list[SolveReport]:
        """``GET /v1/results/{digest}`` — the cross-client cache view."""
        payload = self._request("GET", f"/results/{digest}")
        return [SolveReport.from_dict(d) for d in payload["reports"]]

    def solvers(self) -> list[dict]:
        """``GET /v1/solvers``."""
        return self._request("GET", "/solvers")["solvers"]

    def health(self) -> dict:
        """``GET /v1/healthz``."""
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """``GET /v1/metrics`` — the raw Prometheus text exposition
        (the one non-JSON payload, so it bypasses ``_request``)."""
        req = urllib.request.Request(
            self.base_url + self.api_prefix + "/metrics", method="GET")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.read().decode()
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, str(exc.reason)) from None

    @staticmethod
    def job_failure(job: Mapping[str, Any]) -> ServiceError:
        """The one way a terminally unsuccessful job becomes an exception
        — ``wait`` and the remote Session backend must agree on
        ``code=\"job_failed\"`` (``\"job_quarantined\"`` for jobs that
        exhausted their retry attempts)."""
        status = job.get("status", "failed")
        return ServiceError(
            500, f"job {job['id']} {status}: {job.get('error', '')}",
            code=("job_quarantined" if status == "quarantined"
                  else "job_failed"))

    def wait(self, job_id: str, *,
             timeout: float = 60.0) -> list[SolveReport]:
        """Block until the job finishes; return its reports.

        While the job is still queued or running, one long-poll
        ``GET /v1/jobs/{id}?wait=`` lets the server hold the request
        until the job ends (at most ``LONG_POLL_MAX_S`` per request), so
        there is no sleep between looks. Only when that request comes
        back early with the job unfinished (a server that ignores
        ``?wait``, as older ones do, or one that is stopping) does it
        pause, for a jittered delay growing from 25 ms to 1 s. Status
        and reports are read only through :meth:`job` and
        :meth:`reports`, so a subclass hooking those sees every step. Raises :class:`TimeoutError` if
        the job is still pending after ``timeout`` seconds, and
        :class:`ServiceError` (status 500) if the job itself failed or
        was quarantined server-side.
        """
        deadline = time.monotonic() + timeout
        pause = WAIT_RECHECK_S
        while True:
            job = self.job(job_id)
            if job["status"] == "done":
                return self.reports(job_id)
            if job["status"] in TERMINAL_STATUSES:
                raise self.job_failure(job)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {job['status']} after {timeout}s")
            hold = min(remaining, LONG_POLL_MAX_S)
            asked = time.monotonic()
            # the answer only decides whether to pause: the job() call
            # above re-reads the status
            held = self._request(
                "GET", f"/jobs/{job_id}?wait={hold:.3f}",
                transport_timeout=max(self.timeout, hold + 10.0))
            if held["status"] not in TERMINAL_STATUSES \
                    and time.monotonic() - asked < hold / 2:
                # unfinished and answered early: not held, so pause
                time.sleep(min(pause * random.uniform(0.5, 1.0),
                               max(0.0, deadline - time.monotonic())))
                pause = min(2 * pause, 1.0)
