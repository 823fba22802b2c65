"""Tests for the versioned ``/v1`` HTTP surface: the error envelope,
pagination, the synchronous solve endpoint, deprecated legacy aliases,
the long-poll ``?wait=`` on job status and the client's wait built on
it, and the remote backend's byte-identical request round-trip."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import Instance
from repro.__main__ import main
from repro.api import Session, SolveRequest, SolverQuery
from repro.obs.metrics import parse_exposition
from repro.service import (JobQueue, SchedulingService, ServiceClient,
                           ServiceError, WorkerNode, open_store)
from repro.service import queue as queue_mod
from repro.service import server as server_mod
from repro.service import store as store_mod


@pytest.fixture
def service(tmp_path):
    svc = SchedulingService(tmp_path / "v1.db", port=0, drainers=2).start()
    yield svc
    svc.shutdown()


@pytest.fixture
def client(service) -> ServiceClient:
    return ServiceClient(service.url)


@pytest.fixture
def inst() -> Instance:
    return Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)


def _raw(service, method, path, body=None, headers=None):
    """Plain urllib round trip returning (status, payload, headers)."""
    req = urllib.request.Request(
        service.url + path, method=method,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


@pytest.fixture
def gate(monkeypatch):
    """Holds every job a drainer runs until the test sets the event.
    Request it after ``service``: it is torn down first, so the service
    never waits on a closed gate at shutdown."""
    event = threading.Event()
    solve_batch = Session.solve_batch

    def held(self, *args, **kwargs):
        event.wait(30)
        return solve_batch(self, *args, **kwargs)

    monkeypatch.setattr("repro.api.session.Session.solve_batch", held)
    yield event
    event.set()


def _in_thread(fn, *args):
    """Run ``fn`` on a thread; returns the thread and a dict that gets
    the result under ``"value"`` and its ``time.monotonic()`` under
    ``"at"``."""
    out: dict = {}

    def run():
        out["value"] = fn(*args)
        out["at"] = time.monotonic()

    t = threading.Thread(target=run)
    t.start()
    return t, out


def _raw_bytes(service, method, path, data):
    req = urllib.request.Request(
        service.url + path, method=method, data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# --------------------------------------------------------------------- #
# the error envelope
# --------------------------------------------------------------------- #

class TestErrorEnvelope:
    def test_bad_json_body(self, service):
        status, body = _raw_bytes(service, "POST", "/v1/jobs",
                                  b"{not json")
        assert status == 400
        assert body["error"]["code"] == "invalid_json"
        assert "not valid JSON" in body["error"]["message"]

    def test_unknown_solver_includes_suggestions(self, service, inst):
        status, body, _ = _raw(
            service, "POST", "/v1/jobs",
            {"instance": {"processing_times": [5, 3], "classes": [0, 0],
                          "machines": 1, "class_slots": 1},
             "algorithms": ["splitable"]})
        assert status == 400
        err = body["error"]
        assert err["code"] == "unknown_solver"
        assert "splittable" in err["detail"]["suggestions"]

    def test_unknown_job_id(self, service):
        status, body, _ = _raw(service, "GET", "/v1/jobs/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        status, body, _ = _raw(service, "GET", "/v1/jobs/nope/reports")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_route(self, service):
        status, body, _ = _raw(service, "GET", "/v1/wat")
        assert status == 404 and body["error"]["code"] == "not_found"

    def test_oversized_body_is_413(self, service):
        # claim a huge body; the server must refuse without reading it
        with socket.create_connection((service.host, service.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/solve HTTP/1.1\r\n"
                         b"Host: test\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 5000000\r\n\r\n")
            data = b""
            while True:     # server closes after the error response
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert b" 413 " in data.split(b"\r\n", 1)[0]
        assert b"body_too_large" in data

    def test_client_decodes_envelope(self, client, inst):
        with pytest.raises(ServiceError) as err:
            client.submit(inst, ["splitable"])
        assert err.value.status == 400
        assert err.value.code == "unknown_solver"
        assert "splittable" in err.value.detail["suggestions"]

    def test_infeasible_instance_rejected_at_submission(self, client):
        # C=3 > c*m=2: no solver could schedule it — the stable
        # 'infeasible' envelope code, uniform across /v1/jobs and
        # /v1/solve, instead of queueing work every solver refuses
        bad = Instance((1, 1, 1), (0, 1, 2), 1, 2)
        with pytest.raises(ServiceError) as err:
            client.submit(bad, ["splittable"])
        assert err.value.status == 400
        assert err.value.code == "infeasible"
        assert err.value.detail == {"num_classes": 3, "slot_budget": 2}
        with pytest.raises(ServiceError) as err:
            client.solve(SolveRequest(bad, algorithm="splittable"))
        assert err.value.code == "infeasible"


# --------------------------------------------------------------------- #
# pagination
# --------------------------------------------------------------------- #

class TestJobsPagination:
    def test_pages_chain_without_overlap(self, service, client, inst):
        ids = [client.submit(inst, ["lpt"], label=f"j{i}")["id"]
               for i in range(5)]
        for jid in ids:
            client.wait(jid)
        seen, offset = [], 0
        while offset is not None:
            page = client.jobs_page(limit=2, offset=offset)
            assert page["total"] == 5 and page["limit"] == 2
            seen.extend(j["id"] for j in page["jobs"])
            offset = page["next_offset"]
        assert sorted(seen) == sorted(ids)       # every job exactly once

    def test_status_filter_and_bad_params(self, service, client, inst):
        jid = client.submit(inst, ["lpt"])["id"]
        client.wait(jid)
        assert client.jobs(status="done")
        assert client.jobs(status="failed") == []
        status, body, _ = _raw(service, "GET", "/v1/jobs?status=zombie")
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        status, body, _ = _raw(service, "GET", "/v1/jobs?limit=nope")
        assert status == 400
        status, body, _ = _raw(service, "GET", "/v1/jobs?limit=100000")
        assert status == 400


# --------------------------------------------------------------------- #
# POST /v1/solve
# --------------------------------------------------------------------- #

class TestSyncSolve:
    def test_request_round_trips_byte_identically(self, client, inst):
        req = SolveRequest(inst, algorithm="preemptive", label="sync")
        payload = client.solve_raw(req)
        echoed = SolveRequest.from_dict(payload["request"])
        assert echoed.canonical_json() == req.canonical_json()

    def test_local_and_remote_reports_agree_exactly(self, service, inst):
        req = SolveRequest(inst, algorithm="preemptive", label="x")
        local = Session().solve(req)
        remote = Session(service.url).solve(req)
        # exact fractions survive the wire; identity up to wall time
        assert remote.makespan == local.makespan
        assert remote.guess == local.guess
        assert remote.algorithm == local.algorithm
        assert remote.validated and local.validated

    def test_capability_query_over_the_wire(self, client, inst):
        rep = client.solve(SolveRequest(inst, query=SolverQuery(
            variant="nonpreemptive", max_ratio="7/3", time_budget=1.0)))
        assert rep.algorithm == "nonpreemptive" and rep.ok

    def test_want_schedule_round_trips(self, client, inst):
        rep = client.solve(SolveRequest(inst, algorithm="nonpreemptive",
                                        want_schedule=True))
        assert rep.extra["schedule"]["kind"] == "nonpreemptive"

    def test_no_matching_solver_code(self, service, inst):
        req = SolveRequest(inst, query=SolverQuery(variant="splittable",
                                                   kind="baseline"))
        status, body, _ = _raw(service, "POST", "/v1/solve", req.to_dict())
        assert status == 400
        assert body["error"]["code"] == "no_matching_solver"

    def test_oversized_instance_redirected_to_jobs(self, service):
        big = Instance((1,) * 600, (0,) * 600, 2, 2)
        req = SolveRequest(big, algorithm="lpt")
        status, body, _ = _raw(service, "POST", "/v1/solve", req.to_dict())
        assert status == 400
        assert body["error"]["code"] == "too_large"
        assert "/v1/jobs" in body["error"]["message"]

    def test_invalid_request_shape(self, service):
        status, body, _ = _raw(service, "POST", "/v1/solve",
                               {"instance": {"machines": 1}})
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_invalid_query_fields_are_400_not_dropped(self, service, inst):
        base = SolveRequest(inst, algorithm="lpt").to_dict()
        for query in ({"variant": "bogus"}, {"max_ratio": "1/0"},
                      {"epsilon": 0}):
            body = dict(base, algorithm=None, query=query)
            status, payload, _ = _raw(service, "POST", "/v1/solve", body)
            assert status == 400, query
            assert payload["error"]["code"] == "invalid_request"

    def test_non_positive_timeout_is_400(self, service, inst):
        body = dict(SolveRequest(inst, algorithm="lpt").to_dict(),
                    timeout=-5)
        status, payload, _ = _raw(service, "POST", "/v1/solve", body)
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "positive" in payload["error"]["message"]


# --------------------------------------------------------------------- #
# legacy aliases
# --------------------------------------------------------------------- #

class TestLegacyAliases:
    def test_legacy_routes_work_and_announce_deprecation(self, service,
                                                         client, inst):
        jid = client.submit(inst, ["lpt"])["id"]
        client.wait(jid)
        status, body, headers = _raw(service, "GET", f"/jobs/{jid}")
        assert status == 200 and body["status"] == "done"
        assert headers.get("Deprecation") == "true"
        assert f"/v1/jobs/{jid}" in headers.get("Link", "")
        # /v1 responses carry no deprecation header
        _, _, v1_headers = _raw(service, "GET", f"/v1/jobs/{jid}")
        assert "Deprecation" not in v1_headers

    def test_legacy_errors_keep_flat_shape(self, service):
        status, body, _ = _raw(service, "GET", "/jobs/nope")
        assert status == 404
        assert body["error"] == "no job 'nope'"    # a string, not a dict

    def test_legacy_jobs_listing_stays_permissive(self, service, client,
                                                  inst):
        client.wait(client.submit(inst, ["lpt"])["id"])
        # the PR 2 contract: any integer limit, no pagination metadata
        status, body, _ = _raw(service, "GET", "/jobs?limit=1000")
        assert status == 200
        assert set(body) == {"jobs"} and len(body["jobs"]) == 1
        status, body, _ = _raw(service, "GET", "/jobs?status=zombie")
        assert status == 200 and body["jobs"] == []
        status, body, _ = _raw(service, "GET", "/jobs?limit=nope")
        assert status == 400    # was a 400 before /v1 too

    def test_legacy_client_against_legacy_routes(self, service, inst):
        old = ServiceClient(service.url, api_prefix="")
        (rep,) = old.wait(old.submit(inst, ["lpt"])["id"])
        assert rep.ok
        with pytest.raises(ServiceError) as err:
            old.submit(inst, ["splitable"])
        assert err.value.status == 400 and err.value.code == ""

    def test_solve_is_v1_only(self, service, inst):
        req = SolveRequest(inst, algorithm="lpt")
        status, body, _ = _raw(service, "POST", "/solve", req.to_dict())
        assert status == 404


# --------------------------------------------------------------------- #
# not-ready reports + remote session streaming
# --------------------------------------------------------------------- #

class TestQueueStates:
    def test_reports_conflict_while_queued(self, tmp_path, inst):
        svc = SchedulingService(tmp_path / "q.db", port=0,
                                drainers=0).start()     # accept-only
        try:
            jid = ServiceClient(svc.url).submit(inst, ["lpt"])["id"]
            status, body, _ = _raw(svc, "GET", f"/v1/jobs/{jid}/reports")
            assert status == 409
            assert body["error"]["code"] == "not_ready"
            assert body["error"]["detail"]["status"] == "queued"
        finally:
            svc.shutdown()

    def test_remote_stream_yields_all_reports(self, service, inst):
        other = Instance((7, 4, 4, 2), (0, 1, 1, 0), 2, 2)
        got = list(Session(service.url).stream(
            [("a", inst), ("b", other)], algorithms=["lpt", "greedy"]))
        assert sorted((r.instance_label, r.algorithm) for r in got) == \
            [("a", "greedy"), ("a", "lpt"), ("b", "greedy"), ("b", "lpt")]


# --------------------------------------------------------------------- #
# CLI submit exit codes
# --------------------------------------------------------------------- #

class TestRemoteCLIErrors:
    def test_batch_remote_connection_refused_is_clean(self, tmp_path,
                                                      inst):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({
            "processing_times": list(inst.processing_times),
            "classes": list(inst.classes),
            "machines": inst.machines, "class_slots": inst.class_slots}))
        with pytest.raises(SystemExit, match="error:"):
            main(["batch", str(path), "--algorithms", "lpt",
                  "--remote", "http://127.0.0.1:1"])
        with pytest.raises(SystemExit, match="error:"):
            main(["compare", str(path), "--algorithms", "lpt",
                  "--remote", "http://127.0.0.1:1"])

    def test_remote_rejects_local_only_flags(self, tmp_path, inst):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({
            "processing_times": list(inst.processing_times),
            "classes": list(inst.classes),
            "machines": inst.machines, "class_slots": inst.class_slots}))
        with pytest.raises(SystemExit, match="--workers has no effect"):
            main(["batch", str(path), "--algorithms", "lpt",
                  "--remote", "http://127.0.0.1:1", "--workers", "0"])
        with pytest.raises(SystemExit, match="--cache-dir cannot"):
            main(["batch", str(path), "--algorithms", "lpt",
                  "--remote", "http://127.0.0.1:1",
                  "--cache-dir", str(tmp_path / "c")])


class TestSubmitExitCode:
    def test_wait_exits_zero_on_success(self, service, inst, tmp_path,
                                        capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            "processing_times": list(inst.processing_times),
            "classes": list(inst.classes),
            "machines": inst.machines, "class_slots": inst.class_slots}))
        rv = main(["submit", str(path), "--url", service.url,
                   "--algorithms", "lpt", "--wait"])
        assert rv == 0

    def test_wait_exits_nonzero_when_job_fails(self, service, inst,
                                               tmp_path, monkeypatch,
                                               capsys):
        # force the drainer's facade call to blow up server-side so the
        # job lands in 'failed'
        monkeypatch.setattr(
            "repro.api.session.Session.solve_batch",
            lambda self, *a, **k: (_ for _ in ()).throw(
                RuntimeError("induced drainer failure")))
        path = tmp_path / "boom.json"
        path.write_text(json.dumps({
            "processing_times": list(inst.processing_times),
            "classes": list(inst.classes),
            "machines": inst.machines, "class_slots": inst.class_slots}))
        rv = main(["submit", str(path), "--url", service.url,
                   "--algorithms", "lpt", "--wait"])
        assert rv == 1
        err = capsys.readouterr().err
        assert "induced drainer failure" in err


# --------------------------------------------------------------------- #
# long-poll job status and the client's wait
# --------------------------------------------------------------------- #

class TestLongPoll:
    def test_returns_when_the_job_ends_not_at_the_deadline(
            self, service, gate, client, inst, monkeypatch):
        # with no periodic re-read inside the bound, only the drainer's
        # wake-up can end the hold in time
        monkeypatch.setattr(queue_mod, "WAIT_RECHECK_S", 5.0)
        jid = client.submit(inst, ["lpt"])["id"]
        t, out = _in_thread(_raw, service, "GET", f"/v1/jobs/{jid}?wait=5")
        time.sleep(0.3)
        assert t.is_alive()         # held while the job runs
        opened = time.monotonic()
        gate.set()
        t.join(10)
        status, body, _ = out["value"]
        assert status == 200 and body["status"] == "done"
        assert out["at"] - opened < 0.5

    def test_deadline_returns_the_unfinished_record(self, service, gate,
                                                    client, inst):
        jid = client.submit(inst, ["lpt"])["id"]
        t0 = time.monotonic()
        status, body, _ = _raw(service, "GET", f"/v1/jobs/{jid}?wait=0.3")
        elapsed = time.monotonic() - t0
        assert status == 200
        assert body["id"] == jid and body["status"] in ("queued", "running")
        assert 0.3 <= elapsed < 3.0

    @pytest.mark.parametrize("wait", ["-1", "soon", "nan", ""])
    def test_bad_wait_is_400(self, service, client, inst, wait):
        jid = client.submit(inst, ["lpt"])["id"]
        status, body, _ = _raw(service, "GET",
                               f"/v1/jobs/{jid}?wait={wait}")
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert "'wait'" in body["error"]["message"]

    def test_unknown_job_is_404_at_once(self, service):
        t0 = time.monotonic()
        status, body, _ = _raw(service, "GET", "/v1/jobs/nope?wait=5")
        assert status == 404 and body["error"]["code"] == "not_found"
        assert time.monotonic() - t0 < 3.0

    def test_wait_is_clamped_to_the_maximum(self, tmp_path, inst,
                                            monkeypatch):
        monkeypatch.setattr(server_mod, "LONG_POLL_MAX_S", 0.3)
        svc = SchedulingService(tmp_path / "clamp.db", port=0,
                                drainers=0).start()     # accept-only
        try:
            jid = ServiceClient(svc.url).submit(inst, ["lpt"])["id"]
            t0 = time.monotonic()
            status, body, _ = _raw(svc, "GET", f"/v1/jobs/{jid}?wait=1000")
            assert status == 200 and body["status"] == "queued"
            assert time.monotonic() - t0 < 3.0
        finally:
            svc.shutdown()

    def test_sees_jobs_finished_by_an_external_worker(self, tmp_path,
                                                      inst):
        db = tmp_path / "fleet.db"
        svc = SchedulingService(db, port=0, drainers=0).start()
        store = open_store(f"sqlite:///{db}")
        node = WorkerNode(store, workers=1).start()
        try:
            client = ServiceClient(svc.url)
            jid = client.submit(inst, ["lpt", "greedy"])["id"]
            reports = client.wait(jid, timeout=30)
            assert sorted(r.algorithm for r in reports) == ["greedy", "lpt"]
            assert client.job(jid)["claimed_by"] == node.name
        finally:
            node.stop()
            store.close()
            svc.shutdown()

    def test_shutdown_wakes_a_long_poll_in_flight(self, tmp_path, inst):
        svc = SchedulingService(tmp_path / "stop.db", port=0,
                                drainers=0).start()
        jid = ServiceClient(svc.url).submit(inst, ["lpt"])["id"]
        t, out = _in_thread(
            _raw, svc, "GET",
            f"/v1/jobs/{jid}?wait={server_mod.LONG_POLL_MAX_S}")
        time.sleep(0.3)
        assert t.is_alive()
        t0 = time.monotonic()
        svc.shutdown()
        assert time.monotonic() - t0 < 2.0
        t.join(5)
        assert not t.is_alive()
        status, body, _ = out["value"]
        assert status == 200 and body["status"] == "queued"


def _requests_served() -> float:
    """``repro_http_requests_total`` summed over the routes ``wait``
    reads: a job's status and its reports (the registry is
    process-wide, so this counts the in-process test server's
    requests). The submit is left out: the server counts a request
    after answering it, so its count may land after ``submit`` returns."""
    from repro.obs.metrics import REGISTRY
    _, samples = parse_exposition(REGISTRY.render())
    return sum(v for (name, labels), v in samples.items()
               if name == "repro_http_requests_total"
               and (("route", "/jobs/{id}") in labels
                    or ("route", "/jobs/{id}/reports") in labels))


class TestClientWait:
    def test_server_side_failure_raises_without_sleeping(
            self, service, client, inst, monkeypatch):
        monkeypatch.setattr(
            "repro.api.session.Session.solve_batch",
            lambda self, *a, **k: (_ for _ in ()).throw(
                RuntimeError("induced drainer failure")))
        me = threading.current_thread()
        slept = []
        sleep = time.sleep

        def spy(seconds):
            if threading.current_thread() is me:
                slept.append(seconds)
            sleep(seconds)

        monkeypatch.setattr(time, "sleep", spy)
        jid = client.submit(inst, ["lpt"])["id"]
        with pytest.raises(ServiceError) as err:
            client.wait(jid, timeout=30)
        assert err.value.code == "job_failed"
        assert "induced drainer failure" in err.value.message
        assert slept == []

    def test_wait_costs_at_most_four_requests(self, service, gate, client,
                                              inst):
        # the job is held 0.3 s: a polling client would look many times
        jid = client.submit(inst, ["lpt"])["id"]
        before = _requests_served()
        opener = threading.Timer(0.3, gate.set)
        opener.start()
        reports = client.wait(jid, timeout=30)
        opener.join()
        assert [r.algorithm for r in reports] == ["lpt"]
        # status, one long-poll, status again, reports
        assert _requests_served() - before <= 4

    def test_backs_off_against_a_server_that_ignores_wait(
            self, service, gate, client, inst, monkeypatch):
        # answer every GET /v1/jobs/{id} at once, as servers from before
        # the long-poll do
        monkeypatch.setattr(JobQueue, "wait_job",
                            lambda self, job_id, timeout:
                            self.store.get_job(job_id))
        jid = client.submit(inst, ["lpt"])["id"]
        before = _requests_served()
        opener = threading.Timer(0.3, gate.set)
        opener.start()
        reports = client.wait(jid, timeout=30)
        opener.join()
        assert [r.algorithm for r in reports] == ["lpt"]
        # pauses of 12-25, 25-50, 50-100, 100-200 and 200-400 ms cover
        # the 0.3 s hold within six status/long-poll pairs plus reports
        assert _requests_served() - before <= 16

    def test_timeout_still_raises(self, service, gate, client, inst):
        jid = client.submit(inst, ["lpt"])["id"]
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="still"):
            client.wait(jid, timeout=0.3)
        assert time.monotonic() - t0 < 3.0


class TestStatusReads:
    def test_round_trip_decodes_the_instance_once(self, service, client,
                                                  inst, monkeypatch):
        # submit, the long-poll and its status re-reads, and both report
        # fetches read the job row; only the drainer's claim needs the
        # instance itself
        decode = store_mod.instance_from_dict
        calls = []

        def counting(data):
            calls.append(data)
            return decode(data)

        monkeypatch.setattr(store_mod, "instance_from_dict", counting)
        job = client.submit(inst, ["lpt", "splittable"])
        reports = client.wait(job["id"])
        assert [r.status for r in reports] == ["ok", "ok"]
        assert client.reports(job["id"]) == reports
        assert client.job(job["id"])["status"] == "done"
        assert len(calls) == 1
