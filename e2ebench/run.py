"""End-to-end benchmark of the class-constrained scheduling system.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload grid-small --seed 1 --seconds 10 --trace 0

One run sets the workload up :data:`SETUP_REPEATS` times (reporting the
median set-up time), measures it for ``--seconds``, tears it down, then
checks every report the program returned against an independent
in-process solve (outside the timed region).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` measures the
workload untraced for half the time and traced for the other half, and
prints the per-layer metrics derived from the spans and ``/v1/metrics``
scrapes of the traced half, plus the tracing overhead (traced versus
untraced end-to-end numbers). On ``service-fresh`` the traced run also
checks that the per-layer split of a round trip adds up to the round
trip.

Stdout: a human-readable table, one ``env`` line with the run
environment, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every operation succeeded and every report was correct.

The command measures in a child process of itself and exits only once
every process that child started has ended (see :mod:`supervisor`).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: ``latency_p90_ms`` is reported only when at least this many latency
#: samples lie beyond it; fewer make it the noise of a handful of calls.
MIN_BEYOND_P90 = 10

#: Every solver a workload runs, and the module it lives in.
ALGORITHM_MODULES = {
    "splittable": "approx", "preemptive": "approx",
    "nonpreemptive": "approx", "lpt": "baselines", "greedy": "baselines",
    "ffd": "baselines", "round-robin": "baselines",
    "ptas-splittable": "ptas", "ptas-nonpreemptive": "ptas",
    "nfold-splittable": "nfold",
}
MODULES = ("approx", "ptas", "nfold", "baselines")
#: /v1 routes the workloads use: (normalised route, method) -> name part
HTTP_ROUTES = {("/jobs", "POST"): "jobs",
               ("/jobs/{id}", "GET"): "jobs_id",
               ("/jobs/{id}/reports", "GET"): "jobs_id_reports"}
STORE_OPS = ("create_job", "claim_next", "heartbeat", "finish_job",
             "get_job", "reports_for", "count_jobs")


# ---------------------------------------------------------------------- #
# end-to-end metrics
# ---------------------------------------------------------------------- #

def beyond_p90(latencies: list[float]) -> int:
    return common.beyond_p90(latencies) if len(latencies) > 1 else 0


def end_to_end(ph, setups: list[float], rss_mb: float) -> dict:
    """Every end-to-end metric; ``latency_p90_ms`` only when
    :data:`MIN_BEYOND_P90` samples lie beyond it. A phase has at least
    one latency sample."""
    lat_ms = [x * 1e3 for x in ph.latencies_s]
    out = {
        "throughput_per_s": (ph.throughput_per_s, "1/s"),
        "latency_p50_ms": (common.p50(lat_ms), "ms"),
    }
    if beyond_p90(lat_ms) >= MIN_BEYOND_P90:
        out["latency_p90_ms"] = (common.p90(lat_ms), "ms")
    out["setup_s"] = (statistics.median(setups), "s")
    out["peak_rss_mb"] = (rss_mb, "MB")
    return out


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #

def _p50_ms(values_s: list[float]) -> float:
    return common.p50(values_s) * 1e3 if values_s else 0.0


def engine_layers(ph, workers: int) -> dict:
    """Engine and solver metrics from the reports of one phase. Cached
    reports were not solved in this phase and add no solve time."""
    reports = [r for _, reps in ph.ops for r in (reps or ())]
    solved = [r for r in reports if not r.cached]
    solve_s = sum(r.wall_time_s for r in solved)
    capacity = workers * ph.wall_s
    out = {
        "engine.cells": (len(reports), "count"),
        "engine.solve_s": (solve_s, "s"),
        "engine.overhead_s": (capacity - solve_s, "s"),
        "engine.busy_share": (solve_s / capacity, "share"),
    }
    per_module = dict.fromkeys(MODULES, 0.0)
    for alg, module in ALGORITHM_MODULES.items():
        mine = [r for r in solved if r.algorithm == alg]
        s = sum(r.wall_time_s for r in mine)
        out[f"solve_s.{alg}"] = (s, "s")
        out[f"cells.{alg}"] = (len(mine), "count")
        per_module[module] += s
    for module, s in per_module.items():
        out[f"{module}.solve_s"] = (s, "s")
    return out


def client_layers(recorder) -> tuple[dict, list[dict]]:
    """Client metrics of the closed loop, and one split per round trip.

    Closed-loop calls are the top-level ``client.submit`` /
    ``client.wait`` spans; the bursts' calls sit under
    ``api.solve_batch``."""
    spans = recorder.spans
    loop_submits = {s[3]: s for s in spans
                    if s[2] == "client.submit" and s[1] is None}
    loop_waits = {s[0]: s for s in spans
                  if s[2] == "client.wait" and s[1] is None}
    polls: dict[int, list] = {sid: [] for sid in loop_waits}
    fetches: dict[int, tuple] = {}
    for s in spans:
        if s[1] in loop_waits:
            if s[2] == "client.job":
                polls[s[1]].append(s)
            elif s[2] == "client.reports":
                fetches[s[1]] = s
    sleeps, lags, splits = [], [], []
    for sid, wait in loop_waits.items():
        mine = sorted(polls[sid], key=lambda s: s[4])
        sleeps += [b[4] - a[5] for a, b in zip(mine, mine[1:])]
        job = recorder.done_jobs.get(wait[3])
        sub = loop_submits.get(wait[3])
        fetch = fetches.get(sid)
        if job is None or sub is None or fetch is None or not mine:
            continue
        seen = mine[-1][5]
        lags.append(seen - job["finished_at"])
        splits.append({
            "roundtrip": wait[5] - sub[4],
            "submit": sub[5] - sub[4],
            "queue_wait": job["started_at"] - job["submitted_at"],
            "run": job["finished_at"] - job["started_at"],
            "poll_lag": seen - job["finished_at"],
            "reports": fetch[5] - fetch[4],
        })
    n_waits = len(loop_waits)
    return {
        "client.submit_ms": (_p50_ms([s[5] - s[4]
                                     for s in loop_submits.values()]), "ms"),
        "client.reports_ms": (_p50_ms([s[5] - s[4]
                                      for s in fetches.values()]), "ms"),
        "client.polls_per_job": (sum(len(p) for p in polls.values())
                                 / n_waits if n_waits else 0.0, "count/job"),
        "client.poll_sleep_ms": (_p50_ms(sleeps), "ms"),
        "client.poll_lag_ms": (_p50_ms(lags), "ms"),
        "store.queue_wait_ms": (_p50_ms([s["queue_wait"] for s in splits]),
                                "ms"),
        "store.run_ms": (_p50_ms([s["run"] for s in splits]), "ms"),
    }, splits


def split_layers(splits: list[dict]) -> dict:
    """Mean round trip against the mean of its per-layer parts."""
    if not splits:
        return {"split.roundtrip_ms": (0.0, "ms"),
                "split.accounted_ms": (0.0, "ms"),
                "split.unaccounted_share": (0.0, "share")}
    rt = statistics.fmean(s["roundtrip"] for s in splits)
    parts = statistics.fmean(s["submit"] + s["queue_wait"] + s["run"]
                             + s["poll_lag"] + s["reports"] for s in splits)
    return {"split.roundtrip_ms": (rt * 1e3, "ms"),
            "split.accounted_ms": (parts * 1e3, "ms"),
            "split.unaccounted_share": ((rt - parts) / rt, "share")}


def server_layers(ph, server_spans: list) -> dict:
    """HTTP, store, worker and cache metrics of the traced phase."""
    from workloads import total
    import spans as sp
    out = {}
    d = ph.scrape
    for (route, method), part in HTTP_ROUTES.items():
        out[f"http.requests.{part}"] = (total(
            d, "repro_http_requests_total", route=route, method=method),
            "count")
        out[f"http.busy_s.{part}"] = (total(
            d, "repro_http_request_seconds_sum", route=route, method=method),
            "s")
    mine = sp.within(server_spans, ph.t0, ph.t1)
    for op in STORE_OPS:
        calls = [s for s in mine if s[2] == f"store.{op}"]
        out[f"store.{op}.calls"] = (len(calls), "count")
        out[f"store.{op}.busy_s"] = (sum(s[5] - s[4] for s in calls), "s")
    claims = [s for s in mine if s[2] == "store.claim_next"]
    empty = sum(1 for s in claims if s[6] == "empty")
    out["store.claim_next.empty_share"] = (
        empty / len(claims) if claims else 0.0, "share")
    out["worker.claims"] = (total(d, "repro_worker_claims_total"), "count")
    out["worker.retries"] = (total(d, "repro_job_retries_total"), "count")
    out["worker.lease_reclaims"] = (total(d, "repro_lease_reclaims_total"),
                                    "count")
    hits, misses = cache_counts(ph)
    out["cache.hits"] = (hits, "count")
    out["cache.misses"] = (misses, "count")
    out["cache.hit_share"] = (hits / (hits + misses) if hits + misses
                              else 0.0, "share")
    for op in ("get", "put"):
        out[f"cache.{op}.busy_s"] = (sum(
            s[5] - s[4] for s in mine if s[2] == f"cache.{op}"), "s")
    return out


def cache_counts(ph) -> tuple[float, float]:
    from workloads import total
    return (total(ph.scrape, "repro_cache_hits_total", cache="service"),
            total(ph.scrape, "repro_cache_misses_total", cache="service"))


def per_layer(plain, traced, recorder, server_spans) -> dict:
    from workloads import WORKERS
    import spans as sp
    out = engine_layers(traced, WORKERS)
    api = [s for s in recorder.spans if s[2] == "api.solve_batch"]
    out["api.calls"] = (len(api), "count")
    out["api.busy_s"] = (sum(s[5] - s[4] for s in api), "s")
    out["api.self_s"] = (sp.self_times(recorder.spans).get(
        "api.solve_batch", 0.0), "s")
    client, splits = client_layers(recorder)
    out.update(client)
    out.update(server_layers(traced, server_spans))
    out.update(split_layers(splits))

    def change(a: float, b: float) -> float:
        return b / a - 1.0 if a else 0.0
    out["trace.throughput_change"] = (change(
        plain.throughput_per_s, traced.throughput_per_s), "share")
    out["trace.latency_p50_change"] = (change(
        common.p50(plain.latencies_s), common.p50(traced.latencies_s)),
        "share")
    return out


# ---------------------------------------------------------------------- #
# one run
# ---------------------------------------------------------------------- #

def sanity(wl, phases) -> list[str]:
    """Workload properties the metrics rely on: the fresh workload never
    hits the service's result cache, the repeat workload always does."""
    if wl.kind != "service":
        return []
    problems = []
    for ph in phases:
        hits, misses = cache_counts(ph)
        if wl.repeat and misses:
            problems.append(f"{wl.name}: {misses:g} cache misses, "
                            "expected every lookup to hit")
        if not wl.repeat and hits:
            problems.append(f"{wl.name}: {hits:g} cache hits, "
                            "expected every lookup to miss")
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One run; returns ``(metrics, phases, problems)``."""
    import spans as sp
    from workloads import GridLoad, ServiceLoad
    wl = WORKLOADS[workload]
    Load = GridLoad if wl.kind == "grid" else ServiceLoad
    common.WORK_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=common.WORK_DIR))
    setups: list[float] = []
    load = None
    problems: list[str] = []
    try:
        for _ in range(SETUP_REPEATS):
            if load is not None:
                load.teardown()
            load = Load(wl, seed)
            t = time.perf_counter()
            load.setup(run_dir)
            setups.append(time.perf_counter() - t)
        if not trace:
            ph = load.measure(seconds)
            load.teardown()
            phases = [ph]
            metrics = end_to_end(ph, setups, common.peak_rss_mb())
        else:
            plain = load.measure(seconds / 2)
            recorder = sp.Recorder()
            spans_dir = common.WORK_DIR / "spans"
            spans_dir.mkdir(exist_ok=True)
            stem = f"{workload}-seed{seed}"
            server_file = spans_dir / f"{stem}-server.jsonl"
            if wl.kind == "service":
                load.restart(server_file)
            traced = load.measure(seconds / 2, recorder)
            load.teardown()
            recorder.dump(spans_dir / f"{stem}-client.jsonl")
            server_spans = (sp.load(server_file) if wl.kind == "service"
                            else [])
            phases = [plain, traced]
            metrics = per_layer(plain, traced, recorder, server_spans)
            if wl.name == "service-fresh":
                tolerance = common.bounds()["latency_p50_ms"]
                share = metrics["split.unaccounted_share"][0]
                if not metrics["split.roundtrip_ms"][0] \
                        or abs(share) > tolerance:
                    problems.append(
                        f"the per-layer split leaves {share:.1%} of the mean "
                        f"round trip unaccounted (bound {tolerance:.0%})")
        load = None
    finally:
        if load is not None:
            load.kill()
        shutil.rmtree(run_dir, ignore_errors=True)
    problems += sanity(wl, phases)
    return metrics, phases, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark of the scheduling system.")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--in-child", action="store_true",
                    help=argparse.SUPPRESS)     # set by the supervisor
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        common.import_program()
    except (common.MissingProgramError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from checks import check_operations

    wl = WORKLOADS[args.workload]
    env = common.environment()
    metrics, phases, problems = run(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    ops = [op for ph in phases for op in ph.ops]
    failed, reasons = check_operations(ops, expect_cached=wl.repeat)
    attempted = len(ops)
    correct = failed == 0 and not problems

    lat = phases[0].latencies_s
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"  {'latency_samples':<34}{len(lat):>14d}  count "
          f"({beyond_p90(lat)} beyond p90)")
    if not args.trace and "latency_p90_ms" not in metrics:
        print(f"  latency_p90_ms not reported: fewer than {MIN_BEYOND_P90} "
              "samples beyond it; raise --seconds")
    print(f"  {'error_rate':<34}{failed / attempted:>14.4f}  share "
          f"({failed}/{attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34}{value:>14.6g}  {unit}")
    for why in reasons + problems:
        print(f"  FAIL {why}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    if "--in-child" in sys.argv[1:]:
        sys.exit(main())
    from supervisor import supervise
    sys.exit(supervise([sys.executable, str(Path(__file__).resolve()),
                        "--in-child", *sys.argv[1:]]))
