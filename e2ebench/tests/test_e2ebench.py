"""Tests of the end-to-end benchmark itself (not of the program).

Run from the repository root::

    python -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

common.import_program()

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: every workload the command runs, gated in BENCHMARK.json or not
WORKLOADS = list(workloads.WORKLOADS)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(workload: str, trace: int, seconds: float = 1.0,
          cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced() -> dict:
    """One tiny traced run of each workload, shared by the tests."""
    return {w: result(bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_run_prints_every_end_to_end_metric(workload):
    out = result(bench(workload, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    # a one-second run may leave too few samples beyond p90 to report it
    assert got == want or got == {k: u for k, u in want.items()
                                  if k != "latency_p90_ms"}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_too_short_run_omits_p90_and_still_reports():
    proc = bench("grid-ptas", 0, seconds=0.01)
    out = result(proc)
    assert out["correct"] is True and out["attempted"] >= 1
    assert "latency_p90_ms" not in out["metrics"]
    assert out["metrics"]["latency_p50_ms"]["value"] > 0
    assert "latency_p90_ms not reported" in proc.stdout


def test_inputs_depend_on_seed_stream_and_index_only():
    wl = workloads.WORKLOADS["service-fresh"]
    a = workloads.instances(wl, 5, 0, 3)
    assert workloads.instance(wl, 5, 0, 2).digest() == a[2].digest()
    assert workloads.instance(wl, 6, 0, 2).digest() != a[2].digest()
    assert len({inst.digest() for inst in a}) == 3


def test_traced_runs_print_every_per_layer_metric(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, out in traced.items():
        assert out["correct"] is True, workload
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        assert got == want, workload


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}


def test_sanity_bounds_hold(traced):
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]
    assert value("service-repeat", "cache.hit_share") == 1.0
    assert value("service-fresh", "cache.hit_share") == 0.0
    assert value("grid-ptas", "engine.busy_share") \
        > value("grid-small", "engine.busy_share")
    assert abs(value("service-fresh", "split.unaccounted_share")) \
        <= common.bounds()["latency_p50_ms"]


def test_corrupted_report_is_caught():
    from repro.engine import execute
    inst = workloads.instances(workloads.WORKLOADS["grid-small"], 3, 0, 1)[0]
    good = execute(inst, "nonpreemptive")
    assert checks.mismatch(good, good) is None
    bad = dataclasses.replace(good, makespan=good.makespan + Fraction(1, 7))
    assert "makespan" in checks.mismatch(bad, good)
    unvalidated = dataclasses.replace(good, validated=False)
    assert checks.mismatch(unvalidated, unvalidated) is not None
    cell = [(inst, "nonpreemptive", {})]
    failed, reasons = checks.check_operations(
        [(cell, [good]), (cell, [bad]), (cell, None)])
    assert failed == 2 and "makespan" in reasons[0]


def test_uncached_report_fails_where_every_cell_was_solved_before():
    from repro.engine import execute
    inst = workloads.instances(workloads.WORKLOADS["service-repeat"], 3, 0,
                               1)[0]
    solved = execute(inst, "splittable")
    hit = dataclasses.replace(solved, cached=True)
    cell = [(inst, "splittable", {})]
    ops = [(cell, [hit]), (cell, [solved])]
    assert checks.check_operations(ops)[0] == 0
    failed, reasons = checks.check_operations(ops, expect_cached=True)
    assert failed == 1 and "cache" in reasons[0]


def test_fields_that_differ_between_runs_are_ignored():
    from repro.engine import execute
    inst = workloads.instances(workloads.WORKLOADS["grid-small"], 3, 0, 1)[0]
    ref = execute(inst, "splittable")
    rerun = dataclasses.replace(
        ref, wall_time_s=ref.wall_time_s + 1, cached=True,
        instance_label="other", extra={**ref.extra, "trace_id": "t-1"})
    assert checks.mismatch(rerun, ref) is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = bench("grid-small", 0, cwd=tmp_path,
                 script=tmp_path / "e2ebench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_supervisor_waits_for_the_processes_its_child_leaves(tmp_path):
    """The command returns only after every orphan of its measuring
    child has ended, as the resource tracker of the shm transport is."""
    pid_file = tmp_path / "orphan.pid"
    child = ("import subprocess, sys; "
             "p = subprocess.Popen(['sleep', '0.5']); "
             f"open({str(pid_file)!r}, 'w').write(str(p.pid))")
    driver = ("import sys; from supervisor import supervise; "
              f"sys.exit(supervise([sys.executable, '-c', {child!r}]))")
    proc = subprocess.run([sys.executable, "-c", driver], cwd=BENCH_DIR,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
