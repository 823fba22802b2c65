"""Correctness check: every report the program returned against an
independent in-process ``repro.engine.execute`` of the same cell.

Runs outside every timed region. A report matches its reference when all
``SolveReport`` fields agree except the ones that legitimately differ
between two runs of the same cell: ``wall_time_s``, ``cached``,
``instance_label`` and ``extra["trace_id"]``. An ``ok`` report of a
schedule-producing solver must also carry ``validated=True``, and where
every cell was solved before (the repeat workload) every report must
carry ``cached=True``.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

#: Solvers that return a schedule (validated by ``core.validation``);
#: the n-fold route returns a certified value only.
SCHEDULE_PRODUCING = frozenset({
    "splittable", "preemptive", "nonpreemptive", "lpt", "greedy", "ffd",
    "round-robin", "ptas-splittable", "ptas-nonpreemptive"})

_IGNORED = ("wall_time_s", "cached", "instance_label")

#: Reference solves run in this many spawned processes.
CHECK_WORKERS = 2


def comparable(report) -> dict:
    d = report.to_dict()
    for key in _IGNORED:
        d.pop(key)
    d["extra"] = {k: v for k, v in d["extra"].items() if k != "trace_id"}
    return d


def mismatch(report, reference) -> str | None:
    """Why ``report`` differs from ``reference``, or ``None``."""
    got, want = comparable(report), comparable(reference)
    if got != want:
        fields = sorted(k for k in want if got.get(k) != want[k])
        return (f"{report.algorithm} on {report.instance_digest[:12]}: "
                f"fields {fields} differ from the reference")
    if report.status == "ok" and report.algorithm in SCHEDULE_PRODUCING \
            and not report.validated:
        return (f"{report.algorithm} on {report.instance_digest[:12]}: "
                "ok report with an unvalidated schedule")
    return None


def _reference_chunk(cells: list) -> list:
    from repro.engine import execute
    return [execute(inst, name, kwargs) for inst, name, kwargs in cells]


def references(cells: list) -> list:
    """``execute`` of each ``(instance, algorithm, kwargs)`` cell, in
    order, spread over :data:`CHECK_WORKERS` spawned processes (they
    inherit this process's ``sys.path``, so they import the same
    program)."""
    if not cells:
        return []
    chunks = [cells[i::CHECK_WORKERS * 4] for i in range(CHECK_WORKERS * 4)]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(CHECK_WORKERS, mp_context=ctx) as pool:
        results = list(pool.map(_reference_chunk, chunks))
    out = [None] * len(cells)
    for i, chunk in enumerate(results):
        out[i::CHECK_WORKERS * 4] = chunk
    return out


def check_operations(ops: list, expect_cached: bool = False
                     ) -> tuple[int, list[str]]:
    """Check every report of every operation.

    ``ops`` is a list of ``(cells, reports)`` pairs, one per operation,
    where ``cells[i]`` is the ``(instance, algorithm, kwargs)`` that
    ``reports[i]`` answers; ``reports`` is ``None`` for an operation that
    raised. Identical cells are solved once. With ``expect_cached`` an
    operation also fails when any of its reports is not ``cached``.
    Returns the number of failed operations and the first few
    reasons."""
    distinct: dict = {}
    for cells, reports in ops:
        if reports is None:
            continue
        for inst, name, kwargs in cells:
            distinct.setdefault(_key(inst, name, kwargs),
                                (inst, name, kwargs))
    keys = list(distinct)
    refs = dict(zip(keys, references([distinct[k] for k in keys])))
    failed, reasons = 0, []
    for cells, reports in ops:
        if reports is None:
            failed += 1
            continue
        why = None
        if len(reports) != len(cells):
            why = f"{len(reports)} reports for {len(cells)} cells"
        else:
            for cell, rep in zip(cells, reports):
                why = mismatch(rep, refs[_key(*cell)])
                if not why and expect_cached and not rep.cached:
                    why = (f"{rep.algorithm} on {rep.instance_digest[:12]}: "
                           "solved again, expected a result-cache hit")
                if why:
                    break
        if why:
            failed += 1
            if len(reasons) < 5:
                reasons.append(why)
    return failed, reasons


def _key(inst, name, kwargs) -> tuple:
    return (inst.digest(), name, tuple(sorted(kwargs.items())))
