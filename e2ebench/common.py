"""Shared helpers of the end-to-end benchmark: locating the program,
summary statistics, memory and the run environment.

The benchmark lives beside the program it measures: ``<root>/e2ebench``
next to ``<root>/src/repro``. It imports the program from that source
tree, never from an installed copy, so a checkout measures itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space of a run (server stores, span files); ignored by git.
WORK_DIR = ROOT / ".e2ebench"


class MissingProgramError(RuntimeError):
    """The checkout holds no ``src/repro`` to measure."""


def import_program() -> None:
    """Put ``<root>/src`` first on ``sys.path`` and check that ``repro``
    imports from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgramError(
            f"no program to measure: {SRC / 'repro'} does not exist")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise MissingProgramError(
            f"repro imported from {repro.__file__}, not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for a child process that must import the same
    program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def bounds() -> dict[str, float]:
    """The end-to-end bounds ``BENCHMARK.json`` fixes, by metric name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #

def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    """90th percentile (``statistics.quantiles`` exclusive method)."""
    return statistics.quantiles(values, n=10)[8]


def beyond_p90(values) -> int:
    """How many samples lie above the 90th percentile."""
    cut = p90(values)
    return sum(1 for v in values if v > cut)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest of its
    reaped children (pool workers, server child), in MiB.

    ``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the peak of the largest
    child waited for, so call this after every child has been joined."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ---------------------------------------------------------------------- #
# run environment
# ---------------------------------------------------------------------- #

def _git_rev() -> str | None:
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over ``src/repro/**/*.py``: identifies the measured code
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    """What a result depends on besides the code: cores, interpreter,
    revision, and which optional fast layers are active. Results from
    different environments are not comparable."""
    from repro.core.fastmath import fast_paths_enabled
    from repro.core.native import native_available
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "src_digest": _source_digest(),
        "native_core": native_available(),
        "fast_paths": fast_paths_enabled(),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
    }
