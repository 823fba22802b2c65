"""Run the benchmark in a child process and reap every process it leaves.

The program starts helpers the benchmark never sees: the shared-memory
transport starts ``multiprocessing``'s resource tracker, which outlives
the process that started it until it notices that process is gone. The
benchmark therefore measures in a child process, and the parent

* becomes a child subreaper (Linux ``prctl(PR_SET_CHILD_SUBREAPER)``),
  so every process the child leaves behind is re-parented to it;
* waits for the child, then for every such orphan, and kills whatever
  is still running after :data:`GRACE_S`;
* on ``SIGTERM``/``SIGINT`` stops the child first, then does the same.

So when the command exits, no process it started is still running.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from pathlib import Path

#: ``prctl`` option number of ``PR_SET_CHILD_SUBREAPER`` (linux/prctl.h).
PR_SET_CHILD_SUBREAPER = 36
#: How long orphans and a stopped child get to exit before being killed.
GRACE_S = 10.0


def become_subreaper() -> None:
    """Make this process the reaper of its orphaned descendants; where
    ``prctl`` is missing, orphans go to init as usual."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """Pids whose parent is this process (from ``/proc``)."""
    me, kids = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # the command name in parentheses may hold spaces
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            kids.append(int(stat.parent.name))
    return kids


def reap_all() -> None:
    """Wait for every child of this process to exit; kill those still
    running after :data:`GRACE_S`."""
    deadline = time.monotonic() + GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return                  # no children left
        if pid:
            continue
        if time.monotonic() > deadline:
            for kid in _children():
                try:
                    os.kill(kid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _raise_exit(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def supervise(cmd: list[str]) -> int:
    """Run ``cmd`` (sharing this process's stdio), reap everything it
    leaves behind, and return its exit code."""
    become_subreaper()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _raise_exit)
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        reap_all()
