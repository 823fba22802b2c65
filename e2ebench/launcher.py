"""The benchmark's server launcher: a ``SchedulingService`` in a child
process, built from public constructors only.

Child side (``python launcher.py --store-dir DIR [--spans FILE]``)::

    store = open_store("sqlite:///<DIR>/jobs.db")
    SchedulingService(store, port=0, drainers=2).start()

These are the ``repro serve`` defaults: SQLite in a directory of its own,
two embedded drainers, ``engine_workers=0`` (each job solves inline on
its drainer thread). With ``--spans`` the backend and its result cache
are wrapped in the recording proxies of :mod:`spans` first, and the span
log is written to ``FILE`` on shutdown.

The child prints one JSON line ``{"url": ...}`` once it serves, then
runs until its stdin closes; it then shuts the service down, writes its
spans and exits 0.

Parent side: :class:`ServerChild`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

STARTUP_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 60.0


class ServerChild:
    """One server child process; :meth:`stop` or :meth:`kill` reaps it."""

    def __init__(self, store_dir: Path, spans: Path | None = None) -> None:
        self.store_dir = store_dir
        self.spans = spans
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> "ServerChild":
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--store-dir", str(self.store_dir)]
        if self.spans is not None:
            cmd += ["--spans", str(self.spans)]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=common.child_env(), cwd=common.ROOT)
        line = _read_line(self.proc, STARTUP_TIMEOUT_S)
        self.url = json.loads(line)["url"]
        return self

    def stop(self) -> None:
        """Close the child's stdin and wait for its clean exit; kill it
        if it does not exit in time."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.communicate(input="", timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("server child did not shut down in time")
        if proc.returncode != 0:
            raise RuntimeError(f"server child exited {proc.returncode}")

    def kill(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.communicate()
            self.proc = None


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """First stdout line of ``proc``, or kill it after ``timeout`` s."""
    box: list[str] = []
    reader = threading.Thread(target=lambda: box.append(
        proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    if not box or not box[0].strip():
        proc.kill()
        proc.communicate()
        raise RuntimeError("server child did not start")
    return box[0]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--store-dir", required=True, type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    common.import_program()
    from repro.service import SchedulingService, open_store

    store = open_store(f"sqlite:///{args.store_dir.resolve() / 'jobs.db'}")
    backend = store
    recorder = None
    if args.spans is not None:
        import spans
        recorder = spans.Recorder()
        backend = spans.TracedStore(store, recorder)
    svc = SchedulingService(backend, port=0, drainers=2).start()
    print(json.dumps({"url": svc.url}), flush=True)
    try:
        sys.stdin.read()        # until the parent closes our stdin
    finally:
        svc.shutdown(drain_grace=10.0)
        store.close()
        if recorder is not None:
            recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
