"""Process supervision: spawn, watch, and restart cluster members.

Each worker and replica runs as a child process
(``python -m repro.cluster.worker`` / ``...replica``) that prints
exactly one READY JSON line on stdout.  The supervisor scrapes that
line to learn the bound port, then watches the children from a monitor
thread and restarts any that die:

* a **worker** is restarted on the *same port* it held before (the
  router's pools reconnect without retargeting) and recovers its state
  from its WAL — restart-after-crash IS crash recovery, there is no
  separate code path.  If the port was stolen while the worker was
  down, the supervisor falls back to an ephemeral port and tells the
  router through the ``on_restart`` callback.
* a **replica** is restarted with its original arguments; it resyncs
  from the workers' checkpoints and WAL segments from scratch.

The worker's own ``LOCK`` flock makes double-spawning safe: a
supervisor bug that starts a shard twice gets a refused child, not a
corrupted WAL.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import GoodError

READY_TIMEOUT = 60.0


class SupervisorError(GoodError):
    """A child failed to start or report READY."""


def _child_env() -> Dict[str, str]:
    """The spawn environment: make ``repro`` importable and unbuffered."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])  # .../src
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _read_ready(process: subprocess.Popen, what: str, timeout: float) -> Dict[str, Any]:
    """Read the child's one READY line (a watchdog thread guards the
    blocking readline; EOF means the child died before binding)."""
    box: Dict[str, Any] = {}

    def read() -> None:
        box["line"] = process.stdout.readline()

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout)
    if reader.is_alive():
        process.kill()
        raise SupervisorError(f"{what} did not report READY within {timeout}s")
    line = box.get("line") or ""
    if not line.strip():
        raise SupervisorError(
            f"{what} exited before READY (code {process.poll()})"
        )
    try:
        doc = json.loads(line)
    except ValueError as error:
        raise SupervisorError(f"{what} printed a malformed READY line: {line!r}") from error
    if not doc.get("ready"):
        raise SupervisorError(f"{what} failed to start: {doc.get('error', doc)}")
    return doc


class Member:
    """One supervised child process and how to respawn it."""

    def __init__(self, name: str, kind: str, argv_builder: Callable[[Optional[int]], List[str]]) -> None:
        self.name = name
        self.kind = kind  # "worker" | "replica"
        self._argv = argv_builder
        self.process: Optional[subprocess.Popen] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        self.restarts = 0
        self.ready_doc: Dict[str, Any] = {}

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def spawn(self, port: Optional[int], timeout: float = READY_TIMEOUT) -> Tuple[str, int]:
        argv = self._argv(port)
        self.process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=_child_env(),
        )
        doc = _read_ready(self.process, f"{self.kind} {self.name!r}", timeout)
        self.ready_doc = doc
        self.host, self.port, self.pid = doc["host"], doc["port"], doc.get("pid")
        return self.host, self.port


class Supervisor:
    """Spawns cluster members and restarts the ones that die."""

    def __init__(self, on_restart: Optional[Callable[[Member], None]] = None) -> None:
        self.members: Dict[str, Member] = {}
        self.on_restart = on_restart
        self._monitor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    def start_worker(
        self,
        name: str,
        data_dir: Path,
        host: str = "127.0.0.1",
        fsync: str = "always",
        checkpoint_bytes: Optional[int] = None,
    ) -> Member:
        def argv(port: Optional[int]) -> List[str]:
            command = [
                sys.executable,
                "-m",
                "repro.cluster.worker",
                "--data-dir",
                str(data_dir),
                "--name",
                name,
                "--host",
                host,
                "--port",
                str(port or 0),
                "--fsync",
                fsync,
            ]
            if checkpoint_bytes is not None:
                command += ["--checkpoint-bytes", str(checkpoint_bytes)]
            return command

        return self._spawn(Member(name, "worker", argv))

    def start_replica(
        self,
        name: str,
        follow: List[Path],
        host: str = "127.0.0.1",
        poll_interval: float = 0.05,
    ) -> Member:
        def argv(port: Optional[int]) -> List[str]:
            command = [
                sys.executable,
                "-m",
                "repro.cluster.replica",
                "--name",
                name,
                "--host",
                host,
                "--port",
                str(port or 0),
                "--poll-interval",
                str(poll_interval),
            ]
            for directory in follow:
                command += ["--follow", str(directory)]
            return command

        return self._spawn(Member(name, "replica", argv))

    def _spawn(self, member: Member) -> Member:
        if member.name in self.members:
            raise SupervisorError(f"member {member.name!r} already supervised")
        member.spawn(None)
        with self._lock:
            self.members[member.name] = member
        return member

    # ------------------------------------------------------------------
    # watching
    # ------------------------------------------------------------------
    def restart(self, member: Member) -> None:
        """Respawn a dead member, keeping its port when possible."""
        member.restarts += 1
        try:
            member.spawn(member.port)
        except SupervisorError:
            # the old port may have been stolen while the member was
            # down; an ephemeral port plus the callback re-wires pools
            member.spawn(None)
        if self.on_restart is not None:
            self.on_restart(member)

    def check_once(self) -> List[str]:
        """Restart every dead member; returns the restarted names."""
        restarted = []
        with self._lock:
            members = list(self.members.values())
        for member in members:
            if not member.alive() and not self._stop.is_set():
                self.restart(member)
                restarted.append(member.name)
        return restarted

    def start_monitor(self, interval: float = 0.2) -> None:
        if self._monitor is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval):
                try:
                    self.check_once()
                except SupervisorError:
                    # the member will be retried on the next tick
                    pass

        self._monitor = threading.Thread(target=loop, name="cluster-monitor", daemon=True)
        self._monitor.start()

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def kill(self, name: str, sig: int = signal.SIGKILL) -> None:
        """Send a signal to one member (fault-injection in tests)."""
        member = self.members[name]
        if member.process is not None and member.process.poll() is None:
            member.process.send_signal(sig)

    def stop_all(self, timeout: float = 10.0) -> None:
        """Stop the monitor, then terminate every member."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout)
            self._monitor = None
        with self._lock:
            members = list(self.members.values())
        for member in members:
            process = member.process
            if process is None or process.poll() is not None:
                continue
            process.terminate()
        deadline = time.monotonic() + timeout
        for member in members:
            process = member.process
            if process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(5)

    def describe(self) -> Dict[str, Any]:
        """Member states for cluster STATS."""
        with self._lock:
            return {
                name: {
                    "kind": member.kind,
                    "alive": member.alive(),
                    "address": f"{member.host}:{member.port}",
                    "pid": member.pid,
                    "restarts": member.restarts,
                }
                for name, member in self.members.items()
            }


__all__ = ["Supervisor", "Member", "SupervisorError", "READY_TIMEOUT"]
