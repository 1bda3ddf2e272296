"""Pickled request/reply between the benchmark and its helper processes.

A helper (``served.py``, ``loadgen.py``) is a plain child process started
with :class:`Child`: it reads commands from its stdin and writes replies
to a private copy of its stdout.  The benchmark asks each helper to end
and waits until it has; a helper also ends when its stdin reaches end
of file, so one whose parent died ends at its next read.  No
``multiprocessing`` is involved, so no tracker or forkserver process is
left behind either.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, BinaryIO, List


class Channel:
    """One side of a pickled message stream (``EOFError`` when the other
    side is gone)."""

    def __init__(self, reader: BinaryIO, writer: BinaryIO) -> None:
        self._reader = reader
        self._writer = writer

    def send(self, message: Any) -> None:
        pickle.dump(message, self._writer, protocol=pickle.HIGHEST_PROTOCOL)
        self._writer.flush()

    def recv(self) -> Any:
        return pickle.load(self._reader)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks stop what
    this process started."""
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))


def from_parent() -> Channel:
    """In a helper: the channel to the parent.  File descriptor 1 is
    pointed at stderr, so nothing printed can corrupt the replies."""
    exit_on_sigterm()
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    return Channel(sys.stdin.buffer, replies)


class Child:
    """The parent's handle on one helper process."""

    def __init__(self, script: Path, arguments: List[str]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(script), *arguments], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self.channel = Channel(self.process.stdout, self.process.stdin)

    def call(self, message: Any) -> Any:
        """Send one command and return the helper's reply, which is
        ``("ok", value)`` or ``("error", text)``."""
        self.channel.send(message)
        status, reply = self.channel.recv()
        if status != "ok":
            raise RuntimeError(f"{Path(self.process.args[1]).stem}: {reply}")
        return reply

    def close(self, timeout: float = 30.0) -> None:
        """Ask the helper to end, close its stdin, and wait until it has
        ended: after ``timeout`` seconds it gets SIGTERM, which lets it
        stop what it started, and half that again later SIGKILL."""
        try:
            self.channel.send(None)
        except (OSError, ValueError):
            pass
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout / 2)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
