"""Run a workload in a child process and prove nothing outlives it.

Each workload child is started in a session (and process group) of its
own, so its pool workers and the ``multiprocessing`` resource tracker can
be found — and, when needed, killed — as one group.  ``Guard`` snapshots
``/dev/shm`` on entry; on exit it reports every process still in a child's
group and every shared-memory segment that was not there at the start.
The parent turns a non-empty report into a non-zero exit.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Sequence, Set

SHM_DIR = "/dev/shm"
#: After SIGTERM the child closes its engines (workers joined, segments
#: unlinked); only a child that does not finish that in time is killed.
TERM_GRACE_SECONDS = 5.0
#: The resource tracker exits once the child's end of its pipe closes.
LINGER_SECONDS = 3.0


class ChildFailed(RuntimeError):
    """The child timed out, died, or printed no report."""


def _shm_names() -> Set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def group_members(pgid: int) -> Dict[int, str]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members: Dict[int, str] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as handle:
                stat = handle.read()
            # pid (comm) state ppid pgrp ...; comm may contain spaces.
            fields = stat[stat.rindex(")") + 2 :].split()
            if int(fields[2]) != pgid or fields[0] == "Z":
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, ValueError, IndexError):
            continue  # the process ended while we were reading it
        members[int(entry)] = command.strip()
    return members


def _wait_for_empty_group(pgid: int, seconds: float) -> Dict[int, str]:
    deadline = time.monotonic() + seconds
    while True:
        members = group_members(pgid)
        if not members or time.monotonic() >= deadline:
            return members
        time.sleep(0.02)


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except (ProcessLookupError, PermissionError):
        pass


class Guard:
    """Context manager around every child the benchmark starts."""

    def __init__(self) -> None:
        self.leftovers: List[str] = []
        self._shm_before: Set[str] = set()
        self._active: Set[subprocess.Popen] = set()
        # Serializes "start a child" against "the benchmark is stopping":
        # the smoke run starts children from two threads.
        self._lock = threading.Lock()
        self._closed = False
        self._previous_handlers = {}

    def __enter__(self) -> "Guard":
        self._shm_before = _shm_names()
        for signum in (signal.SIGINT, signal.SIGTERM):
            self._previous_handlers[signum] = signal.signal(signum, self._on_signal)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._lock:
            self._closed = True
            active = list(self._active)
        for child in active:
            self._stop(child)
        for signum, handler in self._previous_handlers.items():
            signal.signal(signum, handler)
        for name in sorted(_shm_names() - self._shm_before):
            self.leftovers.append(f"shared-memory segment {SHM_DIR}/{name}")

    @staticmethod
    def _on_signal(signum, _frame) -> None:
        # Unwinds through run_child's ``finally``, which stops the group.
        raise SystemExit(128 + signum)

    def run_child(self, argv: Sequence[str], timeout: float, cwd: str) -> str:
        """Run ``python argv...`` to completion; returns its stdout."""
        with self._lock:
            if self._closed:
                raise ChildFailed("the benchmark is stopping")
            child = subprocess.Popen(
                [sys.executable, *argv],
                stdout=subprocess.PIPE,
                text=True,
                cwd=cwd,
                start_new_session=True,
            )
            self._active.add(child)
        try:
            try:
                output, _ = child.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise ChildFailed(
                    f"workload child {child.pid} exceeded {timeout:.0f} s"
                ) from None
            if child.returncode != 0:
                raise ChildFailed(
                    f"workload child {child.pid} exited with {child.returncode}"
                )
            return output
        finally:
            self._stop(child)
            self._active.discard(child)

    def _stop(self, child: subprocess.Popen) -> None:
        """Reap ``child`` and make sure its whole group is gone."""
        pgid = child.pid
        if child.poll() is None:
            # Only the child: it joins its own workers while closing, and
            # a request in flight needs them alive to finish.
            child.terminate()
            try:
                child.wait(timeout=TERM_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                # Spare the resource tracker: once its pipe closes it
                # unlinks the segments the killed processes left behind.
                for pid, command in group_members(pgid).items():
                    if "resource_tracker" not in command:
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                child.wait()
        if child.stdout is not None:
            child.stdout.close()
        survivors = _wait_for_empty_group(pgid, LINGER_SECONDS)
        for pid, command in survivors.items():
            self.leftovers.append(f"process {pid} ({command}) outlived child {pgid}")
        if survivors:
            _signal_group(pgid, signal.SIGKILL)
            _wait_for_empty_group(pgid, LINGER_SECONDS)
