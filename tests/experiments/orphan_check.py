"""Kill a process that runs a fork pool, and check its workers go with it.

Shared by the ``train_all`` and sweep tests: both pools install
``repro.experiments.pipeline.watch_parent`` in every worker, so a worker
must exit soon after its parent is SIGKILLed instead of waiting on the
pool's queue forever.
"""
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import pipeline

SRC = Path(pipeline.__file__).resolve().parents[2]

#: Marks a test that kills a subprocess and reads its children from ``/proc``.
needs_fork_and_proc = pytest.mark.skipif(
    pipeline.pool_context().get_start_method() != "fork"
    or not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="relies on fork workers and reads child processes from Linux /proc",
)


def _live_children(pid: int):
    """Child pids of ``pid`` that have not exited (Linux ``/proc``)."""
    children = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    return [int(child) for child in children if _running(int(child))]


def _running(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def _wait_for(condition, timeout: float):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = condition()
        if value:
            return value
        time.sleep(0.05)
    return condition()


def assert_workers_exit_with_killed_parent(script: str, *args: str) -> None:
    """Run ``script`` until it has two pool workers, SIGKILL it, and assert
    both workers are gone within 10 s (killing any that are not)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    parent = subprocess.Popen([sys.executable, "-c", script, *args], env=env)

    def two_workers():
        children = _live_children(parent.pid)
        return children if len(children) == 2 else None

    try:
        workers = _wait_for(two_workers, timeout=60)
        assert workers, "the pool never started two workers"
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait()
    try:
        assert _wait_for(
            lambda: not any(_running(pid) for pid in workers), timeout=10
        ), "a worker outlived its killed parent"
    finally:
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
