"""How many workers a parallel section of the program may run on, and the
one process pool.

Two sections fan out to processes, both through :func:`fork_each`:
:meth:`~repro.experiments.pipeline.ExperimentPipeline.train_all` trains a
figure's jobs and :func:`~repro.experiments.sweep.run_sweep` runs a sweep's
cells.  :class:`~repro.fleet.bank.StackedUEBank` runs its stacked passes on
threads of its own, which share the bank's memory and return in order.
``train_all`` and the bank size themselves by :func:`available_workers`, so
neither oversubscribes the host when the other (or a parallel sweep) is
already using it.  Tests pin the count by patching :func:`_available_cpus`.
"""
from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from itertools import islice
from typing import Callable, Dict, Optional, TypeVar

from repro.utils.logging import get_logger

logger = get_logger("utils.parallel")

T = TypeVar("T")


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def available_workers() -> int:
    """The CPUs this process may use, or 1 inside a pool worker.

    A pool worker (a ``train_all`` job or a sweep cell) shares the host with
    its sibling workers, which already occupy the other CPUs.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    return _available_cpus()


def fork_each(
    task: Callable[[int], T],
    count: int,
    workers: int,
    done: Callable[[int, T], None],
) -> int:
    """Run ``task(i)`` for ``i in range(count)``; hand each result to ``done``.

    ``done(i, result)`` runs here, in the calling process, as each task
    completes.  With ``min(workers, count) <= 1``, or on a platform without
    ``fork``, the tasks run here in index order.  Otherwise they run in that
    many forked workers and complete in any order: ``task`` reaches the
    workers by inheritance, so it may be any callable (a closure, a bound
    method); only the index and the result are pickled.  Every worker exits
    as soon as this process is gone.

    On the first failure no further task starts, the running ones finish,
    each success still reaches ``done``, and the failure is re-raised.  A
    worker that dies outright surfaces as
    :class:`~concurrent.futures.process.BrokenProcessPool`.

    Returns:
        The number of worker processes used; 1 means the tasks ran here.
    """
    workers = min(workers, count)
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        for index in range(count):
            done(index, task(index))
        return 1
    logger.info("running %d tasks on %d forked workers", count, workers)
    indices = iter(range(count))
    running: Dict[Future, int] = {}
    failure: Optional[BaseException] = None
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install_task,
        initargs=(task,),
    ) as pool:
        while True:
            # A task is submitted only when a worker is free for it, so none
            # waits in a queue to start after a failure.
            if failure is None:
                for index in islice(indices, workers - len(running)):
                    running[pool.submit(_run_task, index)] = index
            if not running:
                break
            finished, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in finished:
                index = running.pop(future)
                error = future.exception()
                if error is None:
                    done(index, future.result())
                elif failure is None:
                    failure = error
    if failure is not None:
        raise failure
    return workers


#: The task of :func:`fork_each`, installed in each worker by
#: :func:`_install_task` (inherited through the fork, never pickled).
_TASK: Optional[Callable] = None


def _install_task(task: Callable) -> None:
    """Initializer of every worker: keep ``task``, and watch the parent.

    A killed parent never tells its workers to stop, and a fork worker holds
    the pool's call queue open itself, so it would wait on it forever.
    """
    global _TASK
    _TASK = task
    parent = multiprocessing.parent_process()
    threading.Thread(target=_exit_after, args=(parent,), daemon=True).start()


def _exit_after(parent) -> None:
    parent.join()  # returns when the parent process has ended
    os._exit(1)


def _run_task(index: int):
    return _TASK(index)


__all__ = ["available_workers", "fork_each"]
