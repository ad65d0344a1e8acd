"""How many workers a parallel section of the program may run on.

Two sections fan out: :meth:`~repro.experiments.pipeline.ExperimentPipeline.train_all`
trains a figure's jobs in fork workers, and
:class:`~repro.fleet.bank.StackedUEBank` runs its stacked passes on threads.
Both size themselves by :func:`available_workers`, so neither
oversubscribes the host when the other (or a parallel sweep) is already
using it.  Tests pin the count by patching :func:`_available_cpus`.
"""
from __future__ import annotations

import multiprocessing
import os


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


__all__ = ["available_workers"]
