"""``repro.utils.parallel.fork_each``: the one process pool.

Every pool here has two fork workers.  The failure test's tasks record
that they started by touching a file, which a forked worker and this
process both see.
"""
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.utils.parallel import fork_each

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pool forks its workers",
)


def collect():
    """A ``done`` callback and the ``(index, result)`` pairs it received."""
    received = []
    return received, lambda index, result: received.append((index, result))


def test_results_arrive_in_completion_order():
    def task(index):
        time.sleep(0.5 if index == 0 else 0.0)  # task 0 starts first, ends last
        return index

    received, done = collect()
    assert fork_each(task, 2, 2, done) == 2
    assert received == [(1, 1), (0, 0)]
    assert multiprocessing.active_children() == []


def test_one_worker_runs_the_tasks_here_in_index_order():
    for count, workers in ((3, 1), (1, 2), (0, 2)):
        received, done = collect()
        assert fork_each(lambda index: (index, os.getpid()), count, workers, done) == 1
        assert received == [(index, (index, os.getpid())) for index in range(count)]


def test_a_closure_task_is_never_pickled():
    parent = os.getpid()
    factor = {"value": 3}  # a local the worker reaches through the closure

    def task(index):
        return index * factor["value"], os.getpid() != parent

    received, done = collect()
    assert fork_each(task, 4, 2, done) == 2
    assert sorted(received) == [(index, (3 * index, True)) for index in range(4)]


def test_first_failure_keeps_the_successes_and_starts_no_more_tasks(tmp_path):
    def task(index):
        (tmp_path / f"started-{index}").touch()
        if index == 0:
            time.sleep(0.3)
            raise ValueError("task 0 failed")
        if index == 2:  # starts when task 1 ends, and runs past the failure
            time.sleep(1.5)
        return index

    received, done = collect()
    with pytest.raises(ValueError, match="task 0 failed"):
        fork_each(task, 12, 2, done)
    assert received == [(1, 1), (2, 2)]
    started = sorted(int(path.name.split("-")[1]) for path in tmp_path.iterdir())
    assert started == [0, 1, 2]
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_breaks_the_pool():
    def task(index):
        if index == 0:
            os._exit(1)
        return index

    with pytest.raises(BrokenProcessPool):
        fork_each(task, 2, 2, lambda index, result: None)
    assert multiprocessing.active_children() == []
