"""The worker-process map: order, first failure, dead workers, in-process fallbacks."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from tamseg.errors import ShapeError
from tamseg.workers import map_in_workers


def set_workers(monkeypatch, count):
    monkeypatch.setattr("tamseg.workers.cpu_count", lambda: count)


def _fail_late_first(item):
    """Items 0 and 1 fail; item 0 after a pause, so item 1's failure comes first."""
    if item == 0:
        time.sleep(0.2)
    if item < 2:
        raise ShapeError(f"item {item} failed")
    return item


class TestWorkerMap:
    """``workers.map_in_workers``: order, errors, deaths, nesting."""

    NAMES = [f"item {i}" for i in range(5)]

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_in_input_order(self, monkeypatch, workers):
        set_workers(monkeypatch, workers)
        got = map_in_workers(lambda i: (i, os.getpid()), list(range(5)), self.NAMES)
        assert [i for i, _ in got] == list(range(5))
        pids = {pid for _, pid in got}
        if workers == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids and 1 <= len(pids) <= min(workers, 5)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failure_in_input_order_is_raised(self, monkeypatch, workers):
        set_workers(monkeypatch, workers)
        with pytest.raises(ShapeError, match="^item 0 failed$") as info:
            map_in_workers(_fail_late_first, list(range(5)), self.NAMES)
        if workers > 1:  # the worker's traceback is kept as the cause
            assert "_fail_late_first" in str(info.value.__cause__)

    def test_killed_worker_raises_child_process_error(self, monkeypatch):
        set_workers(monkeypatch, 2)

        def die_on_three(item):
            if item == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return item

        with pytest.raises(ChildProcessError, match=r"^item 3: .*-9"):
            map_in_workers(die_on_three, list(range(5)), self.NAMES)
        assert not multiprocessing.active_children()

    def test_runs_in_process_while_another_thread_runs(self, monkeypatch):
        set_workers(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            got = map_in_workers(lambda _: os.getpid(), [0, 1], self.NAMES[:2])
        finally:
            release.set()
            thread.join(timeout=10)
        assert got == [os.getpid()] * 2 and not thread.is_alive()

    def test_call_inside_a_worker_runs_in_process(self, monkeypatch):
        set_workers(monkeypatch, 2)

        def nested(item):
            inner = map_in_workers(lambda _: os.getpid(), [0, 1, 2], self.NAMES[:3])
            return os.getpid(), inner

        for pid, inner in map_in_workers(nested, [0, 1], self.NAMES[:2]):
            assert pid != os.getpid() and inner == [pid] * 3
