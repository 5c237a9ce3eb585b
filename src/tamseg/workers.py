"""Map a function over items in forked worker processes, one per CPU.

``map_in_workers`` is the one parallel runner of the package: ``evaluate``
scores its cases with it, ``gradcheck`` its coordinate chunks and op cases,
and ``experiments.run_cells`` its training cells. The number of workers is the size of the process's CPU affinity set
(``cpu_count``), so ``taskset -c 0`` runs everything in-process; there is no
flag, environment variable or config field. Results come back in input
order, so a caller's output is the same bytes for any worker count.
"""

from __future__ import annotations

import contextlib
import os
import threading
import traceback

# set in a forked worker, so that a call made there runs in-process
_IN_WORKER = False


def cpu_count() -> int:
    """CPUs this process may run on: its affinity set, or 1 where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return 1


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker process, as text."""


def map_in_workers(fn, items: list, names: list[str]) -> list:
    """``[fn(item) for item in items]``, computed in forked worker processes.

    One worker per CPU of the affinity set, at most one per item. With one,
    inside a worker, while another thread runs (a fork copies only the
    calling thread) or without the ``fork`` start method, the items run here.
    ``fn`` and the items reach the workers through the fork: only indices go
    out and ``fn``'s results, which must pickle, come back. Items are handed
    out in order as workers come free and the results are returned in input
    order. An exception ``fn`` raises is re-raised here, type and message
    kept and the worker's traceback as its cause; of several, the first
    failing item's, as in a serial loop. A worker that dies becomes a
    ``ChildProcessError`` naming its item ``names[i]``. Every worker is
    reaped on every path.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    count = min(len(items), cpu_count())
    if (count <= 1 or _IN_WORKER or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    workers = {}  # the parent's end of each worker's pipe -> the worker
    busy = {}  # connection -> index of the item its worker runs
    results: list = [None] * len(items)
    failures: dict[int, tuple[BaseException, str]] = {}
    try:
        for _ in range(count):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(fn, items, child_conn), daemon=True)
            proc.start()
            # closed here before the next fork, so a worker's death reads as EOF
            child_conn.close()
            workers[conn] = proc
        idle, sent = list(workers), 0
        while True:
            while idle and sent < len(items) and not failures:
                conn = idle.pop()
                conn.send(sent)
                busy[conn], sent = sent, sent + 1
            if not busy:
                break
            for conn in wait(list(busy)):
                index = busy.pop(conn)
                try:
                    ok, value, remote_tb = conn.recv()
                except EOFError:
                    proc = workers[conn]
                    proc.join()
                    failures[index] = (ChildProcessError(
                        f"{names[index]}: worker process died "
                        f"(exit code {proc.exitcode})"), "")
                    continue
                if ok:
                    results[index] = value
                else:
                    failures[index] = (value, remote_tb)
                idle.append(conn)
    except BaseException:
        for proc in workers.values():
            proc.kill()
        raise
    finally:
        for conn, proc in workers.items():
            with contextlib.suppress(OSError):
                conn.send(None)
            conn.close()
            proc.join()
    if failures:
        exc, remote_tb = failures[min(failures)]
        raise exc from (_WorkerTraceback(remote_tb) if remote_tb else None)
    return results


def _serve(fn, items: list, conn) -> None:
    """A worker's loop: ``fn(items[i])`` for each index received, until ``None``."""
    global _IN_WORKER
    _IN_WORKER = True
    while (index := conn.recv()) is not None:
        try:
            reply = (True, fn(items[index]), "")
        except Exception as exc:
            reply = (False, exc, traceback.format_exc())
        conn.send(reply)
