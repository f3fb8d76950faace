"""The process's one helper thread, which shares large array work with the caller.

Each process has one helper thread, made on first use, and none where the
process may use one CPU only.  ``_on_helper`` runs a job and then blocks of
work there while the calling thread takes blocks from the other end, and both
threads run numpy calls that release the GIL.  Work reading under
``_HELPER_MIN_BYTES`` in all runs inline instead, since waking the helper would
cost as much, and so does work started from a helper job itself, which must
not wait on its own thread.  Every job writes only its own memory, which the
caller reads after joining the helper, so no output depends on where or when it
ran; a batch that fails joins the helper before it raises.  Every fork of the
process first stops the helper (``os.register_at_fork``), so no fork copies a
live thread (Python 3.12 warns of that, and a child would wait forever on the
parent's thread); parent and child each make a new one on their next use.
Checked on Python 3.11 with the fork start method.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager

_helpers: list = []  # once made: [this process's one-thread executor, or None on one CPU]
# a smaller helper batch runs inline: waking the helper can cost ~0.1 ms, as much as the work
_HELPER_MIN_BYTES = 1 << 22
_on_thread = threading.local()  # ``helper`` is set on the helper thread only


def _mark_helper() -> None:
    _on_thread.helper = True


def _helper() -> ThreadPoolExecutor | None:
    """This process's helper thread (None on one CPU), made on first use."""
    if not _helpers:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        two = (cpus or 1) > 1
        _helpers.append(ThreadPoolExecutor(1, "udpfl-helper", initializer=_mark_helper) if two else None)
    return _helpers[0]


def _stop_helper() -> None:
    """Join and drop this process's helper, so a fork copies no live thread; the next
    use makes one again."""
    if _helpers and _helpers[0] is not None:
        _helpers[0].shutdown()
    _helpers.clear()


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(before=_stop_helper)


@contextmanager
def _on_helper(nbytes: int, job=None, blocks=()):
    """Run ``job()``, then the zero-argument ``blocks``, work reading ``nbytes`` of
    arrays in all, beside the ``with`` body.  On the helper, if it exists, the work
    is worth a thread handoff and this is not the helper thread, ``job`` runs first
    and then blocks are taken from the front, while the yielded function takes them
    from the back on this thread; else all of it runs first, on this thread, in
    order.  The yielded function returns ``job``'s value once every block is done.
    The helper is joined, and takes no more blocks, before the body's exit goes on,
    raised or not."""
    queue = deque(blocks)

    def drain(take) -> None:
        while True:
            try:
                block = take()
            except IndexError:  # none left
                return
            block()

    def run():
        value = job() if job is not None else None
        drain(queue.popleft)
        return value

    inline = nbytes < _HELPER_MIN_BYTES or getattr(_on_thread, "helper", False)
    pool = None if inline else _helper()
    if pool is None:
        future = Future()
        future.set_result(run())
    else:
        future = pool.submit(run)

    def done():
        drain(queue.pop)
        return future.result()

    try:
        yield done
    finally:
        queue.clear()
        wait((future,))
