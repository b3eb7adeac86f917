"""An ordered map over worker processes forked from this one.

A forked worker shares this process's memory copy-on-write, so it reads
what was built before the fork (a graph's ego shares, a finished sweep)
without rebuilding or receiving it. Each result comes back over a pipe
in ``marshal``'s format, not pickled; ``marshal`` is trusted here only
because both ends of every pipe are one process tree.
"""
from __future__ import annotations

import marshal
import os
from typing import Any, BinaryIO, Callable, Iterator, NoReturn, Sequence, TypeVar

T = TypeVar("T")


def forked_map(fn: Callable[[T], Any], items: Sequence[T], jobs: int) -> Iterator[Any]:
    """Yield ``fn(item)`` for each item, in item order.

    Item k runs in worker ``k % w``, where ``w = min(jobs, len(items))``
    (1 where ``os.fork`` does not exist): worker 0 is the calling process,
    and the other w - 1 are children forked on the first ``next``, so
    whatever ``fn`` reads must be built before then. A pipe holds less
    than a typical result, so a child runs at most about one item ahead
    of the reader. A child ends with ``os._exit``: it never unwinds into
    the caller, runs no exit handlers and flushes none of the buffers it
    inherited.

    A child's result goes through ``marshal``: a bytes-like value, also
    inside a tuple, arrives as ``bytes`` of at most 2 GiB, and a ``str``
    is the child's error message, so ``fn`` returns no ``str``.

    Forking is unsafe in a process that runs threads; callers fork only
    when asked to.

    Raises:
        ChildProcessError: a child's ``fn`` raised, or ``marshal`` could
            not write its result (the message carries the exception), or
            the child ended before sending a result. Every child is
            reaped before this generator finishes, also when the caller
            stops early.
    """
    workers = min(jobs, len(items)) if hasattr(os, "fork") else 1
    readers = []
    pids = []
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items[w::workers], write_end, readers)
            finally:
                os.close(write_end)  # in this process; a child never returns here
            pids.append(pid)
        for k, item in enumerate(items):
            w = k % workers
            yield fn(item) if w == 0 else _receive(readers[w - 1], w, k)
    finally:
        # A child blocked on a pipe whose reader is closed gets EPIPE and exits.
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(
    fn: Callable[[T], Any], items: Sequence[T], fd: int, inherited: list[BinaryIO]
) -> NoReturn:
    """In a forked child: close the ``inherited`` pipe readers, write
    ``fn(item)`` for each item to ``fd``, or the first exception's message
    as a ``str`` in place of its result, then end the process."""
    try:
        for reader in inherited:
            reader.close()
        with open(fd, "wb") as out:
            for item in items:
                try:
                    marshal.dump(fn(item), out)
                except Exception as exc:
                    marshal.dump(f"{type(exc).__name__}: {exc}", out)
                    return
                out.flush()
    finally:
        os._exit(0)


def _receive(reader: BinaryIO, worker: int, k: int) -> Any:
    """Item k's result from ``worker``'s pipe."""
    try:
        result = marshal.load(reader)
    except EOFError:
        raise ChildProcessError(f"worker {worker} ended before sending item {k}") from None
    if isinstance(result, str):
        raise ChildProcessError(f"worker {worker} failed on item {k}: {result}")
    return result
