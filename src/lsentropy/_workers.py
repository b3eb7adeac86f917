"""An ordered map over worker processes forked from this one.

A forked worker shares this process's memory copy-on-write, so it reads
what was built before the fork (a graph's ego shares, a finished sweep)
without rebuilding or receiving it. Each result comes back over a pipe
as raw bytes with a length prefix; nothing is pickled.
"""
from __future__ import annotations

import os
from typing import BinaryIO, Callable, Iterator, NoReturn, Sequence, TypeVar

T = TypeVar("T")

# Bytes of the signed length prefix; a negative length marks an error
# message from the worker in place of a result.
_PREFIX = 8


def forked_map(fn: Callable[[T], bytes], items: Sequence[T], jobs: int) -> Iterator[bytes]:
    """Yield ``fn(item)`` for each item, in item order.

    Item k runs in worker ``k % w``, where ``w = min(jobs, len(items))``
    (1 where ``os.fork`` does not exist): worker 0 is the calling process,
    and the other w - 1 are children forked on the first ``next``, so
    whatever ``fn`` reads must be built before then. A pipe holds less
    than a typical result, so a child runs at most about one item ahead
    of the reader. A child ends with ``os._exit``: it never unwinds into
    the caller, runs no exit handlers and flushes none of the buffers it
    inherited.

    Forking is unsafe in a process that runs threads; callers fork only
    when asked to.

    Raises:
        ChildProcessError: a child's ``fn`` raised (the message carries
            its exception) or the child ended before sending a result.
            Every child is reaped before this generator finishes, also
            when the caller stops early.
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
    fn: Callable[[T], bytes], items: Sequence[T], fd: int, inherited: list[BinaryIO]
) -> NoReturn:
    """In a forked child: close the ``inherited`` pipe readers, send
    ``fn(item)`` for each item to ``fd``, or the first exception's message
    in place of its result, then end the process."""
    status = 1
    try:
        for reader in inherited:
            reader.close()
        with open(fd, "wb") as out:
            for item in items:
                try:
                    data = fn(item)
                except Exception as exc:
                    message = f"{type(exc).__name__}: {exc}".encode(errors="backslashreplace")
                    out.write(_prefix(-len(message)))
                    out.write(message)
                    return
                out.write(_prefix(len(data)))
                out.write(data)
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _prefix(size: int) -> bytes:
    return size.to_bytes(_PREFIX, "little", signed=True)


def _receive(reader: BinaryIO, worker: int, k: int) -> bytes:
    """Item k's result from ``worker``'s pipe."""
    prefix = reader.read(_PREFIX)
    size = int.from_bytes(prefix, "little", signed=True)
    data = reader.read(abs(size))
    if len(prefix) < _PREFIX or len(data) < abs(size):
        raise ChildProcessError(f"worker {worker} ended before sending item {k}")
    if size < 0:
        message = data.decode()
        raise ChildProcessError(f"worker {worker} failed on item {k}: {message}")
    return data
