"""The ordered map over forked worker processes."""
import os

import pytest

from lsentropy._workers import forked_map


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_arrive_in_item_order_from_each_worker():
    items = range(11)
    for jobs in (1, 2, 4, 20):
        # Each result names the process that made it: worker 0 is this one.
        results = [
            data.split(b":") for data in forked_map(
                lambda k: b"%d:%d" % (k, os.getpid()), items, jobs
            )
        ]
        assert [int(k) for k, _ in results] == list(items)
        workers = min(jobs, len(items))
        pids = [int(pid) for _, pid in results]
        assert {pids[k] for k in range(0, len(items), workers)} == {os.getpid()}
        assert len(set(pids)) == workers
        for k, pid in enumerate(pids):
            assert pid == pids[k % workers]
    _no_child_left()


def test_empty_results_and_no_items():
    assert list(forked_map(lambda k: b"", range(5), 3)) == [b""] * 5
    assert list(forked_map(lambda k: b"x", (), 3)) == []
    _no_child_left()


def test_worker_that_ends_without_a_result_raises():
    parent = os.getpid()

    def fn(k):
        if k == 4 and os.getpid() != parent:  # item 4 of 6 is worker 1's
            os._exit(0)
        return b"ok"

    results = forked_map(fn, range(6), 3)
    assert [next(results) for _ in range(4)] == [b"ok"] * 4
    with pytest.raises(ChildProcessError, match="worker 1 ended before sending item 4"):
        next(results)
    _no_child_left()


def test_stopping_early_reaps_workers_blocked_on_a_full_pipe():
    # Each result is larger than a pipe holds, so a worker blocks on it.
    results = forked_map(lambda k: bytes(1 << 20), range(8), 3)
    assert next(results) == bytes(1 << 20)
    results.close()
    _no_child_left()
