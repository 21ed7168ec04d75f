"""The one fork path: results in input order, the caller's share and failed items left to it."""

import time

import pytest

from conftest import reaped

from sleddyn import forked


def square_unless_seven(x: int) -> int:
    if x == 7:
        raise ValueError("seven")
    return x * x


@pytest.mark.parametrize("cpus, processes, expected", [
    # worker 1 has 1, 4, 7, 10 and stops at 7; worker 2 has 2, 5, 8, 11; the caller 0, 3, 6, 9
    (3, 12, [None, 1, 4, None, 16, 25, None, None, 64, None, None, 121]),
    # capped at two processes: the worker has the odd items and stops at 7
    (3, 2, [None, 1, None, 9, None, 25, None, None, None, None, None, None]),
    # one CPU: nothing is forked, every item is the caller's
    (1, 12, [None] * 12),
])
def test_results_in_input_order(monkeypatch, forks, cpus, processes, expected):
    monkeypatch.setattr(forked, "cpus", lambda: cpus)
    with forked.shares(square_unless_seven, list(range(12)), processes) as results:
        assert list(results) == expected
    assert len(forks) == min(cpus, processes) - 1
    assert reaped(forks)


def test_a_worker_runs_through_its_share_before_the_caller_reads(tmp_path, monkeypatch, forks):
    # each result is larger than a pipe's buffer, yet the worker does not wait for the
    # caller to read one before it computes the next
    monkeypatch.setattr(forked, "cpus", lambda: 2)

    def large(i: int) -> str:
        (tmp_path / str(i)).touch()
        return str(i) * 1_000_000

    with forked.shares(large, list(range(6)), 2) as results:
        deadline = time.monotonic() + 30.0
        while not (tmp_path / "5").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["1", "3", "5"]
        assert list(results) == [None, "1" * 1_000_000, None, "3" * 1_000_000, None, "5" * 1_000_000]
    assert len(forks) == 1 and reaped(forks)
