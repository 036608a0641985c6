"""Unit tests for the host-speed probe and the normalisation it feeds (not
collected by tier-1): ``PYTHONPATH=src pytest benchmarks/e2e/test_hostspeed.py``."""

from __future__ import annotations

import pytest

from benchmarks.e2e import hostspeed
from benchmarks.e2e.hostspeed import HostSpeed


def test_kernel_is_deterministic_and_does_the_join():
    fact, dim = hostspeed._tables()
    first = hostspeed.kernel(fact, dim)
    assert first == hostspeed.kernel(*hostspeed._tables())
    assert sum(count for _key, (count, _total) in first) == sum(1 for r in fact if r[3] > 5)


def test_refresh_samples_only_when_the_period_has_passed(monkeypatch):
    speed = HostSpeed()
    speed.mark()
    assert speed.wall > 0 and speed.cpu > 0
    assert speed.window_wall() == speed.wall
    spent = speed.spent_s
    speed.refresh()  # the sample mark() took is still fresh
    assert speed.spent_s == spent
    monkeypatch.setattr(hostspeed, "PERIOD_S", 0.0)
    speed.sample()
    speed.refresh()
    assert speed.spent_s > spent


def test_round_log_divides_each_sample_by_the_slowdown_it_was_taken_at():
    pytest.importorskip("repro")  # needs PYTHONPATH=src, like tier-1
    from benchmarks.e2e.queries import Query
    from benchmarks.e2e.workloads import Op, RoundLog

    log = RoundLog()
    query = Query("q", "SELECT 1")
    assert log.add(query, Op(latency_s=0.2, cpu_s=0.1), wall=2.0, cpu=1.0) == pytest.approx(0.1)
    log.add(query, Op(latency_s=0.1, cpu_s=0.1), wall=1.0, cpu=2.0)
    assert log.monitored["q"] == pytest.approx([0.1, 0.1])
    assert log.client_cpu_s == pytest.approx(0.15)
    # The server's CPU total is rescaled by the latency-weighted CPU slowdown.
    assert log.cpu_scaled_wall_s / log.raw_wall_s == pytest.approx(0.25 / 0.3)
