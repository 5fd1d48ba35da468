from types import SimpleNamespace

import pytest

from morreyheat import counters


@pytest.fixture
def clock(monkeypatch):
    """counters' clock reads 1, 2, 4, 8, ... on successive calls, so each timed span is exact."""
    ticks = iter(2.0**k for k in range(64))
    monkeypatch.setattr(counters, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))


@counters.timed("double_s")
def double(x):
    """Twice x."""
    return 2 * x


@counters.timed("fails_s")
def fails():
    raise RuntimeError("inside")


def test_timed_as_a_block_and_as_a_decorator(clock):
    with counters.collect() as profile:
        with counters.timed("block_s"):   # ticks 1 and 2
            pass
        with counters.timed("block_s"):   # 4 and 8
            pass
        assert double(3) == 6             # 16 and 32
        assert double(4) == 8             # 64 and 128
    assert profile == {"block_s": 1.0 + 4.0, "double_s": 16.0 + 64.0}
    assert double.__name__ == "double" and double.__doc__ == "Twice x."


def test_timed_records_nothing_outside_collect(clock):
    with counters.collect() as profile:
        double(1)
    before = dict(profile)
    with counters.timed("block_s"):
        pass
    assert double(2) == 4
    assert profile == before and counters._active is None
    with counters.collect() as fresh:
        pass
    assert fresh == {}


def test_timed_records_when_the_block_raises(clock):
    with counters.collect() as profile:
        with pytest.raises(RuntimeError, match="inside"):
            with counters.timed("block_s"):   # ticks 1 and 2
                raise RuntimeError("inside")
        with pytest.raises(RuntimeError, match="inside"):
            fails()                           # 4 and 8
    assert profile == {"block_s": 1.0, "fails_s": 4.0}
