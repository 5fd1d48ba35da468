"""Work counters of one run, reported by each layer where its work happens.

`run_experiment` alone enters `collect`, and the dict it yields becomes the
manifest's `profile`.  Outside `collect`, `add`, `least` and `timed` record
nothing.  `timed` is the package's one clock.  The collector is process-global;
nothing in the package starts threads.
"""

import contextlib
import time

_active = None   # the dict `collect` yields, or None outside it


@contextlib.contextmanager
def collect():
    """Collect every counter reported inside the block into the dict it yields."""
    global _active
    _active = {}
    try:
        yield _active
    finally:
        _active = None


@contextlib.contextmanager
def timed(name: str):
    """Add the wall seconds of the block, or of each call it decorates, to name, raise or not."""
    started = time.perf_counter()
    try:
        yield
    finally:
        add(name, time.perf_counter() - started)


def add(name: str, value=1) -> None:
    if _active is not None:
        _active[name] = _active.get(name, 0) + value


def least(name: str, value) -> None:
    """Keep the smallest value reported under name."""
    if _active is not None:
        _active[name] = min(_active.get(name, value), value)
