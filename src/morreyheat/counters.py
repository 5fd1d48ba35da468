"""Work counters of one run, reported by each layer where its work happens.

`run_experiment` alone enters `collect`, and the dict it yields becomes the
manifest's `profile`.  Outside `collect`, `add` and `least` do nothing, so
library calls record nothing.  The collector is process-global, like the
Morrey table cache; nothing in the package starts threads.
"""

import contextlib

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


def add(name: str, value=1) -> None:
    if _active is not None:
        _active[name] = _active.get(name, 0) + value


def least(name: str, value) -> None:
    """Keep the smallest value reported under name."""
    if _active is not None:
        _active[name] = min(_active.get(name, value), value)
