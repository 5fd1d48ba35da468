"""The package's public surface: every exported name resolves, and the removed one-ball and
one-point wrappers stay removed, their batched forms being the API."""

import morreyheat
from morreyheat import quadrature as Q
from morreyheat import similarity as S

REMOVED = ((morreyheat, "ball_integral"), (morreyheat, "cap_fraction"),
           (Q, "ball_integral"), (Q, "cap_fraction"), (Q, "TruncationWarning"),
           (S, "energy"), (S, "_functional_A_at"))


def test_exports_resolve_and_removed_wrappers_are_gone():
    assert morreyheat.__all__ and all(hasattr(morreyheat, name) for name in morreyheat.__all__)
    for module, name in REMOVED:
        assert name not in morreyheat.__all__
        assert not hasattr(module, name), f"{module.__name__}.{name}"
