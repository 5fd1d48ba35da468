"""Shared fixtures; the expensive solver runs are session-scoped and reused."""

import math

import numpy as np
import pytest

from morreyheat import fields as F
from morreyheat import evolution as E
from morreyheat import similarity as S
from morreyheat.params import make_params


def pop_wall_times(profile: dict, limit: float = math.inf) -> set:
    """Pop a counters profile's wall times (the names ending in _s), check that each lies
    in [0, limit], and return their names: what is left is work counts, which repeat."""
    times = {key: profile.pop(key) for key in [key for key in profile if key.endswith("_s")]}
    assert all(0.0 <= value <= limit for value in times.values())
    return set(times)


@pytest.fixture(scope="session")
def params5():
    return make_params(3.0)


@pytest.fixture(scope="session")
def params3():
    return make_params(7.0)


@pytest.fixture(scope="session")
def energy_run(params5):
    """Small-gaussian decaying run carrying checkpoints for the similarity
    windows of T in {2, 5, 10} (ds = 0.01) and for t0 in {1, 2, 5, 10}."""
    grid = F.make_grid(5, 36.0, 720)
    amp, width = 0.3, 2.0
    u0 = F.gaussian(grid, amp, width, F.DIRICHLET)
    grad0 = F.gaussian_gradient(grid, amp, width)
    ds = 0.01
    s_grids = {}
    times = {1.0, 2.0, 5.0, 10.0}
    for T in (2.0, 5.0, 10.0):
        s = np.arange(-math.log(T - T / 2.0), -math.log(T - min(10.0, T - 0.1)), ds)
        s_grids[T] = s
        times.update(S.checkpoint_times_for_s_grid(T, s).tolist())
    cfg = E.SolverConfig(t_end=10.0, checkpoint_times=tuple(sorted(times)))
    traj = E.solve(u0, params5, cfg)
    assert traj.status.kind == "reached_horizon"
    return {"traj": traj, "u0": u0, "grad0": grad0, "grid": grid, "s_grids": s_grids}


@pytest.fixture(scope="session")
def threshold_run(params5):
    """Bisection of the gaussian ray at the default long horizon."""
    from morreyheat import threshold as T
    grid = F.make_grid(5, 40.0, 200)
    cfg = E.SolverConfig(t_end=200.0,
                         checkpoint_times=tuple(np.geomspace(1.0, 200.0, 15)))
    phi = F.gaussian(grid, 1.0, 2.0, F.DIRICHLET)
    result = T.bisect_lambda(phi, params5, cfg, rel_tol=1e-3, lambda_init=1.0)
    return {"result": result, "cfg": cfg, "grid": grid, "phi": phi}


@pytest.fixture(scope="session")
def borderline_probes(threshold_run, params5):
    """Subthreshold probes at delta in {0.1, 0.01, 0.001} below the bisected bracket."""
    from morreyheat import threshold as T
    return T.borderline_probe(threshold_run["result"], params5, threshold_run["cfg"],
                              [0.1, 0.01, 0.001])
