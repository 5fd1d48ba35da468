import math
import warnings

import numpy as np
import pytest

from morreyheat import evolution as E
from morreyheat import fields as F
from morreyheat import similarity as S
from morreyheat.morrey import MorreyLattice
from morreyheat.quadrature import gauss_convolve
from morreyheat.params import make_params

P5 = make_params(3.0)
KAPPA = P5.beta**P5.beta


def flat_profile(value):
    y = S.similarity_grid()
    return S.RescaledField(y=y, values=np.full_like(y, value), T=1.0, t=0.0, s=0.0,
                           truncated=False)


def test_to_similarity_zero():
    g = F.make_grid(5, 20.0, 200)
    w = S.to_similarity(F.zero_field(g), 0.5, 1.0, P5)
    assert np.all(w.values == 0.0)
    assert w.s == pytest.approx(-math.log(0.5))


def test_to_similarity_rejects_bad_time():
    g = F.make_grid(5, 20.0, 200)
    with pytest.raises(ValueError):
        S.to_similarity(F.zero_field(g), 1.0, 0.5, P5)


def test_ode_profile_rescales_to_kappa():
    g = F.make_grid(5, 20.0, 200)
    T, t = 0.7, 0.3
    val = ((P5.p - 1) * (T - t)) ** (-P5.beta)
    w = S.to_similarity(F.make_field(g, np.full(g.m + 1, val)), t, T, P5)
    inside = w.y * math.sqrt(T - t) <= g.r_max
    assert np.max(np.abs(w.values[inside] - KAPPA)) < 1e-12


def test_singular_steady_state_is_fixed_point():
    g = F.make_grid(5, 40.0, 4000)
    ss = F.singular_steady_state(g, P5)
    for (t, T) in [(0.2, 1.2), (0.5, 4.5)]:
        w = S.to_similarity(ss, t, T, P5)
        lbig = math.sqrt(2.0)
        sel = (w.y > 0.5) & (w.y * math.sqrt(T - t) < 0.9 * g.r_max)
        exact = lbig / w.y[sel]
        assert np.max(np.abs(w.values[sel] - exact) / exact) < 1e-3


def test_energy_zero():
    e, m = S._weighted_integrals(flat_profile(0.0), 5, P5)[:2]
    assert e == 0.0 and m == 0.0


def test_energy_stationary_closed_form():
    e, m = S._weighted_integrals(flat_profile(KAPPA), 5, P5)[:2]
    expect_e = KAPPA**2 * P5.beta * (P5.p - 1) / (2 * (P5.p + 1)) * (4 * math.pi) ** 2.5
    expect_m = KAPPA**2 * (4 * math.pi) ** 2.5
    assert e == pytest.approx(expect_e, rel=1e-6)
    assert m == pytest.approx(expect_m, rel=1e-6)
    assert S.stationary_energy(5, P5) == pytest.approx(expect_e, rel=1e-12)


def test_energy_positive_for_small_amplitude_bump():
    y = S.similarity_grid()
    w = S.RescaledField(y=y, values=0.01 * np.exp(-((y - 3.0) ** 2)), T=1.0, t=0.0,
                        s=0.0, truncated=False)
    e, m = S._weighted_integrals(w, 5, P5)[:2]
    assert e > 0.0 and m > 0.0


def synthetic_ode_trajectory(T, s_grid, grid):
    cps = []
    for t in S.checkpoint_times_for_s_grid(T, s_grid):
        val = ((P5.p - 1) * (T - t)) ** (-P5.beta)
        cps.append((float(t), F.make_field(grid, np.full(grid.m + 1, val))))
    return E.Trajectory(checkpoints=cps,
                        series=np.array([[0.0, 1.0, 1.0, 0.1]]),
                        status=E.TrajectoryStatus("blowup", cps[-1][0], T_est=T))


def test_energy_series_stationary_at_exact_blowup_time():
    g = F.make_grid(5, 40.0, 400)
    T = 0.5
    s_grid = np.arange(1.0, 3.0, 0.01)
    traj = synthetic_ode_trajectory(T, s_grid, g)
    es = S.energy_series(traj, T, P5, s_grid)
    e_star = S.stationary_energy(5, P5)
    assert np.max(np.abs(es.E - e_star)) / e_star < 1e-4
    assert np.max(np.abs(np.diff(es.E) / np.diff(es.s))) < 1e-6
    assert es.monotone_ok
    assert np.nanmax(es.identity_relative) < 1e-3


def test_energy_series_zero_solution():
    g = F.make_grid(5, 20.0, 200)
    s_grid = np.arange(0.0, 0.2, 0.01)
    cps = [(float(t), F.zero_field(g)) for t in S.checkpoint_times_for_s_grid(1.0, s_grid)]
    traj = E.Trajectory(checkpoints=cps,
                        series=np.array([[0.0, 0.0, 0.0, 0.1]]),
                        status=E.TrajectoryStatus("reached_horizon", 1.0))
    es = S.energy_series(traj, 1.0, P5, s_grid)
    assert np.all(es.E == 0.0) and np.all(es.m == 0.0)
    assert es.monotone_ok


def test_truncated_windows_are_reported_not_warned():
    # a window past r_max reads the field's value at r_max and says so in `truncated`; no
    # warning is raised, by to_similarity or by energy_series along such a trajectory
    g = F.make_grid(5, 10.0, 100)
    u0 = F.gaussian(g, 1.0, 2.0)
    T = 4.0
    s_grid = np.arange(-1.2, 0.5, 0.1)   # windows y <= 10 reach r = 18.2 down to 6.7
    traj = synthetic_ode_trajectory(T, s_grid, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge = S.to_similarity(u0, 0.0, 1.0, P5)    # reaches r_max exactly
        past = S.to_similarity(u0, 0.0, T, P5)
        es = S.energy_series(traj, T, P5, s_grid)
    assert not edge.truncated and past.truncated
    beyond = past.y * math.sqrt(T) > g.r_max
    assert np.all(past.values[beyond] == T**P5.beta * u0.values[-1])
    truncated = [S.to_similarity(f, t, T, P5).truncated for t, f in traj.checkpoints]
    assert any(truncated) and not all(truncated)
    # the flat ODE profile is flat past r_max too: every window keeps the stationary energy
    assert np.max(np.abs(es.E / S.stationary_energy(5, P5) - 1.0)) < 1e-4


def test_energy_series_missing_checkpoint_raises():
    g = F.make_grid(5, 20.0, 200)
    traj = E.Trajectory(checkpoints=[(0.5, F.zero_field(g))],
                        series=np.array([[0.0, 0.0, 0.0, 0.1]]),
                        status=E.TrajectoryStatus("reached_horizon", 1.0))
    with pytest.raises(ValueError):
        S.energy_series(traj, 1.0, P5, np.arange(0.0, 0.1, 0.01))


def test_energy_monotone_along_decaying_run(energy_run):
    traj = energy_run["traj"]
    for T, s_grid in energy_run["s_grids"].items():
        es = S.energy_series(traj, T, P5, s_grid)
        assert es.monotone_ok
        assert es.min_energy >= -1e-6


def test_linear_flow_energy_decreases(energy_run):
    # the quadratic part of the energy is a Lyapunov functional of the heat flow
    g = F.make_grid(5, 30.0, 300)
    u0 = F.gaussian(g, 0.05, 2.0, F.DIRICHLET)
    T = 4.0
    s_grid = np.arange(-math.log(T - 1.0), -math.log(T - 3.5), 0.02)
    times = tuple(S.checkpoint_times_for_s_grid(T, s_grid).tolist())
    traj = E.solve(u0, P5, E.SolverConfig(t_end=4.0, nonlinear=False,
                                          checkpoint_times=times))
    es = S.energy_series(traj, T, P5, s_grid)
    assert np.all(np.diff(es.E) <= 1e-9 * (1 + np.abs(es.E[:-1])))


def test_functional_a_zero_and_positive():
    g = F.make_grid(5, 20.0, 400)
    z = F.zero_field(g)
    assert S.functional_A(z, z, 1.0, [0.0], P5)[0] == 0.0
    u0 = F.gaussian(g, 1.0, 2.0)
    g0 = F.gaussian_gradient(g, 1.0, 2.0)
    assert S.functional_A(u0, g0, 1.0, [0.0], P5)[0] > 0.0
    with pytest.raises(ValueError):
        S.functional_A(u0, g0, 0.0, [0.0], P5)


def test_functional_a_vanishes_at_large_t_supercritical():
    g = F.make_grid(5, 20.0, 400)
    u0 = F.gaussian(g, 1.0, 2.0)
    g0 = F.gaussian_gradient(g, 1.0, 2.0)
    t_vals = (1.0, 10.0, 100.0, 1000.0)
    vals = [float(S.functional_A(u0, g0, T, [0.0], P5)[0]) for T in t_vals]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # supercritical exponents: the slow (gradient) term scales like T^{-1/2}
    slope = np.polyfit(np.log(t_vals), np.log(vals), 1)[0]
    assert slope < -0.3


def test_functional_a_borderline_tail_plateaus():
    g = F.make_grid(5, 160.0, 3200)
    k = 2.0 / (P5.p - 1.0)
    u0 = F.make_field(g, (1.0 + g.nodes**2) ** (-k / 2.0))
    usq = F.make_field(g, u0.values**2)
    vals = [T ** (2.0 / (P5.p - 1.0)) * gauss_convolve(usq, T, 0.0)
            for T in (10.0, 40.0, 160.0)]
    # t^{2/(p-1)} G_t(u0^2) tends to a positive constant for the borderline tail
    assert vals[-1] > 0.05 * vals[0]
    assert vals[-1] == pytest.approx(vals[-2], rel=0.35)


def test_functional_n_zero_and_monotone_grid():
    g = F.make_grid(5, 20.0, 400)
    z = F.zero_field(g)
    assert S.functional_N(z, z, 1.0, [1.0, 2.0], P5) == 0.0
    u0 = F.gaussian(g, 1.0, 2.0)
    g0 = F.gaussian_gradient(g, 1.0, 2.0)
    t_grid = np.geomspace(1.0, 100.0, 10)
    val = S.functional_N(u0, g0, 1.0, t_grid, P5)
    # integrand decreasing for p > p_S: the sup sits at the smallest admissible t
    first = max(float(S.functional_A(u0, g0, 1.0, [a], P5)[0])
                for a in MorreyLattice.default(g).centers)
    assert val == pytest.approx(first, rel=1e-12)
    with pytest.raises(ValueError):
        S.functional_N(u0, g0, 2.0, [1.0], P5)


def test_functional_n_matches_per_center_convolutions():
    g = F.make_grid(5, 20.0, 400)
    u0 = F.gaussian(g, 1.0, 2.0)
    g0 = F.gaussian_gradient(g, 1.0, 2.0)
    u2 = F.make_field(g, u0.values**2)
    g2 = F.make_field(g, g0.values**2)
    t_grid = np.geomspace(0.5, 50.0, 5)
    p = P5.p
    expect = max(t ** ((p + 1.0) / (p - 1.0)) * gauss_convolve(g2, t, float(a))
                 + t ** (2.0 / (p - 1.0)) * gauss_convolve(u2, t, float(a))
                 for t in t_grid for a in MorreyLattice.default(g).centers)
    assert S.functional_N(u0, g0, 0.5, t_grid, P5) == pytest.approx(expect, rel=1e-13)


def test_short_or_unsorted_s_grid_raises():
    g = F.make_grid(5, 10.0, 32)
    traj = E.solve(F.gaussian(g, 0.05, 2.0), P5, E.SolverConfig(t_end=1.0))
    for s_grid in ([0.0, 0.1], [0.0, 0.2, 0.1]):
        with pytest.raises(ValueError, match="s_grid must be increasing with at least 3"):
            S.energy_series(traj, 2.0, P5, s_grid)
