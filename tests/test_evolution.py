import dataclasses

import numpy as np
import pytest

from conftest import pop_wall_times
from morreyheat import counters
from morreyheat import evolution as E
from morreyheat import fields as F
from morreyheat import quadrature as Q
from morreyheat.params import make_params

P5 = make_params(3.0)


def test_config_validation():
    # the step bounds and the blowup threshold are the method's constants, not options; solve
    # checks safety against the grid
    assert [f.name for f in dataclasses.fields(E.SolverConfig)] == [
        "safety", "t_end", "checkpoint_times", "nonlinear"]
    for removed in ("dt_init", "dt_min", "blowup_threshold"):
        with pytest.raises(TypeError, match=removed):
            E.SolverConfig(**{removed: 1.0})
    with pytest.raises(ValueError):
        E.SolverConfig(checkpoint_times=(1.0, 0.5))
    for t_end in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t_end"):
            E.SolverConfig(t_end=t_end)
    # a time at 0 or past t_end could never be landed on
    for times in ((0.0, 0.5), (0.5, 10.5), (float("nan"),), (-1.0, 1.0), (1.0, 0.5)):
        with pytest.raises(ValueError, match=r"increase strictly within \(0, t_end\]"):
            E.SolverConfig(t_end=10.0, checkpoint_times=times)


@pytest.mark.parametrize("safety", [0.0, -1.0, E.max_safety(5) * 1.01, 1e-12, float("nan")])
def test_solve_rejects_safety_outside_stability_bound(safety):
    # a decaying datum that safety 0, -1 or 1e-12 (no step fits DT_MIN) and an unstable
    # safety (RK4 amplifies the origin mode) would both have called a blowup
    g = F.make_grid(5, 10.0, 100)
    u0 = F.gaussian(g, 0.05, 2.0, F.DIRICHLET)
    with pytest.raises(ValueError, match="safety"):
        E.solve(u0, P5, E.SolverConfig(t_end=1.0, safety=safety))
    traj = E.solve(u0, P5, E.SolverConfig(t_end=1.0, safety=E.max_safety(5)))
    assert traj.status.kind == "reached_horizon"
    assert traj.sup_norms[-1] < traj.sup_norms[0]


def test_solve_runs_from_the_safety_whose_cap_is_dt_min():
    # below that safety the first step would read as a collapse, so a decaying datum would
    # read as a blowup at t = 0
    g = F.make_grid(5, 10.0, 64)
    u0 = F.gaussian(g, 0.05, 2.0, F.DIRICHLET)
    floor = E.DT_MIN / E.diffusive_cap(1.0, g.h, 5)
    while E.diffusive_cap(floor, g.h, 5) < E.DT_MIN:
        floor = np.nextafter(floor, np.inf)
    with pytest.raises(ValueError, match="below DT_MIN"):
        E.solve(u0, P5, E.SolverConfig(t_end=0.5, safety=np.nextafter(floor, 0.0)))
    traj = E.solve(u0, P5, E.SolverConfig(t_end=1e-12, safety=floor, checkpoint_times=(1e-12,)))
    assert traj.status == E.TrajectoryStatus("reached_horizon", 1e-12)
    assert traj.series[1:-1, 3].min() >= E.DT_MIN   # every step but the one cut to land on t_end


def _rk4_amplification(z):
    """RK4's stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


def test_rk4_real_limit_and_max_safety():
    # -RK4_REAL_LIMIT is the real root of R(z) = 1, i.e. of z^3 + 4 z^2 + 12 z + 24
    roots = np.roots([1.0, 4.0, 12.0, 24.0])
    real = roots[np.abs(roots.imag) < 1e-12].real
    assert real.size == 1 and abs(real[0] + E.RK4_REAL_LIMIT) < 1e-14
    assert abs(_rk4_amplification(-E.RK4_REAL_LIMIT) - 1.0) < 1e-13
    bounds = [E.max_safety(n) for n in range(3, 17)]
    assert bounds[0] == pytest.approx(E.RK4_REAL_LIMIT, rel=1e-14)   # rho h^2 = 6 at n = 3
    assert all(b < b_next for b, b_next in zip(bounds, bounds[1:]))
    assert min(bounds) > 2.4


@pytest.mark.parametrize("n", [3, 4, 5, 8, 11])
@pytest.mark.parametrize("boundary", [F.FREE, F.DIRICHLET])
def test_diffusive_cap_is_rk4_stable(n, boundary):
    # every eigenvalue of the stepper's operator, complex ones included, must lie
    # in RK4's stability region at the largest allowed safety, at the stated fraction
    # of it and at 2.4; at the fraction the stiffest real mode is damped to |R| <= 0.66
    stable = E.STABLE_FRACTION * E.max_safety(n)
    for m in (100, 400, 800):
        g = F.make_grid(n, 40.0, m)
        lam = np.linalg.eigvals(E._Stepper(g, dirichlet=boundary == F.DIRICHLET).matrix())
        if n >= 8:   # a complex pair, off the real axis that the limit is taken on
            assert np.abs(lam.imag).max() * g.h**2 > 0.8
        for safety in (E.max_safety(n), stable, 2.4):
            dt = E.diffusive_cap(safety, g.h, n)
            assert np.abs(_rk4_amplification(dt * lam)).max() <= 1.0 + 1e-12, (m, safety)
        stiffest_real = lam.real[np.abs(lam.imag) == 0.0].min()
        dt = E.diffusive_cap(stable, g.h, n)
        assert abs(_rk4_amplification(dt * stiffest_real)) <= 0.66, m


def test_zero_data():
    g = F.make_grid(5, 10.0, 100)
    traj = E.solve(F.zero_field(g, F.DIRICHLET), P5, E.SolverConfig(t_end=1.0))
    assert traj.status.kind == "reached_horizon"
    assert traj.sup_norms.max() == 0.0


def test_linear_hook_matches_kernel():
    g = F.make_grid(5, 20.0, 1000)
    u0 = F.gaussian(g, 1.0, 2.0, F.DIRICHLET)
    cfg = E.SolverConfig(t_end=1.0, nonlinear=False, checkpoint_times=(1.0,))
    traj = E.solve(u0, P5, cfg)
    t, f = traj.checkpoints[-1]
    exact = Q.heat_kernel_matrix(g, t, g.nodes) @ u0.values
    rel = np.max(np.abs(f.values - exact)) / np.max(np.abs(exact))
    assert rel < 1e-4


@pytest.mark.parametrize("amplitude", [1.0, 2.0])
def test_plateau_blowup_ode_oracle(amplitude):
    g = F.make_grid(5, 40.0, 400)
    u0 = F.plateau(g, amplitude, 15.0, 2.0, F.DIRICHLET)
    traj = E.solve(u0, P5, E.SolverConfig(t_end=10.0))
    assert traj.status.kind == "blowup"
    oracle = 1.0 / ((P5.p - 1) * amplitude ** (P5.p - 1))
    assert traj.status.T_est == pytest.approx(oracle, rel=0.02)
    assert traj.status.T_est > traj.status.t_final


def test_estimate_blowup_exact_ode_series():
    T = 0.5
    tau = np.geomspace(1e-10, T * 0.999, 300)[::-1]
    ts = T - tau
    sup = ((P5.p - 1) * tau) ** (-P5.beta)
    series = np.column_stack([ts, sup, sup, np.gradient(ts)])
    fit = E._fit_blowup_time(series, P5)
    assert fit is not None
    t_est, fit_quality = fit
    assert t_est == pytest.approx(T, abs=1e-10)
    assert fit_quality == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t, sup", [
    # 7 rows: every window, out to 16 decades below the last sup, holds fewer than 8
    (np.linspace(0.0, 0.3, 7), np.geomspace(1.0, 1e3, 7)),
    # 10 rows at one time, whose mean is exact: no variance in t
    (np.full(10, 0.5), np.geomspace(1.0, 1e3, 10)),
    # a falling sup: sup^(1-p) rises with t, a nonnegative slope
    (np.linspace(0.0, 0.3, 10), np.geomspace(1e3, 1e2, 10)),
], ids=["few_rows", "no_t_variance", "nonnegative_slope"])
def test_blowup_fit_none_falls_back_to_ode_tail(t, sup):
    # each series reaches one of _fit_blowup_time's three None returns; the blowup
    # status then takes the ODE tail T - t ~ sup^(1-p)/(p-1) and records no fit quality
    series = np.column_stack([t, sup, sup, np.gradient(t)])
    assert E._fit_blowup_time(series, P5) is None
    t_final = float(series[-1, 0])
    status = E._blowup_status([tuple(row) for row in series], P5, t_final)
    tail = series[-1, 1] ** (1.0 - P5.p) / (P5.p - 1.0)
    assert status.kind == "blowup" and status.t_final == t_final
    assert status.T_est == t_final + tail and status.fit_quality is None


def test_sign_symmetry_exact():
    g = F.make_grid(5, 40.0, 200)
    u0 = F.gaussian(g, 0.5, 2.0, F.DIRICHLET)
    neg = F.make_field(g, -u0.values, F.DIRICHLET)
    cfg = E.SolverConfig(t_end=0.5, checkpoint_times=(0.25, 0.5))
    t1 = E.solve(u0, P5, cfg)
    t2 = E.solve(neg, P5, cfg)
    for (_, f1), (_, f2) in zip(t1.checkpoints, t2.checkpoints):
        assert np.array_equal(f1.values, -f2.values)


def test_positivity_preserved():
    g = F.make_grid(5, 30.0, 300)
    u0 = F.gaussian(g, 0.3, 2.0, F.DIRICHLET)
    traj = E.solve(u0, P5, E.SolverConfig(t_end=5.0,
                                          checkpoint_times=tuple(np.geomspace(0.1, 5.0, 8))))
    floor = -1e-10 * F.sup_norm(u0)
    for _, f in traj.checkpoints:
        assert f.values.min() >= floor


def test_grid_convergence_order():
    sols = {}
    for m in (160, 320, 640):
        g = F.make_grid(5, 16.0, m)
        u0 = F.gaussian(g, 0.3, 2.0, F.DIRICHLET)
        traj = E.solve(u0, P5, E.SolverConfig(t_end=1.0, checkpoint_times=(1.0,)))
        sols[m] = traj.checkpoints[0][1].values
    e1 = np.max(np.abs(sols[160] - sols[320][::2]))
    e2 = np.max(np.abs(sols[320] - sols[640][::2]))
    assert np.log2(e1 / e2) >= 1.8


def test_boundary_contamination_guard():
    g = F.make_grid(5, 10.0, 100)
    u0 = F.power_tail(g, 0.5, 1.2, 2.0)      # heavy tail, free boundary tag
    traj = E.solve(u0, P5, E.SolverConfig(t_end=1.0))
    assert traj.status.kind == "aborted"
    assert traj.status.reason == "boundary_contamination"


def test_decay_diagnostics_zero_flagged():
    g = F.make_grid(5, 10.0, 100)
    traj = E.solve(F.zero_field(g, F.DIRICHLET), P5, E.SolverConfig(t_end=1.0))
    d = E.decay_diagnostics(traj, P5)
    assert not d.defined
    assert d.slope is None
    assert d.sup_t_beta_norm == 0.0


def test_decay_diagnostics_requires_horizon():
    g = F.make_grid(5, 40.0, 200)
    traj = E.solve(F.plateau(g, 1.0, 15.0, 2.0, F.DIRICHLET), P5, E.SolverConfig(t_end=10.0))
    with pytest.raises(ValueError):
        E.decay_diagnostics(traj, P5)



def _weighted_run(times, w):
    """A reached-horizon trajectory whose weighted sup-norm t^beta ||u||_inf is w."""
    t = np.asarray(times, dtype=float)
    sup = np.concatenate(([1.0], np.asarray(w) / t[1:] ** P5.beta))
    series = np.column_stack([t, sup, sup, np.zeros_like(t)])
    return E.Trajectory(checkpoints=[], series=series,
                        status=E.TrajectoryStatus("reached_horizon", float(t[-1])))


def test_decay_diagnostics_peak_and_decay_start():
    # w peaks at t = 3, rises again into t = 7 and then falls; the rise of
    # 1e-12 relative into t = 80 is below the 1e-9 tolerance
    times = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 40, 60, 80, 100]
    w = [1.0, 2.0, 3.0, 2.0, 1.5, 1.0, 1.5, 1.4, 1.3, 1.2, 1.0, 0.8, 0.6,
         0.6 * (1 + 1e-12), 0.5]
    d = E.decay_diagnostics(_weighted_run(times, w), P5)
    assert d.defined and d.tail_monotone
    assert d.peak_time == 3.0
    assert d.decay_start == 7.0
    assert d.sup_t_beta_norm == pytest.approx(3.0, rel=1e-15)
    # too few final-decade samples: undefined, but peak and start still read off w
    d = E.decay_diagnostics(_weighted_run([0, 1, 2, 10], [1.0, 2.0, 1.5]), P5)
    assert not d.defined
    assert (d.peak_time, d.decay_start) == (2.0, 2.0)
    # a tied maximum peaks at its first time, and a plateau counts as no rise
    d = E.decay_diagnostics(_weighted_run([0, 1, 4, 9, 16, 25], [1, 3, 3, 2, 1]), P5)
    assert (d.peak_time, d.decay_start) == (4.0, 4.0)
    # a monotone decrease starts at the first recorded t > 0
    d = E.decay_diagnostics(_weighted_run([0, 1, 2, 4, 8, 16], [5, 4, 3, 2, 1]), P5)
    assert (d.peak_time, d.decay_start) == (1.0, 1.0)


def test_small_gaussian_tail_monotone(energy_run):
    d = E.decay_diagnostics(energy_run["traj"], P5)
    assert d.defined
    assert d.tail_monotone
    assert d.slope < -P5.beta   # strictly faster than the critical rate


@pytest.mark.parametrize("nonlinear", [True, False])
def test_checkpoints_land_on_their_requested_times(nonlinear):
    # each checkpoint is recorded at its requested float, not at the sum that t += dt
    # accumulates: 25 diffusive steps of 0.0008 add up to 0.019999999999999997, not 0.02
    g = F.make_grid(5, 10.0, 100)
    u0 = F.gaussian(g, 0.3, 2.0, F.DIRICHLET)
    for times in ((0.02, 0.5, 1.0), E.log_checkpoints(1.0, 20),
                  tuple((2.0 - np.exp(-np.arange(-np.log(1.5), -np.log(0.5), 0.05))).tolist())):
        traj = E.solve(u0, P5, E.SolverConfig(t_end=times[-1], checkpoint_times=times,
                                              nonlinear=nonlinear))
        assert [t for t, _ in traj.checkpoints] == list(times)
        assert traj.series[-1, 0] == traj.status.t_final == times[-1]


def test_gradient_majorant_zero_data():
    g = F.make_grid(5, 10.0, 100)
    z = F.zero_field(g, F.DIRICHLET)
    traj = E.solve(z, P5, E.SolverConfig(t_end=1.0, checkpoint_times=(0.01, 0.02)))
    ok, worst = E.gradient_majorant_check(traj, z, z, t_small=0.05)
    assert ok and worst == 0.0


def test_gradient_majorant_linear_hook():
    g = F.make_grid(5, 20.0, 400)
    u0 = F.gaussian(g, 0.5, 2.0, F.DIRICHLET)
    grad0 = F.gaussian_gradient(g, 0.5, 2.0)
    cfg = E.SolverConfig(t_end=2.0, nonlinear=False,
                         checkpoint_times=(0.01, 0.03, 0.1))
    traj = E.solve(u0, P5, cfg)
    ok, worst = E.gradient_majorant_check(traj, u0, grad0, t_small=0.1)
    assert ok
    assert worst <= 0.55   # equality up to discretization is a factor 1 <= 2
    # a checkpoint after t_small, however steep, is not checked
    steep = F.make_field(g, 1e6 * np.sin(g.nodes))
    late = E.Trajectory(checkpoints=traj.checkpoints + [(1.0, steep)],
                        series=traj.series, status=traj.status)
    assert E.gradient_majorant_check(late, u0, grad0, t_small=0.1) == (ok, worst)


def test_gradient_majorant_fails_where_the_majorant_vanishes():
    # |grad u0| cut to 0 past r = 4: at t = 0.01 the majorant is below 1e-14 past r ~ 6, where
    # the solution's gradient is still ~1e-4, so the check fails outright
    g = F.make_grid(5, 20.0, 400)
    u0 = F.gaussian(g, 0.5, 2.0, F.DIRICHLET)
    grad0 = F.gaussian_gradient(g, 0.5, 2.0)
    cut = F.make_field(g, np.where(g.nodes <= 4.0, grad0.values, 0.0))
    cfg = E.SolverConfig(t_end=2.0, nonlinear=False, checkpoint_times=(0.01, 0.03, 0.1))
    traj = E.solve(u0, P5, cfg)
    assert E.gradient_majorant_check(traj, u0, grad0, t_small=0.1)[0]
    assert E.gradient_majorant_check(traj, u0, cut, t_small=0.1) == (False, np.inf)


# --- the in-place step against the allocating form it replaced -----------------


def _reference_rk4_step(rhs, u, dt, k):
    """The allocating RK4 step: a fresh array for every stage and for the result."""
    k1, k2, k3, k4 = k
    rhs(u, k1)
    rhs(u + (0.5 * dt) * k1, k2)
    rhs(u + (0.5 * dt) * k2, k3)
    rhs(u + dt * k3, k4)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_rhs(grid, p, dirichlet, nonlinear=True):
    n, h, r = grid.n, grid.h, grid.nodes
    inv_h2 = 1.0 / h**2
    drift = (n - 1) / (2.0 * h * r[1:-1])
    c_plus, c_minus = inv_h2 + drift, inv_h2 - drift
    c_last_minus = inv_h2 - (n - 1) / (2.0 * h * r[-1])

    def rhs(u, out):
        out[0] = 2.0 * n / h**2 * (u[1] - u[0])
        out[1:-1] = c_plus * u[2:] + c_minus * u[:-2] - 2.0 * inv_h2 * u[1:-1]
        out[-1] = c_last_minus * u[-2] - 2.0 * inv_h2 * u[-1]
        if nonlinear:
            out += np.abs(u) ** (p - 1.0) * u
        if dirichlet:
            out[-1] = 0.0
        return out

    return rhs


def _reference_solve(u0, params, cfg):
    """The allocating solve loop with every stop path: series, checkpoints, status, and the
    counters a solve reports: its steps, by the cap that bound each, and the smallest dt."""
    grid, p = u0.grid, params.p
    dirichlet = u0.boundary == F.DIRICHLET
    rhs = _reference_rhs(grid, p, dirichlet)
    r_pow = grid.nodes ** (2.0 / (p - 1.0))
    dt_diff = cfg.safety * grid.h**2 / (2.0 * grid.n)
    cps = np.asarray(cfg.checkpoint_times, dtype=float)
    u = u0.values.astype(float).copy()
    k = [np.empty_like(u) for _ in range(4)]
    t, next_cp, status = 0.0, 0, None
    bound_by, min_dt = {"diffusive": 0, "nonlinear": 0, "landing": 0}, np.inf
    series = [(t, float(np.max(np.abs(u))), float(np.max(r_pow * np.abs(u))), 0.0)]
    checkpoints = []
    while t < cfg.t_end:
        caps = {"diffusive": min(E.DT_MAX, dt_diff),
                "nonlinear": 0.5 * series[-1][1] ** (1.0 - p)}
        dt = min(caps.values())
        if dt < E.DT_MIN:
            status = E._blowup_status(series, params, t)
            break
        # a step that would reach or pass the next target is cut to land on it, and
        # t is then that target itself, not t + dt
        target = cfg.t_end if next_cp >= len(cps) else float(cps[next_cp])
        landing = target - t <= dt
        if landing:
            dt = target - t
        u = _reference_rk4_step(rhs, u, dt, k)
        if dirichlet:
            u[-1] = 0.0
        t = target if landing else t + dt
        bound_by["landing" if landing else min(caps, key=caps.get)] += 1
        min_dt = min(min_dt, dt)
        sup = float(np.max(np.abs(u)))
        series.append((t, sup, float(np.max(r_pow * np.abs(u))), dt))
        if not dirichlet and abs(u[-2]) > E.BOUNDARY_CONTAMINATION * sup:
            status = E.TrajectoryStatus("aborted", t, reason="boundary_contamination")
            break
        if next_cp < len(cps) and t == cps[next_cp]:
            checkpoints.append((t, u.copy()))
            next_cp += 1
        if sup >= E.BLOWUP_THRESHOLD:
            status = E._blowup_status(series, params, t)
            break
    status = status or E.TrajectoryStatus("reached_horizon", t)
    work = {f"evolution.cap.{cap}": count for cap, count in bound_by.items()}
    work.update({"evolution.steps": sum(bound_by.values()), "evolution.min_dt": min_dt})
    return np.array(series), checkpoints, work, status


def _collected_solve(u0, params, cfg):
    with counters.collect() as work:
        traj = E.solve(u0, params, cfg)
    assert pop_wall_times(work) == {"evolution.solve_s"}
    return traj, work


def _assert_equals_reference(traj, work, u0, params, cfg):
    series, checkpoints, want_work, status = _reference_solve(u0, params, cfg)
    assert traj.status == status
    assert work == want_work
    assert len(traj.series) - 1 == work["evolution.steps"] == len(series) - 1
    assert traj.series.tobytes() == series.tobytes()
    assert len(traj.checkpoints) == len(checkpoints)
    for (t, f), (t_ref, v_ref) in zip(traj.checkpoints, checkpoints):
        assert t == t_ref and f.values.tobytes() == v_ref.tobytes()


def test_rk4_step_equals_allocating_step():
    g = F.make_grid(5, 20.0, 200)
    u0 = F.gaussian(g, 1.0, 2.0, F.DIRICHLET)
    stepper = E._Stepper(g, 3.0, dirichlet=True)
    stepper.u[:] = u0.values
    ref, ref_rhs = u0.values.copy(), _reference_rhs(g, 3.0, True)
    k = [np.empty_like(ref) for _ in range(4)]
    dt = 0.8 * g.h**2 / 10.0
    for _ in range(300):
        stepper.step(dt)
        ref = _reference_rk4_step(ref_rhs, ref, dt, k)
        ref[-1] = 0.0
    assert stepper.u.tobytes() == ref.tobytes()
    # the public right-hand side of a pure heat stepper is the Laplacian of any array
    v = np.random.default_rng(0).standard_normal(g.m + 1)
    lap = _reference_rhs(g, 3.0, False, nonlinear=False)(v, np.empty_like(v))
    assert E._Stepper(g).rhs(v, np.empty_like(v)).tobytes() == lap.tobytes()
    # and its dense matrix applies that Laplacian too
    mat = E._Stepper(g).matrix()
    np.testing.assert_allclose(mat @ v, lap, rtol=0, atol=1e-13 * np.abs(mat).max())


@pytest.mark.parametrize("p", [3.0, 7.0 / 3.0])
def test_rk4_step_factors_follow_dt(p):
    # the stepper rewrites its step factors only when dt changes: steps of dt, dt, dt', dt
    # (and dt' twice) each stay bitwise the allocating step of that size
    g = F.make_grid(5, 20.0, 200)
    u0 = F.gaussian(g, 1.0, 2.0)
    stepper = E._Stepper(g, p)
    stepper.u[:] = u0.values
    ref, ref_rhs = u0.values.copy(), _reference_rhs(g, p, False)
    k = [np.empty_like(ref) for _ in range(4)]
    dt = 0.8 * g.h**2 / 10.0
    for size in (dt, dt, 0.5 * dt, dt, 0.25 * dt, 0.25 * dt, dt):
        stepper.step(size)
        ref = _reference_rk4_step(ref_rhs, ref, size, k)
        assert stepper.u.tobytes() == ref.tobytes()


@pytest.mark.parametrize("boundary", [F.DIRICHLET, F.FREE])
@pytest.mark.parametrize("p", [3.0, 7.0 / 3.0])
def test_solve_equals_allocating_loop(boundary, p):
    params = make_params(p)
    g = F.make_grid(5, 20.0, 200)
    u0 = F.gaussian(g, 1.0, 2.0, boundary)
    cfg = E.SolverConfig(t_end=0.25, checkpoint_times=(0.05, 0.1, 0.2))
    traj, work = _collected_solve(u0, params, cfg)
    assert traj.status.kind == "reached_horizon"
    assert len(traj.series) > 300 and len(traj.checkpoints) == 3
    _assert_equals_reference(traj, work, u0, params, cfg)


@pytest.mark.parametrize("p", [3.0, 2.0])
def test_blowup_stop_equals_allocating_loop(p):
    # at p = 3 the nonlinear cap 0.5 sup^-2 falls below DT_MIN before sup reaches
    # BLOWUP_THRESHOLD, so the run stops on the collapsing step; at p = 2 the cap is still
    # 0.5 / 1e8 = 5e-9 there, so it stops on the sup threshold
    params = make_params(p)
    g = F.make_grid(5, 40.0, 200)
    u0 = F.plateau(g, 2.0, 15.0, 2.0, F.DIRICHLET)
    cfg = E.SolverConfig(t_end=1.0, checkpoint_times=(0.05, 0.1))
    traj, work = _collected_solve(u0, params, cfg)
    assert traj.status.kind == "blowup"
    assert (traj.sup_norms[-1] >= E.BLOWUP_THRESHOLD) == (p == 2.0)
    assert traj.series[-1, 3] > E.DT_MIN
    _assert_equals_reference(traj, work, u0, params, cfg)


def test_boundary_abort_equals_allocating_loop():
    g = F.make_grid(5, 10.0, 100)
    u0 = F.gaussian(g, 0.5, 2.5)      # free boundary tag; its tail reaches r_max mid-run
    cfg = E.SolverConfig(t_end=1.0, checkpoint_times=(0.1, 1.0))
    traj, work = _collected_solve(u0, P5, cfg)
    assert traj.status.reason == "boundary_contamination"
    assert len(traj.series) > 101 and len(traj.checkpoints) == 1
    _assert_equals_reference(traj, work, u0, P5, cfg)


def test_diffusion_substeps_equal_allocating_substeps():
    from morreyheat import duhamel as D

    g = F.make_grid(5, 20.0, 200)
    sub = D._DiffusionSubsteps(g, 2.0 * g.h**2 * 0.9)
    assert sub.k > 1
    ref_rhs = _reference_rhs(g, 3.0, False, nonlinear=False)
    k = [np.empty(g.m + 1) for _ in range(4)]
    for u0 in (F.gaussian(g, 1.0, 2.0), F.power_tail(g, 0.5, 1.2, 2.0)):
        ref = u0.values.copy()
        for _ in range(sub.k):
            ref = _reference_rk4_step(ref_rhs, ref, sub.dt_sub, k)
        got = sub @ u0.values
        assert got.tobytes() == ref.tobytes()
        assert got is not sub.stepper.u   # a fresh array, not the stepper's state


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_nonfinite_state_aborts(monkeypatch, poison):
    real_step = E._Stepper.step
    calls = []

    def poisoned_step(self, dt):
        real_step(self, dt)
        calls.append(1)
        if len(calls) == 5:
            self.u[7] = poison

    monkeypatch.setattr(E._Stepper, "step", poisoned_step)
    g = F.make_grid(5, 20.0, 200)
    traj = E.solve(F.gaussian(g, 1.0, 2.0, F.DIRICHLET), P5, E.SolverConfig(t_end=1.0))
    assert traj.status.kind == "aborted"
    assert traj.status.reason == "nonfinite"
    assert len(calls) == 5
    assert np.all(np.isfinite(traj.series))
    # the series ends at the last finite state, before the abort time
    assert traj.series[-1, 0] < traj.status.t_final


@pytest.mark.parametrize("t_small, message", [
    (0.5, "t_small must lie in the first 5% of the run"),
    (0.04, r"no checkpoints inside \(0, t_small\]"),   # the first checkpoint is at 0.1
])
def test_gradient_majorant_guards_raise(t_small, message):
    g = F.make_grid(5, 10.0, 32)
    u0 = F.gaussian(g, 0.05, 2.0, F.DIRICHLET)
    traj = E.solve(u0, P5, E.SolverConfig(t_end=1.0, checkpoint_times=(0.1, 0.5, 1.0)))
    assert traj.status.kind == "reached_horizon"
    with pytest.raises(ValueError, match=message):
        E.gradient_majorant_check(traj, u0, F.radial_derivative(u0), t_small)
