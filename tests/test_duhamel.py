import math
import weakref

import numpy as np
import pytest

from morreyheat import counters
from morreyheat import duhamel as D
from morreyheat import evolution as E
from morreyheat import fields as F
from morreyheat import morrey as M
from morreyheat import quadrature as Q
from morreyheat.params import make_params
from conftest import pop_wall_times
from test_quadrature import _assert_kernel_equals_dense_formula, _diagonal_bytes

P5 = make_params(3.0)


def test_auxiliary_exponent_in_admissible_interval():
    r = D.auxiliary_exponent(P5, 2.0)
    assert max(P5.p, 2.0) < r < P5.p * 2.0
    lam = 4.0 / (P5.p - 1.0)
    beta = (lam / 2.0) * (1.0 / 2.0 - 1.0 / r)
    # both singular exponents of the Duhamel integrand stay below 1
    assert 2.0 / r < 1.0
    assert beta * P5.p < 1.0


def test_picard_zero_data():
    g = F.make_grid(5, 10.0, 100)
    run = D.picard_solve(F.zero_field(g), P5, 1.0, 4, [0.5, 1.0],
                         nodes=32, max_nodes=32)
    assert run.converged
    assert all(F.sup_norm(f) == 0.0 for f in run.fields)


def test_picard_rejects_bad_arguments():
    g = F.make_grid(5, 10.0, 100)
    z = F.zero_field(g)
    with pytest.raises(ValueError):
        D.picard_solve(z, P5, -1.0, 4, [0.5])
    with pytest.raises(ValueError):
        D.picard_solve(z, P5, 1.0, 1, [0.5])
    with pytest.raises(ValueError):
        D.picard_solve(z, P5, 1.0, 4, [2.0])


class _FreshPropagators:
    """Reference store: builds a fresh propagator on every lookup; none is shared or kept."""

    def __init__(self, grid):
        self.grid = grid

    def __getitem__(self, dt):
        dt = float(dt)
        if dt >= 2.0 * self.grid.h**2:
            return Q.SymmetricBandKernel(self.grid, dt)
        return D._DiffusionSubsteps(self.grid, dt)


def _propagator(grid, dt):
    """The Picard store's propagator of one interval width."""
    store = {}
    D._update_store(store, grid, [dt])
    return store[float(dt)]


def _kernel_counts(work):
    """(builds, reuses) of the Picard kernels in collected counters."""
    return tuple(work.get(f"duhamel.picard.kernel_{name}", 0) for name in ("builds", "reuses"))


def _band_mb(grid, widths):
    """Band MB of one kernel per width, counted on the dense factor."""
    return sum(_diagonal_bytes(grid, dt) for dt in widths) / 2**20


def _substeps(grid, widths):
    """RK4 substeps of one application of every interval too narrow for a kernel."""
    cap = E.diffusive_cap(0.8, grid.h, grid.n)
    return sum(max(1, math.ceil(dt / cap)) for dt in widths if dt < 2.0 * grid.h**2)


def test_picard_propagators_one_per_width(monkeypatch):
    g = F.make_grid(5, 10.0, 100)
    u0 = F.gaussian(g, 0.3, 2.0)
    floor = 2.0 * g.h**2
    widths = {nodes: np.diff(D._graded_times(1.0, nodes, extra=[0.5, 1.0], dt_floor=floor))
              for nodes in (32, 64)}
    resolved = {nodes: [float(dt) for dt in w if dt >= floor] for nodes, w in widths.items()}
    distinct = {nodes: set(r) for nodes, r in resolved.items()}
    recurring = distinct[32] & distinct[64]
    for nodes in (32, 64):   # shared widths and a substep interval
        assert len(distinct[nodes]) < len(resolved[nodes]) < len(widths[nodes])
    assert recurring and len(distinct[32]) < len(distinct[64])

    def run(nodes, store):
        return D._run_picard(u0, P5, 1.0, 3, np.array([0.5, 1.0]), nodes, 1e-300, store)

    store = {}
    with counters.collect() as work:
        D._update_store(store, g, widths[32])
    # one propagator per distinct width, in first-seen order
    assert list(store) == list(dict.fromkeys(float(dt) for dt in widths[32]))
    assert _kernel_counts(work) == (len(distinct[32]), 0)
    assert work["duhamel.picard.kernel_mb"] == _band_mb(g, distinct[32])
    assert "duhamel.picard.substeps" not in work   # counted when applied, not when built
    old = {dt: weakref.ref(kernel) for dt, kernel in store.items()}
    after = {float(dt) for dt in widths[64]}
    gone = [ref for dt, ref in old.items() if dt not in after]
    assert gone

    def freed_first(build):
        def checked(*args):
            assert all(ref() is None for ref in gone)   # the widths that do not recur go first
            return build(*args)
        return checked

    with monkeypatch.context() as patch:
        patch.setattr(D, "SymmetricBandKernel", freed_first(Q.SymmetricBandKernel))
        patch.setattr(D, "_DiffusionSubsteps", freed_first(D._DiffusionSubsteps))
        with counters.collect() as work:
            D._update_store(store, g, widths[64])
    assert set(store) == after
    assert all(ref() is None for ref in gone)
    # the recurring widths, substep ones included, keep their propagators
    assert {dt for dt, kernel in store.items() if dt in old and old[dt]() is kernel} == \
        set(old) & set(store)
    assert _kernel_counts(work) == (len(distinct[64] - recurring), len(recurring))
    assert work["duhamel.picard.kernel_mb"] == _band_mb(g, distinct[64] - recurring)
    with counters.collect() as work:
        store = {}
        run(32, store)
        got = run(64, store)[0]   # the iterate at the sample times
    # the linear sweep and 3 Picard sweeps apply every substep interval once each
    assert work["duhamel.picard.substeps"] == 4 * sum(
        _substeps(g, widths[nodes]) for nodes in (32, 64)) > 0
    with counters.collect() as work:
        solved = D.picard_solve(u0, P5, 1.0, 3, [0.5, 1.0], nodes=32, max_nodes=64, tol=1e-300)
    assert solved.nodes_used == 64
    assert _kernel_counts(work)[1] == len(recurring)
    sweep, fresh = D._sweep, _FreshPropagators(g)
    monkeypatch.setattr(D, "_sweep", lambda u0_vals, store, *rest: sweep(u0_vals, fresh, *rest))
    want = run(64, {})[0]
    want_solve = D.picard_solve(u0, P5, 1.0, 3, [0.5, 1.0], nodes=32, max_nodes=64,
                                tol=1e-300)
    assert len(got) == len(want)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert all(a.values.tobytes() == b.values.tobytes()
               for a, b in zip(solved.fields, want_solve.fields))
    assert solved.budget.tobytes() == want_solve.budget.tobytes()


def test_linear_sweep_applies_the_propagators_in_turn(monkeypatch):
    # u^(0)(t) = G_t * u0 is the Picard sweep of the zero iterate: every source term adds
    # +0.0, so it is bitwise the interval propagators applied in turn, substeps included
    g = F.make_grid(5, 10.0, 100)
    u0 = F.gaussian(g, 0.3, 2.0)
    sweep, sweeps = D._sweep, []

    def recorded(u0_vals, store, widths, fields, p):
        sweeps.append((store, widths, sweep(u0_vals, store, widths, fields, p)))
        return sweeps[-1][2]

    monkeypatch.setattr(D, "_sweep", recorded)
    D._run_picard(u0, P5, 1.0, 1, np.array([0.5, 1.0]), 32, 1e-300, {})
    store, widths, first = sweeps[0]
    assert any(isinstance(store[dt], D._DiffusionSubsteps) for dt in widths)
    out = [u0.values.copy()]
    for dt in widths:
        out.append(store[dt] @ out[-1])
    assert len(first) == len(out)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, out))


def _picard_widths(grid, counts=(64, 128)):
    """The distinct resolved widths of the picard kind's default times at these Picard nodes."""
    floor = 2.0 * grid.h**2
    return sorted({float(dt) for count in counts for dt in np.diff(
        D._graded_times(1.0, count, extra=[0.1, 0.5, 1.0], dt_floor=floor)) if dt >= floor})


@pytest.mark.parametrize("nodes,share", [(400, 0.16), (800, 0.10)])
def test_picard_store_holds_bands_not_dense_matrices(nodes, share):
    # the picard kind's default times at 128 Picard nodes: the store's bytes stay below
    # the given share of one dense matrix per width
    g = F.make_grid(5, 40.0, nodes)
    widths = np.diff(D._graded_times(1.0, 128, extra=[0.1, 0.5, 1.0], dt_floor=2.0 * g.h**2))
    store = {}
    D._update_store(store, g, widths)
    kernels = [k for k in store.values() if isinstance(k, Q.SymmetricBandKernel)]
    assert kernels
    assert sum(k.nbytes for k in kernels) <= share * len(kernels) * (g.m + 1) ** 2 * 8


@pytest.mark.parametrize("nodes", [400, 800])
def test_picard_bands_equal_the_banded_dense_formula(nodes):
    # the Picard propagators the picard kind builds at 64 and 128 Picard nodes on its 401- and
    # 801-node grids (every third width) keep the dense factor's upper diagonals bitwise, and
    # their masses and products agree with the dense formula's within rounding
    g = F.make_grid(5, 40.0, nodes)
    rng = np.random.default_rng(nodes)
    for dt in _picard_widths(g)[::3]:
        _assert_kernel_equals_dense_formula(_propagator(g, dt), g, dt,
                                            rng.standard_normal(g.m + 1))


def test_first_correction_scales_like_amplitude_cubed():
    g = F.make_grid(5, 20.0, 400)

    def first_diff(amp):
        run = D.picard_solve(F.gaussian(g, amp, 2.0), P5, 0.5, 2, [0.5],
                             nodes=64, max_nodes=64, tol=1e-300)
        return run.cauchy_diffs[0]

    order = math.log(first_diff(0.01) / first_diff(0.005), 2.0)
    assert order == pytest.approx(P5.p, abs=0.1)


def test_mild_matches_classical(energy_run):
    grid = F.make_grid(5, 20.0, 400)
    u0 = F.gaussian(grid, 0.3, 2.0)
    run = D.picard_solve(u0, P5, 1.0, 10, [0.1, 0.5, 1.0])
    assert run.converged and not run.diverged
    u0d = F.gaussian(grid, 0.3, 2.0, F.DIRICHLET)
    traj = E.solve(u0d, P5, E.SolverConfig(t_end=1.0, checkpoint_times=(0.1, 0.5, 1.0)))
    for (t, f), (_, fc) in zip(zip(run.sample_times, run.fields), traj.checkpoints):
        rel = np.max(np.abs(f.values - fc.values)) / F.sup_norm(fc)
        assert rel < 0.01, f"mild/classical disagree at t={t}: {rel:.3%}"


def test_budget_is_bounded_and_linear_in_amplitude():
    g = F.make_grid(5, 40.0, 200)
    cfg = E.SolverConfig(t_end=100.0,
                         checkpoint_times=tuple(np.geomspace(1.0, 100.0, 8)))
    spec = M.critical_spec(P5)

    def budget_constant(amp):
        u0 = F.gaussian(g, amp, 2.0, F.DIRICHLET)
        traj = E.solve(u0, P5, cfg)
        assert traj.status.kind == "reached_horizon"
        mask = traj.times > 0
        top = np.max(traj.times[mask] ** P5.beta * traj.sup_norms[mask])
        return top / M.morrey_norm(u0, spec)

    c1, c2 = budget_constant(0.02), budget_constant(0.04)
    exponent = math.log((c2 * 0.04) / (c1 * 0.02), 2.0)
    assert exponent == pytest.approx(1.0, abs=0.1)
    assert c2 == pytest.approx(c1, rel=0.05)


def test_gronwall_domination_window():
    from morreyheat.quadrature import heat_kernel_matrix
    g = F.make_grid(5, 30.0, 600)
    u0 = F.gaussian(g, 0.3, 2.0, F.DIRICHLET)
    cps = tuple(np.geomspace(0.01, 0.25, 6))
    traj = E.solve(u0, P5, E.SolverConfig(t_end=5.0, checkpoint_times=cps))
    m_win = float(np.max(traj.sup_norms[traj.times <= 0.25])) ** (P5.p - 1.0)
    for t, fld in traj.checkpoints:
        if t > 0.25:
            continue
        dom = math.exp(m_win * t) * (heat_kernel_matrix(g, t, g.nodes) @ np.abs(u0.values))
        mask = dom > 1e-10 * dom.max()
        assert np.max(np.abs(fld.values[mask]) / dom[mask]) <= 1.0 + 1e-6


def test_smallness_probe_large_plateau_blows_up():
    g = F.make_grid(5, 40.0, 200)
    traj = E.solve(F.plateau(g, 3.0, 15.0, 2.0, F.DIRICHLET), P5,
                   E.SolverConfig(t_end=10.0))
    assert traj.status.kind == "blowup"


def dependence_config(T0):
    return E.SolverConfig(t_end=T0, checkpoint_times=E.log_checkpoints(T0, 16))


def test_dependence_degenerate_and_flagged():
    g = F.make_grid(5, 30.0, 300)
    u0 = F.gaussian(g, 0.3, 2.0, F.DIRICHLET)
    spec = M.critical_spec(P5)
    (res,) = D.continuous_dependence(u0, [u0], dependence_config(2.0), P5, spec)
    assert res.degenerate
    assert np.all(res.ratios == 1.0)
    bump = F.make_field(g, u0.values + F.plateau(g, 5.0, 10.0, 2.0, F.DIRICHLET).values,
                        F.DIRICHLET)
    (res2,) = D.continuous_dependence(u0, [bump], dependence_config(5.0), P5, spec)
    assert res2.failed_before_T0


def test_dependence_ratio_near_one_at_small_time():
    g = F.make_grid(5, 30.0, 300)
    u0 = F.gaussian(g, 0.3, 2.0, F.DIRICHLET)
    v0 = F.make_field(g, 1.001 * u0.values, F.DIRICHLET)
    (res,) = D.continuous_dependence(u0, [v0], dependence_config(5.0), P5,
                                     M.critical_spec(P5))
    assert not res.failed_before_T0
    assert res.ratios[0] >= 1.0 - 0.05
    assert res.max_ratio <= 2.0


def test_dependence_stable_across_perturbation_sizes():
    g = F.make_grid(5, 30.0, 300)
    u0 = F.gaussian(g, 0.3, 2.0, F.DIRICHLET)
    spec = M.critical_spec(P5)
    v0s = [F.make_field(g, (1.0 + size) * u0.values, F.DIRICHLET) for size in (1e-2, 1e-3)]
    results = D.continuous_dependence(u0, v0s, dependence_config(5.0), P5, spec)
    maxima = [res.max_ratio for res in results]
    assert abs(maxima[0] - maxima[1]) / max(maxima) < 0.25


def test_dependence_solves_u0_once(monkeypatch):
    g = F.make_grid(5, 20.0, 100)
    u0 = F.gaussian(g, 0.2, 2.0, F.DIRICHLET)
    spec = M.critical_spec(P5)
    v0s = [F.make_field(g, (1.0 + size) * u0.values, F.DIRICHLET) for size in (1e-2, 1e-3)]
    cfg = dependence_config(1.0)
    alone = [D.continuous_dependence(u0, [v0], cfg, P5, spec)[0] for v0 in v0s]
    solved, steps = [], []

    def counting_solve(u, params, cfg):
        solved.append(u)
        traj = E.solve(u, params, cfg)
        steps.append(len(traj.series) - 1)
        return traj

    monkeypatch.setattr(D, "solve", counting_solve)
    with counters.collect() as work:
        results = D.continuous_dependence(u0, [u0, u0], cfg, P5, spec)
    # no solve: the only work is the Morrey norm of each initial distance, both on the
    # call's one lattice, whose rules are built once
    assert all(r.degenerate for r in results)
    assert pop_wall_times(work) == {"morrey.evaluate_s"}
    assert work.pop("morrey.table_mb") > 0
    assert work == {"morrey.evaluations": 2, "morrey.table_builds": 1}
    assert solved == []
    with counters.collect() as work:
        results = D.continuous_dependence(u0, [u0] + v0s, cfg, P5, spec)
    assert [u is u0 for u in solved] == [True, False, False]
    # the steps collected are those of the three solves made, counted once each
    assert work["evolution.steps"] == sum(steps) > 0
    assert results[0].degenerate
    for got, want in zip(results[1:], alone):
        assert got.ratios.tobytes() == want.ratios.tobytes()
        assert got.times.tobytes() == want.times.tobytes()


def test_continuous_dependence_rejects_data_on_another_grid():
    u0 = F.gaussian(F.make_grid(5, 10.0, 32), 0.05, 2.0)
    v0 = F.gaussian(F.make_grid(5, 10.0, 40), 0.05, 2.0)
    with pytest.raises(ValueError, match="both data must live on the same grid"):
        D.continuous_dependence(u0, [v0], E.SolverConfig(t_end=1.0), P5, M.critical_spec(P5))
