"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Default regime n = 5, p = 3 (supercritical).  Run with -s to see the lines.
"""

import math

import numpy as np

from morreyheat import duhamel as D
from morreyheat import evolution as E
from morreyheat import fields as F
from morreyheat import morrey as M
from morreyheat import quadrature as Q
from morreyheat import similarity as S
from morreyheat import threshold as T
from morreyheat.params import make_params

P5 = make_params(3.0)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_kernel_semigroup():
    n = 5
    grid = F.make_grid(n, 16.0, 1600)
    g1 = F.gaussian(grid, (4 * math.pi) ** (-n / 2), 2.0)
    worst = 0.0
    for a in np.linspace(0.0, 4.0, 50):
        got = Q.gauss_convolve(g1, 1.0, float(a))
        exact = (8 * math.pi) ** (-n / 2) * math.exp(-a * a / 8.0)
        worst = max(worst, abs(got / exact - 1.0))
    report("criterion 1 kernel semigroup", worst < 1e-6,
           f"max rel error over 50 offsets = {worst:.2e} (tol 1e-6)")


def test_c02_kernel_contraction():
    grid = F.make_grid(5, 16.0, 1600)
    lattice = M.MorreyLattice.default(grid)
    t_grid = np.geomspace(1e-2, 1e2, 20)
    lams = (1.0, 2.0, 5.0)
    fields = (F.indicator(grid, 1.0), F.gaussian(grid, 1.0, 2.0))
    base = [{lam: M.morrey_norm(f, M.MorreySpec(2.0, lam), lattice) for lam in lams}
            for f in fields]
    worst = -np.inf
    for t in t_grid:
        # one dense kernel per t, applied to both fields (heat_apply's operator, unstreamed)
        kernel = Q.heat_kernel_matrix(grid, float(t), grid.nodes)
        for f, norms in zip(fields, base):
            flowed = F.make_field(grid, kernel @ f.values, F.FREE)
            for lam in lams:
                ratio = M.morrey_norm(flowed, M.MorreySpec(2.0, lam), lattice) / norms[lam]
                worst = max(worst, ratio)
    report("criterion 2 kernel contraction", worst <= 1.0 + 1e-6,
           f"max norm ratio = {worst:.9f} (tol 1+1e-6)")


def test_c03_morrey_oracles():
    details = []
    ok = True
    for n in (3, 5):
        grid = F.make_grid(n, 8.0, 1600)
        lat = M.MorreyLattice.default(grid).refine().refine()
        got = M.morrey_norm(F.indicator(grid, 1.0), M.MorreySpec(2.0, 1.0), lat)
        oracle = math.sqrt(Q.ball_volume(n))
        rel = abs(got / oracle - 1.0)
        ok &= rel < 0.02
        details.append(f"indicator n={n}: {rel:.4f}")
    grid = F.make_grid(5, 40.0, 4000)
    k = 2.0 / (P5.p - 1.0)
    prof = F.make_field(grid, np.maximum(grid.nodes, grid.nodes[1]) ** (-k))
    spec = M.critical_spec(P5)
    got = M.morrey_norm(prof, spec)
    oracle = math.sqrt(5 * Q.ball_volume(5) / (5 - spec.lam))
    rel = abs(got / oracle - 1.0)
    ok &= rel < 0.03
    details.append(f"capped power profile: {rel:.4f}")
    report("criterion 3 morrey oracles", ok,
           "; ".join(details) + " (tols 2%, 2%, 3%)")


def test_c04_scaling_invariance():
    grid = F.make_grid(5, 40.0, 2000)
    spec = M.critical_spec(P5)
    lattice = M.MorreyLattice.default(grid)
    worst = 0.0
    for f in (F.gaussian(grid, 1.0, 2.0), F.power_tail(grid, 1.0, 1.5, 2.0)):
        base = M.morrey_norm(f, spec, lattice)
        for lam in (0.5, 2.0):
            val = M.morrey_norm(F.rescale_field(f, lam, P5), spec, lattice)
            worst = max(worst, abs(val / base - 1.0))
    report("criterion 4 scaling invariance", worst < 0.01,
           f"max rel deviation = {worst:.4f} (tol 1%)")


def test_c05_power_identity():
    grid = F.make_grid(5, 16.0, 800)
    profiles = (F.gaussian(grid, 1.3, 2.0), F.indicator(grid, 1.0),
                F.power_tail(grid, 0.8, 1.5, 1.0))
    worst = 0.0
    for f in profiles:
        fsq = F.make_field(grid, f.values**2)
        for lam in (1.0, 2.0, 4.0):
            left = M.morrey_norm(fsq, M.MorreySpec(1.0, lam))
            right = M.morrey_norm(f, M.MorreySpec(2.0, lam)) ** 2
            worst = max(worst, abs(left - right) / max(left, 1e-300))
    report("criterion 5 power identity", worst < 1e-12,
           f"max rel discrepancy = {worst:.2e} (tol 1e-12)")


def test_c06_ode_blowup_oracle():
    grid = F.make_grid(5, 40.0, 400)
    details = []
    ok = True
    for amplitude in (1.0, 2.0):
        u0 = F.plateau(grid, amplitude, 15.0, 2.0, F.DIRICHLET)
        traj = E.solve(u0, P5, E.SolverConfig(t_end=10.0))
        oracle = 1.0 / ((P5.p - 1) * amplitude ** (P5.p - 1))
        rel = abs(traj.status.T_est / oracle - 1.0)
        r2 = traj.status.fit_quality
        ok &= traj.status.kind == "blowup" and rel < 0.02 and r2 > 0.999
        details.append(f"A={amplitude}: T rel {rel:.4f}, R2 {r2:.6f}")
    report("criterion 6 ODE blowup oracle", ok,
           "; ".join(details) + " (tols 2%, R2>0.999)")


def test_c07_singular_steady_state_residual():
    rels = {}
    for m in (4000, 8000):
        grid = F.make_grid(5, 40.0, m)
        ss = F.singular_steady_state(grid, P5)
        heat = E._Stepper(grid)   # pure heat flow: its right-hand side is the Laplacian
        res = heat.rhs(ss.values, np.empty(m + 1)) + np.abs(ss.values) ** (P5.p - 1) * ss.values
        window = (grid.nodes >= 0.5) & (grid.nodes <= grid.r_max / 2.0)
        rels[m] = float(np.max(np.abs(res[window]) / np.abs(ss.values[window]) ** P5.p))
    order = math.log2(rels[4000] / rels[8000])
    ok = rels[4000] < 1e-3 and order >= 1.8
    report("criterion 7 singular steady state", ok,
           f"rel residual {rels[4000]:.2e} at M=4000 (tol 1e-3), refinement order {order:.2f}")


def test_c08_energy_laws(energy_run):
    traj = energy_run["traj"]
    details = []
    ok = True
    for T, s_grid in sorted(energy_run["s_grids"].items()):
        es = S.energy_series(traj, T, P5, s_grid)
        rel = float(np.max(es.identity_relative[1:-1]))
        ok &= es.monotone_ok and es.min_energy >= -1e-6 and rel < 1e-3
        details.append(f"T={T:g}: mono={es.monotone_ok} minE={es.min_energy:.1e} "
                       f"resid={rel:.1e}")
    # (d) stationary check on exact-ODE data at its exact blowup time
    grid = F.make_grid(5, 40.0, 400)
    T, s_grid = 0.5, np.arange(1.0, 3.0, 0.01)
    cps = [(float(t), F.make_field(grid, np.full(grid.m + 1,
                                                 ((P5.p - 1) * (T - t)) ** (-P5.beta))))
           for t in S.checkpoint_times_for_s_grid(T, s_grid)]
    ode = E.Trajectory(checkpoints=cps,
                       series=np.array([[0.0, 1.0, 1.0, 0.1]]),
                       status=E.TrajectoryStatus("blowup", cps[-1][0], T_est=T))
    es = S.energy_series(ode, T, P5, s_grid)
    e_star = S.stationary_energy(5, P5)
    dev = float(np.max(np.abs(es.E - e_star)) / e_star)
    slope = float(np.max(np.abs(np.diff(es.E) / np.diff(es.s))))
    ok &= dev < 1e-4 and slope < 1e-6
    details.append(f"stationary: |E-E*|/E*={dev:.1e} |dE/ds|={slope:.1e}")
    report("criterion 8 energy laws", ok, "; ".join(details))


def test_c09_morrey_energy_chain(energy_run):
    spec = M.critical_spec(P5)
    u0, grad0, traj = energy_run["u0"], energy_run["grad0"], energy_run["traj"]
    cps = dict(traj.checkpoints)
    t0s = (1.0, 2.0, 5.0, 10.0)

    def ratios(trajectory, lattice):
        cp = dict(trajectory.checkpoints)
        out = []
        for t0 in t0s:
            nrm = M.morrey_norm(cp[t0], spec, lattice)
            n_val = S.functional_N(u0, grad0, t0, np.geomspace(t0, 100 * t0, 20), P5)
            out.append(nrm / n_val ** (1.0 / (P5.p + 1.0)))
        return out

    lattice = M.MorreyLattice.default(energy_run["grid"])
    base = ratios(traj, lattice)
    c_fit = max(base)
    holds = all(M.morrey_norm(cps[t0], spec, lattice)
                <= c_fit * S.functional_N(u0, grad0, t0,
                                          np.geomspace(t0, 100 * t0, 20),
                                          P5) ** (1.0 / (P5.p + 1.0)) * (1 + 1e-12)
                for t0 in t0s)
    # refinement stability: finer PDE grid and refined Morrey lattice
    grid_f = F.make_grid(5, 36.0, 1080)
    u0f = F.gaussian(grid_f, 0.3, 2.0, F.DIRICHLET)
    traj_f = E.solve(u0f, P5, E.SolverConfig(t_end=10.0, checkpoint_times=t0s))
    c_ref = max(ratios(traj_f, M.MorreyLattice.default(grid_f).refine()))
    variation = abs(c_ref - c_fit) / c_fit
    ok = holds and variation < 0.20
    report("criterion 9 morrey-energy chain", ok,
           f"C={c_fit:.4f}, holds at all t0={holds}, refinement variation "
           f"{variation:.3f} (tol 20%); per-t0 ratios {[round(r, 4) for r in base]}")


def test_c10_decay_rates(energy_run):
    grid = F.make_grid(5, 40.0, 400)
    u0 = F.power_tail(grid, 0.05, 2.0, 1.0, F.DIRICHLET)
    traj = E.solve(u0, P5, E.SolverConfig(t_end=100.0))
    diag = E.decay_diagnostics(traj, P5)
    slope_ok = diag.defined and abs(diag.slope + 1.0) < 0.1
    gauss_diag = E.decay_diagnostics(energy_run["traj"], P5)
    ok = slope_ok and diag.tail_monotone and gauss_diag.tail_monotone
    report("criterion 10 decay rates", ok,
           f"slope={diag.slope:.3f} (target -1 +- 0.1), tail monotone: "
           f"power={diag.tail_monotone}, gaussian={gauss_diag.tail_monotone}")


def test_c11_mild_classical_agreement():
    grid = F.make_grid(5, 20.0, 400)
    times = (0.1, 0.5, 1.0)
    run = D.picard_solve(F.gaussian(grid, 0.3, 2.0), P5, 1.0, 10, times)
    traj = E.solve(F.gaussian(grid, 0.3, 2.0, F.DIRICHLET), P5,
                   E.SolverConfig(t_end=1.0, checkpoint_times=times))
    worst = 0.0
    for (t, f), (_, fc) in zip(zip(run.sample_times, run.fields), traj.checkpoints):
        worst = max(worst, float(np.max(np.abs(f.values - fc.values))) / F.sup_norm(fc))
    ok = run.converged and worst < 0.01
    report("criterion 11 mild/classical agreement", ok,
           f"max rel sup diff = {worst:.4f} over t={times} (tol 1%)")


def test_c12_threshold_bisection(threshold_run, borderline_probes):
    res = threshold_run["result"]
    probes = borderline_probes
    late = [(t, v) for t, v in res.morrey_series_lo if t >= 1.0]
    morrey_drops = late[-1][1] < late[0][1]
    t0s = [p.t0 for p in probes]
    probes_ok = (all(p.verdict == "decaying" for p in probes)
                 and all(b >= a - 1e-9 for a, b in zip(t0s, t0s[1:])))
    ok = (res.rel_width < 1e-3 and res.monotone_consistent and not res.stalled
          and morrey_drops and probes_ok)
    report("criterion 12 threshold bisection", ok,
           f"bracket [{res.lambda_lo:.5f}, {res.lambda_hi:.5f}] width {res.rel_width:.2e}"
           f" (tol 1e-3), morrey {late[0][1]:.3f}->{late[-1][1]:.5f}, "
           f"t0(delta)={[round(t, 3) for t in t0s]}")


def test_c13_continuous_dependence():
    grid = F.make_grid(5, 30.0, 300)
    u0 = F.gaussian(grid, 0.3, 2.0, F.DIRICHLET)
    spec = M.critical_spec(P5)
    maxima = []
    v0s = [F.make_field(grid, (1.0 + size) * u0.values, F.DIRICHLET)
           for size in (1e-2, 1e-3, 1e-4)]
    cfg = E.SolverConfig(t_end=5.0, checkpoint_times=E.log_checkpoints(5.0, 16))
    results = D.continuous_dependence(u0, v0s, cfg, P5, spec)
    for res in results:
        assert not res.failed_before_T0
        maxima.append(res.max_ratio)
    spread = (max(maxima) - min(maxima)) / max(maxima)
    report("criterion 13 continuous dependence", spread < 0.25,
           f"max Morrey ratios {[round(m, 5) for m in maxima]}, spread {spread:.2%} "
           f"(tol 25%), T0=5")


def test_c14_gradient_majorant():
    grid = F.make_grid(5, 20.0, 400)
    u0 = F.gaussian(grid, 0.3, 2.0, F.DIRICHLET)
    grad0 = F.gaussian_gradient(grid, 0.3, 2.0)
    t_end = 2.0
    cps = tuple(np.geomspace(0.01, 0.1, 8))
    traj = E.solve(u0, P5, E.SolverConfig(t_end=t_end, checkpoint_times=cps))
    holds, margin = E.gradient_majorant_check(traj, u0, grad0, t_small=0.1)
    report("criterion 14 gradient majorant", holds,
           f"|du/dr| <= 2 G_t|grad u0| nodewise on (0, {0.05 * t_end}]; "
           f"worst ratio {margin:.4f}")
