import dataclasses
import math

import numpy as np
import pytest

from morreyheat import counters
from morreyheat import evolution as E
from morreyheat import fields as F
from morreyheat import morrey as M
from morreyheat import threshold as T
from morreyheat.params import make_params

P5 = make_params(3.0)


def short_cfg(t_end=60.0):
    return E.SolverConfig(t_end=t_end,
                          checkpoint_times=tuple(np.geomspace(1.0, t_end, 10)))


def test_classify_zero_data_degenerate_decaying():
    g = F.make_grid(5, 20.0, 100)
    v = T.classify_with_trajectory(F.zero_field(g, F.DIRICHLET), P5,
                                   E.SolverConfig(t_end=1.0))[0]
    assert v.kind == "decaying"
    assert v.terminal_ratio == 0.0


def test_classify_plateau_blowup():
    g = F.make_grid(5, 40.0, 200)
    v = T.classify_with_trajectory(F.plateau(g, 1.0, 15.0, 2.0, F.DIRICHLET), P5, short_cfg())[0]
    assert v.kind == "blowup"
    assert v.T_est == pytest.approx(0.5, rel=0.02)


def test_classify_small_gaussian_decaying():
    g = F.make_grid(5, 40.0, 200)
    v = T.classify_with_trajectory(F.gaussian(g, 0.01, 2.0, F.DIRICHLET), P5, short_cfg())[0]
    assert v.kind == "decaying"


def test_classify_reached_horizon_undecided(monkeypatch):
    # a run that reaches its horizon is decaying only with a monotone weighted tail and a
    # terminal ratio below TERMINAL_RATIO_MAX; failing either leaves it undecided
    g = F.make_grid(5, 20.0, 100)
    u0 = F.gaussian(g, 0.01, 2.0, F.DIRICHLET)
    # t_end 3: the tail is monotone, but the heat flow has only brought the sup to 3 %
    v, traj = T.classify_with_trajectory(u0, P5, E.SolverConfig(t_end=3.0))
    assert E.decay_diagnostics(traj, P5).tail_monotone
    assert (v.kind, v.horizon) == ("undecided", 3.0)
    assert T.TERMINAL_RATIO_MAX <= v.terminal_ratio == traj.sup_norms[-1] / 0.01 < 0.05
    # t_end 20: decaying; the same run read with a rising tail is undecided
    cfg = E.SolverConfig(t_end=20.0)
    v, traj = T.classify_with_trajectory(u0, P5, cfg)
    assert v.kind == "decaying" and v.terminal_ratio < T.TERMINAL_RATIO_MAX
    real = T.decay_diagnostics
    monkeypatch.setattr(T, "decay_diagnostics", lambda traj, params: dataclasses.replace(
        real(traj, params), tail_monotone=False))
    w, _ = T.classify_with_trajectory(u0, P5, cfg)
    assert (w.kind, w.horizon, w.terminal_ratio) == ("undecided", 20.0, v.terminal_ratio)


def stalling_classify(phi):
    """classify_with_trajectory along the ray of phi with every trial off the scan's powers
    of 2 (lambda_init 1) undecided, so the first bisection midpoint stalls the bracket."""
    real = T.classify_with_trajectory

    def classify(u0, params, cfg):
        v, traj = real(u0, params, cfg)
        lam = float(np.max(u0.values) / np.max(phi.values))
        return (v if math.frexp(lam)[0] == 0.5 else T.Verdict("undecided")), traj

    return classify


def test_bisect_stalls_on_an_undecided_midpoint(monkeypatch):
    g = F.make_grid(5, 40.0, 100)
    cfg = short_cfg(t_end=40.0)
    phi = F.gaussian(g, 1.0, 2.0, F.DIRICHLET)
    scan = T.bisect_lambda(phi, P5, cfg, rel_tol=0.5)
    monkeypatch.setattr(T, "classify_with_trajectory", stalling_classify(phi))
    res = T.bisect_lambda(phi, P5, cfg, rel_tol=0.05)
    # the scan brackets as before; its first midpoint is undecided and ends the bisection
    assert res.stalled and not scan.stalled
    assert res.trials[:-1] == scan.trials[:len(res.trials) - 1]
    assert res.trials[-1]["verdict"] == "undecided"
    assert res.trials[-1]["lambda"] == 0.5 * (res.lambda_lo + res.lambda_hi)
    assert res.lambda_hi == 2.0 * res.lambda_lo and res.rel_width == 1.0
    assert res.monotone_consistent


def test_bisect_rejects_trivial_ray():
    g = F.make_grid(5, 20.0, 100)
    with pytest.raises(T.BracketingError):
        T.bisect_lambda(F.zero_field(g, F.DIRICHLET), P5, short_cfg(), rel_tol=0.1)


def test_bisect_bracket_and_consistency(threshold_run):
    res = threshold_run["result"]
    assert res.rel_width < 1e-3
    assert res.lambda_lo < res.lambda_hi
    assert not res.stalled
    assert res.monotone_consistent
    # every reported verdict keeps the bracket valid
    for trial in res.trials:
        if trial["verdict"] == "decaying":
            assert trial["lambda"] <= res.lambda_lo * (1 + 1e-12)
        if trial["verdict"] == "blowup":
            assert trial["lambda"] >= res.lambda_hi * (1 - 1e-12)


def test_bisect_ray_covariance():
    # a coarse, fast covariance check: bisect(c*phi) gives lambda*/c
    g = F.make_grid(5, 40.0, 100)
    cfg = short_cfg(t_end=40.0)
    phi = F.gaussian(g, 1.0, 2.0, F.DIRICHLET)
    phi2 = F.make_field(g, 2.0 * phi.values, F.DIRICHLET)
    r1 = T.bisect_lambda(phi, P5, cfg, rel_tol=5e-2)
    r2 = T.bisect_lambda(phi2, P5, cfg, rel_tol=5e-2)
    assert r2.lambda_lo == pytest.approx(r1.lambda_lo / 2.0, rel=0.1)


def test_morrey_series_decreases_below_threshold(threshold_run):
    series = threshold_run["result"].morrey_series_lo
    late = [(t, v) for t, v in series if t >= 1.0]
    assert late[-1][1] < late[0][1]


def test_blowup_time_decreases_with_amplitude():
    g = F.make_grid(5, 40.0, 200)
    ts = []
    for lam in (2.5, 3.0, 4.0, 6.0):
        traj = E.solve(F.gaussian(g, lam, 2.0, F.DIRICHLET), P5,
                       E.SolverConfig(t_end=10.0))
        assert traj.status.kind == "blowup"
        ts.append(traj.status.T_est)
    assert all(b < a * (1 + 1e-9) for a, b in zip(ts, ts[1:]))


def test_monotone_verdicts_on_positive_ray():
    g = F.make_grid(5, 40.0, 100)
    cfg = short_cfg(t_end=40.0)
    verdicts = [T.classify_with_trajectory(F.gaussian(g, a, 2.0, F.DIRICHLET), P5, cfg)[0].kind
                for a in (0.1, 1.0, 4.0, 8.0)]
    seen_blowup = False
    for v in verdicts:
        if v == "blowup":
            seen_blowup = True
        assert not (seen_blowup and v == "decaying")


def test_weighted_decay_start_monotone_in_delta(borderline_probes):
    probes = borderline_probes
    assert all(p.verdict == "decaying" for p in probes)
    t0s = [p.t0 for p in probes]
    assert all(b >= a - 1e-9 for a, b in zip(t0s, t0s[1:]))
    # Morrey trend toward zero on every subthreshold probe
    for p in probes:
        assert p.morrey_end < p.morrey_start


def test_borderline_probe_above_bracket_blows_up(threshold_run):
    res = threshold_run["result"]
    probes = T.borderline_probe(res, P5, threshold_run["cfg"], [-1e-3])
    assert probes[0].verdict == "blowup"
    assert probes[0].T_est is not None and np.isfinite(probes[0].T_est)


def test_borderline_probe_needs_tight_bracket():
    g = F.make_grid(5, 20.0, 100)
    res = T.ThresholdResult(lambda_lo=1.0, lambda_hi=1.5, rel_width=0.5, trials=[],
                            morrey_series_lo=[], morrey_series_hi=[], stalled=False,
                            monotone_consistent=True, epsilon_star=1.0, C0_measured=1.0,
                            ray_profile=F.gaussian(g, 1.0, 2.0, F.DIRICHLET))
    with pytest.raises(ValueError):
        T.borderline_probe(res, P5, short_cfg(), [0.1])


def test_borderline_probe_evaluates_two_checkpoints(monkeypatch):
    # a decaying probe computes the Morrey norm only at its first checkpoint
    # with t >= 1 and at its last, a blowup probe none; the two values are
    # those of the full series
    g = F.make_grid(5, 40.0, 100)
    cfg = E.SolverConfig(t_end=40.0, checkpoint_times=(0.25, 0.5)
                         + tuple(np.geomspace(1.0, 40.0, 10)))
    phi = F.gaussian(g, 1.0, 2.0, F.DIRICHLET)
    res = T.ThresholdResult(lambda_lo=1.0, lambda_hi=1.005, rel_width=0.005, trials=[],
                            morrey_series_lo=[], morrey_series_hi=[], stalled=False,
                            monotone_consistent=True, epsilon_star=1.0, C0_measured=1.0,
                            ray_profile=phi)
    calls = []

    def counting_norm(*args):
        calls.append(1)
        return M.morrey_norm(*args)

    monkeypatch.setattr(T, "morrey_norm", counting_norm)
    with counters.collect() as work:
        probes = T.borderline_probe(res, P5, cfg, [0.1, -3.0])
    assert [p.verdict for p in probes] == ["decaying", "blowup"]
    assert len(calls) == 2
    assert (work["threshold.solves"], work["morrey.evaluations"]) == (2, 2)
    assert probes[1].morrey_start is probes[1].morrey_end is None
    monkeypatch.undo()
    traj = E.solve(F.make_field(g, probes[0].lam * phi.values, phi.boundary), P5, cfg)
    series = T._morrey_series(traj, M.critical_spec(P5), M.MorreyLattice.default(g))
    late = [v for t, v in series if t >= 1.0]
    assert len(late) < len(series)
    assert (probes[0].morrey_start, probes[0].morrey_end) == (late[0], late[-1])


def test_bisect_keeps_bracket_trajectories(monkeypatch):
    # the Morrey series of the bracket ends come from their own trials: one
    # solve per trial, and the same series a fresh solve at each end gives
    g = F.make_grid(5, 40.0, 100)
    cfg = short_cfg(t_end=40.0)
    phi = F.gaussian(g, 1.0, 2.0, F.DIRICHLET)
    solves = []

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return E.solve(*args, **kwargs)

    monkeypatch.setattr(T, "solve", counting_solve)
    res = T.bisect_lambda(phi, P5, cfg, rel_tol=0.05)
    assert len(solves) == len(res.trials)
    monkeypatch.undo()
    lattice = M.MorreyLattice.default(g)
    for lam, series in ((res.lambda_lo, res.morrey_series_lo),
                        (res.lambda_hi, res.morrey_series_hi)):
        traj = E.solve(F.make_field(g, lam * phi.values, phi.boundary), P5, cfg)
        assert series == T._morrey_series(traj, M.critical_spec(P5), lattice)


def test_bisect_reports_smallness_threshold():
    # epsilon_star is the critical Morrey norm of the largest decaying datum and
    # C0 the decay constant of its run, read off the bisection's kept lower end
    g = F.make_grid(5, 40.0, 200)
    cfg = E.SolverConfig(t_end=100.0,
                         checkpoint_times=tuple(np.geomspace(1.0, 100.0, 8)))
    phi = F.gaussian(g, 1.0, 2.0, F.DIRICHLET)
    res = T.bisect_lambda(phi, P5, cfg, rel_tol=0.25)
    assert not res.stalled
    assert res.epsilon_star > 0
    assert np.isfinite(res.C0_measured) and res.C0_measured > 0
    kinds = {t["verdict"] for t in res.trials}
    assert kinds == {"decaying", "blowup"}
    # the constant is read off the kept run at lambda_lo, not a re-solve
    fresh = E.solve(F.make_field(g, res.lambda_lo * phi.values, F.DIRICHLET), P5, cfg)
    assert res.C0_measured == E.decay_diagnostics(fresh, P5).sup_t_beta_norm / res.epsilon_star
