"""Amplitude-threshold bisection along a ray of initial data, and borderline probes.

Runs are classified as decaying, blowup, or undecided on a finite horizon; the
bisection brackets the largest decaying and smallest blowing-up amplitudes.
Undecided is a first-class outcome; it stalls the bracket rather than forcing
a verdict.  The probes evaluate on the bisection's Morrey lattice and its ball rules.
"""

from dataclasses import dataclass, field

import numpy as np

from . import counters
from .evolution import SolverConfig, Trajectory, decay_diagnostics, solve
from .fields import RadialField, make_field
from .morrey import MorreyLattice, MorreySpec, critical_spec, morrey_norm
from .params import ModelParams


TERMINAL_RATIO_MAX = 1e-2   # decaying needs ||u(t_end)||_inf below this times ||u0||_inf
PROBE_MAX_WIDTH = 1e-2      # borderline probes need a bracket of relative width within this
MAX_BISECTIONS = 80


class BracketingError(RuntimeError):
    """The initial decaying/blowup bracket could not be established."""


@dataclass(frozen=True)
class Verdict:
    kind: str                  # "decaying" | "blowup" | "undecided"
    T_est: float | None = None
    horizon: float = 0.0
    terminal_ratio: float | None = None   # ||u(t_end)||_inf / ||u0||_inf


def classify_with_trajectory(u0: RadialField, params: ModelParams, cfg: SolverConfig):
    """(Verdict, trajectory) of one solve: decaying iff the run reaches the horizon with a
    monotone weighted tail and the terminal sup-norm below TERMINAL_RATIO_MAX times the
    initial one."""
    traj = solve(u0, params, cfg)
    counters.add("threshold.solves")
    st = traj.status
    sup0 = float(np.max(np.abs(u0.values)))
    if sup0 == 0.0:
        return Verdict("decaying", horizon=cfg.t_end, terminal_ratio=0.0), traj
    if st.kind == "blowup":
        return Verdict("blowup", T_est=st.T_est, horizon=st.t_final), traj
    if st.kind != "reached_horizon":
        return Verdict("undecided", horizon=st.t_final), traj
    diag = decay_diagnostics(traj, params)
    ratio = float(traj.sup_norms[-1] / sup0)
    if diag.tail_monotone and ratio < TERMINAL_RATIO_MAX:
        return Verdict("decaying", horizon=st.t_final, terminal_ratio=ratio), traj
    return Verdict("undecided", horizon=st.t_final, terminal_ratio=ratio), traj


@dataclass
class ThresholdResult:
    lambda_lo: float
    lambda_hi: float
    rel_width: float
    trials: list                       # dicts: lambda, verdict, T_est, horizon
    morrey_series_lo: list             # [(t, ||u(t)||_{M^{2,mu}}), ...]
    morrey_series_hi: list
    stalled: bool
    monotone_consistent: bool          # no decaying trial above a blowup trial
    epsilon_star: float                # ||lambda_lo phi||_{M^{2,mu}}, the smallness threshold
    C0_measured: float                 # sup_t t^(1/(p-1)) ||u(t)||_inf / epsilon_star at lambda_lo
    ray_profile: RadialField = field(repr=False, default=None)
    lattice: MorreyLattice = field(repr=False, default=None)   # of the Morrey norms above


def _scaled(phi: RadialField, lam: float) -> RadialField:
    return make_field(phi.grid, lam * phi.values, phi.boundary)


def _morrey_series(traj: Trajectory, spec: MorreySpec, lattice: MorreyLattice) -> list:
    return [(t, morrey_norm(f, spec, lattice)) for t, f in traj.checkpoints]


@counters.timed("threshold.bisect_s")
def bisect_lambda(phi: RadialField, params: ModelParams, cfg: SolverConfig,
                  rel_tol: float, lambda_init: float = 1.0) -> ThresholdResult:
    """Bisect the amplitude threshold along the ray lambda * phi.

    The initial bracket is found by geometric scanning from lambda_init; the
    bisection never widens the bracket, and stalls (reported) if an undecided
    verdict blocks the midpoint.  The lower end's run, kept from its trial,
    gives the smallness threshold epsilon_star and the decay constant C0.
    """
    if float(np.max(np.abs(phi.values))) == 0.0:
        raise BracketingError("ray profile is trivial")
    trials = []
    # verdict -> (lambda, trajectory) of its latest trial: every decaying trial
    # raises the bracket's lower end and every blowup trial lowers its upper end
    ends = {}

    def run(lam):
        v, traj = classify_with_trajectory(_scaled(phi, lam), params, cfg)
        trials.append({"lambda": lam, "verdict": v.kind, "T_est": v.T_est,
                       "horizon": v.horizon})
        counters.add("threshold.trials")
        if v.kind != "undecided":
            ends[v.kind] = (lam, traj)
        return v

    lam = lambda_init
    v = run(lam)
    if v.kind != "undecided":
        # scan geometrically away from the first verdict until it flips
        factor, wanted = (2.0, "blowup") if v.kind == "decaying" else (0.5, "decaying")
        for _ in range(40):
            lam *= factor
            if run(lam).kind == wanted:
                break
    if len(ends) < 2:
        raise BracketingError(
            f"could not bracket a threshold from lambda_init={lambda_init}; trials: "
            + ", ".join(f"{t['lambda']:.3g}:{t['verdict']}" for t in trials))

    stalled = False
    it = 0
    (lo, traj_lo), (hi, traj_hi) = ends["decaying"], ends["blowup"]
    while (hi - lo) / lo >= rel_tol and it < MAX_BISECTIONS:
        it += 1
        if run(0.5 * (lo + hi)).kind == "undecided":
            stalled = True
            break
        (lo, traj_lo), (hi, traj_hi) = ends["decaying"], ends["blowup"]

    # the bracket exists, so both verdicts occur among the trials
    consistent = (max(t["lambda"] for t in trials if t["verdict"] == "decaying")
                  < min(t["lambda"] for t in trials if t["verdict"] == "blowup"))

    spec, lattice = critical_spec(params), MorreyLattice.default(phi.grid)
    epsilon_star = morrey_norm(_scaled(phi, lo), spec, lattice)
    return ThresholdResult(
        lambda_lo=lo, lambda_hi=hi, rel_width=(hi - lo) / lo, trials=trials,
        morrey_series_lo=_morrey_series(traj_lo, spec, lattice),
        morrey_series_hi=_morrey_series(traj_hi, spec, lattice),
        stalled=stalled, monotone_consistent=consistent, epsilon_star=epsilon_star,
        C0_measured=decay_diagnostics(traj_lo, params).sup_t_beta_norm / epsilon_star,
        ray_profile=phi, lattice=lattice)


@dataclass(frozen=True)
class BorderlineTrial:
    delta: float
    lam: float
    verdict: str
    T_est: float | None
    t0: float | None                  # start of the final monotone weighted decrease
    morrey_start: float | None        # ||u(t)||_{M^{2,mu}} at the first checkpoint >= 1
    morrey_end: float | None          # ... at the horizon


@counters.timed("threshold.probes_s")
def borderline_probe(result: ThresholdResult, params: ModelParams, cfg: SolverConfig,
                     deltas) -> list[BorderlineTrial]:
    """Probe the ray just below (delta > 0) or above (delta < 0) the bracket.

    Runs at lambda_lo (1 - delta); negative deltas probe lambda_hi (1 - delta)
    instead, exercising the blowup side of the bracket.  A decaying probe
    evaluates the critical Morrey norm on the result's lattice at two checkpoints
    only: the first with t >= 1 and the last; a blowup or undecided probe evaluates none.
    """
    if result.rel_width > PROBE_MAX_WIDTH:
        raise ValueError(f"bracket must be tighter than {PROBE_MAX_WIDTH:g} before probing")
    phi, spec, lattice = result.ray_profile, critical_spec(params), result.lattice
    out = []
    for delta in deltas:
        lam = result.lambda_lo * (1.0 - delta) if delta >= 0 else result.lambda_hi * (1.0 - delta)
        v, traj = classify_with_trajectory(_scaled(phi, lam), params, cfg)
        t0 = m_start = m_end = None
        if v.kind == "decaying":
            t0 = decay_diagnostics(traj, params).decay_start
            late = [f for t, f in traj.checkpoints if t >= 1.0]
            if late:
                m_start, m_end = (morrey_norm(f, spec, lattice) for f in (late[0], late[-1]))
        out.append(BorderlineTrial(delta=float(delta), lam=lam, verdict=v.kind,
                                   T_est=v.T_est, t0=t0, morrey_start=m_start,
                                   morrey_end=m_end))
    return out
