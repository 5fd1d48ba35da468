"""Direct integration of u_t = Laplace(u) + |u|^(p-1) u for radial data.

Method of lines on the uniform radial grid with explicit RK4 and two step
caps: the diffusive cap min(DT_MAX, safety*h^2/(2n)) and the nonlinear cap
0.5*||u||_inf^(1-p).  Near blowup the nonlinear cap collapses dt below DT_MIN, the
robust blowup signal alongside the sup-norm BLOWUP_THRESHOLD.

The diffusive cap is stable up to safety = max_safety(n).  h^2 L does not
depend on h (r_i = i h), so its spectral radius rho h^2 is a function of n
alone: 6, 7.21, 8.45 and 12.2 for n = 3, 4, 5, 8, from the origin row's mode.
max_safety(n) = RK4_REAL_LIMIT * 2n / (rho h^2) puts dt*rho on RK4's real-axis
stability limit; it is 2.785, 3.09, 3.30 and 3.65 for n = 3, 4, 5, 8 and grows
with n.  Every eigenvalue of L, complex pairs (n >= 8) included, then has
|R(dt lambda)| <= 1 for RK4's stability polynomial R (the tests check n = 3, 4,
5, 8, 11 at 101-801 nodes).  solve rejects a larger safety.  The default 0.8
puts dt*rho at 0.68 for n = 5.  The CLI's threshold kind runs at STABLE_FRACTION
(0.9) of max_safety(n) for its own n, which damps the stiffest real mode to
|R| = 0.66 for every n; solve stays at 0.8 and the other kinds at 2.4, below
max_safety for every n >= 3.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import counters
from .fields import DIRICHLET, RadialField, make_field, make_grid
from .params import ModelParams
from .quadrature import heat_apply


BOUNDARY_CONTAMINATION = 1e-6   # |u| next to r_max, over sup |u|, that aborts a free run
DT_MAX = 0.1                    # the cap on any step
DT_MIN = 1e-14                  # a step cap below this declares blowup
BLOWUP_THRESHOLD = 1e8          # a sup-norm at or above this declares blowup
# RK4's stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 has |R| = 1 on the
# negative real axis at z = -RK4_REAL_LIMIT, the real root of z^3 + 4 z^2 + 12 z + 24.
RK4_REAL_LIMIT = 2.785293563405289
# A stated fraction of the bound: safety STABLE_FRACTION * max_safety(n) puts dt*rho at 0.9 of
# RK4_REAL_LIMIT, where the stiffest real mode has |R| = 0.66, for every n.
STABLE_FRACTION = 0.9

# bound once for the RK4 loop: a lookup of np's attribute on every call slows each step
_abs, _add, _multiply, _power, _square, _subtract = (
    np.abs, np.add, np.multiply, np.power, np.square, np.subtract)


def log_checkpoints(t_end: float, count: int = 20) -> tuple:
    """Log-spaced checkpoint times in [t_end / 1000, t_end]."""
    return tuple(np.geomspace(t_end / 1000.0, t_end, count))


@dataclass(frozen=True)
class SolverConfig:
    """What a caller varies of a solve; DT_MAX, DT_MIN and BLOWUP_THRESHOLD are the method's."""
    safety: float = 0.8                # multiple of h^2/(2n), in (0, max_safety(n)]
    t_end: float = 10.0
    checkpoint_times: tuple = ()       # exact snapshot times, in (0, t_end] (empty: 20 log-spaced)
    nonlinear: bool = True             # test hook: False integrates the pure heat flow

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"need 0 < t_end < inf, got {self.t_end!r}")
        ts = np.asarray(self.checkpoint_times, dtype=float)
        if ts.size and not (0 < ts[0] and ts[-1] <= self.t_end and np.all(np.diff(ts) > 0)):
            raise ValueError("checkpoint times must increase strictly within (0, t_end]")


@dataclass(frozen=True)
class TrajectoryStatus:
    kind: str                       # "reached_horizon" | "blowup" | "aborted"
    t_final: float
    T_est: float | None = None
    fit_quality: float | None = None
    reason: str | None = None


@dataclass
class Trajectory:
    checkpoints: list          # [(t, RadialField), ...]
    series: np.ndarray         # columns t, sup_norm, weighted_sup, dt
    status: TrajectoryStatus

    @property
    def times(self) -> np.ndarray:
        return self.series[:, 0]

    @property
    def sup_norms(self) -> np.ndarray:
        return self.series[:, 1]


class _Stepper:
    """Classical RK4 for u' = L u + |u|^(p-1) u on one radial grid, in place on `self.u`.

    L u = u'' + (n-1)/r u', with the even-symmetry limit 2n (u_1 - u_0)/h^2 at
    r = 0 and a zero ghost value beyond r_max.  p = None integrates the pure heat
    flow u' = L u; `dirichlet` pins u(r_max) = 0.  The state, the four stages, the
    work array and every stencil view of them are made once, at construction.  Every
    ufunc call passes its output positionally: on a few hundred doubles a call costs its
    overhead, and a keyword out= adds to it.
    """

    def __init__(self, grid, p=None, dirichlet=False):
        n, h = grid.n, grid.h
        r = grid.nodes
        inv_h2 = 1.0 / h**2
        self.two_inv_h2 = 2.0 * inv_h2
        self.origin = 2.0 * n / h**2
        drift = (n - 1) / (2.0 * h * r[1:-1])
        self.c_plus = inv_h2 + drift
        self.c_minus = inv_h2 - drift
        self.c_last_minus = float(inv_h2 - (n - 1) / (2.0 * h * r[-1]))
        self.exponent = None if p is None else p - 1.0
        self.dirichlet = dirichlet
        size = grid.m + 1
        # zeroed, so the Dirichlet last entry, which the RHS only pins, is never garbage
        self.u, self.w = np.zeros(size), np.zeros(size)
        self.k = [np.zeros(size) for _ in range(4)]
        self.scratch, self.power = np.empty(size - 2), np.empty(size)
        self.u_stencil, self.w_stencil = _stencil(self.u), _stencil(self.w)
        self.k_out = [(k, k[1:-1]) for k in self.k]
        # a ufunc takes a 0-d array operand at array speed, a Python float through a conversion
        self.c_center = np.array(self.two_inv_h2)
        self.half_dt, self.full_dt, self.sixth_dt = (np.zeros(()) for _ in range(3))
        self.dt = 0.0   # the dt the three factors hold: 0.0, like the factors themselves

    def rhs(self, v, out):
        """The right-hand side at any array v shaped like the state, into out."""
        self._rhs(_stencil(v), (out, out[1:-1]))
        return out

    def matrix(self) -> np.ndarray:
        """The right-hand side as a dense matrix, column j its value at the j-th unit
        vector; the operator L itself when p is None."""
        size = self.u.size
        rows, unit = np.empty((size, size)), np.zeros(size)
        for j in range(size):
            unit[j] = 1.0
            self.rhs(unit, rows[j])
            unit[j] = 0.0
        return rows.T

    def _rhs(self, src, dst):
        v, v_next, v_prev, v_mid = src
        out, mid = dst
        out[0] = self.origin * (v.item(1) - v.item(0))
        scratch = self.scratch
        _multiply(self.c_plus, v_next, mid)
        _add(mid, _multiply(self.c_minus, v_prev, scratch), mid)
        _subtract(mid, _multiply(self.c_center, v_mid, scratch), mid)
        if not self.dirichlet:
            out[-1] = self.c_last_minus * v.item(-2) - self.two_inv_h2 * v.item(-1)
        if self.exponent is not None:
            a = self.power
            if self.exponent == 2.0:   # p = 3: |v|^2 is v^2 exactly, so no abs
                _square(v, a)
            else:
                _power(_abs(v, a), self.exponent, a)
            _add(out, _multiply(a, v, a), out)
        if self.dirichlet:
            out[-1] = 0.0

    def step(self, dt):
        """One RK4 step of size dt.  It keeps the association
        u + (dt/6) (((k1 + 2 k2) + 2 k3) + k4) of the allocating form, so the step is
        bitwise the same (2 x is x + x exactly); dt's factors are rewritten when it changes."""
        u, w, rhs = self.u, self.w, self._rhs
        k1, k2, k3, k4 = self.k
        out1, out2, out3, out4 = self.k_out
        half_dt, full_dt, sixth_dt = self.half_dt, self.full_dt, self.sixth_dt
        if dt != self.dt:
            self.dt = dt
            half_dt[()], full_dt[()], sixth_dt[()] = 0.5 * dt, dt, dt / 6.0
        rhs(self.u_stencil, out1)
        _add(u, _multiply(half_dt, k1, w), w)
        rhs(self.w_stencil, out2)
        _add(u, _multiply(half_dt, k2, w), w)
        rhs(self.w_stencil, out3)
        _add(u, _multiply(full_dt, k3, w), w)
        rhs(self.w_stencil, out4)
        _add(k2, k2, w)
        _add(w, k1, w)
        _add(w, _add(k3, k3, k3), w)
        _add(w, k4, w)
        _multiply(w, sixth_dt, w)
        _add(u, w, u)
        if self.dirichlet:
            u[-1] = 0.0


def _stencil(v):
    """v with its three views in the interior Laplacian: v[i+1], v[i-1] and v[i]."""
    return v, v[2:], v[:-2], v[1:-1]


def diffusive_cap(safety: float, h: float, n: int) -> float:
    """The diffusive step cap safety * h^2 / (2n), the one place it is formed."""
    return safety * h**2 / (2.0 * n)


@functools.cache
def spectral_radius_h2(n: int) -> float:
    """rho(h^2 L) for the radial Laplacian L of the RK4 stepper in dimension n.

    h^2 L depends on n alone, since r_i = i h, and its largest mode sits at the
    origin row, so dense eigenvalues of L on 64 unit intervals give it; 100-800
    nodes, free or Dirichlet, agree to 1e-14 relative.
    """
    h_one = make_grid(n, 64.0, 64)
    return float(np.abs(np.linalg.eigvals(_Stepper(h_one).matrix())).max())


def max_safety(n: int) -> float:
    """The largest safety whose diffusive cap keeps dt*rho(L) within RK4_REAL_LIMIT."""
    return RK4_REAL_LIMIT / (diffusive_cap(1.0, 1.0, n) * spectral_radius_h2(n))


@counters.timed("evolution.solve_s")
def solve(u0: RadialField, params: ModelParams, cfg: SolverConfig) -> Trajectory:
    """Integrate to cfg.t_end, stopping early on blowup or abort.

    Boundary handling follows u0's tag: dirichlet_at_Rmax pins u(r_max) = 0
    (ball problem); even_at_origin_only treats the grid as a truncated copy of
    R^n and aborts if the solution contaminates the boundary region.  A
    nonfinite state aborts the run; its series ends at the last finite state.
    A safety above max_safety(n), where RK4 is unstable, is a ValueError, and so is one whose
    diffusive cap on u0's grid is below DT_MIN, where the first step would declare blowup.
    Every step appends one series row.  A step that would reach or pass the next
    checkpoint or t_end lands on it: t is set to that time itself, not t + dt.

    Reports its steps, by the cap that bound each, and the smallest dt to the run's
    counters: diffusive counts the steps at min(DT_MAX, safety h^2/(2n)), nonlinear
    those at 0.5 ||u||_inf^(1-p), and landing those cut short to land on a checkpoint
    or on t_end.
    """
    grid = u0.grid
    n = grid.n
    p = params.p
    if cfg.safety > max_safety(n):
        raise ValueError(f"safety {cfg.safety} exceeds RK4's stability bound "
                         f"max_safety({n}) = {max_safety(n):.6g}")
    cap = diffusive_cap(cfg.safety, grid.h, n)
    if not cap >= DT_MIN:
        raise ValueError(f"safety {cfg.safety} puts the step cap {cap:.3g} "
                         f"below DT_MIN = {DT_MIN:g}")
    nonlinear = cfg.nonlinear
    dirichlet = u0.boundary == DIRICHLET
    stepper = _Stepper(grid, p if nonlinear else None, dirichlet)
    wk = 2.0 / (p - 1.0)
    r_pow = grid.nodes**wk

    dt_cap = min(DT_MAX, cap)
    # the nonlinear cap is over 2^(p-1) dt_cap at sup <= sup_floor, where sup^(1-p) may overflow
    sup_floor = math.exp(min(math.log(2.0 * dt_cap) / (1.0 - p), 700.0)) / 2.0
    t_end, dt_min, sup_max = cfg.t_end, DT_MIN, BLOWUP_THRESHOLD
    targets = [float(t) for t in (cfg.checkpoint_times if len(cfg.checkpoint_times)
                                  else log_checkpoints(t_end))] + [t_end]
    n_cp = len(targets) - 1   # the checkpoint times, then t_end: the times steps land on

    u = stepper.u
    u[:] = u0.values
    step_rk4 = stepper.step
    abs_u = np.empty_like(u)
    abs_item, abs_argmax = abs_u.item, abs_u.argmax

    t = 0.0
    series = []
    checkpoints = []
    next_cp = 0
    step = 0
    bound_by = [0, 0, 0]   # steps whose dt the diffusive, nonlinear, landing cap set
    min_dt = math.inf
    status = None

    # x.item(x.argmax()) is x.max() without the reduction's overhead; both pick a NaN
    sup = _abs(u, abs_u).item(abs_argmax())
    wsup = _multiply(r_pow, abs_u, abs_u).item(abs_argmax())
    series.append((t, sup, wsup, 0.0))

    while t < t_end:
        dt, cap = dt_cap, 0
        if nonlinear and sup > sup_floor:
            dt_nonlinear = 0.5 * sup ** (1.0 - p)
            if dt_nonlinear < dt:
                dt, cap = dt_nonlinear, 1
        if dt < dt_min:
            status = _blowup_status(series, params, t)
            break
        target = targets[next_cp]
        landing = target - t <= dt
        if landing:
            dt, cap = target - t, 2
        step_rk4(dt)
        step += 1
        bound_by[cap] += 1
        if dt < min_dt:
            min_dt = dt

        # the max propagates NaN and inf, so a finite sup means a finite state
        _abs(u, abs_u)
        sup_new = abs_item(abs_argmax())
        if not math.isfinite(sup_new):
            status = TrajectoryStatus("aborted", t + dt, reason="nonfinite")
            break
        t = target if landing else t + dt
        sup = sup_new
        _multiply(r_pow, abs_u, abs_u)
        wsup = abs_item(abs_argmax())
        series.append((t, sup, wsup, dt))
        if not dirichlet and sup > 0 and abs(u.item(-2)) > BOUNDARY_CONTAMINATION * sup:
            status = TrajectoryStatus("aborted", t, reason="boundary_contamination")
            break
        if next_cp < n_cp and t == targets[next_cp]:
            checkpoints.append((t, make_field(grid, u, u0.boundary)))
            next_cp += 1
        if sup >= sup_max:
            status = _blowup_status(series, params, t)
            break

    if status is None:
        status = TrajectoryStatus("reached_horizon", t)

    counters.add("evolution.steps", step)
    for cap, count in zip(("diffusive", "nonlinear", "landing"), bound_by):
        counters.add(f"evolution.cap.{cap}", count)
    counters.least("evolution.min_dt", min_dt)
    return Trajectory(checkpoints=checkpoints, series=np.array(series), status=status)


def _blowup_status(series, params, t):
    arr = np.array(series)
    t_est, r2 = _fit_blowup_time(arr, params) or (t, None)
    if t_est <= t:   # no fit, or one behind t: the ODE tail T - t ~ sup^(1-p)/(p-1)
        t_est = t + arr[-1, 1] ** (1.0 - params.p) / (params.p - 1.0)
    return TrajectoryStatus("blowup", t, T_est=t_est, fit_quality=r2)


def _fit_blowup_time(series: np.ndarray, params: ModelParams):
    """Linear fit of sup^(1-p) against t over the last decade of growth.

    The window is only ~sup_final^(1-p) wide in t, so the regression is done
    on centered variables (differences of nearby floats are exact) to avoid
    cancellation; the fitted line crosses zero at the estimated blowup time.
    """
    t_arr, sup = series[:, 0], series[:, 1]
    cut = 10.0
    mask = (sup >= sup[-1] / cut) & (sup > 0)
    # the adaptive step puts only a handful of samples per decade of growth;
    # widen decade by decade until the fit window is populated
    while mask.sum() < 8 and cut < 1e16:
        cut *= 10.0
        mask = (sup >= sup[-1] / cut) & (sup > 0)
    if mask.sum() < 8:
        return None
    x = t_arr[mask]
    y = sup[mask] ** (1.0 - params.p)
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    var = float(np.sum(dx * dx))
    if var == 0.0:
        return None
    slope = float(np.sum(dx * (y - ym))) / var
    if slope >= 0:
        return None
    resid = (y - ym) - slope * dx
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return xm - ym / slope, r2


@dataclass(frozen=True)
class DecayDiagnostics:
    slope: float | None          # log-log decay rate of the sup-norm, final decade
    sup_t_beta_norm: float       # max over the run of w(t) = t^(1/(p-1)) ||u(t)||_inf
    tail_monotone: bool          # is w nonincreasing over the final decade
    defined: bool
    peak_time: float             # recorded t > 0 where w is largest (0 if there is none)
    decay_start: float           # earliest recorded t after which w is nonincreasing


def decay_diagnostics(traj: Trajectory, params: ModelParams) -> DecayDiagnostics:
    """Read a run's decay off its weighted sup-norm w(t) = t^(1/(p-1)) ||u(t)||_inf.

    w is formed once over the recorded t > 0.  Its final monotone stretch starts
    after the last rise of more than 1e-9 max w; tail_monotone tests the final
    decade alone, at 1e-8 max w.
    """
    if traj.status.kind != "reached_horizon":
        raise ValueError("decay diagnostics need a run that reached the horizon")
    t_arr, sup = traj.times, traj.sup_norms
    pos = t_arr > 0
    t_pos = t_arr[pos]
    w = t_pos ** params.beta * sup[pos]
    sup_t_beta = float(w.max()) if w.size else 0.0
    peak_time = float(t_pos[np.argmax(w)]) if w.size else 0.0
    ups = np.nonzero(np.diff(w) > 1e-9 * sup_t_beta)[0]
    start = ups[-1] + 1 if ups.size else 0
    decay_start = float(t_pos[start]) if t_pos.size else 0.0
    t_hi = t_arr[-1]
    in_final = t_pos >= t_hi / 10.0
    s_fin = sup[pos][in_final]
    if s_fin.size < 4 or np.any(s_fin <= 0):
        return DecayDiagnostics(None, sup_t_beta, s_fin.size >= 2 and not np.any(s_fin > 0),
                                defined=False, peak_time=peak_time, decay_start=decay_start)
    slope = float(np.polyfit(np.log(t_pos[in_final]), np.log(s_fin), 1)[0])
    w_fin = w[in_final]
    tail_monotone = bool(np.all(np.diff(w_fin) <= 1e-8 * w_fin.max()))
    return DecayDiagnostics(slope, sup_t_beta, tail_monotone, defined=True,
                            peak_time=peak_time, decay_start=decay_start)


def gradient_majorant_check(traj: Trajectory, u0: RadialField, grad_u0: RadialField,
                            t_small: float) -> tuple[bool, float]:
    """Check |du/dr(t)| <= 2 (G_t * |grad u0|) nodewise for checkpoints t <= t_small.

    Returns (holds, worst_ratio) where worst_ratio is the max of the left side
    over twice the smoothed gradient; t_small must be in the first 5% of the run.
    """
    if t_small > 0.05 * traj.series[-1, 0]:
        raise ValueError("t_small must lie in the first 5% of the run")
    abs_g0 = make_field(u0.grid, np.abs(grad_u0.values))
    worst = 0.0
    early = [(t, f) for t, f in traj.checkpoints if t <= t_small]
    if not early:
        raise ValueError("no checkpoints inside (0, t_small]")
    for t, f in early:
        majorant = 2.0 * heat_apply(abs_g0, t).values
        du = np.abs(np.gradient(f.values, u0.grid.h))
        du[0] = 0.0
        mask = majorant >= 1e-14
        bad = du[~mask] > 1e-12
        if np.any(bad):
            return False, math.inf
        if np.any(mask):
            worst = max(worst, float(np.max(du[mask] / majorant[mask])))
    return worst <= 1.0 + 1e-9, worst
