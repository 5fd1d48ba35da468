"""Mild-solution Picard iteration and the experiments built on it.

The variation-of-constants map u -> G_t*u0 + integral_0^t G_{t-s} (u^p)(s) ds
is iterated on a graded master time grid.  Writing J_i for the map evaluated
at node tau_i, the identity J_i = G_dt(J_{i-1} + w f_{i-1}) + w f_i (trapezoid
in s, semigroup-composed kernels) evaluates one Picard sweep with O(Q) kernel
applications.  The grid is symmetric in time, so mirrored intervals have
bitwise-equal widths and share one kernel per distinct width, kept as the upper
diagonals of its symmetric factor (quadrature.SymmetricBandKernel).  The
node count is doubled until the converged iterate is stable to 1e-6,
exploiting that the weak endpoint singularities of the Morrey-side estimates
are integrable; kernels of widths that recur after a doubling are carried over.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import counters
from .evolution import SolverConfig, _Stepper, diffusive_cap, solve
from .fields import FREE, RadialField, make_field
from .morrey import MorreyLattice, MorreySpec, critical_spec, morrey_norm
from .params import ModelParams
from .quadrature import SymmetricBandKernel


def auxiliary_exponent(params: ModelParams, q: float = 2.0) -> float:
    """Log-midpoint of the admissible interval (max(p, q), p q) for the bootstrap norm."""
    lo = max(params.p, q)
    hi = params.p * q
    return math.sqrt(lo * hi)


def _graded_times(t_end: float, count: int, extra, dt_floor: float) -> np.ndarray:
    """Master node set on [0, t_end], clustered quadratically at both endpoints.

    A node closer than dt_floor (the grid's kernel-resolution limit) to the
    last kept one is dropped, unless it is a sample time in `extra` (all
    positive) or t_end.  So the propagators stay resolved quadrature kernels
    no matter how often the node count is doubled.
    """
    x = np.linspace(0.0, 1.0, count + 1)
    base = t_end * x * x * (3.0 - 2.0 * x)
    keep = set(float(t) for t in extra)
    times = np.unique(np.concatenate([base, np.asarray(sorted(keep), dtype=float)]))
    merged = [0.0]
    for t in times[1:]:
        if t - merged[-1] >= dt_floor or float(t) in keep or t == times[-1]:
            merged.append(float(t))
    return np.asarray(merged)


@dataclass
class PicardRun:
    sample_times: np.ndarray
    fields: list                      # converged iterate at the sample times
    cauchy_diffs: list                # sup over sample times of |u^{k+1}-u^k|, per sweep
    last_sample_diffs: np.ndarray     # per-sample-time Cauchy difference of the final sweep
    budget: np.ndarray                # columns t, t^beta_aux |u|_r, t^beta ||u||_inf
    converged: bool
    diverged: bool
    iterations: int
    convergence_ratio: float | None   # geometric ratio of successive Cauchy differences
    nodes_used: int
    node_stability: float | None      # relative change of the iterate at the last node doubling
    aux_r: float
    beta_aux: float


class _DiffusionSubsteps:
    """Heat propagator over an interval too narrow for the quadrature kernel.

    The Gaussian kernel of width sqrt(2 dt) is unresolved by the grid when
    dt < 2 h^2; applying the quadrature matrix there injects artificial
    diffusion.  These intervals integrate u' = L u with explicit RK4 substeps
    of the discrete radial Laplacian instead.
    """

    def __init__(self, grid, dt):
        self.stepper = _Stepper(grid)
        cap = diffusive_cap(0.8, grid.h, grid.n)
        self.k = max(1, int(math.ceil(dt / cap)))
        self.dt_sub = dt / self.k

    def __matmul__(self, v):
        counters.add("duhamel.picard.substeps", self.k)
        stepper = self.stepper
        stepper.u[:] = v
        for _ in range(self.k):
            stepper.step(self.dt_sub)
        return stepper.u.copy()


def _update_store(store, grid, widths):
    """Make store, a dict {interval width: heat propagator}, hold exactly the distinct widths.

    Mirrored intervals of the symmetric smoothstep grid have bitwise-equal
    widths, and a kernel is a pure function of (grid, t), so they share one
    propagator and every sweep stays bitwise unchanged.  The widths that do not
    recur are freed first, so peak memory stays that of the larger width set;
    the kept resolved ones count as duhamel.picard.kernel_reuses.  The missing
    widths are then built in first-seen order: a SymmetricBandKernel, the upper
    diagonals of its symmetric factor, counted as .kernel_builds and .kernel_mb,
    or below 2 h^2 a _DiffusionSubsteps.
    """
    floor = 2.0 * grid.h**2
    distinct = dict.fromkeys(float(dt) for dt in widths)
    for dt in [dt for dt in store if dt not in distinct]:
        del store[dt]
    counters.add("duhamel.picard.kernel_reuses", sum(1 for dt in store if dt >= floor))
    for dt in distinct:
        if dt in store:
            continue
        if dt < floor:
            store[dt] = _DiffusionSubsteps(grid, dt)
            continue
        store[dt] = kernel = SymmetricBandKernel(grid, dt)
        counters.add("duhamel.picard.kernel_builds")
        counters.add("duhamel.picard.kernel_mb", kernel.nbytes / 2**20)


def _sweep(u0_vals, store, widths, fields, p):
    """One Picard sweep over the master grid with the propagators of store; fields is the
    previous iterate (all zero for the linear sweep u(t) = G_t * u0)."""
    out = [u0_vals.copy()]
    f_prev = np.abs(fields[0]) ** (p - 1.0) * fields[0]
    for i, dt in enumerate(widths):
        f_here = np.abs(fields[i + 1]) ** (p - 1.0) * fields[i + 1]
        out.append(store[dt] @ (out[-1] + (0.5 * dt) * f_prev) + (0.5 * dt) * f_here)
        f_prev = f_here
    return out


def _run_picard(u0, params, t_end, max_iters, sample_times, nodes, tol, store):
    """Picard sweeps at one node count: (the iterate at the sample times, Cauchy differences,
    final per-sample differences, converged, diverged, sweeps); the rest of it dies here."""
    grid = u0.grid
    times = _graded_times(t_end, nodes, extra=sample_times, dt_floor=2.0 * grid.h**2)
    widths = np.diff(times)
    p = params.p
    sample_idx = np.searchsorted(times, sample_times)

    _update_store(store, grid, widths)
    # u^(0)(t) = G_t * u0: the sweep of the zero iterate, whose source terms add +0.0
    fields = _sweep(u0.values.astype(float), store, widths, [np.zeros(grid.m + 1)] * len(times), p)

    diffs = []
    per_sample = None
    converged = diverged = False
    it = 0
    for it in range(1, max_iters + 1):
        new_fields = _sweep(u0.values.astype(float), store, widths, fields, p)
        per_sample = [float(np.max(np.abs(new_fields[i] - fields[i]))) for i in sample_idx]
        d = max(per_sample)
        sup_now = max(float(np.max(np.abs(new_fields[i]))) for i in sample_idx)
        fields = new_fields
        diffs.append(d)
        if sup_now > 1e6 or (len(diffs) >= 3 and diffs[-1] > diffs[-2] > diffs[-3]):
            diverged = True
            break
        if d < tol * (1.0 + sup_now):
            converged = True
            break
    return [fields[i] for i in sample_idx], diffs, per_sample, converged, diverged, it


@counters.timed("duhamel.picard_s")
def picard_solve(u0: RadialField, params: ModelParams, t_end: float, K: int,
                 sample_times, nodes: int = 64,
                 tol: float = 1e-8, max_nodes: int = 512) -> PicardRun:
    """Iterate the variation-of-constants map K times (or to tolerance).

    Records the Cauchy differences of the iteration at the sample times and
    the two decay-budget curves t^beta_aux |u(t)|_{M^{r,lam}} and
    t^(1/(p-1)) ||u(t)||_inf with r the auxiliary exponent of the critical
    pairing (q, lam) = (2, 4/(p-1)).
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if K < 2:
        raise ValueError("need at least 2 Picard sweeps")
    sample_times = np.asarray(sorted(float(t) for t in sample_times))
    if sample_times.size == 0 or sample_times[0] <= 0 or sample_times[-1] > t_end:
        raise ValueError("sample times must lie in (0, t_end]")

    prev_samples = None
    stability = None
    store = {}
    while True:
        samples, diffs, per_sample, converged, diverged, iters = \
            _run_picard(u0, params, t_end, K, sample_times, nodes, tol, store)
        if prev_samples is not None:
            num = max(float(np.max(np.abs(a - b))) for a, b in zip(samples, prev_samples))
            den = 1.0 + max(float(np.max(np.abs(a))) for a in samples)
            stability = num / den
        if nodes >= max_nodes or diverged or (stability is not None and stability < 1e-6):
            break
        prev_samples = samples
        nodes *= 2
    store.clear()   # the last store is freed before the budget's Morrey norms

    crit = critical_spec(params)
    r_aux = auxiliary_exponent(params, crit.q)
    beta_aux = (crit.lam / 2.0) * (1.0 / crit.q - 1.0 / r_aux)
    lattice = MorreyLattice.default(u0.grid)
    spec_r = MorreySpec(q=r_aux, lam=crit.lam)
    rows = []
    out_fields = []
    for t, vals in zip(sample_times, samples):
        fld = make_field(u0.grid, vals, FREE)
        out_fields.append(fld)
        rows.append((t, t**beta_aux * morrey_norm(fld, spec_r, lattice),
                     t**params.beta * float(np.max(np.abs(vals)))))

    ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
    ratio = float(np.median(ratios)) if ratios and diffs[0] > 0 else None

    return PicardRun(sample_times=sample_times, fields=out_fields, cauchy_diffs=diffs,
                     last_sample_diffs=np.asarray(per_sample, dtype=float),
                     budget=np.array(rows), converged=converged, diverged=diverged,
                     iterations=iters, convergence_ratio=ratio, nodes_used=nodes,
                     node_stability=stability, aux_r=r_aux, beta_aux=beta_aux)


# ---------------------------------------------------------------------------
# Experiment: continuous dependence.
# ---------------------------------------------------------------------------


@dataclass
class DependenceResult:
    times: np.ndarray
    ratios: np.ndarray          # ||u(t)-v(t)||_M / ||u0-v0||_M
    max_ratio: float
    degenerate: bool            # v0 == u0, ratios fixed at 1 by convention
    failed_before_T0: bool      # perturbed run ended before T0


def continuous_dependence(u0: RadialField, v0s, cfg: SolverConfig, params: ModelParams,
                          spec: MorreySpec) -> list:
    """Morrey-norm amplification of initial perturbations along the flow to T0 = cfg.t_end.

    Returns one DependenceResult per perturbed datum in v0s, each compared
    with the one solve of u0 (made only if some datum differs from u0) at
    cfg.checkpoint_times.
    """
    for v0 in v0s:
        if u0.grid is not v0.grid and not np.array_equal(u0.grid.nodes, v0.grid.nodes):
            raise ValueError("both data must live on the same grid")
    lattice = MorreyLattice.default(u0.grid)
    dists = [morrey_norm(make_field(u0.grid, u0.values - v0.values), spec, lattice)
             for v0 in v0s]
    tu = solve(u0, params, cfg) if any(dists) else None
    results = []
    for v0, dist0 in zip(v0s, dists):
        if dist0 == 0.0:
            results.append(DependenceResult(
                times=np.asarray(cfg.checkpoint_times), ratios=np.ones(len(cfg.checkpoint_times)),
                max_ratio=1.0, degenerate=True, failed_before_T0=False))
            continue
        tv = solve(v0, params, cfg)
        failed = tu.status.kind != "reached_horizon" or tv.status.kind != "reached_horizon"
        ts, ratios = [], []
        for (t1, f1), (t2, f2) in zip(tu.checkpoints, tv.checkpoints):
            diff = make_field(u0.grid, f1.values - f2.values)
            ts.append(t1)
            ratios.append(morrey_norm(diff, spec, lattice) / dist0)
        ts, ratios = np.asarray(ts), np.asarray(ratios)
        results.append(DependenceResult(
            times=ts, ratios=ratios, max_ratio=float(ratios.max()) if ratios.size else math.nan,
            degenerate=False, failed_before_T0=failed))
    return results
