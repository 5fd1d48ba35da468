"""Backward similarity variables, the Gaussian-weighted energy, and the
kernel functionals that tie the energy to critical Morrey norms.

A field u(., t) rescaled around (a=0, T) is w(y, s) = (T-t)^beta u(y sqrt(T-t), t)
with s = -log(T-t).  The energy of w uses the weight rho(y) = exp(-|y|^2/4),
and is nonincreasing in s along solutions of the flow.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import counters
from .evolution import Trajectory
from .fields import RadialField, pchip
from .morrey import MorreyLattice
from .params import ModelParams
from .quadrature import heat_kernel_matrix, sphere_area


@dataclass(frozen=True)
class RescaledField:
    """Similarity-variable profile w(y) at one rescaled time s = -log(T-t)."""

    y: np.ndarray
    values: np.ndarray
    T: float
    t: float
    s: float
    truncated: bool  # True when the stated y-range maps past the field's r_max


def similarity_grid() -> np.ndarray:
    """y in [0, 10] at spacing 0.01: the Gaussian weight exp(-y^2/4) is 1.4e-11 at the edge."""
    return np.linspace(0.0, 10.0, 1001)


def to_similarity(field: RadialField, t: float, T: float, params: ModelParams) -> RescaledField:
    """Rescale a field sampled at time t around the blowup ansatz (0, T)."""
    if not T > t:
        raise ValueError("rescaling time T must exceed the sample time t")
    y = similarity_grid()
    tau = T - t
    r = y * math.sqrt(tau)
    truncated = bool(r[-1] > field.grid.r_max * (1 + 1e-12))
    w = tau**params.beta * pchip(field.grid.nodes, field.values, np.minimum(r, field.grid.r_max))
    w.setflags(write=False)
    y.setflags(write=False)
    return RescaledField(y=y, values=w, T=T, t=t, s=-math.log(tau), truncated=truncated)


def _weighted_integrals(w: RescaledField, n: int, params: ModelParams):
    """(E, m, P, G): energy, weighted mass, weighted |w|^{p+1} and |w'|^2 integrals in R^n."""
    p, beta = params.p, params.beta
    y = w.y
    rho_vol = np.exp(-(y**2) / 4.0) * y ** (n - 1)
    dw = np.gradient(w.values, y[1] - y[0])
    dw[0] = 0.0
    area = sphere_area(n)
    mass = area * np.trapezoid(w.values**2 * rho_vol, y)
    pot = area * np.trapezoid(np.abs(w.values) ** (p + 1) * rho_vol, y)
    grad = area * np.trapezoid(dw**2 * rho_vol, y)
    energy_val = 0.5 * grad + 0.5 * beta * mass - pot / (p + 1.0)
    return energy_val, mass, pot, grad


def stationary_energy(n: int, params: ModelParams) -> float:
    """Closed-form energy in R^n of the flat rescaled profile w = beta^beta."""
    kappa2 = params.beta ** (2.0 * params.beta)
    return (kappa2 * params.beta * (params.p - 1.0) / (2.0 * (params.p + 1.0))
            * (4.0 * math.pi) ** (n / 2.0))


@dataclass
class EnergySeries:
    s: np.ndarray
    E: np.ndarray
    m: np.ndarray
    identity_residual: np.ndarray   # |dm/ds/2 + 2E - (p-1)/(p+1) int |w|^{p+1} rho|, nan at ends
    identity_relative: np.ndarray
    monotone_violation: float       # worst E(s_{j+1}) - E(s_j) - tol_E, <= 0 when monotone
    min_energy: float

    @property
    def monotone_ok(self) -> bool:
        return self.monotone_violation <= 0.0


@counters.timed("similarity.energy_s")
def energy_series(traj: Trajectory, T: float, params: ModelParams, s_grid) -> EnergySeries:
    """Energy/mass along a trajectory in similarity variables at rescaling time T.

    The trajectory must carry checkpoints at exactly the times T - exp(-s) for
    every s in s_grid (use checkpoint_times_for_s_grid when configuring the run).
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.size < 3 or not np.all(np.diff(s_grid) > 0):
        raise ValueError("s_grid must be increasing with at least 3 points")
    have = dict(traj.checkpoints)
    rows, truncated = [], 0
    for s, t in zip(s_grid, checkpoint_times_for_s_grid(T, s_grid).tolist()):
        if t not in have:
            raise ValueError(f"trajectory lacks a checkpoint at t={t!r} (s={s:g})")
        w = to_similarity(have[t], t, T, params)
        truncated += w.truncated
        rows.append(_weighted_integrals(w, have[t].grid.n, params))
    counters.add("similarity.truncated_windows", truncated)
    e_arr, m_arr, p_arr, g_arr = np.array(rows).T

    dm = np.full_like(s_grid, np.nan)
    dm[1:-1] = (m_arr[2:] - m_arr[:-2]) / (s_grid[2:] - s_grid[:-2])
    balance = -2.0 * e_arr + (params.p - 1.0) / (params.p + 1.0) * p_arr
    residual = np.abs(0.5 * dm - balance)
    # relative to the largest constituent of the identity, not to the (often
    # cancelling) net terms
    scale = np.maximum.reduce([np.abs(0.5 * dm), g_arr, params.beta * m_arr,
                               p_arr / (params.p + 1.0),
                               np.full_like(s_grid, 1e-30)])
    relative = residual / scale

    tol = 1e-6 * (1.0 + np.abs(e_arr[:-1]))
    monotone_violation = float(np.max(np.diff(e_arr) - tol)) if e_arr.size > 1 else -math.inf
    return EnergySeries(s=s_grid, E=e_arr, m=m_arr, identity_residual=residual,
                        identity_relative=relative,
                        monotone_violation=monotone_violation,
                        min_energy=float(e_arr.min()))


def checkpoint_times_for_s_grid(T: float, s_grid) -> np.ndarray:
    """The sample times t = T - exp(-s) a solver run must checkpoint for energy_series."""
    s_grid = np.asarray(s_grid, dtype=float)
    return T - np.exp(-s_grid)


def functional_A(u0: RadialField, grad_u0: RadialField, T: float, centers,
                 params: ModelParams) -> np.ndarray:
    """T^((p+1)/(p-1)) (G_T*|grad u0|^2)(a) + T^(2/(p-1)) (G_T*|u0|^2)(a) at every center a
    of the list centers, from one kernel matrix applied to both densities."""
    if not T > 0:
        raise ValueError("T must be positive")
    p = params.p
    kernel = heat_kernel_matrix(u0.grid, T, centers)
    return (T ** ((p + 1.0) / (p - 1.0)) * (kernel @ grad_u0.values**2)
            + T ** (2.0 / (p - 1.0)) * (kernel @ u0.values**2))


def functional_N(u0: RadialField, grad_u0: RadialField, t0: float, t_grid,
                 params: ModelParams) -> float:
    """Finite surrogate of sup over t >= t0 and the default lattice's centers of functional_A."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < t0):
        raise ValueError("t_grid must lie in [t0, infinity)")
    centers = MorreyLattice.default(u0.grid).centers
    best = 0.0
    for t in t_grid:
        best = max(best, float(np.max(functional_A(u0, grad_u0, float(t), centers, params))))
    return best
