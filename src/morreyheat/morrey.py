"""Morrey-norm estimation on center/radius lattices and heat-semigroup smoothing diagnostics.

The norm of M^{q,lambda} is sup over balls of (R^(lambda-n) integral_{B_R(a)} |f|^q)^(1/q).
For radial f the sup over centers reduces exactly to offsets a >= 0 on one axis.
The sup is approximated on a finite log-spaced lattice, which keeps the ball rules of its
grid; refining the lattice (supersets only) can never decrease the computed norm.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import counters
from .fields import RadialField, RadialGrid, sup_norm
from .params import ModelParams
from .quadrature import ball_integrals, ball_rules, heat_apply, sphere_area, volume_weights


@dataclass(frozen=True)
class MorreySpec:
    """The pair (q, lambda) selecting a Morrey norm; validated against dimension at use."""

    q: float
    lam: float

    def __post_init__(self):
        if not self.q >= 1:   # NaN fails too
            raise ValueError("Morrey exponent q must be >= 1")
        if not self.lam >= 0:
            raise ValueError("Morrey weight lambda must be >= 0")


def critical_spec(params: ModelParams, q: float = 2.0) -> MorreySpec:
    """The scaling-critical pairing lambda = 2q/(p-1)."""
    return MorreySpec(q=q, lam=2.0 * q / (params.p - 1.0))


@dataclass(frozen=True, eq=False)
class MorreyLattice:
    """Finite surrogate for the sup over centers a >= 0 and radii R > 0 on one grid."""

    grid: RadialGrid
    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        if len(self.centers) == 0 or len(self.radii) == 0:
            raise ValueError("lattice must be nonempty")
        if np.any(self.centers < 0) or np.any(self.radii <= 0):
            raise ValueError("need centers >= 0 and radii > 0")

    @staticmethod
    def default(grid: RadialGrid, n_centers: int = 32, n_radii: int = 48) -> "MorreyLattice":
        centers = np.concatenate(([0.0], np.geomspace(grid.h, grid.r_max, n_centers)))
        radii = np.geomspace(grid.h, 2.0 * grid.r_max, n_radii)
        centers.setflags(write=False)
        radii.setflags(write=False)
        return MorreyLattice(grid=grid, centers=centers, radii=radii)

    def refine(self) -> "MorreyLattice":
        """Superset lattice with geometric midpoints inserted (halving toward 0 for centers)."""
        def midpoints(vals):
            pos = vals[vals > 0]
            mids = np.sqrt(pos[:-1] * pos[1:])
            extra = [pos[0] / 2.0] if vals[0] == 0.0 else []
            return np.unique(np.concatenate([vals, mids, extra]))

        c = midpoints(np.asarray(self.centers))
        r = midpoints(np.asarray(self.radii))
        c.setflags(write=False)
        r.setflags(write=False)
        return MorreyLattice(grid=self.grid, centers=c, radii=r)

    @cached_property
    def rules(self) -> list:
        """Its ball_rules, built once: 1 to morrey.table_builds and their MB to .table_mb."""
        rules = ball_rules(self.grid, self.centers, self.radii)
        counters.add("morrey.table_builds")
        counters.add("morrey.table_mb", sum(x.nbytes for rule in rules for x in rule) / 2**20)
        return rules


def lq_norm(f: RadialField, q: float) -> float:
    """Lebesgue L^q norm of the radial field over R^n (zero extension)."""
    grid = f.grid
    integral = float(sphere_area(grid.n) * np.sum(volume_weights(grid) * np.abs(f.values) ** q))
    return integral ** (1.0 / q)


@dataclass(frozen=True)
class MorreyEvaluation:
    norm: float
    center: float
    radius: float
    cells: np.ndarray  # maximand R^(lambda-n) * ball integral, per (center, radius)


@counters.timed("morrey.evaluate_s")
def morrey_evaluate(f: RadialField, spec: MorreySpec,
                    lattice: MorreyLattice | None = None) -> MorreyEvaluation:
    """Norm plus the maximizing cell and the full per-cell maximand table.

    Each cell is a function of (grid, a, R, f) alone, whatever else the lattice holds,
    so the cells of a sub-lattice can be read off a finer evaluation (`sub_cells`)."""
    grid = f.grid
    n = grid.n
    if spec.lam > n:
        raise ValueError(f"lambda = {spec.lam} exceeds the dimension n = {n}")
    if lattice is None:
        lattice = MorreyLattice.default(grid)
    elif lattice.grid.n != n or not np.array_equal(lattice.grid.nodes, grid.nodes):
        raise ValueError("the lattice was built on another grid")
    counters.add("morrey.evaluations")
    integrals = ball_integrals(grid, np.abs(f.values) ** spec.q, lattice.rules)
    cells = integrals * np.asarray(lattice.radii)[None, :] ** (spec.lam - n)
    ci, ri = np.unravel_index(np.argmax(cells), cells.shape)
    return MorreyEvaluation(norm=float(cells[ci, ri]) ** (1.0 / spec.q),
                            center=float(lattice.centers[ci]), radius=float(lattice.radii[ri]),
                            cells=cells)


def sub_cells(ev: MorreyEvaluation, lattice: MorreyLattice, sub: MorreyLattice) -> np.ndarray:
    """The cells of `ev`, an evaluation on `lattice`, at the centers and radii of `sub`,
    whose points are all among `lattice`'s ascending ones (as for a coarser level of
    `refine`): bitwise the cells of evaluating on `sub` itself."""
    picks = []
    for fine, coarse in ((lattice.centers, sub.centers), (lattice.radii, sub.radii)):
        idx = np.minimum(np.searchsorted(fine, coarse), len(fine) - 1)
        if not np.array_equal(np.asarray(fine)[idx], coarse):
            raise ValueError("sub is not a sub-lattice of lattice")
        picks.append(idx)
    return ev.cells[np.ix_(*picks)]


def morrey_norm(f: RadialField, spec: MorreySpec, lattice: MorreyLattice | None = None) -> float:
    return morrey_evaluate(f, spec, lattice).norm


def small_scale_diagnostic(cells: np.ndarray) -> dict:
    """Small-radius trend of an evaluation's Morrey maximand cells (diagnostic only).

    A vanishing small-R limit distinguishes fields whose Morrey mass lives at
    finite scales; reported, never asserted.
    """
    by_radius = cells.max(axis=0)
    k = max(1, len(by_radius) // 8)
    small = float(by_radius[:k].max())
    total = float(cells.max())
    return {"small_r_value": small, "max_value": total,
            "small_r_fraction": small / total if total > 0 else 0.0}


@dataclass(frozen=True)
class SmoothingPoint:
    t: float
    norm_to: float          # ||e^{-tA} f||_{M^{to_q, lambda}}
    ratio: float            # norm_to / (t^{-rate} ||f||_{M^{from_q, lambda}})
    norm_from_after: float  # ||e^{-tA} f||_{M^{from_q, lambda}}
    contraction_ok: bool    # norm_from_after <= ||f||_{M^{from_q, lambda}} (1 + 1e-6)


def smoothing_profile(f: RadialField, from_q: float, to_q: float, lam: float,
                      t_grid) -> list[SmoothingPoint]:
    """Measured smoothing ratios of the heat flow across the Morrey scale, on the default lattice.

    to_q = inf selects the sup-norm of the flowed field.  The reference rate is
    t^(-(lambda/2)(1/from_q - 1/to_q)).
    """
    if not (1 <= from_q <= to_q):
        raise ValueError("need 1 <= from_q <= to_q")
    lattice = MorreyLattice.default(f.grid)
    spec_from = MorreySpec(q=from_q, lam=lam)
    norm_from = morrey_norm(f, spec_from, lattice)
    inv_to = 0.0 if math.isinf(to_q) else 1.0 / to_q
    rate = (lam / 2.0) * (1.0 / from_q - inv_to)
    out = []
    for t in np.asarray(t_grid, dtype=float):
        flowed = heat_apply(f, float(t))
        if math.isinf(to_q):
            norm_to = sup_norm(flowed)
        else:
            norm_to = morrey_norm(flowed, MorreySpec(q=to_q, lam=lam), lattice)
        norm_from_after = morrey_norm(flowed, spec_from, lattice)
        reference = float(t) ** (-rate) * norm_from
        ratio = norm_to / reference if reference > 0 else math.inf
        out.append(SmoothingPoint(
            t=float(t), norm_to=norm_to, ratio=ratio, norm_from_after=norm_from_after,
            contraction_ok=norm_from_after <= norm_from * (1.0 + 1e-6)))
    return out
