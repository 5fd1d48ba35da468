"""Numerical laboratory for the radial supercritical semilinear heat equation.

Building blocks: a radial method-of-lines solver with blowup detection,
Morrey-norm estimation on center/radius lattices, Gaussian heat-kernel
quadrature, backward similarity variables with the weighted energy, a
mild-solution Picard iteration, and amplitude-threshold bisection, all bound
together by a reproducible experiment runner (see morreyheat.cli).
"""

from .fields import (DIRICHLET, FREE, RadialField, RadialGrid, build_profile,
                     gaussian, indicator, make_field, make_grid, plateau,
                     power_tail, rescale_field, singular_steady_state, sup_norm,
                     weighted_sup_norm, zero_field)
from .morrey import MorreyLattice, MorreySpec, critical_spec, lq_norm, morrey_norm
from .params import ModelParams, make_params
from .quadrature import gauss_convolve, heat_apply

__all__ = [
    "DIRICHLET", "FREE", "ModelParams", "MorreyLattice", "MorreySpec",
    "RadialField", "RadialGrid", "build_profile", "critical_spec", "gauss_convolve",
    "gaussian", "heat_apply", "indicator", "lq_norm", "make_field", "make_grid",
    "make_params", "morrey_norm", "plateau", "power_tail", "rescale_field",
    "singular_steady_state", "sup_norm", "weighted_sup_norm", "zero_field",
]

__version__ = "0.1.0"
