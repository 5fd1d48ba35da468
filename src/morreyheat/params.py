"""The nonlinearity of u_t - Laplace(u) = |u|^(p-1) u; the dimension n is the grid's."""

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    """The nonlinearity; the dimension n is read off the grid of each field."""

    p: float        # nonlinearity exponent, p > 1
    beta: float     # 1/(p-1), the self-similar amplitude exponent


def make_params(p: float) -> ModelParams:
    """Build ModelParams, rejecting p <= 1."""
    if not p > 1:
        raise ValueError(f"exponent p must be > 1, got {p}")
    p = float(p)
    return ModelParams(p=p, beta=1.0 / (p - 1.0))
