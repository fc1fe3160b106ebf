"""Test oracles: checks of the paper's claims that no library path runs, and
the adaptive-quadrature tolerance the tests' reference values are taken at.

The tests import this module as `reference` (pytest puts `tests/` on the
path); no module of the package imports it.
"""

from dataclasses import dataclass

import numpy as np

from stwm.kernel import ModeKernel, TimeGrid, gram
from stwm.quadrature import QuadratureConfig
from stwm.specfun import gamma_fn
from stwm.spectral import SpectralModel, mode_params

__all__ = [
    "TIGHT",
    "SeparabilityResult",
    "separability_check",
    "square_function_ratio_closed_form",
]

TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-16, max_subdivisions=4000)


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    max_rel_error: float | None      # factorization verification (separable case)
    witness: tuple | None            # lag ratios of two modes (non-separable case)


def separability_check(model: SpectralModel, seed: int = 0) -> SeparabilityResult:
    """The covariance factorizes into a temporal profile times the spatial
    noise coloring exactly when beta = 0 (all modes share decay rate 1).

    When separable, the factorization q_j(s, t) = rho(s, t) lambda_tilde_j^{-alpha}
    is verified on 3 random modes and 10 random time pairs; otherwise two modes
    with distinct eigenvalues witness the failure through unequal lag ratios.
    """
    rng = np.random.default_rng(seed)
    g = model.gamma
    if model.beta == 0.0:
        rho = ModeKernel(mu=1.0, weight=1.0, gamma=g)
        modes = rng.integers(1, model.J + 1, size=min(3, model.J))
        worst = 0.0
        for j in modes:
            k = mode_params(model, int(j))
            st = rng.uniform(model.T / 100.0, model.T, size=(10, 2))
            times, idx = np.unique(st, return_inverse=True)
            grid = TimeGrid(times)
            i_s, i_t = idx.reshape(st.shape).T
            lhs = gram(k, grid)[i_s, i_t]
            rhs = gram(rho, grid)[i_s, i_t] * k.weight
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300))))
        return SeparabilityResult(separable=True, max_rel_error=worst, witness=None)

    witness = None
    lam = model.basis.eigenvalues
    distinct = np.nonzero(lam != lam[0])[0]
    if distinct.size:
        grid = TimeGrid(np.array([min(1.0, model.T / 2.0), min(2.0, model.T)]))
        grams = (gram(mode_params(model, j), grid) for j in (1, int(distinct[0]) + 1))
        witness = tuple(G[0, 1] / G[0, 0] for G in grams)
    return SeparabilityResult(separable=False, max_rel_error=None, witness=witness)


def square_function_ratio_closed_form(gamma: float, delta: float) -> float:
    """Ratio of the squared weighted-semigroup time integral to the matching
    power of the decay rate,

        int_0^infty t^{2(g-1-delta)} e^{-2 mu t} dt  /  mu^{1+2delta-2g}
            = Gamma(p) / 2^p,  p = 2 (gamma - delta) - 1,

    which is independent of mu. Raises ValueError unless delta >= 0 and the
    integral converges, gamma > 1/2 + delta."""
    p = 2.0 * (gamma - delta) - 1.0
    if not (delta >= 0.0 and p > 0.0):
        raise ValueError("square_function_ratio_closed_form requires delta >= 0 and "
                         f"gamma > 1/2 + delta, got gamma={gamma}, delta={delta}")
    return gamma_fn(p) / 2.0 ** p
