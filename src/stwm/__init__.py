"""Spatiotemporal Whittle-Matern fields.

Construction, exact Gaussian sampling, and covariance/regularity analysis of
the zero-initial-condition solution of a fractional-order parabolic SPDE
driven by spatially colored white-in-time noise, in the spectrally diagonal
setting (Dirichlet Laplacian plus constant shift on intervals and rectangles).
"""

from .kernel import (
    ModeKernel,
    TimeGrid,
    gram,
    mode_cov,
    mode_var,
    stationary_variance,
    temporal_matern_limit,
    square_function_ratio_closed_form,
)
from .quadrature import QuadratureConfig, QuadratureError
from .spectral import (EigenBasis, SpectralModel, build_basis, evaluate_basis, mode_grams,
                       mode_params, weyl_ratio)
from .sampler import (
    SeedSpec,
    FieldSample,
    cholesky_psd,
    sample_modes,
    sample_field,
    assemble_field,
    fractional_convolution,
    factorized_sample,
    factorized_covariance,
)
from .analysis import (
    RegularityQuery,
    RegularityReport,
    check_exponents,
    hs_sum,
    field_cov,
    asymptotic_marginal_cov,
    separability_check,
    estimate_holder,
    holder_theory_slope,
)

__version__ = "0.1.0"
