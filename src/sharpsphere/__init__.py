"""Numerical verification of the sharp L2 -> L4 Fourier extension inequality
on the unit sphere in R^3, and gradient-ascent search for its extremizers.

The sharp ratio ||ext f||_{L4(R^3)} / ||f||_{L2(S^2)} equals 2*pi and is
attained exactly by constants. This package computes both sides of every step
of that statement with quadrature rules sized so that band-limited inputs are
integrated exactly, turning the inequality chain into machine-precision checks.
"""

from .quadrature import (
    SphereGrid, BallGrid,
    DegenerateSliceError, EmptyIntersectionError,
    build_sphere_grid, integrate_sphere,
    circle_frames,
    build_ball_grid, integrate_ball, exact_sizes,
)
from .legendre import (
    LegendreTable, FunkHeckeSpectrum,
    legendre_eval, legendre_values, recurrence_residuals,
    a_coefficient, lambda_closed_form,
    funk_hecke_coefficient, chord_kernel, chord_spectrum_quadrature,
)
from .harmonics import (
    HarmonicCoeffs, BasisTable, SphereFunction,
    flat_index, n_coeffs, parity_signs, harmonic_values, random_band_limited,
    build_basis, analyze, synthesize, funk_hecke_apply, eigenvalue_residual,
)
from .convolution import (
    ConvProfile, SliceColumn, SlicePlan, SplitValues,
    convolve_at, convolve_many, pair_profile, pair_slice_average,
    conv_profile, extension_at,
)
from .forms import (
    GammaSample, PairKernel, FormGrids,
    weighted_pair_kernel,
    default_form_grids, quadrilinear_q, bilinear_b, conv_l2_norm, l4_norm,
    gamma_sample, gamma_samples, four_identity, four_identity_many,
    h_direct, h_direct_many, h_spectral, mean_value,
)
from .maximizer import (
    OptimizerState, SearchResult, Workspace,
    SHARP_CONSTANT, make_workspace, objective_phi, gradient,
    constancy_metric, initial_coeffs, search,
)
from .verification import (
    CheckResult, VerificationReport, VerifyConfig, run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "SphereGrid", "BallGrid",
    "DegenerateSliceError", "EmptyIntersectionError",
    "build_sphere_grid", "integrate_sphere",
    "circle_frames",
    "build_ball_grid", "integrate_ball", "exact_sizes",
    "LegendreTable", "FunkHeckeSpectrum",
    "legendre_eval", "legendre_values", "recurrence_residuals",
    "a_coefficient", "lambda_closed_form",
    "funk_hecke_coefficient", "chord_kernel", "chord_spectrum_quadrature",
    "HarmonicCoeffs", "BasisTable", "SphereFunction",
    "flat_index", "n_coeffs", "parity_signs", "harmonic_values",
    "random_band_limited",
    "build_basis", "analyze", "synthesize", "funk_hecke_apply",
    "eigenvalue_residual",
    "ConvProfile", "SliceColumn", "SlicePlan", "SplitValues",
    "convolve_at", "convolve_many", "pair_profile", "pair_slice_average",
    "conv_profile", "extension_at",
    "GammaSample", "PairKernel", "FormGrids",
    "weighted_pair_kernel",
    "default_form_grids", "quadrilinear_q", "bilinear_b", "conv_l2_norm", "l4_norm",
    "gamma_sample", "gamma_samples", "four_identity", "four_identity_many",
    "h_direct", "h_direct_many", "h_spectral", "mean_value",
    "OptimizerState", "SearchResult", "Workspace",
    "SHARP_CONSTANT", "make_workspace", "objective_phi", "gradient",
    "constancy_metric", "initial_coeffs", "search",
    "CheckResult", "VerificationReport", "VerifyConfig", "run_verification",
]
