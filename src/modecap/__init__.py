"""modecap: degrees-of-freedom bounds for band-limited wavefields observed
over finite spherical and temporal windows.

The package computes the closed-form upper bound on the number of degrees of
freedom such a field can carry (with its spatial / full-band / partial-band
breakdown), the exact per-mode sum it dominates, and the supporting
machinery: spherical special functions and quadrature, per-mode bandpass
sampling and reconstruction, and a brute-force plane-wave simulation engine
for empirical verification.  The ``modecap`` console script exposes all of
it as ``compute``, ``sweep``, ``simulate`` and ``verify`` subcommands.
"""
from __future__ import annotations

from .dofcore import (
    EPI,
    DofBreakdown,
    ModeBandArrays,
    ModeBandwidthProfile,
    ModeEntry,
    NormalizedParams,
    Scenario,
    bandwidth_arrays,
    bandwidth_profile,
    critical_frequency,
    dof_asymptotic,
    dof_closed_form,
    dof_mode_sum,
    dof_normalized,
    dof_normalized_breakdown,
    dof_special_cases,
    effective_time,
    truncation_indices,
)
from .errors import ConfigError, DomainError, ModecapError, ResolutionError
from .sampling import (
    ModeBand,
    SampleTrain,
    fourier_coefficients,
    legendre_support_check,
    mode_time_signal,
    phi_basis,
    phi_inner,
    reconstruct,
)
from .specfun import (
    ModeIndex,
    QuadratureRule,
    flat_degrees,
    harmonic_matrix,
    legendre_p,
    make_quadrature,
    mode_indices,
    sph_bessel_j,
    sph_bessel_j_bound,
    sph_harmonic,
    sphere_integrate,
)
from .wavefield import (
    ModeSpectrum,
    NoiseModel,
    PlaneWaveSource,
    SphericalGrid,
    add_noise,
    analyze_modes,
    empirical_critical_frequency,
    mode_snr,
    parseval_check,
    synthesize_field,
    theoretical_modes,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ModecapError",
    "ConfigError",
    "DomainError",
    "ResolutionError",
    # dofcore
    "EPI",
    "Scenario",
    "NormalizedParams",
    "ModeEntry",
    "ModeBandwidthProfile",
    "ModeBandArrays",
    "DofBreakdown",
    "effective_time",
    "critical_frequency",
    "truncation_indices",
    "bandwidth_arrays",
    "bandwidth_profile",
    "dof_mode_sum",
    "dof_closed_form",
    "dof_normalized",
    "dof_normalized_breakdown",
    "dof_asymptotic",
    "dof_special_cases",
    # specfun
    "ModeIndex",
    "QuadratureRule",
    "sph_bessel_j",
    "sph_bessel_j_bound",
    "legendre_p",
    "sph_harmonic",
    "harmonic_matrix",
    "mode_indices",
    "flat_degrees",
    "make_quadrature",
    "sphere_integrate",
    # sampling
    "ModeBand",
    "SampleTrain",
    "mode_time_signal",
    "fourier_coefficients",
    "phi_basis",
    "phi_inner",
    "reconstruct",
    "legendre_support_check",
    # wavefield
    "PlaneWaveSource",
    "SphericalGrid",
    "ModeSpectrum",
    "NoiseModel",
    "synthesize_field",
    "theoretical_modes",
    "analyze_modes",
    "add_noise",
    "mode_snr",
    "empirical_critical_frequency",
    "parseval_check",
]
