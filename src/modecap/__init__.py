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

from importlib import import_module

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
    dof_normalized_breakdown,
    effective_time,
    truncation_indices,
)
from .errors import ConfigError, DomainError, ModecapError, ResolutionError

# Loading NumPy costs more than the closed form costs to run, so importing
# the package does not: dofcore imports NumPy only inside its array
# functions, and the simulate/verify layers, which import it at the top,
# load with their names on first access (PEP 562).  specfun comes first: the
# other two import it anyway.
_LAZY_LAYERS = ("specfun", "sampling", "wavefield")


def __getattr__(name: str):
    # Nothing is cached in this namespace, so `modecap.<name>` always reads
    # the defining module's current binding.
    if name in __all__:
        for layer in _LAZY_LAYERS:
            module = import_module(f".{layer}", __name__)
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


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
    "dof_normalized_breakdown",
    "dof_asymptotic",
    # specfun
    "QuadratureRule",
    "sph_bessel_j",
    "sph_bessel_j_bound",
    "legendre_p",
    "harmonic_matrix",
    "flat_degrees",
    "make_quadrature",
    # sampling
    "ModeBand",
    "SampleTrain",
    "fourier_coefficients",
    "phi_basis",
    "phi_inner",
    "reconstruct",
    "legendre_support_check",
    # wavefield
    "PlaneWaveSource",
    "ModeSpectrum",
    "NoiseModel",
    "ModeCutoff",
    "CheckedProperty",
    "SimulationResult",
    "synthesize_field",
    "theoretical_modes",
    "analyze_modes",
    "add_noise",
    "mode_snr",
    "empirical_critical_frequency",
    "parseval_check",
    "mode_cutoffs",
    "simulate",
    "verify_invariants",
]
