"""Decay dynamics of a Bloch state in an accelerated 1-D optical lattice.

Two levels of description of the same system: exact single-particle
Schrodinger evolution in a truncated plane-wave basis, and a per-cycle
non-unitary 2x2 step map whose spectrum yields the asymptotic decay rate
gamma and the wave-function renormalization parameter Z.

The exports resolve on first use (PEP 562), so importing the package
loads no numpy: the CLI sets its BLAS thread default before numpy loads.
"""

import importlib

_EXPORTS = {
    "bands": ("BandTable", "EigensolverError", "LatticeParams", "band_energies", "bloch_phase",
              "build_bloch_hamiltonian", "mean_band_gap"),
    "dynamics": ("HoustonState", "NormDriftError", "SolverConfig", "TraceTooShortError",
                 "band_projections", "band_survival", "evolve_lattice", "extract_plateaus",
                 "lz_two_level_ode", "trace_rows"),
    "stepmodel": ("DegenerateSpectrumError", "ExpFit", "RenormFit", "SpectralData",
                  "StepIngredients", "SurvivalSeries", "compare_models", "default_window",
                  "evolve_steps", "fit_exponential", "gamma_asymptotic", "gamma_sequence",
                  "lz_probability", "p_lz_12", "renorm_fit", "ret_resonances",
                  "spectral_decompose", "step_operator", "z_exact", "z_first_order",
                  "z_running_estimate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule: blochdecay.dynamics needs no import of its own
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
