"""Decay dynamics of a Bloch state in an accelerated 1-D optical lattice.

Two levels of description of the same system: exact single-particle
Schrodinger evolution in a truncated plane-wave basis, and a per-cycle
non-unitary 2x2 step map whose spectrum yields the asymptotic decay rate
gamma and the wave-function renormalization parameter Z.
"""

from .bands import (BandTable, EigensolverError, LatticeParams,
                    band_energies, bloch_phase, build_bloch_hamiltonian,
                    mean_band_gap)
from .dynamics import (HoustonState, NormDriftError, SolverConfig,
                       band_projections, band_survival, evolve_lattice,
                       lz_two_level_ode, trace_rows)
from .fitting import (ExpFit, TraceTooShortError, compare_models,
                      default_window, extract_plateaus, fit_exponential)
from .stepmodel import (DegenerateSpectrumError, RenormFit, SpectralData,
                        StepIngredients, SurvivalSeries, evolve_steps,
                        gamma_asymptotic, gamma_sequence, lz_probability,
                        p_lz_12, p_lz_23, renorm_fit, ret_resonances,
                        spectral_decompose, step_operator, z_exact,
                        z_first_order, z_running_estimate)

__version__ = "0.1.0"
