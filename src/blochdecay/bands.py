"""Bloch bands of the 1-D cosine lattice in recoil units.

Everything here is dimensionless: energies in units of the recoil energy
E_rec = hbar^2 pi^2 / (2 m d_L^2), quasimomentum k in units of pi/d_L so
that the first Brillouin zone is B = [-1, 1), times in hbar/E_rec.

The lattice potential (V/2) cos(2 pi x / d_L) couples plane waves
exp(i (k + 2n) pi x / d_L) that differ by one reciprocal-lattice vector
with strength v0/4, giving a real symmetric tridiagonal Hamiltonian with
diagonal (k + 2n)^2, n = -cutoff..cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

DEFAULT_CUTOFF = 32
DEFAULT_GRID_SIZE = 512
MIN_CUTOFF = 4


class EigensolverError(RuntimeError):
    """Tridiagonal eigensolver failed to converge."""


@dataclass(frozen=True, eq=False)
class LatticeParams:
    """Dimensionless lattice depth v0 = V/E_rec and force f0 = F d_L/E_rec.

    f0 may be an array of forces at one depth (bloch_period is then one too);
    every element is validated.  Instances compare by identity.
    """

    v0: float
    f0: float | np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.v0) and self.v0 >= 0):
            raise ValueError(f"lattice depth must be finite and >= 0, got v0={self.v0}")
        if not np.all(np.isfinite(self.f0) & (self.f0 > 0)):
            raise ValueError(f"force must be finite and > 0, got f0={self.f0}")

    @property
    def bloch_period(self) -> float | np.ndarray:
        """T_B = 2 pi / f0 in units of hbar/E_rec."""
        return 2.0 * math.pi / self.f0


@dataclass(frozen=True, eq=False)
class BlochHamiltonian:
    """Plane-wave Hamiltonian at fixed quasimomentum, stored as tridiagonal bands."""

    k: float
    cutoff: int
    diagonal: np.ndarray
    off_diagonal: np.ndarray


@dataclass(frozen=True, eq=False)
class BandTable:
    """Band energies E_alpha(k) on a uniform grid covering B = [-1, 1)."""

    k_grid: np.ndarray
    energies: np.ndarray  # shape (grid_size, n_bands), ascending per row


def build_bloch_hamiltonian(params: LatticeParams, k: float,
                            cutoff: int = DEFAULT_CUTOFF) -> BlochHamiltonian:
    """Hamiltonian at quasimomentum k in the truncated plane-wave basis."""
    if not math.isfinite(k):
        raise ValueError(f"quasimomentum must be finite, got k={k}")
    if abs(k) > 1.0:
        raise ValueError(f"quasimomentum outside the Brillouin zone: k={k}")
    if cutoff < MIN_CUTOFF:
        raise ValueError(f"cutoff >= {MIN_CUTOFF} required for a usable basis, got {cutoff}")
    n = np.arange(-cutoff, cutoff + 1)
    diagonal = (k + 2.0 * n) ** 2
    off_diagonal = np.full(2 * cutoff, params.v0 / 4.0)
    return BlochHamiltonian(k=k, cutoff=cutoff, diagonal=diagonal,
                            off_diagonal=off_diagonal)


def lowest_eigenpairs(h: BlochHamiltonian, n: int, vectors: bool = False):
    """Lowest n eigenvalues of h in ascending order.

    With vectors=True returns (eigenvalues, eigenvectors as columns).
    Raises EigensolverError when LAPACK fails.
    """
    try:
        return scipy.linalg.eigh_tridiagonal(
            h.diagonal, h.off_diagonal, eigvals_only=not vectors, select="i",
            select_range=(0, n - 1))
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise EigensolverError(f"eigensolver failed at k={h.k}: {exc}") from exc


def check_band_grid(n_bands: int, grid_size: int, cutoff: int) -> None:
    """Raise ValueError unless band_energies can tabulate n_bands on this grid."""
    if cutoff < MIN_CUTOFF:
        raise ValueError(f"cutoff >= {MIN_CUTOFF} required for a usable basis, got {cutoff}")
    if n_bands < 1 or n_bands > cutoff:
        raise ValueError(f"need 1 <= n_bands <= cutoff, got n_bands={n_bands}, cutoff={cutoff}")
    if grid_size < 16:
        raise ValueError(f"grid_size >= 16 required, got {grid_size}")


def band_energies(params: LatticeParams, n_bands: int = 3,
                  grid_size: int = DEFAULT_GRID_SIZE,
                  cutoff: int = DEFAULT_CUTOFF) -> BandTable:
    """Lowest n_bands band energies on a uniform k grid over [-1, 1).

    Bands are indexed by sorted eigenvalue order at each k; the bands of
    the cosine lattice do not cross, so sorting is a valid labeling.
    """
    check_band_grid(n_bands, grid_size, cutoff)
    k_grid = -1.0 + 2.0 * np.arange(grid_size) / grid_size
    energies = np.empty((grid_size, n_bands))
    for i, k in enumerate(k_grid):
        h = build_bloch_hamiltonian(params, k, cutoff)
        energies[i] = lowest_eigenpairs(h, n_bands)
    return BandTable(k_grid=k_grid, energies=energies)


def mean_band_gap(params: LatticeParams, grid_size: int = DEFAULT_GRID_SIZE,
                  cutoff: int = DEFAULT_CUTOFF) -> float:
    """Brillouin-zone average of E_2(k) - E_1(k).

    The grid covers [-1, 1) without the duplicate endpoint, so the
    periodic trapezoidal rule reduces to the plain mean of the samples.
    """
    table = band_energies(params, n_bands=2, grid_size=grid_size, cutoff=cutoff)
    return float(np.mean(table.energies[:, 1] - table.energies[:, 0]))


def bloch_phase(params: LatticeParams, mean_gap: float) -> float:
    """Interband phase accumulated over one Bloch cycle: -2 pi <dE> / f0.

    Returned unwrapped (not reduced mod 2 pi); consumers reduce when needed.
    """
    if not (math.isfinite(mean_gap) and mean_gap > 0):
        raise ValueError(f"mean_gap must be finite and > 0, got {mean_gap}")
    return -2.0 * math.pi * mean_gap / params.f0
