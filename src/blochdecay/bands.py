"""Bloch bands of the 1-D cosine lattice in recoil units.

Everything here is dimensionless: energies in units of the recoil energy
E_rec = hbar^2 pi^2 / (2 m d_L^2), quasimomentum k in units of pi/d_L so
that the first Brillouin zone is B = [-1, 1), times in hbar/E_rec.

The lattice potential (V/2) cos(2 pi x / d_L) couples plane waves
exp(i (k + 2n) pi x / d_L) that differ by one reciprocal-lattice vector
with strength v0/4, giving a real symmetric tridiagonal Hamiltonian with
diagonal (k + 2n)^2, n = -cutoff..cutoff, stored dense so that one LAPACK
call diagonalizes a whole stack of quasimomenta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Holds the two lowest bands for v0 up to ~100; mean_band_gap checks it.
DEFAULT_CUTOFF = 10
DEFAULT_GRID_SIZE = 512
MIN_CUTOFF = 4
# Largest relative change of the mean gap from cutoff c to c + 2.
GAP_CONVERGENCE_TOL = 1e-12
# Most matrix elements band_energies diagonalizes in one call (32 MB of
# float64), so its memory is bounded whatever the grid; the default grid
# at cutoffs up to 32 is one call.
_CHUNK_ELEMENTS = 2 ** 22


class EigensolverError(RuntimeError):
    """Symmetric eigensolver failed to converge."""


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
class BandTable:
    """Band energies E_alpha(k) on a uniform grid covering B = [-1, 1)."""

    k_grid: np.ndarray
    energies: np.ndarray  # shape (grid_size, n_bands), ascending per row


def build_bloch_hamiltonian(params: LatticeParams, k: float | np.ndarray,
                            cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Dense Hamiltonians (..., dim, dim) at every quasimomentum of k, each validated."""
    k = np.asarray(k, dtype=float)
    bad = k[~(np.abs(k) <= 1.0)]  # nan fails the comparison too
    if bad.size:
        raise ValueError(f"quasimomentum must be finite and in [-1, 1], got k={bad[0]}")
    if cutoff < MIN_CUTOFF:
        raise ValueError(f"cutoff >= {MIN_CUTOFF} required for a usable basis, got {cutoff}")
    i = np.arange(2 * cutoff + 1)
    h = np.zeros(k.shape + (len(i), len(i)))
    h[..., i, i] = (k[..., None] + 2.0 * (i - cutoff)) ** 2
    h[..., i[:-1], i[1:]] = h[..., i[1:], i[:-1]] = params.v0 / 4.0
    return h


def lowest_eigenpairs(h: np.ndarray, n: int, vectors: bool = False):
    """Lowest n eigenvalues of each symmetric matrix in h (..., dim, dim), ascending.

    With vectors=True returns (eigenvalues, eigenvectors as columns).
    Raises EigensolverError when LAPACK fails.
    """
    try:
        if vectors:
            w, v = np.linalg.eigh(h)
            return w[..., :n], v[..., :n]
        return np.linalg.eigvalsh(h)[..., :n]
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed: {exc}") from exc


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
    the cosine lattice do not cross, so sorting is a valid labeling.  The
    grid is diagonalized in chunks of at most _CHUNK_ELEMENTS matrix elements.
    """
    check_band_grid(n_bands, grid_size, cutoff)
    k_grid = -1.0 + 2.0 * np.arange(grid_size) / grid_size
    chunk = max(1, _CHUNK_ELEMENTS // (2 * cutoff + 1) ** 2)
    energies = np.concatenate([
        lowest_eigenpairs(build_bloch_hamiltonian(params, k_grid[i:i + chunk], cutoff), n_bands)
        for i in range(0, grid_size, chunk)])
    return BandTable(k_grid=k_grid, energies=energies)


def mean_band_gap(params: LatticeParams, grid_size: int = DEFAULT_GRID_SIZE,
                  cutoff: int = DEFAULT_CUTOFF) -> float:
    """Brillouin-zone average of E_2(k) - E_1(k).

    The grid covers [-1, 1) without the duplicate endpoint, so the
    periodic trapezoidal rule reduces to the plain mean of the samples.
    Raises ValueError naming the cutoff when the mean at cutoff + 2 differs
    by more than GAP_CONVERGENCE_TOL relative.
    """
    gap, check = (float(np.mean(np.diff(band_energies(params, 2, grid_size, c).energies)))
                  for c in (cutoff, cutoff + 2))
    if abs(check - gap) > GAP_CONVERGENCE_TOL * abs(check):
        raise ValueError(f"mean band gap not converged at cutoff {cutoff}: it moves by "
                         f"{abs(check - gap) / abs(check):.1e} relative at cutoff {cutoff + 2} "
                         f"(tolerance {GAP_CONVERGENCE_TOL}); increase the cutoff")
    return gap


def bloch_phase(params: LatticeParams, mean_gap: float) -> float:
    """Interband phase accumulated over one Bloch cycle: -2 pi <dE> / f0.

    Returned unwrapped (not reduced mod 2 pi); consumers reduce when needed.
    """
    if not (math.isfinite(mean_gap) and mean_gap > 0):
        raise ValueError(f"mean_gap must be finite and > 0, got {mean_gap}")
    return -2.0 * math.pi * mean_gap / params.f0
