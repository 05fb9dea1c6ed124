"""Bloch bands of the 1-D cosine lattice in recoil units.

Everything here is dimensionless: energies in units of the recoil energy
E_rec = hbar^2 pi^2 / (2 m d_L^2), quasimomentum k in units of pi/d_L so
that the first Brillouin zone is B = [-1, 1), times in hbar/E_rec.

The lattice potential (V/2) cos(2 pi x / d_L) couples plane waves
exp(i (k + 2n) pi x / d_L) that differ by one reciprocal-lattice vector
with strength v0/4, giving a real symmetric tridiagonal Hamiltonian with
diagonal (k + 2n)^2, n = -cutoff..cutoff, stored dense so that one LAPACK
call diagonalizes a whole stack of quasimomenta.  lowest_eigenpairs is the
package's one symmetric eigensolver: it serves the band tables, band
projections, the start state and the two-level sweep's end hamiltonians,
and refines every vector it returns.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# Holds the two lowest bands for v0 up to ~100; mean_band_gap checks it.
DEFAULT_CUTOFF = 10
DEFAULT_GRID_SIZE = 512
MIN_CUTOFF = 4
# Largest relative change of the mean gap from cutoff c to c + 2.
GAP_CONVERGENCE_TOL = 1e-12
# Most matrix elements one batched call works on (512 kB of float64): the
# stack lowest_bands diagonalizes.  Memory stays bounded whatever the grid or
# the trace length.
_CHUNK_ELEMENTS = 2 ** 16
# The work budget of any one estimate check_work is given: memory and time.
MAX_WORK_BYTES = 2 ** 28
MAX_WORK_SECONDS = 3.0
# The prices check_work is given, each fitted in README's calibration table.
# Seconds per call, and flop/s, of the kernels (an eigensolve with vectors
# counts as two eigenvalue solves):
WIDE_STEP_S, SWEEP_STEP_S, WIDE_STEP_FLOP_RATE = 2.5e-4, 6e-5, 6e10
BAND_SOLVE_S, BAND_SOLVE_FLOP_RATE = 4e-6, 2e9  # eigenvalues only
STEP_PRODUCT_S = 3.5e-6  # one 2x2 step of evolve_steps and its survival value
# Bytes and seconds of one value a command holds or writes; each priced
# thing counts its own values:
VALUE_BYTES, VALUE_S = 20.0, 1e-6


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
        check_real("v0", self.v0, 0)
        check_real("f0", self.f0, 0, strict=True)

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
    with contextlib.suppress(TypeError, ValueError):  # what fails to convert is refused below
        k = np.asarray(k, dtype=float)
    check_real("k", k, -1, 1)
    i = np.arange(2 * check_count("cutoff", cutoff, MIN_CUTOFF) + 1)
    h = np.zeros(k.shape + (len(i), len(i)))
    h[..., i, i] = (k[..., None] + 2.0 * (i - cutoff)) ** 2
    h[..., i[:-1], i[1:]] = h[..., i[1:], i[:-1]] = params.v0 / 4.0
    return h


def lowest_eigenpairs(h: np.ndarray, n: int, vectors: bool = False):
    """Lowest n eigenvalues of each matrix in h (..., dim, dim), ascending.

    Each matrix is real symmetric tridiagonal with a constant off-diagonal.
    With vectors=True returns (eigenvalues, eigenvectors as columns), the
    lowest min(n + 1, dim) vectors refined by _separate_neighbours: the
    band-1 and band-2 vectors came within 1e-14 of 40-digit ones at every k
    and v0 (0.1 to 30) checked, k = 0 and -+1 included.  Raises a ValueError
    naming n unless 1 <= n <= dim, and EigensolverError when LAPACK fails.
    """
    check_count("n", n, 1, h.shape[-1])
    try:
        if not vectors:
            return np.linalg.eigvalsh(h)[..., :n]
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed: {exc}") from exc
    j = min(n + 1, h.shape[-1])
    return w[..., :n], _separate_neighbours(h, w[..., :j], v[..., :j])[..., :n]


def _separate_neighbours(h: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v (..., dim, j) after one Jacobi rotation of each pair of neighbouring columns.

    h is tridiagonal with a constant off-diagonal, and v holds its
    eigenvectors for the ascending eigenvalues w.  LAPACK's vectors are
    accurate to ~eps ||h|| / gap, and ||h|| ~ 4 cutoff^2 is set by edge modes
    the low bands hardly touch: at cutoff 10, v0 = 1 the band-2 vector mixes
    with band 3 by ~2e-12 at k = 0 and with band 1 by ~1e-13 at k = -+1,
    where the gaps are small.  The rotation angles come from the Ritz matrix
    diag(w) + v^T r, whose residuals r = (h - w) v are formed on the
    tridiagonal from the shifted diagonal, so no large product cancels; each
    rotation is orthogonal, so the columns stay orthonormal.
    """
    coupling = h[..., 1:2, :1]  # the off-diagonal, shaped to broadcast over (dim, j)
    v = v.copy()
    r = (np.diagonal(h, axis1=-2, axis2=-1)[..., :, None] - w[..., None, :]) * v
    r[..., 1:, :] += coupling * v[..., :-1, :]
    r[..., :-1, :] += coupling * v[..., 1:, :]
    e = v.swapaxes(-1, -2) @ r
    for a in range(v.shape[-1] - 1):
        b = a + 1
        theta = 0.5 * np.arctan2(e[..., a, b] + e[..., b, a],
                                 (w[..., b] - w[..., a]) + (e[..., b, b] - e[..., a, a]))
        c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
        va = v[..., a].copy()
        v[..., a] = c * va - s * v[..., b]
        v[..., b] = s * va + c * v[..., b]
    return v


def lowest_bands(params: LatticeParams, k: np.ndarray, cutoff: int, n: int,
                 vectors: bool = False):
    """lowest_eigenpairs of the Hamiltonians at the quasimomenta k (1-D), stacked over k.

    Diagonalizes in chunks of at most _CHUNK_ELEMENTS matrix elements.
    """
    check_count("n", n, 1, 2 * check_count("cutoff", cutoff, MIN_CUTOFF) + 1)
    chunk = max(1, _CHUNK_ELEMENTS // (2 * cutoff + 1) ** 2)
    parts = [lowest_eigenpairs(build_bloch_hamiltonian(params, k[i:i + chunk], cutoff), n, vectors)
             for i in range(0, len(k), chunk)]
    if vectors:
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def check_count(name: str, value, low: int, high: int | None = None) -> int:
    """value as an int, or a ValueError naming it unless it is an integer in [low, high].

    operator.index decides what is an integer: a float, 8.0 included, is never truncated.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not low <= count <= (math.inf if high is None else high):
        raise ValueError(f"{name} >= {low} required, got {value}" if high is None
                         else f"need {low} <= {name} <= {high}, got {name}={value}")
    return count


def check_real(name: str, value, low: float = -math.inf, high: float = math.inf,
               strict: bool = False) -> None:
    """Raise a ValueError naming value unless it is real, finite and in [low, high].

    strict=True refuses low itself.  value is a number or a real ndarray,
    checked elementwise, and the message names its first bad element.
    Nothing is converted: a str, a complex, None or a list is refused.
    """
    if not (value.dtype.kind in "biuf" if isinstance(value, (np.ndarray, np.generic))
            else isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    with contextlib.suppress(OverflowError):  # an int past the float range is refused below
        x = np.asarray(value, dtype=float)
        ok = np.isfinite(x) & (x > low if strict else x >= low) & (x <= high)
        if ok.all():
            return
        value = value[~ok][0] if isinstance(value, np.ndarray) else value
    if high < math.inf:
        raise ValueError(f"need {low} {'<' if strict else '<='} {name} <= {high}, "
                         f"got {name}={value}")
    if low > -math.inf:
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} {low}, got {value}")
    raise ValueError(f"{name} must be finite, got {value}")


def check_work(flags: str, cost, *sizes: int) -> None:
    """Raise ValueError unless cost(*sizes), an estimate (bytes, seconds), fits the budget.

    The one refusal of oversized work, before anything is allocated:
    dynamics._half_steps (for the two-level sweep, step_grid's build and
    trace, and cycle_map's build alone), check_band_grid,
    check_band_vectors, stepmodel.evolve_steps and the CLI's sweeps and
    resonance list each state their own cost through it, naming the flags
    that set it.  Each size is counted as a float in [0, 1e300], so a
    401-digit flag neither raises nor converts, and a cost that overflows
    is inf and refused.
    Nothing is timed at run time, so a refusal depends on the input alone:
    seconds are kernel calls times (seconds per call + flops per call /
    flop/s) plus VALUE_S per value computed or written, and bytes count
    VALUE_BYTES per value held.  README's calibration table is the one
    record of what each price was fitted to and how far it is from
    measured runs.
    """
    n_bytes, seconds = cost(*(float(min(max(n, 0), 10 ** 300)) for n in sizes))
    if not (n_bytes <= MAX_WORK_BYTES and seconds <= MAX_WORK_SECONDS):
        raise ValueError(f"{flags} need ~{n_bytes:.3g} bytes / ~{seconds:.3g} s (limit "
                         f"{MAX_WORK_BYTES} bytes / {MAX_WORK_SECONDS:g} s); reduce {flags}")


def check_band_grid(n_bands: int, grid_size: int, cutoff: int, n_depths: int = 1,
                    rows: int = 0) -> None:
    """Raise ValueError unless band_energies can tabulate n_bands on this grid.

    Also refuses, through check_work, a grid and cutoff whose band table or
    n_depths mean gaps (one per depth of a scaling sweep) would not fit the
    work budget: grid_size band eigensolves per depth at d = 2 cutoff + 1,
    8 (d + n_bands + 1) bytes per k point for the eigenvalues kept until
    the table is joined, 16 bytes per element of one chunk of hamiltonians,
    and the n_bands + 1 values of each of the rows bands writes (a mean gap
    writes none), priced as README's calibration table gives.
    """
    check_count("n_bands", n_bands, 1, check_count("cutoff", cutoff, MIN_CUTOFF))
    check_count("grid_size", grid_size, 16)
    def cost(grid, dim, bands, depths, rows):
        return (8.0 * grid * (dim + bands + 1.0) + 16.0 * max(_CHUNK_ELEMENTS, dim * dim),
                depths * grid * (BAND_SOLVE_S + 4.0 / 3.0 * dim * dim * dim / BAND_SOLVE_FLOP_RATE)
                + rows * (bands + 1.0) * VALUE_S)
    check_work("the grid, the cutoff and the depths", cost,
               grid_size, 2 * cutoff + 1, n_bands, n_depths, rows)


def check_band_vectors(n_samples: int, n_k: int, cutoff: int, n_bands: int) -> None:
    """Raise ValueError unless band_projections can project n_samples on n_k quasimomenta.

    The price of dynamics.band_projections, checked through check_work: for
    each of the n_k matrices, one eigensolve with vectors at d = 2 cutoff + 1
    and 16 (d + 1) n_bands bytes for its kept vectors and values and their
    joined copy; 32 bytes per element of one chunk of hamiltonians and their
    vectors; and each sample's n_bands populations as values, priced as
    README's calibration table gives.
    """
    def cost(samples, n_k, dim, bands):
        return (16.0 * n_k * (dim + 1.0) * bands + 32.0 * max(_CHUNK_ELEMENTS, dim * dim)
                + samples * bands * VALUE_BYTES,
                2.0 * n_k * (BAND_SOLVE_S + 4.0 / 3.0 * dim * dim * dim / BAND_SOLVE_FLOP_RATE)
                + samples * bands * VALUE_S)
    check_work("the samples, the distinct quasimomenta and the band cutoff", cost,
               n_samples, n_k, 2 * cutoff + 1, n_bands)


def band_energies(params: LatticeParams, n_bands: int = 3,
                  grid_size: int = DEFAULT_GRID_SIZE,
                  cutoff: int = DEFAULT_CUTOFF) -> BandTable:
    """Lowest n_bands band energies on a uniform k grid over [-1, 1).

    Bands are indexed by sorted eigenvalue order at each k; the bands of
    the cosine lattice do not cross, so sorting is a valid labeling.
    """
    check_band_grid(n_bands, grid_size, cutoff)
    k_grid = -1.0 + 2.0 * np.arange(grid_size) / grid_size
    return BandTable(k_grid=k_grid, energies=lowest_bands(params, k_grid, cutoff, n_bands))


def mean_band_gap(params: LatticeParams, grid_size: int = DEFAULT_GRID_SIZE,
                  cutoff: int = DEFAULT_CUTOFF) -> float:
    """Brillouin-zone average of E_2(k) - E_1(k).

    The mean over the uniform grid -1 + 2i/G, i = 0..G-1: the periodic
    trapezoidal rule without the duplicate endpoint.  E(k) = E(-k) pairs
    point i with point G - i, so only k = 1 - 2i/G, i = 0..G//2, is
    diagonalized: k = 1 (the same as -1) and, for even G, k = 0 count
    once, every other point twice.  The cutoff's LAPACK pair is refined by
    one Newton step (_newton_step) at the cutoff, which drops its roundoff,
    and checked by one at cutoff + 2.  Raises ValueError naming the cutoff
    when the mean moves by more than GAP_CONVERGENCE_TOL relative from the
    cutoff to cutoff + 2 (a move that is not finite, or a mean at cutoff + 2
    that is not positive, counts as infinite), or when the pair stepped at
    cutoff + 2 are not its two lowest eigenvalues, and naming the depth
    when the mean is not finite (v0 near 1e308).
    """
    check_band_grid(2, grid_size, cutoff)
    k_half = 1.0 - 2.0 * np.arange(grid_size // 2 + 1) / grid_size
    weights = np.full(len(k_half), 2.0)
    weights[0] = 1.0
    if grid_size % 2 == 0:
        weights[-1] = 1.0

    def mean(p):
        return float(np.sum(weights * np.diff(p)[:, 0])) / grid_size

    with np.errstate(over="ignore"):  # a sum past the float range is inf, refused below
        pair = lowest_bands(params, k_half, cutoff, 2)
        gap = mean(_newton_step(params.v0, k_half, pair, cutoff)[0])
        stepped, below = _newton_step(params.v0, k_half, pair, cutoff + 2)
        check = mean(stepped)
    if not math.isfinite(gap):  # a larger cutoff cannot help here
        raise ValueError(f"mean band gap not finite at cutoff {cutoff}: the sum of gaps "
                         f"overflows at depth v0={params.v0}; reduce the depth")
    moved = math.inf
    if np.all(below <= (1, 2)) and check > 0 and math.isfinite(check - gap):
        moved = abs(check - gap) / check
    if not moved <= GAP_CONVERGENCE_TOL:
        raise ValueError(f"mean band gap not converged at cutoff {cutoff}: it moves by "
                         f"{moved:.1e} relative at cutoff {cutoff + 2} "
                         f"(tolerance {GAP_CONVERGENCE_TOL}); increase the cutoff")
    return gap


def _newton_step(v0: float, k: np.ndarray, pair: np.ndarray, cutoff: int):
    """One Newton step on det(H(k) - x) at cutoff from each x of pair (len(k), 2).

    The determinant is the product of the LDL^T pivots
    q_i = a_i - x - b^2 / q_{i-1}, a_i = (k + 2 n_i)^2 and b = v0 / 4, so the
    step is -1 / sum q_i' / q_i: a few array operations per mode.  Everything
    is scaled by a power of two >= b, which is exact and keeps b^2 <= 1, so
    nothing overflows at any finite depth.  A pivot smaller than the
    roundoff of a_i - x, eps (a_i + |x|), or than LAPACK's pivmin, puts x at
    an eigenvalue of a leading block (parity does that to band 2 at k = 0);
    it is set to +that bound, which counts the eigenvalue as not below x and
    keeps the derivative finite, where pivmin alone overflows it.  Returns
    the stepped pair and the count of negative pivots at each start, which
    by Sylvester's law is the number of eigenvalues below it.  From E_1, E_2
    at a smaller cutoff, interlacing puts the j-th eigenvalue at or below
    E_j, so counts of at most j bracket E_j between the j-th eigenvalue and
    the next, and the step refines the j-th.  Works in chunks of k of at
    most _CHUNK_ELEMENTS / 2 pivots, so its few arrays of pivots stay within
    the one chunk of hamiltonians check_band_grid prices, whatever the grid.
    """
    rows = max(1, _CHUNK_ELEMENTS // (8 * cutoff + 4))
    if len(k) > rows:
        parts = [_newton_step(v0, k[i:i + rows], pair[i:i + rows], cutoff)
                 for i in range(0, len(k), rows)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    scale = 2.0 ** max(0, math.frexp(v0 / 4.0)[1])
    b2 = (v0 / 4.0 / scale) ** 2
    x = pair / scale
    a = ((k + 2.0 * np.arange(-cutoff, cutoff + 1)[:, None]) ** 2 / scale)[..., None]
    floors = np.finfo(float).eps * (a + np.abs(x)) + np.finfo(float).tiny
    pivots = a - x  # each row becomes q_i in turn
    slope = np.zeros_like(x)  # (ln det)' = sum q_i' / q_i
    t = r = 0.0  # b^2 / q_{i-1} and q_{i-1}' / q_{i-1}
    for q, floor in zip(pivots, floors):
        q -= t
        np.copyto(q, floor, where=np.abs(q) < floor)
        r = (t * r - 1.0) / q  # q_i' = -1 + (b^2 / q_{i-1}) q_{i-1}' / q_{i-1}
        slope += r
        t = b2 / q
    below = np.count_nonzero(pivots < 0, axis=0)
    # Weyl's bound puts every eigenvalue within 2 b of the diagonal, so at b <= eps
    # LAPACK's pair is as good as a step, and exact at v0 = 0
    if v0 / 4.0 <= np.finfo(float).eps:
        return pair, below
    return scale * (x - 1.0 / slope), below


def bloch_phase(params: LatticeParams, mean_gap: float) -> float:
    """Interband phase accumulated over one Bloch cycle: -2 pi <dE> / f0.

    Returned unwrapped (not reduced mod 2 pi); consumers reduce when needed.
    """
    check_real("mean_gap", mean_gap, 0, strict=True)
    return -2.0 * math.pi * mean_gap / params.f0
