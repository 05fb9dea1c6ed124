"""Non-unitary two-level step map for interband decay per Bloch cycle.

One Bloch cycle of the tilted lattice is condensed into a single 2x2 map
U acting on the (band-1, band-2) amplitudes at fixed quasimomentum:

  - at the zone edge the avoided crossing mixes the bands through an
    orthogonal rotation with survival amplitude s12 and transition
    amplitude p12 = sqrt(1 - s12^2);
  - between crossings band 2 loses a fraction 1 - s23^2 of its
    population to the (effectively free) higher bands and acquires the
    relative phase phi with respect to band 1,

so U = R(s12) . diag(1, s23 e^{i phi}).  U is contractive with singular
values {1, s23}; iterating it yields the stepped survival probability
P_n, the asymptotic decay rate gamma = -ln |e1|^2, and the intercept Z
of the back-extrapolated exponential envelope.

The chain from_lattice -> step_operator -> spectral_decompose -> z_exact /
gamma_asymptotic broadcasts over an array of forces at one depth: a sweep
is one call, and a scalar force is the 0-d case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import LatticeParams, bloch_phase, mean_band_gap

MODULUS_TIE_TOL = 1e-12


class DegenerateSpectrumError(ValueError):
    """Step-operator eigenvalues have equal moduli; asymptotics undefined."""


def lz_probability(alpha: float, delta: float) -> float:
    """Two-level sweep transition probability exp(-pi delta^2 / alpha), hbar = 1."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"sweep rate must be > 0, got alpha={alpha}")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"coupling must be >= 0, got delta={delta}")
    return math.exp(-math.pi * delta ** 2 / alpha)


def _lz_exponent_12(params: LatticeParams) -> float | np.ndarray:
    return math.pi ** 2 * params.v0 ** 2 / (32.0 * params.f0)


def _lz_exponent_23(params: LatticeParams) -> float | np.ndarray:
    return math.pi ** 2 * params.v0 ** 4 / (16384.0 * params.f0)


def p_lz_12(params: LatticeParams) -> float | np.ndarray:
    """Zener jump probability out of band 1 at the zone-edge crossing.

    exp(-pi^2 v0^2 / (32 f0)): the sweep rate is set by the force, the
    half-gap by v0/4.  Goes to 1 at zero depth (free particle never
    Bragg-reflects) and to 0 in the adiabatic limit f0 -> 0.
    """
    return np.exp(-_lz_exponent_12(params))


def p_lz_23(params: LatticeParams) -> float | np.ndarray:
    """Zener jump probability from band 2 to band 3 at the zone-center crossing.

    exp(-pi^2 v0^4 / (2^14 f0)); the band-2/3 half-gap is v0^2/64 (second
    order in the lattice coupling).  The band-2 survival amplitude per
    cycle is s23 = sqrt(1 - p_lz_23).
    """
    return np.exp(-_lz_exponent_23(params))


@dataclass(frozen=True)
class StepIngredients:
    """Amplitudes and phase entering the per-cycle step operator.

    s12 is the amplitude to remain in band 1 across the edge crossing
    (the adiabatic branch), s23 the amplitude for band 2 to survive
    against loss to band 3, phi the interband phase per cycle.  Each may
    be a scalar or an array; every element is validated.
    """

    s12: float | np.ndarray
    s23: float | np.ndarray
    phi: float | np.ndarray

    def __post_init__(self):
        if not np.all((self.s12 >= 0.0) & (self.s12 <= 1.0)):
            raise ValueError(f"need 0 <= s12 <= 1, got {self.s12}")
        if not np.all((self.s23 >= 0.0) & (self.s23 <= 1.0)):
            raise ValueError(f"need 0 <= s23 <= 1, got {self.s23}")
        if not np.all(np.isfinite(self.phi)):
            raise ValueError(f"phase must be finite, got {self.phi}")

    @property
    def p12(self) -> float | np.ndarray:
        """Interband transition amplitude, sqrt(1 - s12^2) by construction."""
        return np.sqrt(np.maximum(0.0, 1.0 - self.s12 ** 2))

    @classmethod
    def from_lattice(cls, params: LatticeParams,
                     mean_gap: float | None = None) -> "StepIngredients":
        """Derive the step amplitudes from the lattice parameters.

        Surviving band 1 means following the adiabatic branch through the
        edge crossing, so s12^2 = 1 - p_lz_12; likewise s23^2 = 1 - p_lz_23.
        Both are formed as -expm1(-x) from the Zener exponent x, which keeps
        full precision at shallow depth, where p is close to 1.
        mean_gap is computed from the band structure when not supplied.
        """
        if mean_gap is None:
            mean_gap = mean_band_gap(params)
        return cls(
            s12=np.sqrt(-np.expm1(-_lz_exponent_12(params))),
            s23=np.sqrt(-np.expm1(-_lz_exponent_23(params))),
            phi=bloch_phase(params, mean_gap),
        )


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigensystem of the step operator, |e1| >= |e2|, eigenvectors normalized.

    The eigenvectors are in general non-orthogonal; c1, c2 expand the
    initial band-1 state as (1, 0) = c1 psi1 + c2 psi2.  For a batch of
    operators every field gains the batch shape as its leading axes;
    degenerate flags the points whose asymptotics are undefined, and all
    their other fields are nan.
    """

    e1: complex
    e2: complex
    psi1: np.ndarray
    psi2: np.ndarray
    c1: complex
    c2: complex
    degenerate: bool | np.ndarray


@dataclass(frozen=True, eq=False)
class SurvivalSeries:
    """Band-1 survival P_n on the plateaus centered at t = n t_bloch, P_0 = 1.

    The exact trace and the step model both produce one; the n-th plateau
    extends to the (n+1)-th crossing at t_bloch (n + 1/2).
    """

    probabilities: np.ndarray
    t_bloch: float

    def __len__(self) -> int:
        return len(self.probabilities)

    @property
    def times(self) -> np.ndarray:
        return self.t_bloch * np.arange(len(self.probabilities))


@dataclass(frozen=True, eq=False)
class RenormFit:
    """Asymptotic per-cycle rate and renormalization, and how far Z_N has settled."""

    gamma: float
    z: float
    converged: bool
    tol_achieved: float


def step_operator(ing: StepIngredients) -> np.ndarray:
    """One-cycle map U = R(s12) diag(1, s23 e^{i phi}), a complex (..., 2, 2) array.

    U acts on the (band-1, band-2) amplitudes.  The order of the two
    factors is immaterial for the iteration started in band 1, since the
    diagonal factor acts trivially on (1, 0).
    """
    w = np.cos(ing.phi) + 1j * np.sin(ing.phi)
    shape = np.broadcast_shapes(np.shape(ing.s12), np.shape(ing.s23), np.shape(w))
    m = np.empty(shape + (2, 2), dtype=complex)
    m[..., 0, 0] = ing.s12
    m[..., 0, 1] = -ing.p12 * ing.s23 * w
    m[..., 1, 0] = ing.p12
    m[..., 1, 1] = ing.s12 * ing.s23 * w
    return m


def evolve_steps(u: np.ndarray, n_steps: int, t_bloch: float = 1.0) -> SurvivalSeries:
    """Iterate the step map from band 1 and record P_n = |<1|U^n|1>|^2.

    Direct matrix-vector iteration, kept independent of the spectral
    formulas so each can check the other.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps >= 1 required, got {n_steps}")
    if not (math.isfinite(t_bloch) and t_bloch > 0):
        raise ValueError(f"t_bloch must be > 0, got {t_bloch}")
    v = np.array([1.0 + 0.0j, 0.0 + 0.0j])
    probs = np.empty(n_steps + 1)
    probs[0] = 1.0
    for n in range(1, n_steps + 1):
        v = u @ v
        probs[n] = abs(v[0]) ** 2
    return SurvivalSeries(probabilities=probs, t_bloch=float(t_bloch))


def spectral_decompose(u: np.ndarray) -> SpectralData:
    """Eigenvalues ordered by modulus and the expansion of the initial state.

    |e1| and |e2| coinciding within 1e-12 leaves the asymptotic rate and Z
    undefined: a single operator raises DegenerateSpectrumError, a batch
    flags the point in SpectralData.degenerate.
    """
    lam, vec = np.linalg.eig(u)
    order = np.argsort(-np.abs(lam), axis=-1)
    lam = np.take_along_axis(lam, order, axis=-1)
    vec = np.take_along_axis(vec, order[..., None, :], axis=-1)
    mod = np.abs(lam)
    degenerate = np.abs(mod[..., 0] - mod[..., 1]) < MODULUS_TIE_TOL
    if degenerate.ndim == 0 and degenerate:
        raise DegenerateSpectrumError(
            f"eigenvalue moduli coincide: |e1|={mod[0]}, |e2|={mod[1]}")
    vec = vec / np.linalg.norm(vec, axis=-2, keepdims=True)
    # A tie may come with parallel eigenvectors (v0 = 0 is nilpotent); give
    # flagged points an invertible basis so the batched solve cannot fail.
    vec[degenerate] = np.eye(2)
    # (2, 1) right-hand sides: NumPy 1.x does not broadcast a 1-D one
    c = np.linalg.solve(vec, np.broadcast_to([[1.0], [0.0]], vec.shape[:-1] + (1,)))[..., 0]
    lam[degenerate] = c[degenerate] = vec[degenerate] = np.nan
    # [()] turns the 0-d results of a single operator into scalars
    return SpectralData(e1=lam[..., 0][()], e2=lam[..., 1][()],
                        psi1=vec[..., 0], psi2=vec[..., 1],
                        c1=c[..., 0][()], c2=c[..., 1][()],
                        degenerate=degenerate)


def gamma_asymptotic(sd: SpectralData) -> float | np.ndarray:
    """Asymptotic decay rate per Bloch cycle, -ln |e1|^2."""
    return -2.0 * np.log(np.abs(sd.e1))


def gamma_sequence(series: SurvivalSeries) -> tuple[np.ndarray, bool]:
    """Per-step rates gamma_n = -ln(P_{n+1}/P_n).

    Returns (rates, truncated); truncated is True when a vanishing P_n
    cut the sequence short.
    """
    p = series.probabilities
    n_zero = np.nonzero(p == 0.0)[0]
    truncated = bool(len(n_zero))
    stop = int(n_zero[0]) if truncated else len(p)
    rates = -np.log(p[1:stop] / p[:stop - 1]) if stop >= 2 else np.empty(0)
    return rates, truncated


def z_exact(sd: SpectralData) -> float | np.ndarray:
    """Renormalization parameter Z = |c1|^2 |<1|psi1>|^2.

    The squared overlap between the initial state and the dominant-mode
    back-extrapolation c1 psi1; may fall on either side of 1.
    """
    return np.abs(sd.c1) ** 2 * np.abs(sd.psi1[..., 0]) ** 2


def z_first_order(ing: StepIngredients) -> float:
    """First-order estimate Z_1 = 1 + 2 s23 (p12/s12)^2 cos(phi).

    Accurate to O(s23^2) relative to z_exact; the leading correction to
    pure cascade decay, already visible in the second step.
    """
    if ing.s12 <= 0:
        raise ValueError("s12 > 0 required for the first-order estimate")
    return 1.0 + 2.0 * ing.s23 * (ing.p12 / ing.s12) ** 2 * math.cos(ing.phi)


def z_running_estimate(series: SurvivalSeries, n: int) -> float:
    """Running estimate Z_N = exp(N gamma_N - sum_{m<N} gamma_m).

    Converges to z_exact geometrically with ratio |e2/e1|.
    """
    if n < 1:
        raise ValueError(f"N >= 1 required, got {n}")
    if n + 1 >= len(series):
        raise ValueError(
            f"series too short: need at least N + 2 = {n + 2} entries, have {len(series)}")
    rates, truncated = gamma_sequence(series)
    if truncated and len(rates) <= n:
        raise ValueError("survival vanished before step N; Z_N undefined")
    return float(np.exp(n * rates[n] - np.sum(rates[:n])))


def ret_resonances(params: LatticeParams, mean_gap: float, j_max: int) -> np.ndarray:
    """Forces f0 = <dE>/j, j = 1..j_max, where the per-cycle phase winds by -2 pi j.

    At these forces the interference between successive crossings is
    constructive and the decay rate is resonantly enhanced.
    """
    if not (math.isfinite(mean_gap) and mean_gap > 0):
        raise ValueError(f"mean_gap must be > 0, got {mean_gap}")
    if j_max < 1:
        raise ValueError(f"j_max >= 1 required, got {j_max}")
    return mean_gap / np.arange(1, j_max + 1, dtype=float)


def renorm_fit(u: np.ndarray, series: SurvivalSeries, z_tol: float = 1e-8) -> RenormFit:
    """The spectral (gamma, Z) of u and how far Z_N has settled along series.

    series is the caller's evolve_steps(u, ...) output, so u is iterated once.

    tol_achieved is |Z_N - Z_{N-1}| at the last N the series supports and
    converged reflects tol_achieved < z_tol; the geometric convergence of
    Z_N makes the absolute-difference test safe.
    """
    sd = spectral_decompose(u)
    n = len(gamma_sequence(series)[0]) - 1
    if n >= 2:
        tol_achieved = abs(z_running_estimate(series, n) - z_running_estimate(series, n - 1))
    else:
        tol_achieved = math.inf
    return RenormFit(gamma=gamma_asymptotic(sd), z=z_exact(sd),
                     converged=tol_achieved < z_tol, tol_achieved=tol_achieved)
