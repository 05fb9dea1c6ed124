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
P_n.  Its spectrum gives the rest as poles and residues: the survival
amplitude is <1|U^n|1> = d1 e1^n + d2 e2^n with |e1| >= |e2|, so the
asymptotic decay rate is gamma = -ln |e1|^2 and the renormalization, the
intercept of the back-extrapolated exponential envelope, is Z = |d1|^2.

The chain from_lattice -> step_operator -> spectral_decompose -> z_exact /
gamma_asymptotic broadcasts over an array of forces at one depth: a sweep
is one call, and a scalar force is the 0-d case of the same code.

fit_exponential reads a SurvivalSeries of either description, the step
model's or the exact plateaus (dynamics.extract_plateaus), as a line in
(t, ln P) over a late window: rate gamma, z = exp(ln P at t = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import (STEP_PRODUCT_S, LatticeParams, bloch_phase, check_count, check_work,
                    mean_band_gap)

MODULUS_TIE_TOL = 1e-12
# renorm_fit's Z_N has converged when it moves by less than this in the last step.
Z_CONVERGENCE_TOL = 1e-8
DEFAULT_WINDOW_START = 6
DEFAULT_WINDOW_END = 14


class DegenerateSpectrumError(ValueError):
    """Step-operator eigenvalues have equal moduli; asymptotics undefined."""


def _check_sweep(alpha: float, delta: float) -> None:
    """The two-level sweep's inputs: a rate alpha > 0 and a coupling delta >= 0, both finite."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"sweep rate must be > 0, got alpha={alpha}")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"coupling must be >= 0, got delta={delta}")


def lz_probability(alpha: float, delta: float) -> float:
    """Two-level sweep transition probability exp(-pi delta^2 / alpha), hbar = 1.

    Where pi delta^2 passes the float range (delta >~ 7.6e153) the exponent
    divides by alpha first: 0 at alpha = 1, ~8.5e-4 at alpha = 1e308,
    delta = 1.5e154.
    """
    _check_sweep(alpha, delta)
    try:
        exponent = math.pi * delta ** 2
    except OverflowError:  # delta^2 itself is past the float range
        exponent = math.inf
    if exponent == math.inf:
        return math.exp(-math.pi * delta * (delta / alpha))
    return math.exp(-exponent / alpha)


def _lz_exponent_12(params: LatticeParams) -> float | np.ndarray:
    return math.pi ** 2 * params.v0 ** 2 / (32.0 * params.f0)


def _lz_exponent_23(params: LatticeParams) -> float | np.ndarray:
    """Zener exponent of the band-2/3 crossing at the zone center, half-gap v0^2/64."""
    return math.pi ** 2 * params.v0 ** 4 / (16384.0 * params.f0)


def p_lz_12(params: LatticeParams) -> float | np.ndarray:
    """Zener jump probability out of band 1 at the zone-edge crossing.

    exp(-pi^2 v0^2 / (32 f0)): the sweep rate is set by the force, the
    half-gap by v0/4.  Goes to 1 at zero depth (free particle never
    Bragg-reflects) and to 0 in the adiabatic limit f0 -> 0.
    """
    return np.exp(-_lz_exponent_12(params))


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
        edge crossing, so s12^2 = 1 - p_lz_12; band 2 survives its crossing
        with band 3 likewise, s23^2 = 1 - exp(-pi^2 v0^4 / (2^14 f0)).
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
    """Poles and residues of the survival amplitude, |e1| >= |e2|.

    <1|U^n|1> = d1 e1^n + d2 e2^n: e1, e2 are the eigenvalues of the step
    operator and d1, d2 their residues, so d1 + d2 = 1.  For a batch of
    operators every field gains the batch shape; degenerate flags the
    points whose asymptotics are undefined, and all their other fields
    are nan.
    """

    e1: complex
    e2: complex
    d1: complex
    d2: complex
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


@dataclass(frozen=True)
class ExpFit:
    """Least-squares line in (t, ln P): z = e^intercept, gamma = -slope."""

    z: float
    gamma: float
    window: tuple[int, int]
    residual: float


def default_window(n_plateaus: int) -> tuple[int, int]:
    """Cycles 6 through min(14, last), late enough to be asymptotic; needs >= 8 plateaus."""
    last = check_count("n_plateaus", n_plateaus, DEFAULT_WINDOW_START + 2) - 1
    return (DEFAULT_WINDOW_START, min(DEFAULT_WINDOW_END, last))


def _window_bounds(window: tuple[int, int], length: int) -> tuple[int, int]:
    """The counts (lo, hi) of window, refused unless 0 <= lo <= hi < length."""
    lo, hi = window
    if not 0 <= lo <= hi < length:
        raise ValueError(f"window {window} outside series of length {length}")
    return check_count("window start", lo, 0), check_count("window end", hi, lo)


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
    formulas so each can check the other.  bands.check_work refuses, naming
    n_steps, a series whose n_steps + 1 floats and n_steps products
    (STEP_PRODUCT_S each) would not fit the work budget.
    """
    check_count("n_steps", n_steps, 1)
    if not (math.isfinite(t_bloch) and t_bloch > 0):
        raise ValueError(f"t_bloch must be > 0, got {t_bloch}")
    check_work("n_steps", lambda n: (8.0 * (n + 1.0), n * STEP_PRODUCT_S), n_steps)
    v = np.array([1.0 + 0.0j, 0.0 + 0.0j])
    probs = np.empty(n_steps + 1)
    probs[0] = 1.0
    for n in range(1, n_steps + 1):
        v = u @ v
        probs[n] = abs(v[0]) ** 2
    return SurvivalSeries(probabilities=probs, t_bloch=float(t_bloch))


def spectral_decompose(u: np.ndarray) -> SpectralData:
    """Eigenvalues ordered by modulus and their residues in <1|U^n|1>.

    The eigenvalues of U = [[a, b], [c, d]] are tr/2 +- sqrt((a - d)^2/4 + bc)
    in closed form: the sign that adds the root to tr/2 without cancelling
    gives the larger one, and det U divided by it the smaller.  The cases
    n = 0, 1 of <1|U^n|1> = d1 e1^n + d2 e2^n give d1 + d2 = 1 and
    d1 e1 + d2 e2 = U_00, so no eigenvectors are needed.  |e1| and |e2|
    coinciding within 1e-12 leaves the asymptotic rate and Z undefined: a
    single operator raises DegenerateSpectrumError, a batch flags the point
    in SpectralData.degenerate.
    """
    u = np.asarray(u, dtype=complex)
    a, b, c, d = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    half = 0.5 * (a + d)
    root = np.sqrt(0.25 * (a - d) ** 2 + b * c)
    root = np.where((half.conjugate() * root).real < 0.0, -root, root)
    e1 = half + root  # |half + root| >= |half - root|
    e2 = (a * d - b * c) / np.where(e1 == 0.0, 1.0, e1)  # e1 = 0: both roots are 0
    mod1, mod2 = np.abs(e1), np.abs(e2)
    degenerate = np.abs(mod1 - mod2) < MODULUS_TIE_TOL
    if degenerate.ndim == 0 and degenerate:
        raise DegenerateSpectrumError(
            f"eigenvalue moduli coincide: |e1|={mod1}, |e2|={mod2}")
    split = np.where(degenerate, 1.0, e1 - e2)  # a tie may be a double eigenvalue
    d1, d2 = (a - e2) / split, (e1 - a) / split
    # [()] turns the 0-d results of a single operator into scalars
    e1, e2, d1, d2 = (np.where(degenerate, np.nan, x)[()] for x in (e1, e2, d1, d2))
    return SpectralData(e1=e1, e2=e2, d1=d1, d2=d2, degenerate=degenerate)


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
    """Renormalization parameter Z = |d1|^2, the weight of the dominant pole.

    The back-extrapolation of the asymptotic |d1 e1^n|^2 to n = 0; may
    fall on either side of 1.
    """
    return np.abs(sd.d1) ** 2


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
    check_count("N", n, 1, len(series) - 2)  # Z_N reads P_0 .. P_{N+1}
    rates, truncated = gamma_sequence(series)
    if truncated and len(rates) <= n:
        raise ValueError("survival vanished before step N; Z_N undefined")
    return float(np.exp(n * rates[n] - np.sum(rates[:n])))


def ret_resonances(params: LatticeParams, mean_gap: float, j_max: int) -> np.ndarray:
    """Forces f0 = <dE>/j, j = 1..j_max, where the per-cycle phase winds by -2 pi j.

    At these forces the interference between successive crossings is
    constructive and the decay rate is resonantly enhanced.  params is
    unused; it stays while perfbench's traced CLI wraps the CLI's call.
    """
    if not (math.isfinite(mean_gap) and mean_gap > 0):
        raise ValueError(f"mean_gap must be > 0, got {mean_gap}")
    return mean_gap / np.arange(1, check_count("j_max", j_max, 1) + 1, dtype=float)


def renorm_fit(u: np.ndarray, series: SurvivalSeries) -> RenormFit:
    """The spectral (gamma, Z) of u and how far Z_N has settled along series.

    series is the caller's evolve_steps(u, ...) output, so u is iterated once.

    tol_achieved is |Z_N - Z_{N-1}| at the last N the series supports and
    converged reflects tol_achieved < Z_CONVERGENCE_TOL; the geometric
    convergence of Z_N makes the absolute-difference test safe.
    """
    sd = spectral_decompose(u)
    n = len(gamma_sequence(series)[0]) - 1
    if n >= 2:
        tol_achieved = abs(z_running_estimate(series, n) - z_running_estimate(series, n - 1))
    else:
        tol_achieved = math.inf
    return RenormFit(gamma=gamma_asymptotic(sd), z=z_exact(sd),
                     converged=tol_achieved < Z_CONVERGENCE_TOL, tol_achieved=tol_achieved)


def fit_exponential(series: SurvivalSeries, window: tuple[int, int]) -> ExpFit:
    """Fit P_n ~ z exp(-gamma t) in log space over plateaus window[0]..window[1]."""
    lo, hi = _window_bounds(window, len(series))
    if hi == lo:
        raise ValueError("at least 2 plateaus required for a fit")
    p = series.probabilities[lo:hi + 1]
    if np.any(p <= 0):
        raise ValueError("plateau values must be positive for a log-space fit")
    t = series.times[lo:hi + 1]
    logp = np.log(p)
    slope, intercept = np.polyfit(t, logp, 1)
    residual = float(np.max(np.abs(logp - (intercept + slope * t))))
    return ExpFit(z=float(np.exp(intercept)), gamma=float(-slope),
                  window=(lo, hi), residual=residual)


def compare_models(full: SurvivalSeries, eff: SurvivalSeries,
                   window: tuple[int, int] | None = None) -> tuple[np.ndarray, float]:
    """Per-plateau relative deviations |P_full - P_eff| / P_eff.

    Returns (deviations, max over the given window); the normalization
    makes the comparison asymmetric under swapping the inputs by exactly
    the ratio of the two series.
    """
    if len(full) != len(eff):
        raise ValueError(f"length mismatch: {len(full)} vs {len(eff)}")
    with np.errstate(divide="ignore", invalid="ignore"):
        devs = np.abs(full.probabilities - eff.probabilities) / eff.probabilities
    lo, hi = (0, len(devs) - 1) if window is None else _window_bounds(window, len(devs))
    return devs, float(np.max(devs[lo:hi + 1]))
