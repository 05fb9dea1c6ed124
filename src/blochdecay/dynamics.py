"""Exact single-particle dynamics.

Two solvers live here, on one step kernel:

  * lz_two_level_ode -- the textbook two-level sweep, H(t) with diagonal
    -+ alpha t and constant coupling delta, from the lower instantaneous
    eigenstate.  It is the dimension-2 case of the lattice's step, so the
    closed form exp(-pi delta^2 / alpha) for the asymptotic jump
    probability checks the integrator the lattice solver runs.

  * evolve_lattice -- a Bloch state in the accelerated lattice, expanded
    over plane waves exp(i (k(tau) + 2n) pi x / d_L) with the drifting
    quasimomentum k(tau) = k0 + f0 tau / pi.  Whenever k(tau) leaves the
    zone it is folded back by 2 and the mode labels shift by one, which
    keeps the populated momenta centered in the truncated basis.

The lattice propagator is a fourth-order fixed-step splitting (Yoshida
composition of Strang steps).  The kinetic part is diagonal and its time
dependence integrates in closed form, the coupling part is constant with
a precomputed exponential, so every step is a product of exact unitaries:
norm is conserved to roundoff and the only possible probability loss is
the (monitored) drop of an edge mode at a fold.

The hamiltonian repeats every Bloch period, and the fold falls on the same
step of every cycle, so one cycle is a fixed linear map M on the 2c+1
amplitudes (the Floquet, or Wannier-Stark resonance, picture).
evolve_lattice therefore makes two passes over one cycle with the same
step kernel: the first carries the identity through it, which gives M;
the second carries the starts of all cycles, psi0, M psi0, ..., together
and copies out the samples.  That costs about one dim^3 build plus one
dim^2 N pass, instead of N stepwise cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import MIN_CUTOFF, LatticeParams, build_bloch_hamiltonian, lowest_eigenpairs

# Yoshida composition weights for the fourth-order splitting.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
# Widths of the four kinetic segments of one step, in units of the step.
_SEGMENTS = np.array([_W1 / 2, (_W1 + _W0) / 2, (_W0 + _W1) / 2, _W1 / 2])
# Steps per batched call in the two-level sweep; bounds its stack of 2x2
# step unitaries to 1 MB however long the sweep.
_SWEEP_CHUNK = 2 ** 14

MIN_SAMPLES_PER_CYCLE = 64
# Largest change of the state norm allowed in one Bloch cycle.
NORM_TOLERANCE = 1e-8


class NormDriftError(RuntimeError):
    """State norm drifted beyond tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step solver settings; dt is rounded down so folds land on steps."""

    cutoff: int = 16
    dt: float = 0.01
    n_cycles: int = 10

    def __post_init__(self):
        if self.cutoff < MIN_CUTOFF:
            raise ValueError(f"cutoff >= {MIN_CUTOFF} required, got {self.cutoff}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.n_cycles < 1:
            raise ValueError(f"n_cycles >= 1 required, got {self.n_cycles}")


@dataclass(frozen=True, eq=False)
class HoustonState:
    """Snapshot of the plane-wave amplitudes at dimensionless time tau.

    amplitudes[i] belongs to mode n = i - cutoff at momentum
    quasimomentum + 2n; n_folds counts the zone-edge relabelings applied
    so far, so quasimomentum = k0 + f0 tau / pi - 2 n_folds stays in B.
    """

    amplitudes: np.ndarray
    k0: float
    time: float
    n_folds: int
    quasimomentum: float

    @property
    def cutoff(self) -> int:
        return (len(self.amplitudes) - 1) // 2

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _adiabatic_pair(alpha: float, delta: float, t: float):
    """Normalized (lower, upper) eigenvectors of [[-alpha t, delta], [delta, alpha t]]."""
    a = alpha * t
    if delta == 0.0:
        lower = (1.0, 0.0) if a > 0 else (0.0, 1.0)
        upper = (0.0, 1.0) if a > 0 else (1.0, 0.0)
        return lower, upper
    omega = math.hypot(a, delta)
    lo = (delta, a - omega)
    up = (delta, a + omega)
    nlo = math.hypot(*lo)
    nup = math.hypot(*up)
    return (lo[0] / nlo, lo[1] / nlo), (up[0] / nup, up[1] / nup)


def lz_two_level_ode(alpha: float, delta: float, t_span: tuple[float, float],
                     dt: float) -> float:
    """Asymptotic jump probability between the instantaneous eigenstates.

    Integrates the sweep from the lower eigenstate at t_span[0] and
    projects onto the upper eigenstate at t_span[1].  The span must be
    symmetric and wide enough that the residual eigenbasis dressing at
    the edges is negligible: |t_edge| >= 20 max(delta/alpha, 1/sqrt(alpha)).
    A dt above 0.5 / hypot(alpha t_edge, delta) is refused up front.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"sweep rate must be > 0, got alpha={alpha}")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"coupling must be >= 0, got delta={delta}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be > 0, got dt={dt}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    width = t1 - t0
    if width <= 0:
        raise ValueError(f"empty time span {t_span}")
    if abs(t0 + t1) > 1e-9 * width:
        raise ValueError(f"time span must be symmetric about 0, got {t_span}")
    t_required = 20.0 * max(delta / alpha, 1.0 / math.sqrt(alpha))
    if t1 < t_required:
        raise ValueError(
            f"span too short for asymptotic preparation: need |t_edge| >= {t_required}, got {t1}")

    edge_rate = math.hypot(alpha * t1, delta)
    if edge_rate * dt > 0.5:
        raise ValueError(
            f"dt={dt} too coarse: {edge_rate * dt:.3g} rad per step at the span edge "
            f"(> 0.5); reduce dt below {0.5 / edge_rate:.3g}")

    n = int(math.ceil(width / dt))
    h = width / n
    b_long, b_back = _coupling_exponentials(4.0 * delta, 2, h)  # entries v0/4 = delta
    u = np.eye(2, dtype=complex)
    for j in range(0, n, _SWEEP_CHUNK):
        t = t0 + h * np.arange(j, min(n, j + _SWEEP_CHUNK))
        # one step of each 2x2 identity gives every step's unitary
        steps = _step(np.broadcast_to(np.eye(2), (len(t), 2, 2)), _sweep_phases(alpha, t, h),
                      b_long, b_back, False)
        while len(steps) > 1:  # ordered pairwise product; an odd last step waits a round
            steps = np.concatenate([steps[1::2] @ steps[:-1:2],
                                    steps[len(steps) - len(steps) % 2:]])
        u = steps[0] @ u
    (l1, l2), _ = _adiabatic_pair(alpha, delta, t0)
    _, (u1r, u2r) = _adiabatic_pair(alpha, delta, t1)
    return float(abs(np.array([u1r, u2r]) @ u @ np.array([l1, l2])) ** 2)


def _sweep_phases(alpha: float, t: np.ndarray, h: float) -> np.ndarray:
    """Kinetic phases (4, len(t), 2) of the sweep's steps of width h from times t.

    The diagonal -+alpha s integrates over a segment to -+alpha times its
    length times its midpoint.
    """
    seg = _SEGMENTS * h
    ph = alpha * seg[:, None] * (t + (np.cumsum(seg) - seg / 2.0)[:, None])
    return np.stack([-ph, ph], axis=-1)


def _coupling_exponentials(v0: float, dim: int, dt: float):
    """exp(-i T h) for the two Yoshida substep widths.

    T is the constant off-diagonal coupling matrix with entries v0/4.
    """
    t_mat = np.zeros((dim, dim))
    idx = np.arange(dim - 1)
    t_mat[idx, idx + 1] = v0 / 4.0
    t_mat[idx + 1, idx] = v0 / 4.0
    lam, vec = lowest_eigenpairs(t_mat, dim, vectors=True)
    def expt(h):
        return (vec * np.exp(-1j * lam * h)) @ vec.T
    return expt(_W1 * dt), expt(_W0 * dt)


def step_grid(params: LatticeParams, cfg: SolverConfig,
              k0: float = 0.0) -> tuple[float, int]:
    """Checked (k0, m) of the solver: 2m steps of T_B / (2m) <= cfg.dt per cycle.

    k0 = 1 comes back as -1, the same Bloch state labeled from the left
    zone edge.  Raises ValueError when k0 lies outside B or cfg.dt gives
    fewer than MIN_SAMPLES_PER_CYCLE steps per cycle.
    """
    if not (math.isfinite(k0) and abs(k0) <= 1.0):
        raise ValueError(f"initial quasimomentum outside B: k0={k0}")
    m = int(math.ceil(params.bloch_period / 2.0 / cfg.dt))
    if 2 * m < MIN_SAMPLES_PER_CYCLE:
        raise ValueError(
            f"dt={cfg.dt} gives {2 * m} steps per cycle; need >= {MIN_SAMPLES_PER_CYCLE}")
    return (-1.0 if k0 == 1.0 else k0), m


def _step(x: np.ndarray, ph: np.ndarray, b_long: np.ndarray, b_back: np.ndarray,
          fold: bool) -> np.ndarray:
    """One Yoshida step of the columns of x with the kinetic phases ph (4, dim).

    ph may carry batch axes between the segment and mode axes, (4, ..., dim),
    to step a stack of blocks x (..., dim, cols) at once.  With fold, the
    step ends on the zone edge: k -> k - 2 with the mode labels shifted by
    one, and the discarded edge amplitude is left to the norm monitor.
    """
    e = np.exp(-1j * ph)[..., None]
    x = e[0] * x
    x = b_long @ x
    x *= e[1]
    x = b_back @ x
    x *= e[2]
    x = b_long @ x
    x *= e[3]
    if fold:
        x[1:] = x[:-1]
        x[0] = 0.0
    return x


def evolve_lattice(params: LatticeParams, cfg: SolverConfig,
                   k0: float = 0.0) -> list[HoustonState]:
    """Propagate the band-1 Bloch state at k0 through cfg.n_cycles Bloch periods.

    Returns snapshots sampled at least 64 times per cycle plus the final
    step.  Raises NormDriftError when the per-cycle norm change exceeds
    NORM_TOLERANCE (the usual cause is a cutoff too small to hold the
    escaped population for the requested number of cycles).

    Two passes over one cycle: the first steps the identity to the cycle
    map M; then the cycle starts M^n psi0 give the per-cycle norm monitor;
    the second pass steps all cycle starts as one block and copies column
    n out at every sampled step of cycle n.  Times, fold counts and
    quasimomenta are those of a stepwise loop over all cycles; amplitudes
    agree with it to roundoff.
    """
    k0, m = step_grid(params, cfg, k0)
    dt = params.bloch_period / 2.0 / m
    stride = max(1, (2 * m) // MIN_SAMPLES_PER_CYCLE)
    dim = 2 * cfg.cutoff + 1
    n_modes = np.arange(-cfg.cutoff, cfg.cutoff + 1, dtype=float)
    c = params.f0 / math.pi

    b_long, b_back = _coupling_exponentials(params.v0, dim, dt)

    # Closed-form kinetic phases per periodic step index and Yoshida segment:
    # integral of (k_start + 2n + c s)^2 ds over the segment.
    seg = _SEGMENTS * dt
    bounds = np.concatenate([[0.0], np.cumsum(seg)])
    jj = np.arange(2 * m)
    k_start = k0 + jj / m
    k_start -= 2.0 * np.floor((k_start + 1.0) / 2.0)
    phases = np.empty((2 * m, 4, dim))
    for s in range(4):
        x1 = k_start[:, None] + 2.0 * n_modes[None, :] + c * bounds[s]
        x2 = k_start[:, None] + 2.0 * n_modes[None, :] + c * bounds[s + 1]
        phases[:, s, :] = (x2 ** 3 - x1 ** 3) / (3.0 * c)

    if params.v0 > 0:
        h0 = build_bloch_hamiltonian(params, k0, cfg.cutoff)
        _, vec = lowest_eigenpairs(h0, 1, vectors=True)
        psi = vec[:, 0].astype(complex)
    else:
        psi = np.zeros(dim, complex)
        psi[int(np.argmin((k0 + 2.0 * n_modes) ** 2))] = 1.0

    # The fold ends the first step of the cycle that reaches k >= 1.
    fold = next(o for o in range(1, 2 * m + 1) if k0 + o / m >= 1.0)
    cycle_map = np.eye(dim, dtype=complex)
    for o in range(1, 2 * m + 1):
        cycle_map = _step(cycle_map, phases[o - 1], b_long, b_back, o == fold)

    starts = np.empty((dim, cfg.n_cycles), complex)
    starts[:, 0] = start = psi
    norm_prev = 1.0
    for n in range(1, cfg.n_cycles + 1):
        start = cycle_map @ start
        norm_now = float(np.linalg.norm(start))
        if abs(norm_now - norm_prev) > NORM_TOLERANCE:
            raise NormDriftError(
                f"norm changed by {abs(norm_now - norm_prev):.2e} in cycle "
                f"{n} (tolerance {NORM_TOLERANCE}); increase the "
                f"cutoff or reduce dt")
        norm_prev = norm_now
        if n < cfg.n_cycles:
            starts[:, n] = start

    # Sampled global steps s = 2mn + o, grouped by their offset o in 1..2m.
    n_steps = 2 * m * cfg.n_cycles
    sampled = list(range(stride, n_steps + 1, stride))
    if sampled[-1] != n_steps:
        sampled.append(n_steps)
    by_offset: dict[int, list[tuple[int, int, int]]] = {}
    for slot, s in enumerate(sampled, start=1):
        n, o = divmod(s - 1, 2 * m)
        by_offset.setdefault(o + 1, []).append((slot, n, s))
    states = [HoustonState(amplitudes=psi.copy(), k0=k0, time=0.0,
                           n_folds=0, quasimomentum=k0)] + [None] * len(sampled)
    block = starts
    for o in range(1, 2 * m + 1):
        block = _step(block, phases[o - 1], b_long, b_back, o == fold)
        for slot, n, s in by_offset.get(o, ()):
            folds = n + (o >= fold)
            states[slot] = HoustonState(amplitudes=block[:, n].copy(), k0=k0,
                                        time=s * dt, n_folds=folds,
                                        quasimomentum=k0 + s / m - 2.0 * folds)
    return states


def band_projections(state: HoustonState, params: LatticeParams,
                     n_bands: int = 2) -> np.ndarray:
    """Populations of the lowest n_bands instantaneous Bloch bands."""
    if n_bands < 1 or n_bands > state.cutoff:
        raise ValueError(f"need 1 <= n_bands <= cutoff={state.cutoff}, got {n_bands}")
    h = build_bloch_hamiltonian(params, state.quasimomentum, state.cutoff)
    _, vec = lowest_eigenpairs(h, n_bands, vectors=True)
    return np.abs(vec.conj().T @ state.amplitudes) ** 2


def band_survival(state: HoustonState, params: LatticeParams) -> float:
    """Population of the lowest instantaneous band."""
    return float(band_projections(state, params, n_bands=1)[0])


def trace_rows(states: list[HoustonState], params: LatticeParams, band_cutoff: int):
    """Rows (tau, P1, P2, Prest, norm) for trace serialization.

    One batched eigensolve gives every snapshot's two lowest bands on the
    central 2b + 1 modes, b = min(band_cutoff, state cutoff), beyond which
    the band vectors vanish to roundoff.
    """
    c = states[0].cutoff
    b = min(band_cutoff, c)
    amps = np.array([st.amplitudes[c - b:c + b + 1] for st in states])
    h = build_bloch_hamiltonian(params, [st.quasimomentum for st in states], b)
    _, vec = lowest_eigenpairs(h, 2, vectors=True)
    pr = np.abs(np.matmul(amps[:, None, :], vec.conj())[:, 0]) ** 2
    for st, (p1, p2) in zip(states, pr.tolist()):
        norm = st.norm
        yield st.time, p1, p2, norm ** 2 - (p1 + p2), norm
