"""Exact single-particle dynamics.

Two solvers live here, on one step kernel:

  * lz_two_level_ode -- the textbook two-level sweep, H(t) with diagonal
    -+ alpha t and constant coupling delta, from the lower instantaneous
    eigenstate.  It is the dimension-2 case of the lattice's step, so the
    closed form exp(-pi delta^2 / alpha) for the asymptotic jump
    probability checks the integrator the lattice solver runs.

  * evolve_lattice -- the band-1 Bloch state at k = 0 in the accelerated
    lattice, expanded over plane waves exp(i (k(tau) + 2n) pi x / d_L) with
    the drifting quasimomentum k(tau) = f0 tau / pi.  When k(tau) reaches
    the zone edge it is folded back by 2 and the mode labels shift by one,
    which keeps the populated momenta centered in the truncated basis.

The lattice propagator is a fourth-order fixed-step splitting (Yoshida
composition of Strang steps).  The kinetic part is diagonal and its time
dependence integrates in closed form, the coupling part is constant with
a precomputed exponential, so every step is a product of exact unitaries:
norm is conserved to roundoff and the only possible probability loss is
the (monitored) drop of an edge mode at a fold.

The hamiltonian repeats every Bloch period, and the fold falls on the same
step of every cycle, so one cycle is a fixed linear map M on the 2c+1
amplitudes (the Floquet, or Wannier-Stark resonance, picture).  H(k) is
real and H(-k) = P H(k) P, with P the reversal n -> -n of the mode axis;
the 2m steps of a cycle from k = 0 lie mirror-symmetric about k = 0 and
the Yoshida step is palindromic, so the steps of the second half (k from
-1 to 0) are P U^T P of the first half's steps U in reverse order.  With
A the half-cycle map (k from 0 to 1) and F the fold, M = P A^T P F A.

evolve_lattice therefore steps half a cycle once, on the identity.  Its m
steps are K = 32 segments of m / K steps, stepped in groups, the mode axis
first, so every coupling exponential is one (dim, dim) x (dim, group cols)
gemm; the groups give the segment maps G_0..G_{K-1}, whose product is A.
The cycle starts psi0, M psi0, ... are matrix-vector products, and the
trace's samples, m / K steps apart, are the ends of the cycle's 2K
segments: the block of cycle starts walked through G_0..G_{K-1}, folded,
then through the second half's maps P G_j^T P, j descending.  The last
segment ends on the next cycle start, so every cycle boundary n T_B (k = 0)
is a sample.  That costs about one dim^3 build of half a cycle in m / K
wide steps per group, plus 2K - 1 dim^2 N gemms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import (_CHUNK_ELEMENTS, DEFAULT_CUTOFF, MIN_CUTOFF, LatticeParams,
                    build_bloch_hamiltonian, lowest_bands, lowest_eigenpairs)

# Yoshida composition weights for the fourth-order splitting.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
# Widths of the four kinetic segments of one step, in units of the step.
_SEGMENTS = np.array([_W1 / 2, (_W1 + _W0) / 2, (_W0 + _W1) / 2, _W1 / 2])

MIN_SAMPLES_PER_CYCLE = 64
# Segments of the half cycle; their ends and their mirror images are the samples.
_HALF_SEGMENTS = MIN_SAMPLES_PER_CYCLE // 2
# Most memory evolve_lattice may hold, by step_grid's estimate: its kinetic phase
# table, segment maps and trace.
MAX_SOLVER_BYTES = 2 ** 28
# Most flops of the half-cycle build, 24 m dim^3 by step_grid's estimate.
MAX_SOLVER_FLOPS = 1e11
# Largest change of the state norm allowed in one Bloch cycle.
NORM_TOLERANCE = 1e-8


class NormDriftError(RuntimeError):
    """State norm drifted beyond tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step solver settings; dt is an upper bound on the step (see step_grid)."""

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
    """Plane-wave amplitudes at time tau: one snapshot, or a stack of them.

    amplitudes[..., i] belongs to mode n = i - cutoff at momentum
    quasimomentum + 2n; n_folds counts the zone-edge relabelings applied
    so far, so quasimomentum = f0 tau / pi - 2 n_folds stays in B.  A stack
    (a trace) has a leading sample axis on every field and indexes like a list.
    """

    amplitudes: np.ndarray
    time: float | np.ndarray
    n_folds: int | np.ndarray
    quasimomentum: float | np.ndarray

    @property
    def cutoff(self) -> int:
        return (self.amplitudes.shape[-1] - 1) // 2

    @property
    def norm(self) -> float | np.ndarray:
        norm = np.linalg.norm(self.amplitudes, axis=-1)
        return norm if norm.ndim else float(norm)

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, index) -> HoustonState:
        return HoustonState(self.amplitudes[index], self.time[index], self.n_folds[index],
                            self.quasimomentum[index])


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
    chunk = _CHUNK_ELEMENTS // 4  # steps per call: its block is (2, chunk, 2)
    for j in range(0, n, chunk):
        t = t0 + h * np.arange(j, min(n, j + chunk))
        # one step of each 2x2 identity gives every step's unitary
        steps = _step(np.broadcast_to(np.eye(2)[:, None], (2, len(t), 2)),
                      _sweep_phases(alpha, t, h), b_long, b_back).transpose(1, 0, 2)
        while len(steps) > 1:  # ordered pairwise product; an odd last step waits a round
            steps = np.concatenate([steps[1::2] @ steps[:-1:2],
                                    steps[len(steps) - len(steps) % 2:]])
        u = steps[0] @ u
    (l1, l2), _ = _adiabatic_pair(alpha, delta, t0)
    _, (u1r, u2r) = _adiabatic_pair(alpha, delta, t1)
    return float(abs(np.array([u1r, u2r]) @ u @ np.array([l1, l2])) ** 2)


def _sweep_phases(alpha: float, t: np.ndarray, h: float) -> np.ndarray:
    """Kinetic phases (4, 2, len(t)) of the sweep's steps of width h from times t.

    The diagonal -+alpha s integrates over a segment to -+alpha times its
    length times its midpoint.
    """
    seg = _SEGMENTS * h
    ph = alpha * seg[:, None] * (t + (np.cumsum(seg) - seg / 2.0)[:, None])
    return np.stack([-ph, ph], axis=1)


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


def step_grid(params: LatticeParams, cfg: SolverConfig) -> int:
    """Checked m of the solver: 2m steps of T_B / (2m) <= cfg.dt per cycle.

    m is ceil(T_B / (2 cfg.dt)) rounded up to a multiple of K = 32, so
    each of the half cycle's K segments has m / K steps.  Raises ValueError
    when cfg.dt itself gives fewer than MIN_SAMPLES_PER_CYCLE steps per
    cycle; when evolve_lattice would hold more than MAX_SOLVER_BYTES (64 dim
    m bytes for the phase table and its temporaries, the segment maps and
    the trace); or when the half cycle's m steps of three dim^3 complex
    gemms, 24 m dim^3 flops, exceed MAX_SOLVER_FLOPS.  Both estimates are
    made in floats, before any allocation, as an f0 near 0 makes T_B
    infinite; at dt = 0.01 and 0.001 and cutoffs 8 to 64 the memory one
    fell at most 15% below tracemalloc's peak.
    """
    half = params.bloch_period / 2.0 / cfg.dt
    m = _HALF_SEGMENTS * np.ceil(half / _HALF_SEGMENTS)
    dim = 2 * cfg.cutoff + 1
    samples = MIN_SAMPLES_PER_CYCLE * cfg.n_cycles + 1
    need = 64.0 * dim * m + 16.0 * _HALF_SEGMENTS * dim * dim + samples * (16.0 * dim + 24.0)
    if not need <= MAX_SOLVER_BYTES:
        raise ValueError(
            f"dt={cfg.dt}, cutoff {cfg.cutoff} and {cfg.n_cycles} cycles need ~{need:.3g} "
            f"bytes of solver memory (limit {MAX_SOLVER_BYTES}); increase dt or reduce the "
            f"cutoff or the cycles")
    flops = 24.0 * m * dim * dim * dim
    if not flops <= MAX_SOLVER_FLOPS:
        raise ValueError(
            f"dt={cfg.dt} and cutoff {cfg.cutoff} need ~{flops:.3g} flops to build the "
            f"half-cycle map (limit {MAX_SOLVER_FLOPS:.3g}); increase dt or reduce the cutoff")
    if 2 * math.ceil(half) < MIN_SAMPLES_PER_CYCLE:
        raise ValueError(f"dt={cfg.dt} gives {2 * math.ceil(half)} steps per cycle; "
                         f"need >= {MIN_SAMPLES_PER_CYCLE}")
    return int(m)


def _kinetic_phases(k_start: np.ndarray, c: float, dt: float, cutoff: int) -> np.ndarray:
    """Kinetic phases (4, 2 cutoff + 1, len(k_start)) of the steps from quasimomenta k_start.

    The integral of (k + 2n + c s)^2 over a Yoshida segment [s1, s2] of
    width w, written w/3 (x1^2 + x1 x2 + x2^2) in its end momenta x1, x2:
    the equal (x2^3 - x1^3) / (3c) loses ~3e-10 rad to cancellation at the
    edge modes of cutoff 32.
    """
    seg = _SEGMENTS * dt
    bounds = np.concatenate([[0.0], np.cumsum(seg)])
    x = k_start + 2.0 * np.arange(-cutoff, cutoff + 1, dtype=float)[:, None]
    phases = np.empty((4,) + x.shape)
    for s in range(4):  # one segment at a time bounds the temporaries
        x1, x2 = x + c * bounds[s], x + c * bounds[s + 1]
        phases[s] = seg[s] / 3.0 * (x1 * x1 + x1 * x2 + x2 * x2)
    return phases


def _fold(x: np.ndarray) -> np.ndarray:
    """The zone-edge relabeling k -> k - 2 of x (dim, ...) in place: modes shift up by one.

    It ends the half cycle, in the cycle map and on the samples at k = 1.
    The top mode's amplitude is dropped; the norm monitor on the cycle
    starts catches a loss that matters.
    """
    x[1:] = x[:-1]
    x[0] = 0.0
    return x


def _step(x: np.ndarray, ph: np.ndarray, b_long: np.ndarray, b_back: np.ndarray) -> np.ndarray:
    """One Yoshida step of the blocks x (dim, K, cols) with the kinetic phases ph (4, dim, K).

    Block j takes the phases ph[:, :, j].  The mode axis comes first, so
    each coupling exponential is one gemm over all K cols columns.
    """
    e = np.exp(-1j * ph)[..., None]
    x = e[0] * x
    for b, ek in ((b_long, e[1]), (b_back, e[2]), (b_long, e[3])):
        x = (b @ x.reshape(len(x), -1)).reshape(x.shape)
        x *= ek
    return x


def evolve_lattice(params: LatticeParams, cfg: SolverConfig) -> HoustonState:
    """Propagate the band-1 Bloch state at k = 0 through cfg.n_cycles Bloch periods.

    Returns one HoustonState stack: the start and MIN_SAMPLES_PER_CYCLE
    samples per cycle, m / K steps apart at the ends of the cycle's
    segments; sample 64 n is n T_B, where k is back at 0, and 64 n - 32 the
    fold at k = 1.  Raises NormDriftError when the per-cycle norm change
    exceeds NORM_TOLERANCE (the usual cause is a cutoff too small to hold
    the escaped population for the requested number of cycles).

    The half cycle's m steps (k from 0 to 1) are cut into K = 32
    contiguous segments of m / K steps.  Groups of at most
    _CHUNK_ELEMENTS // dim^2 segments step their identities together to the
    segment maps G_j, whose product is the half-cycle map A.  The cycle map
    is M = P A^T P F A, and the cycle starts x_n = M^n psi0 give the
    per-cycle norm monitor.  The block (dim, N) of cycle starts walks
    through G_0 .. G_{K-1}, is folded, and walks back through the mirror
    images x[::-1] <- G_j^T x[::-1], j = K-1 .. 1; the mirror of G_0 ends on
    x_{n+1}.  Times, fold counts and quasimomenta are those of a stepwise
    loop over all cycles; amplitudes agree with it to roundoff.
    """
    m = step_grid(params, cfg)
    dt = params.bloch_period / 2.0 / m
    dim = 2 * cfg.cutoff + 1
    n_seg = _HALF_SEGMENTS
    per = m // n_seg

    b_long, b_back = _coupling_exponentials(params.v0, dim, dt)
    phases = _kinetic_phases(np.arange(m) / m, params.f0 / math.pi, dt, cfg.cutoff)
    phases = phases.reshape(4, dim, n_seg, per)  # step i of segment j at [:, :, j, i]

    maps = np.empty((n_seg, dim, dim), complex)
    group = max(1, _CHUNK_ELEMENTS // (dim * dim))
    for lo in range(0, n_seg, group):
        block = np.broadcast_to(np.eye(dim)[:, None], (dim, min(group, n_seg - lo), dim))
        for i in range(per):
            block = _step(block, phases[:, :, lo:lo + group, i], b_long, b_back)
        maps[lo:lo + group] = block.transpose(1, 0, 2)
    half_map = maps[0]
    for g in maps[1:]:
        half_map = g @ half_map
    cycle_map = half_map.T[::-1, ::-1] @ _fold(half_map.copy())

    # Row 64 n is cycle n's start; row 64 n + 1 + i its state at the end of segment i.
    amplitudes = np.empty((MIN_SAMPLES_PER_CYCLE * cfg.n_cycles + 1, dim), complex)
    starts = amplitudes[::MIN_SAMPLES_PER_CYCLE]
    _, vec = lowest_eigenpairs(build_bloch_hamiltonian(params, 0.0, cfg.cutoff), 1,
                               vectors=True)
    starts[0] = vec[:, 0]
    norm_prev = 1.0
    for n in range(1, cfg.n_cycles + 1):
        starts[n] = cycle_map @ starts[n - 1]
        norm_now = float(np.linalg.norm(starts[n]))
        if abs(norm_now - norm_prev) > NORM_TOLERANCE:
            raise NormDriftError(
                f"norm changed by {abs(norm_now - norm_prev):.2e} in cycle "
                f"{n} (tolerance {NORM_TOLERANCE}); increase the "
                f"cutoff or reduce dt")
        norm_prev = norm_now

    samples = amplitudes[1:].reshape(cfg.n_cycles, 2 * n_seg, dim)
    x = starts[:-1].T
    for j in range(n_seg):
        x = maps[j] @ x
        samples[:, j] = x.T
    x = _fold(samples[:, n_seg - 1].T)
    for j in range(n_seg - 1, 0, -1):  # the mirror of segment j ends where segment j starts
        x = (maps[j].T @ x[::-1])[::-1]
        samples[:, 2 * n_seg - 1 - j] = x.T
    steps = per * np.arange(len(amplitudes))
    folds = (steps + m) // (2 * m)
    return HoustonState(amplitudes, steps * dt, folds, steps / m - 2.0 * folds)


def band_projections(states: HoustonState, params: LatticeParams, n_bands: int = 2,
                     band_cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Populations (..., n_bands) of the lowest instantaneous Bloch bands.

    states is one snapshot or a stack of them.  One batched eigensolve
    (bands.lowest_bands, in bounded chunks) gives every sample's bands on
    the central 2b + 1 modes, b = min(band_cutoff, state cutoff), beyond
    which the low band vectors vanish to roundoff.
    """
    c = states.cutoff
    b = min(band_cutoff, c)
    if n_bands < 1 or n_bands > b:
        raise ValueError(f"need 1 <= n_bands <= band cutoff={b}, got {n_bands}")
    k = np.atleast_1d(states.quasimomentum)
    amps = states.amplitudes.reshape(len(k), -1)[:, None, c - b:c + b + 1]
    _, vec = lowest_bands(params, k, b, n_bands, vectors=True)
    return (np.abs(amps @ vec.conj()) ** 2).reshape(np.shape(states.quasimomentum) + (n_bands,))


def band_survival(state: HoustonState, params: LatticeParams) -> float | np.ndarray:
    """Population of the lowest instantaneous band: a float for a snapshot."""
    p = band_projections(state, params, n_bands=1)[..., 0]
    return p if p.ndim else float(p)


def trace_rows(states: HoustonState, params: LatticeParams, band_cutoff: int) -> list:
    """Rows (tau, P1, P2, Prest, norm) of a trace stack, for serialization."""
    p1, p2 = band_projections(states, params, 2, band_cutoff).T
    norm = states.norm
    return np.column_stack([states.time, p1, p2, norm ** 2 - (p1 + p2), norm]).tolist()
