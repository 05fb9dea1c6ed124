"""Exact single-particle dynamics.

Two solvers live here, on one step kernel:

  * lz_two_level_ode -- the textbook two-level sweep, H(t) with diagonal
    -+ alpha t and constant coupling delta, from the lower instantaneous
    eigenstate.  It is the dimension-2 case of the lattice's step, built
    by the same half-span builder and mirror, so the closed form
    exp(-pi delta^2 / alpha) for the asymptotic jump probability checks the
    integrator the lattice solver runs.

  * evolve_lattice -- the band-1 Bloch state at k = 0 in the accelerated
    lattice, expanded over plane waves exp(i (k(tau) + 2n) pi x / d_L) with
    the drifting quasimomentum k(tau) = f0 tau / pi.  When k(tau) reaches
    the zone edge it is folded back by 2 and the mode labels shift by one,
    which keeps the populated momenta centered in the truncated basis.

The lattice propagator is a fourth-order fixed-step splitting (Yoshida
composition of Strang steps).  The kinetic part is diagonal and its time
dependence integrates in closed form; the coupling part is constant, and
its exponential comes from its sine eigenbasis in closed form.  So every
step is a product of unitaries (to 1.3e-15): norm is conserved to roundoff
and the only possible probability loss is the (monitored) drop of an edge
mode at a fold.  Every other eigenvector here (the sweep's two ends, and
through bands.lowest_bands psi0 and the band projections) comes from
bands.lowest_eigenpairs, which refines what it returns.

The hamiltonian repeats every Bloch period, and the fold falls on the same
step of every cycle, so one cycle is a fixed linear map M on the 2c+1
amplitudes (the Floquet, or Wannier-Stark resonance, picture).  H(k) is
real and H(-k) = P H(k) P, with P the reversal n -> -n of the mode axis;
the 2m steps of a cycle from k = 0 lie mirror-symmetric about k = 0 and
the Yoshida step is palindromic, so the steps of the second half (k from
-1 to 0) are P U^T P of the first half's steps U in reverse order.  With
A the half-cycle map (k from 0 to 1) and F the fold, M = P A^T P F A.
The sweep's H(t) is real with H(-t) = P H(t) P, P the swap, so its map
over [-t1, t1] is A P A^T P, with A the map over [0, t1].

Both solvers therefore step half their span once, on the identity:
_half_span builds the span's coupling exponentials and returns its K = 32
segment maps G_j and their product A.  It steps all K segments as one
block against one scratch block, in the calling thread.  Within one
segment the coupling carries amplitude only a few modes, its reach w
(_reach, a Lieb-Robinson light cone), so each column k is stepped on its
window, the 2w + 1 modes k - w .. k + w of a mode axis padded with w zero
modes at either end: the block is (dim, 2w + 1, K, 1), and each substep
one batched gemm of the exponential's windows against it.  Where 3w + 1
rows are not fewer than dim, one window of all dim columns on all dim
rows, a (1, dim, K, dim) block.  A lattice segment lasts T_B / 64
whatever m is, so its reach depends on v0 and f0 alone.
cycle_map(params, cutoff, m) builds the lattice's M, psi0 and G_j from
exactly the m half-cycle steps it is given, priced as a build alone;
evolve_lattice takes m from step_grid and runs them: its samples, m / K
steps apart, are the ends of the cycle's 2K segments, so every cycle
boundary n T_B (k = 0) is one.  That costs one build of half a cycle in
m / K wide steps, of at most dim^3 each and dim (2w + 1)^2 once windows
engage (from cutoff 19 at v0 = 1, f0 = 0.383, where w = 12), plus
2K - 1 dim^2 N gemms.  All three step counts (the sweep's, step_grid's
and cycle_map's) are rounded up to whole segments and priced by one
rule, _half_steps.

The survival is flat between zone-edge crossings: extract_plateaus reads
its plateaus off a trace's cycle starts, rows 64 n at t = n T_B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .bands import (_CHUNK_ELEMENTS, DEFAULT_CUTOFF, MIN_CUTOFF, SWEEP_STEP_S, VALUE_BYTES,
                    VALUE_S, WIDE_STEP_FLOP_RATE, WIDE_STEP_S, LatticeParams, check_band_vectors,
                    check_count, check_work, lowest_bands, lowest_eigenpairs)
from .stepmodel import SurvivalSeries, _check_sweep

# Yoshida composition weights for the fourth-order splitting.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
# Widths of the four kinetic segments of one step, in units of the step.
_SEGMENTS = np.array([_W1 / 2, (_W1 + _W0) / 2, (_W0 + _W1) / 2, _W1 / 2])

MIN_SAMPLES_PER_CYCLE = 64
# Segments of the half cycle; their ends and their mirror images are the samples.
_HALF_SEGMENTS = MIN_SAMPLES_PER_CYCLE // 2
# A segment map's entries past the reach (_reach) are dropped: 2^-56 is a sixteenth of
# an ulp of 1, so what a window drops is below the roundoff of an O(1) entry.
_REACH_TOLERANCE = 2.0 ** -56
# Largest change of the state norm allowed in one Bloch cycle.
NORM_TOLERANCE = 1e-8
# Fewest whole Bloch cycles extract_plateaus takes from a trace.
MIN_CYCLES = 3


class NormDriftError(RuntimeError):
    """State norm drifted beyond tolerance."""


class TraceTooShortError(ValueError):
    """Trace does not cover enough Bloch cycles for plateau extraction."""


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step solver settings; dt is an upper bound on the step (see step_grid)."""

    cutoff: int = 16
    dt: float = 0.01
    n_cycles: int = 10

    def __post_init__(self):
        check_count("cutoff", self.cutoff, MIN_CUTOFF)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        check_count("n_cycles", self.n_cycles, 1)


@dataclass(frozen=True, eq=False)
class HoustonState:
    """Plane-wave amplitudes at time tau: one snapshot, or a stack of them.

    amplitudes[..., i] belongs to mode n = i - cutoff at momentum
    quasimomentum + 2n; quasimomentum is f0 tau / pi less the zone-edge
    relabelings so far, 2 each, so it stays in B.  A stack (a trace) has a
    leading sample axis on every field and indexes like a list.
    """

    amplitudes: np.ndarray
    time: float | np.ndarray
    quasimomentum: float | np.ndarray

    @property
    def cutoff(self) -> int:
        return (self.amplitudes.shape[-1] - 1) // 2

    @property
    def norm(self) -> float | np.ndarray:
        """Norm of each snapshot: one reduction over the amplitudes' real and imaginary views."""
        re, im = self.amplitudes.real, self.amplitudes.imag
        norm = np.sqrt(np.einsum("...i,...i->...", re, re) + np.einsum("...i,...i->...", im, im))
        return norm if norm.ndim else float(norm)

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, index) -> HoustonState:
        return HoustonState(self.amplitudes[index], self.time[index], self.quasimomentum[index])


def lz_two_level_ode(alpha: float, delta: float, t_span: tuple[float, float],
                     dt: float) -> float:
    """Asymptotic jump probability between the instantaneous eigenstates.

    Integrates the sweep from the lower eigenstate at t_span[0] and
    projects onto the upper eigenstate at t_span[1].  The span must be
    symmetric and wide enough that the residual eigenbasis dressing at
    the edges is negligible: |t_edge| >= 20 max(delta/alpha, 1/sqrt(alpha)).
    A dt above 0.5 / hypot(alpha t_edge, delta) is refused up front.  The
    half span [0, t_edge] takes _half_steps' m steps of t_edge / dt, priced
    at SWEEP_STEP_S per wide step and with no samples; _half_span builds
    its map A, and the span's map is A P A^T P.  Both end bases come from one stacked
    lowest_eigenpairs call on the hamiltonians [[-alpha t, delta],
    [delta, alpha t]] at -+t_edge.
    """
    _check_sweep(alpha, delta)
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

    m = _half_steps(t1 / dt, 2, 0, SWEEP_STEP_S, "the sweep's steps t_edge / dt")
    h = t1 / m
    _, half_map = _half_span(2, m, lambda j: _sweep_phases(alpha, h * j, h), delta, h)
    u = half_map @ half_map.T[::-1, ::-1]
    ends = np.array([[[-alpha * t, delta], [delta, alpha * t]] for t in (-t1, t1)])
    _, basis = lowest_eigenpairs(ends, 2, vectors=True)
    return float(abs(basis[1, :, 1] @ u @ basis[0, :, 0]) ** 2)


def _sweep_phases(alpha: float, t: np.ndarray, h: float) -> np.ndarray:
    """Kinetic phases (4, 2, len(t)) of the sweep's steps of width h from times t.

    The diagonal -+alpha s integrates over a segment to -+alpha times its
    length times its midpoint.
    """
    seg = _SEGMENTS * h
    ph = alpha * seg[:, None] * (t + (np.cumsum(seg) - seg / 2.0)[:, None])
    return np.stack([-ph, ph], axis=1)


def _coupling_exponentials(coupling: float, dim: int, dt: float):
    """exp(-i T h) for the two Yoshida substep widths, I + V diag(expm1(-i lam h)) V^T.

    T is the tridiagonal coupling matrix with zero diagonal and the constant
    off-diagonal coupling (v0/4 in the lattice, delta in the sweep).  Its
    eigenbasis is DST-I: V = sqrt(2/n) sin(pi i j/n), i, j = 1..dim, n = dim + 1,
    and lam = 2 coupling cos(pi j/n); the sine takes i j mod 2n, below 2 pi at
    any dim.  Exactly I at zero coupling; over dims 9-129, unitary to 1.3e-15
    and within 1e-15 of scipy.linalg.expm.
    """
    n, j = dim + 1, np.arange(1, dim + 1)
    vec = math.sqrt(2.0 / n) * np.sin(np.pi / n * (np.outer(j, j) % (2 * n)))
    lam = 2.0 * coupling * np.cos(np.pi / n * j)
    return tuple(np.eye(dim) + (vec * np.expm1(-1j * lam * (w * dt))) @ vec.T for w in (_W1, _W0))


def _half_steps(steps: float, dim: int, samples: int, step_s: float, flags: str) -> int:
    """Steps m of a half span, ceil(steps) rounded up to a multiple of K = 32, priced.

    The one rounding-and-pricing rule of every build: the sweep asks for
    t_edge / dt steps, step_grid for T_B / (2 dt) and its trace's samples,
    cycle_map for its own m (whole segments already) and no samples.

    bands.check_work refuses, naming flags, a build whose two (dim, K, dim)
    blocks (16 K dim^2 bytes each), m / K wide steps (step_s + 24 K dim^3
    flops each) and samples (16 dim + 24 bytes, plus the 5 values run
    projects and writes of each) exceed the budget, so a refusal depends on
    the input alone.  Where _half_span's windows engage, the blocks are
    (dim, 2w + 1, K, 1) and a wide step's gemms 24 K dim (2w + 1)^2 flops,
    so the price is an upper bound there.
    """
    m = float(_HALF_SEGMENTS * np.ceil(steps / _HALF_SEGMENTS))
    def cost(dim, samples):
        k = _HALF_SEGMENTS
        return (2.0 * 16.0 * k * dim * dim + samples * (16.0 * dim + 24.0 + 5.0 * VALUE_BYTES),
                m / k * (step_s + 24.0 * k * dim * dim * dim / WIDE_STEP_FLOP_RATE)
                + samples * 5.0 * VALUE_S)
    check_work(flags, cost, dim, samples)
    return int(m)


def _check_lattice(params: LatticeParams, cutoff: int) -> None:
    """Raise ValueError unless one lattice build can take params (one force) and cutoff."""
    if np.ndim(params.f0):
        raise ValueError(f"one force required for a lattice build, got f0={params.f0}")
    check_count("cutoff", cutoff, MIN_CUTOFF)


def step_grid(params: LatticeParams, cfg: SolverConfig) -> int:
    """Checked m of the solver, _half_steps of T_B / (2 dt): 2m steps of T_B / (2m) <= dt a cycle.

    m >= K, so every dt gives at least 64 steps per cycle, one per sample.
    The build and evolve_lattice's trace are priced in one check: the
    samples as run projects and writes them, a library trace's too, the 5
    values of each trace_rows row, whose bytes also cover the buffers of
    band_projections and HoustonState.norm, priced as README's calibration
    table gives.  An array force is refused with a ValueError.
    """
    _check_lattice(params, cfg.cutoff)
    return _half_steps(params.bloch_period / 2.0 / cfg.dt, 2 * cfg.cutoff + 1,
                       MIN_SAMPLES_PER_CYCLE * cfg.n_cycles + 1, WIDE_STEP_S,
                       "the cutoff, the cycles and the steps per cycle 2 pi / (f0 dt)")


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
    starts (rows 64 n of the trace) catches a loss that matters.
    """
    x[1:] = x[:-1]
    x[0] = 0.0
    return x


def _step(x: np.ndarray, y: np.ndarray, ph: np.ndarray, b_long: np.ndarray,
          b_back: np.ndarray) -> np.ndarray:
    """One Yoshida step of the block x (..., W, K, cols) with the kinetic phases ph (4, R, K).

    x and y are distinct C-contiguous blocks of one shape; y is scratch.
    One window (W, K, cols) on all R = W rows takes exponentials (W, W); a
    stack (n, W, K, cols) of n windows takes exponentials (n, W, W) and
    R = n + W - 1, window a on the rows a .. a + W - 1 of ph.  Block j takes
    the phases ph[:, :, j].  The mode axis comes first within a window, so
    each coupling exponential is one gemm per window over all K cols
    columns, written from one buffer into the other, and each kinetic
    factor, one exp for all windows, multiplies in place through a strided
    view.  The step ends in y, which is returned; x is left as scratch.
    """
    e = np.exp(-1j * ph)
    s0, s1, s2 = e.strides  # a view of the fresh e: ndarray() takes 4 us less than as_strided
    e = np.ndarray((4,) + x.shape[:-1], e.dtype, e, 0, (s0,) + (s1,) * (x.ndim - 2) + (s2,))
    e = e[..., None]
    flat_x, flat_y = (a.reshape(a.shape[:-2] + (-1,)) for a in (x, y))
    x *= e[0]
    np.matmul(b_long, flat_x, out=flat_y)
    y *= e[1]
    np.matmul(b_back, flat_y, out=flat_x)
    x *= e[2]
    np.matmul(b_long, flat_x, out=flat_y)
    y *= e[3]
    return y


def _reach(coupling: float, seg_time: float, dim: int) -> int:
    """Reach w of a segment of seg_time: G_j's entries over w modes off its diagonal are dropped.

    Entrywise |exp(-i T w h)| <= exp(|T| |w| h), and the kinetic factors
    have modulus 1, so |G_j| <= exp(|T| (2 W1 + |W0|) seg_time); the entries
    of that matrix d modes off the diagonal are at most I_d(2x) <= x^d / d!
    e^(x^2), x = |coupling| (2 W1 + |W0|) seg_time.  The reach is the
    smallest w with x^(w+1) / (w+1)! e^(x^2) <= _REACH_TOLERANCE, compared
    in logarithms; 0 at zero coupling, and dim once x >= dim, which no w
    below dim meets.
    """
    x = abs(coupling) * (2.0 * _W1 + abs(_W0)) * seg_time
    if x >= dim:
        return dim
    if x == 0.0:
        return 0
    limit = math.log(_REACH_TOLERANCE) - x * x
    return next((w for w in range(dim) if (w + 1) * math.log(x) - math.lgamma(w + 2) <= limit),
                dim)


def _windows(a: np.ndarray, n: int, rows: int, cols: int) -> np.ndarray:
    """View (..., n, rows, cols) of the last two axes of a: window i starts at row i, column i."""
    s0, s1 = a.strides[-2:]
    return as_strided(a, a.shape[:-2] + (n, rows, cols), a.strides[:-2] + (s0 + s1, s0, s1))


def _half_span(dim: int, m: int, phases, coupling: float, dt: float):
    """Segment maps G_j (K, dim, dim) and their product A of m steps of dt from the identity.

    The m steps (a multiple of K = 32) are K contiguous segments of m / K
    steps; phases(j) gives the kinetic phases (4, dim, len(j)) of the steps
    j.  The two exponentials of the constant coupling are built here, once.
    Column k of every G_j vanishes below roundoff off its window, the
    2 w + 1 modes k - w .. k + w, w = _reach of a segment.  So the mode
    axis is padded with w zero modes at either end, and all K segments are
    stepped as one stacked (dim, 2 w + 1, K, 1) block, the identity's
    columns on their windows, against one scratch block of the same shape.
    Where 3 w + 1 rows would not be fewer than dim, the one window is all
    dim columns on all dim rows, a (1, dim, K, dim) block.  Each wide step
    is one _step, on the windows of the zero-padded exponentials (strided
    views, not copies) and on the (4, dim + 2 w, K) padded phases, so no
    step allocates a block.  The padded rows stay exactly zero, as their
    rows and columns of the exponentials are.  Step i of every segment j
    is step j m / K + i of the span.  Once the scratch block is freed, the
    block fills the segment maps, zero off the windows, and
    A = G_{K-1} ... G_0.
    """
    per = m // _HALF_SEGMENTS
    w = _reach(coupling, per * dt, dim)
    pad, n, rows, cols = (w, dim, 2 * w + 1, 1) if 3 * w + 1 < dim else (0, 1, dim, dim)
    b_long, b_back = (_windows(np.pad(b, pad), n, rows, rows)
                      for b in _coupling_exponentials(coupling, dim, dt))
    x, y = (np.empty((n, rows, _HALF_SEGMENTS, cols), complex) for _ in range(2))
    # x[:, :, j]: the identity's columns on their windows
    x[...] = _windows(np.eye(dim + 2 * pad, dim, -pad), n, rows, cols)[:, :, None]
    starts = per * np.arange(_HALF_SEGMENTS)
    ph = np.zeros((4, dim + 2 * pad, _HALF_SEGMENTS))
    for i in range(per):
        ph[:, pad:pad + dim] = phases(starts + i)
        x, y = _step(x, y, ph, b_long, b_back), x
    del y
    # each G_j padded by the w rows it shares with G_{j-1} and G_{j+1}, rows of theirs off every
    # window (2 w < dim - w): only a block's zero rows land on a shared row
    stacked = np.zeros((_HALF_SEGMENTS * dim + 2 * pad, dim), complex)
    padded = sliding_window_view(stacked, dim + 2 * pad, 0, writeable=True)[::dim].swapaxes(1, 2)
    _windows(padded, n, rows, cols)[...] = x.transpose(2, 0, 1, 3)
    maps = padded[:, pad:pad + dim]  # maps[j] = G_j, C-contiguous
    half_map = maps[0]
    for g in maps[1:]:
        half_map = g @ half_map
    return maps, half_map


def cycle_map(params: LatticeParams, cutoff: int, m: int):
    """Cycle map M = P A^T P F A of 2m steps of T_B / (2m), start state psi0, segment maps G_j.

    Steps exactly m (a positive multiple of K = 32) steps of the half cycle,
    k from 0 to 1, on the dim = 2 cutoff + 1 modes: _half_span gives the
    G_j (K, dim, dim) and A; psi0 is band 1 at k = 0, from bands.lowest_bands.
    Before any step, raises ValueError for an m that is not a positive
    multiple of K, a cutoff that is not an integer >= MIN_CUTOFF, an array
    force, or a build that _half_steps prices beyond the work budget: its
    two blocks and m / K wide steps, with no samples (an m past 1e300,
    which no float holds, is priced as 1e300).
    """
    _check_lattice(params, cutoff)
    if not (isinstance(m, (int, np.integer)) and m > 0 and m % _HALF_SEGMENTS == 0):
        raise ValueError(f"m must be a positive multiple of {_HALF_SEGMENTS}, got m={m}")
    dim = 2 * cutoff + 1
    _half_steps(min(m, 10 ** 300), dim, 0, WIDE_STEP_S, "the cutoff and the half-cycle steps m")
    dt = params.bloch_period / 2.0 / m
    maps, half_map = _half_span(dim, m, lambda j: _kinetic_phases(
        j / m, params.f0 / math.pi, dt, cutoff), params.v0 / 4.0, dt)
    _, psi0 = lowest_bands(params, np.zeros(1), cutoff, 1, vectors=True)
    return half_map.T[::-1, ::-1] @ _fold(half_map.copy()), psi0[0, :, 0], maps


def evolve_lattice(params: LatticeParams, cfg: SolverConfig) -> HoustonState:
    """Propagate the band-1 Bloch state at k = 0 through cfg.n_cycles Bloch periods.

    Returns one HoustonState stack: the start and MIN_SAMPLES_PER_CYCLE
    samples per cycle, m / K steps apart at the ends of the cycle's
    segments; sample 64 n is n T_B, where k is back at 0, and 64 n - 32 the
    fold at k = 1.  Raises NormDriftError naming the first cycle whose norm
    change exceeds NORM_TOLERANCE: the cutoff is too small for the escaped
    population, which climbs one mode per cycle (a smaller dt does not help).

    m comes from step_grid, which prices the build and the trace;
    cycle_map(params, cfg.cutoff, m) builds M, psi0 and the G_j, and this
    runs them.  The cycle starts x_n = M^n psi0 fill rows 64 n; the norm
    monitor checks the built trace's norms there.  The block (dim, N) of cycle starts walks through
    G_0 .. G_{K-1}, is folded, and walks back through the mirror images
    x[::-1] <- G_j^T x[::-1], j = K-1 .. 1; the mirror of G_0 ends on
    x_{n+1}.  Times and quasimomenta are those of a stepwise loop over all
    cycles; amplitudes agree with it to roundoff.
    """
    m = step_grid(params, cfg)
    cycle, psi0, maps = cycle_map(params, cfg.cutoff, m)
    dt = params.bloch_period / 2.0 / m
    n_seg = _HALF_SEGMENTS

    # Row 64 n is cycle n's start; row 64 n + 1 + i its state at the end of segment i.
    amplitudes = np.empty((MIN_SAMPLES_PER_CYCLE * cfg.n_cycles + 1, len(psi0)), complex)
    starts = amplitudes[::MIN_SAMPLES_PER_CYCLE]
    starts[0] = psi0
    for n in range(1, cfg.n_cycles + 1):
        starts[n] = cycle @ starts[n - 1]

    samples = amplitudes[1:].reshape(cfg.n_cycles, 2 * n_seg, len(psi0))
    x = starts[:-1].T
    for j in range(n_seg):
        x = maps[j] @ x
        samples[:, j] = x.T
    x = _fold(samples[:, n_seg - 1].T)
    for j in range(n_seg - 1, 0, -1):  # the mirror of segment j ends where segment j starts
        x = (maps[j].T @ x[::-1])[::-1]
        samples[:, 2 * n_seg - 1 - j] = x.T
    steps = m // n_seg * np.arange(len(amplitudes))
    folds = (steps + m) // (2 * m)
    trace = HoustonState(amplitudes, steps * dt, steps / m - 2.0 * folds)
    drift = np.abs(np.diff(trace[::MIN_SAMPLES_PER_CYCLE].norm))
    n = int(np.argmax(drift > NORM_TOLERANCE))  # the first cycle over tolerance, if any
    if drift[n] > NORM_TOLERANCE:
        raise NormDriftError(f"norm changed by {drift[n]:.2e} in cycle {n + 1} "
                             f"(tolerance {NORM_TOLERANCE}); increase the cutoff")
    return trace


def band_projections(states: HoustonState, params: LatticeParams, n_bands: int = 2,
                     band_cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Populations (..., n_bands) of the lowest instantaneous Bloch bands.

    states is one snapshot or a stack of them.  One batched eigensolve
    (bands.lowest_bands, in bounded chunks) over the distinct quasimomenta
    gives the bands on the central 2b + 1 modes, b = min(band_cutoff,
    state cutoff), beyond which the low band vectors vanish to roundoff;
    each sample gathers the vectors of its k, in row chunks of at most
    _CHUNK_ELEMENTS gathered elements, so the gathered copy is bounded
    whatever the trace length.  An evolve_lattice trace repeats the same
    64 quasimomenta every cycle, so it takes 64 eigensolves whatever its
    length, and its cycle boundaries (all at k = 0) take one.  A caller's
    own stack is priced by bands.check_band_vectors, one eigensolve per
    distinct quasimomentum and the populations of each sample, before any
    eigensolve runs; only the sort that counts the quasimomenta precedes
    it, at 41 bytes per sample against the stack's 16 (2c + 1).
    """
    c = states.cutoff
    b = min(check_count("band_cutoff", band_cutoff, MIN_CUTOFF), c)
    check_count("n_bands", n_bands, 1, b)
    k, inverse = np.unique(states.quasimomentum, return_inverse=True)
    inverse = inverse.ravel()  # some numpy versions shape it like the input
    check_band_vectors(len(inverse), len(k), b, n_bands)
    amps = states.amplitudes.reshape(len(inverse), -1)[:, None, c - b:c + b + 1]
    _, vec = lowest_bands(params, k, b, n_bands, vectors=True)
    populations = np.empty((len(inverse), n_bands))
    rows = max(1, _CHUNK_ELEMENTS // vec[0].size)
    for i in range(0, len(inverse), rows):
        populations[i:i + rows] = np.abs(amps[i:i + rows] @ vec[inverse[i:i + rows]])[:, 0] ** 2
    return populations.reshape(np.shape(states.quasimomentum) + (n_bands,))


def band_survival(state: HoustonState, params: LatticeParams) -> float | np.ndarray:
    """Population of the lowest instantaneous band: a float for a snapshot."""
    p = band_projections(state, params, n_bands=1)[..., 0]
    return p if p.ndim else float(p)


def trace_rows(states: HoustonState, params: LatticeParams, band_cutoff: int) -> np.ndarray:
    """Columns tau, P1, P2, Prest, norm of a trace stack, as one (samples, 5) array.

    P1 and P2 come from one band_projections call, so a trace of any
    length costs one eigensolve per distinct quasimomentum (64).
    """
    p1, p2 = band_projections(states, params, 2, band_cutoff).T
    norm = states.norm
    return np.column_stack([states.time, p1, p2, norm ** 2 - (p1 + p2), norm])


def extract_plateaus(trace, params: LatticeParams | None = None, *,
                     band_cutoff: int = DEFAULT_CUTOFF) -> SurvivalSeries:
    """Plateau values from a solver trace; a SurvivalSeries is returned as it is.

    The plateaus of an evolve_lattice trace are its cycle starts, rows 64 n
    at t = n T_B (k = 0), projected onto the two lowest instantaneous bands
    in one band_projections call, the one the trace's P1 comes from.  Needs
    MIN_CYCLES whole cycles; rows 64 n not at n T_B of params (1e-12
    relative), as in a trace made at another force, raise ValueError.
    """
    if isinstance(trace, SurvivalSeries):
        return trace
    if params is None:
        raise ValueError("params required to extract plateaus from a solver trace")
    if np.ndim(trace.time) == 0 or len(trace) < 2:  # a snapshot has no sample axis
        raise TraceTooShortError("trace has fewer than 2 samples")
    starts = trace[::MIN_SAMPLES_PER_CYCLE]
    if len(starts) <= MIN_CYCLES:
        raise TraceTooShortError(
            f"trace covers {len(starts) - 1} whole Bloch cycles, need >= {MIN_CYCLES}")
    t_bloch = params.bloch_period
    centers = t_bloch * np.arange(len(starts))
    if not np.all(np.abs(starts.time - centers) <= 1e-12 * centers):
        raise ValueError(f"trace rows {MIN_SAMPLES_PER_CYCLE} n are not at n T_B of params "
                         f"(T_B = {t_bloch:.6g}): not this lattice's cycle starts")
    values = band_projections(starts, params, 2, band_cutoff)[:, 0]
    return SurvivalSeries(probabilities=values, t_bloch=t_bloch)
