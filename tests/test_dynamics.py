from __future__ import annotations

import math
import re
import threading
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from blochdecay import (EigensolverError, HoustonState, LatticeParams,
                        NormDriftError, SolverConfig, band_projections,
                        band_survival, bands, build_bloch_hamiltonian, dynamics,
                        evolve_lattice, extract_plateaus, lz_probability,
                        lz_two_level_ode, trace_rows)
from blochdecay.bands import _CHUNK_ELEMENTS
from blochdecay.dynamics import (_SEGMENTS, _W0, _W1, MIN_SAMPLES_PER_CYCLE,
                                 NORM_TOLERANCE, _coupling_exponentials,
                                 _kinetic_phases, _step, _sweep_phases, cycle_map,
                                 step_grid)


def span_for(alpha, delta):
    edge = 20.0 * max(delta / alpha, 1.0 / math.sqrt(alpha))
    return (-edge, edge)


def dt_for(alpha, delta):
    omega_max = math.hypot(alpha * span_for(alpha, delta)[1], delta)
    return 0.02 / omega_max


# ------------------------------------------------------------ two-level sweep

def test_sweep_zero_coupling_swaps_labels():
    # at zero coupling every split step is exact: the state keeps its diabatic
    # level, which is the upper eigenstate after the crossing
    p = lz_two_level_ode(1.0, 0.0, span_for(1.0, 0.0), dt_for(1.0, 0.0))
    assert p == pytest.approx(1.0, abs=1e-6)


def test_sweep_matches_closed_form():
    p = lz_two_level_ode(1.0, 1.0, span_for(1.0, 1.0), dt_for(1.0, 1.0))
    assert abs(p - math.exp(-math.pi)) < 1e-3


def test_sweep_adiabatic_regime():
    p = lz_two_level_ode(0.05, 1.0, span_for(0.05, 1.0), dt_for(0.05, 1.0))
    assert p < 1e-6


def test_sweep_validates_span_and_inputs():
    with pytest.raises(ValueError):
        lz_two_level_ode(1.0, 1.0, (-5.0, 5.0), 1e-3)  # too short
    with pytest.raises(ValueError):
        lz_two_level_ode(1.0, 1.0, (-30.0, 20.0), 1e-3)  # asymmetric
    with pytest.raises(ValueError):
        lz_two_level_ode(-1.0, 1.0, (-20.0, 20.0), 1e-3)
    with pytest.raises(ValueError, match="coupling must be >= 0"):
        lz_two_level_ode(1.0, -1.0, (-20.0, 20.0), 1e-3)
    with pytest.raises(ValueError, match="empty time span"):
        lz_two_level_ode(1.0, 1.0, (20.0, -20.0), 1e-3)
    with pytest.raises(ValueError):
        lz_two_level_ode(1.0, 1.0, (-20.0, 20.0), 0.0)


def test_sweep_step_count_is_priced_before_any_step(monkeypatch):
    # the half span's m, ceil(t1 / dt) rounded up to whole segments, goes through the
    # work budget: 2e8 steps at dt = 1e-7 (~6 minutes) and an m past the float range are
    # refused before the first step
    def never(*args):
        raise AssertionError("a step ran")
    monkeypatch.setattr(dynamics, "_step", never)
    budget = r"the sweep's steps t_edge / dt need ~\S+ bytes / ~\S+ s \(limit "
    for dt in (1e-7, 1e-300, 5e-324):
        with pytest.raises(ValueError, match=budget):
            lz_two_level_ode(1.0, 1.0, (-20.0, 20.0), dt)


def test_sweep_coarse_dt_error_advises_smaller_dt():
    with pytest.raises(ValueError, match="reduce dt"):
        lz_two_level_ode(1.0, 1.0, (-20.0, 20.0), 0.5)


def full_span_oracle(alpha, delta, t1, m):
    """The sweep's jump probability from all 2m steps of [-t1, t1] in turn, no mirror.

    Each step's factors are formed here, the kinetic phase of a segment [s1, s2]
    as -+alpha (s2 - s1) (s1 + s2) / 2, and applied to the state one step at a time.
    """
    h = t1 / m
    b_long, b_back = _coupling_exponentials(delta, 2, h)
    seg_bounds = np.concatenate([[0.0], np.cumsum(_SEGMENTS * h)])
    bounds = -t1 + h * np.arange(2 * m)[:, None] + seg_bounds  # (2m, 5)
    ph = alpha * np.diff(bounds) * (bounds[:, 1:] + bounds[:, :-1]) / 2.0  # (2m, 4)
    e = np.exp(-1j * np.stack([-ph, ph], axis=-1))[..., None]  # (2m, 4, 2, 1): diagonals
    steps = b_long * e[:, 0].swapaxes(1, 2)  # the factors of _step, first to last
    steps = e[:, 3] * (b_long @ (e[:, 2] * (b_back @ (e[:, 1] * steps))))
    start, end = (scipy.linalg.eigh([[-alpha * t, delta], [delta, alpha * t]])[1]
                  for t in (-t1, t1))
    psi = start[:, 0].tolist()
    for (a, b), (c, d) in steps.tolist():
        psi = [a * psi[0] + b * psi[1], c * psi[0] + d * psi[1]]
    return float(abs(end[:, 1] @ np.array(psi)) ** 2)


@pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0, 2.0])
def test_sweep_matches_full_span_stepwise_oracle(ratio):
    # criterion 1's sweeps (delta^2 / alpha = ratio): the half span's map and its mirror
    # A P A^T P against the 2m steps of the whole span applied one by one, on the same
    # grid; only roundoff separates them (measured <= 4.5e-14)
    alpha, delta = 1.0, math.sqrt(ratio)
    t1 = 20.0 * max(delta, 1.0)
    dt = 0.02 / math.hypot(alpha * t1, delta)
    m = 32 * math.ceil(math.ceil(t1 / dt) / 32)  # the half span's steps, whole segments
    want = full_span_oracle(alpha, delta, t1, m)
    got = lz_two_level_ode(alpha, delta, (-t1, t1), dt)
    assert abs(got - want) < 1e-12, (got, want)


def recorded_bases(monkeypatch):
    """A list that gets the eigenvectors of every dynamics.lowest_eigenpairs call."""
    bases, solve = [], dynamics.lowest_eigenpairs
    def record(h, n, vectors=False):
        w, v = solve(h, n, vectors)
        bases.append(v)
        return w, v
    monkeypatch.setattr(dynamics, "lowest_eigenpairs", record)
    return bases


def test_sweep_end_bases_match_closed_form(monkeypatch):
    # the sweep starts in the lower eigenvector of [[-alpha t, delta], [delta, alpha t]]
    # at t0 < 0 and ends on the upper one at t1 > 0.  On those two branches the closed
    # form (delta, alpha t + sign(t) hypot(alpha t, delta)) cancels nothing (measured
    # <= 2.2e-16); on the other two it does (8.8e-12 off at alpha t = 600, delta = 1e-3),
    # so they are not checked
    ends = recorded_bases(monkeypatch)
    for alpha, delta, edge in ((1.0, 0.0, 20.0), (1.0, 1.0, 20.0), (0.05, 1.0, 400.0),
                               (10.0, 1e-3, 60.0)):
        lz_two_level_ode(alpha, delta, (-edge, edge), 0.4 / math.hypot(alpha * edge, delta))
        basis = ends[-1]  # the last call: both ends, stacked
        for t, got in ((-edge, basis[0, :, 0]), (edge, basis[1, :, 1])):
            a = alpha * t
            want = np.array([delta, a + math.copysign(math.hypot(a, delta), a)])
            want /= np.linalg.norm(want)
            assert np.max(np.abs(got * np.sign(got @ want) - want)) < 1e-15, (alpha, delta, t)


def expm_product(alpha, delta, t_start, h, n=4000):
    """Reference propagator of the sweep over [t_start, t_start + h]: n midpoint exponentials."""
    tm = t_start + h / n * (np.arange(n) + 0.5)
    hams = np.zeros((n, 2, 2))
    hams[:, 0, 0], hams[:, 1, 1] = -alpha * tm, alpha * tm
    hams[:, 0, 1] = hams[:, 1, 0] = delta
    return reduce(lambda acc, u: u @ acc, scipy.linalg.expm(-1j * h / n * hams))


def test_shared_step_is_fourth_order():
    # one batched step of the sweep, the kernel the lattice solver runs, has
    # local error O(h^5): halving h must cut it by ~32, and at least by 16
    alpha, delta, t_start = 1.0, 1.0, -0.3
    def step_identities(ph, coupling):
        block = np.empty((2, ph.shape[2], 2), complex)
        block[...] = np.eye(2)[:, None]
        return _step(block, np.empty_like(block), ph, *coupling)
    errors = []
    for h in (0.2, 0.1, 0.05):
        step = step_identities(_sweep_phases(alpha, np.array([t_start]), h),
                               _coupling_exponentials(delta, 2, h))
        errors.append(np.max(np.abs(step[:, 0] - expm_product(alpha, delta, t_start, h))))
    assert errors[0] / errors[1] >= 16 and errors[1] / errors[2] >= 16, errors
    # block i of a batch of k steps, modes first, takes its own phases only:
    # a batch whose every block steps with step i's phases gives it bit for bit
    t, h = t_start + 0.1 * np.arange(7), 0.1
    ph, coupling = _sweep_phases(alpha, t, h), _coupling_exponentials(delta, 2, h)
    batch = step_identities(ph, coupling)
    assert all(np.array_equal(batch[:, i], step_identities(
        np.repeat(ph[:, :, i:i + 1], 7, axis=2), coupling)[:, i]) for i in range(7))


# --------------------------------------------------------- lattice evolution

def oracle_steps(params, cfg, psi, k0=0.0):
    """Every step of the solver's run in turn, from the state psi at k0: yields (s, state).

    k0 = 0 starts the run at step s = 0.  k0 = -1, the zone edge, resumes it at
    s = m, after its first fold; k0 = 1 is the same edge state labeled from the
    right, relabeled to -1 first.  Times and quasimomenta are the run's from
    k = 0, and the state at the start comes first; the kinetic phases
    are the loop's own, on the steps from k0.  The run ends with cycle
    cfg.n_cycles; a norm change in one of its cycles raises NormDriftError.
    """
    m = step_grid(params, cfg)
    if k0 == 1.0:
        psi = np.concatenate([[0.0], psi[:-1]])
        k0 = -1.0
    dt = params.bloch_period / 2.0 / m
    n_modes = np.arange(-cfg.cutoff, cfg.cutoff + 1, dtype=float)
    c = params.f0 / math.pi
    b_long, b_back = _coupling_exponentials(params.v0 / 4.0, len(psi), dt)
    seg = np.array([_W1 / 2, (_W1 + _W0) / 2, (_W0 + _W1) / 2, _W1 / 2]) * dt
    bounds = np.concatenate([[0.0], np.cumsum(seg)])
    k_start = k0 + np.arange(2 * m) / m
    k_start -= 2.0 * np.floor((k_start + 1.0) / 2.0)
    x = k_start[:, None, None] + 2.0 * n_modes + (c * bounds)[:, None]
    x1, x2 = x[:, :-1], x[:, 1:]  # w/3 (x1^2 + x1 x2 + x2^2) = (x2^3 - x1^3) / (3c), no cancellation
    phases = seg[:, None] / 3.0 * (x1 ** 2 + x1 * x2 + x2 ** 2)
    start = 0 if k0 == 0.0 else m
    folds, norm_prev = int(start > 0), 1.0
    yield start, HoustonState(psi.copy(), start * dt, start / m - 2.0 * folds)
    for j in range(2 * m * cfg.n_cycles - start):
        ph = phases[j % (2 * m)]
        psi = b_long @ (np.exp(-1j * ph[0]) * psi)
        psi = b_back @ (np.exp(-1j * ph[1]) * psi)
        psi = b_long @ (np.exp(-1j * ph[2]) * psi)
        psi = np.exp(-1j * ph[3]) * psi
        s = start + j + 1
        k_now = s / m - 2.0 * folds
        if k_now >= 1.0:
            psi[1:] = psi[:-1]
            psi[0] = 0.0
            folds += 1
            k_now -= 2.0
        if s % (2 * m) == 0:
            norm_now = float(np.linalg.norm(psi))
            if abs(norm_now - norm_prev) > NORM_TOLERANCE:
                raise NormDriftError(f"norm changed in cycle {s // (2 * m)} ")
            norm_prev = norm_now
        yield s, HoustonState(psi.copy(), s * dt, k_now)


def stepwise_oracle(params, cfg, psi, k0=0.0):
    """Reference: the states of oracle_steps from psi at k0 at the ends of the cycles' segments.

    The half cycle's m steps are 32 segments of m / 32 steps; the second half's 32
    segments are their mirror images.  The 64 segment ends of a cycle include the
    fold (step m) and the cycle's end (step 2m).
    """
    m = step_grid(params, cfg)
    half_ends = [m // 32 * (j + 1) for j in range(32)]
    offsets = set(half_ends) | {2 * m - e for e in half_ends} | {0}
    assert len(offsets) == MIN_SAMPLES_PER_CYCLE
    return [state for s, state in oracle_steps(params, cfg, psi, k0) if s % (2 * m) in offsets]


# dt = 0.13 gives m = 64: 32 segments of 2 steps.  dt = 0.01 gives m = 832 = 32 * 26
# (ceil(T_B / 0.02) = 821, rounded up).  The stepwise oracle takes ~1 s for 10 cycles at
# dt = 0.01, so two cases cover that.
# (k0, v0, dt, cycles, cutoff, f0); the escaped population moves one mode outwards per cycle.
# The solver starts at k0 = 0 only; from the zone edge k0 = -+1 the oracle resumes
# its run half a cycle in and follows it for `cycles` more (see the test).
PARITY_CASES = [pytest.param(k0, v0, dt, cycles, 8 if cycles == 1 else 20, 0.383,
                             id=f"{k0}-{v0}-{dt}-{cycles}")
                for k0, v0, dt, cycles in
                [(k0, v0, dt, cycles) for k0 in (0.0, -1.0, 1.0) for v0 in (0.0, 1.0)
                 for dt, cycles in ((0.13, 1), (0.13, 10), (0.01, 1))]
                + [(0.0, 1.0, 0.01, 10), (-1.0, 1.0, 0.01, 10)]]
# The identity block at its widest, the shortest segments, and a wide walk:
PARITY_CASES += [
    # the operating point: one (65, 32, 65) block steps the 32 segments of 26 steps
    pytest.param(0.0, 1.0, 0.01, 3, 32, 0.383, id="one-block-at-cutoff-32"),
    # 64 steps per cycle at cutoff 4: every segment is one step
    pytest.param(0.0, 1.0, 0.26, 1, 4, 0.383, id="one-step-segments"),
    # 14 cycle starts on 11 modes: the walk's blocks are wider than they are tall
    pytest.param(0.0, 18.0, 0.01, 14, 5, 0.383, id="more-cycles-than-modes"),
    # a strong force: T_B / 2 = 0.105 asks for 11 steps of dt, and m rounds up to 32
    pytest.param(0.0, 40.0, 0.01, 3, 8, 30.0, id="strong-force-one-step-segments"),
]


@pytest.mark.parametrize("k0, v0, dt, cycles, cutoff, f0", PARITY_CASES)
def test_cycle_map_solver_matches_stepwise_oracle(k0, v0, dt, cycles, cutoff, f0):
    params = LatticeParams(v0, f0)
    cfg = SolverConfig(cutoff=cutoff, dt=dt, n_cycles=cycles if k0 == 0.0 else cycles + 1)
    states = evolve_lattice(params, cfg)
    psi = states[0].amplitudes
    if k0 != 0.0:
        # the oracle's own state at the zone edge, m steps from k = 0, labeled from the
        # left (after the fold) or, for k0 = 1, from the right (before it); from there
        # it runs the cycles of the solver's run that follow
        m = step_grid(params, cfg)
        psi = next(state for s, state in oracle_steps(params, cfg, psi) if s == m).amplitudes
        if k0 == 1.0:
            psi = np.concatenate([psi[1:], [0.0]])
    expected = stepwise_oracle(params, cfg, psi, k0)
    states = [state for state in states if state.time >= expected[0].time]
    assert len(states) == len(expected)
    for got, want in zip(states, expected):
        assert (got.time, got.quasimomentum) == (want.time, want.quasimomentum)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-11


def test_cycle_map_steps_half_a_cycle(monkeypatch):
    # only the identities are stepped, the m steps of k in [0, 1] once each: the mirror
    # gives the rest of the cycle, and the samples are gemms on the segment maps.  All 32
    # segments are stepped as one stacked (n, W, 32, cols) block of the identity's columns
    # on their windows against one scratch block, m / 32 times.  Where 3 w + 1 < dim, w the
    # reach of a segment, column k's window is the W = 2 w + 1 modes k - w .. k + w of a
    # mode axis padded by w zero modes at either end (n = dim windows of one column);
    # otherwise one window of all dim columns on all dim rows
    half_span, step = dynamics._half_span, dynamics._step
    last, calls, span = {}, [], {}
    def recording_span(dim, m, phases, coupling, dt):
        def recorded(j):
            last.update(j=j, ph=phases(j))  # the step indices and phases of the next step
            return last["ph"]
        span.update(dim=dim, exps=_coupling_exponentials(coupling, dim, dt))
        return half_span(dim, m, recorded, coupling, dt)
    def record(x, y, ph, b_long, b_back):
        (n, rows, k, cols), dim = x.shape, span["dim"]
        pad = (ph.shape[1] - dim) // 2
        assert ph.shape == (4, dim + 2 * pad, k) and (n, rows, cols) in (
            (dim, 2 * pad + 1, 1), (1, dim, dim))
        # the step's phases on the padded mode axis, and each window's sub-blocks of the
        # padded exponentials, strided views of one (dim + 2 pad)^2 matrix each
        assert np.array_equal(ph[:, pad:pad + dim], last["ph"]) and not ph[:, :pad].any() \
            and not ph[:, pad + dim:].any()
        for b, e in zip((b_long, b_back), span["exps"]):
            e = np.pad(e, pad)
            assert np.array_equal(b, [e[i:i + rows, i:i + rows] for i in range(n)])
            assert n == 1 or rows == 1 or np.shares_memory(b[0], b[1])
        calls.append((x, y, last["j"], None if calls else x.copy()))  # x, y held: no id reused
        out = step(x, y, ph, b_long, b_back)
        # a window's rows off the basis, i + a - pad outside [0, dim), stay exactly zero
        modes = np.arange(rows) + np.arange(n)[:, None] - pad
        assert not out[(modes < 0) | (modes >= dim)].any()
        return out
    monkeypatch.setattr(dynamics, "_half_span", recording_span)
    monkeypatch.setattr(dynamics, "_step", record)

    def check_block(m, dim, reach=None):
        """Check the recorded calls: one block pair, m / 32 steps of all 32 segments."""
        w = dim if reach is None else reach
        n, rows, cols, pad = (dim, 2 * w + 1, 1, w) if 3 * w + 1 < dim else (1, dim, dim, 0)
        # the block and its scratch block trade places every step; no step gets a new one
        assert len(calls) == m // 32
        assert len({id(a) for x, y, *_ in calls for a in (x, y)}) == 2
        assert {(x.shape, y.shape) for x, y, *_ in calls} == {((n, rows, 32, cols),) * 2}
        assert all(a[1] is b[0] for a, b in zip(calls, calls[1:]))
        # step i of segment j is step j m / 32 + i of the span, for all 32 segments
        assert all(np.array_equal(j, m // 32 * np.arange(32) + i)
                   for i, (_, _, j, _) in enumerate(calls))
        # window a's row i is mode a + i - pad, its column a cols + c: the identity there,
        # in every segment
        modes = np.arange(rows)[:, None] + np.arange(n)[:, None, None] - pad
        identity = (modes == np.arange(cols) + cols * np.arange(n)[:, None, None]).astype(complex)
        assert np.array_equal(calls[0][3], np.broadcast_to(identity[:, :, None], calls[0][3].shape))

    # the sweep steps its half span [0, t1] through the same build: m rounded up to whole
    # segments, m / 32 steps of one (1, 2, 32, 2) block, and the mirror for [-t1, 0]
    span_t, dt = span_for(1.0, 1.0), dt_for(1.0, 1.0)
    lz_two_level_ode(1.0, 1.0, span_t, dt)
    check_block(32 * math.ceil(math.ceil(span_t[1] / dt) / 32), 2)
    params = LatticeParams(1.0, 0.383)
    for cutoff in (8, 16, 32):
        cfg, dim = SolverConfig(cutoff=cutoff, dt=0.01, n_cycles=2), 2 * cutoff + 1
        calls.clear()
        evolve_lattice(params, cfg)
        m = step_grid(params, cfg)
        # exact-run's point: 65 windows of 25 rows, one column each
        reach = dynamics._reach(0.25, params.bloch_period / 64, dim) if cutoff == 32 else None
        check_block(m, dim, reach)
        if cutoff == 32:
            assert reach == 12 and {x.shape[:2] for x, *_ in calls} == {(65, 25)}
    # cycle_map(params, cutoff, m) steps exactly the m it is given.  A dt = T_B / (2m) would
    # not say it: at f0 = 0.383, T_B / 2 / dt lands a few ulps above each of these m, and
    # step_grid rounds it up to m + 32
    for m in (416, 832, 928, 1664):
        assert step_grid(params, SolverConfig(cutoff=8, dt=params.bloch_period / (2 * m))) \
            == m + 32
        calls.clear()
        cycle_map(params, 8, m)
        check_block(m, 17)


def test_cycle_map_iterates_to_the_trace_cycle_starts():
    # M from psi0 gives rows 64 n of a trace bit for bit: at cutoff 8 over 3 cycles, and
    # over 20 cycles at cutoff 32 (exact-run's point; cutoff 8 trips the norm monitor in
    # cycle 8), both at dt = 0.01, which gives m = 832
    params = LatticeParams(1.0, 0.383)
    for cutoff, cycles in ((8, 3), (32, 20)):
        cfg = SolverConfig(cutoff=cutoff, dt=0.01, n_cycles=cycles)
        assert step_grid(params, cfg) == 832
        cycle, psi0, _ = cycle_map(params, cutoff, 832)
        starts = evolve_lattice(params, cfg).amplitudes[::MIN_SAMPLES_PER_CYCLE]
        x = psi0
        assert np.array_equal(starts[0], x)
        for n in range(1, cycles + 1):
            x = cycle @ x
            assert np.array_equal(starts[n], x), (cutoff, n)


def test_cycle_map_refuses_bad_input_before_any_step(monkeypatch):
    def no_step(*args):
        raise AssertionError("a step was taken")
    monkeypatch.setattr(dynamics, "_step", no_step)
    params = LatticeParams(1.0, 0.383)
    for m in (0, -32, 48, 832.0):
        with pytest.raises(ValueError, match="m must be a positive multiple of 32"):
            cycle_map(params, 8, m)
    with pytest.raises(ValueError, match="cutoff >= 4 required, got 3"):
        cycle_map(params, 3, 832)
    # one build takes one force: an array, even of one element, is refused by cycle_map and,
    # through the same check, by step_grid and so by evolve_lattice
    forces, cfg = LatticeParams(1.0, np.array([0.383])), SolverConfig(cutoff=8)
    for build in (lambda: cycle_map(forces, 8, 832), lambda: step_grid(forces, cfg),
                  lambda: evolve_lattice(forces, cfg)):
        with pytest.raises(ValueError, match=r"one force required .* got f0=\[0.383\]"):
            build()
    # two 53 MB blocks fit, but 26 wide steps of 321-mode gemms are priced at ~11 s; a
    # 402-digit m, which no float holds, is refused by the same budget
    for cutoff, m in ((160, 832), (8, 32 * 10 ** 400)):
        with pytest.raises(ValueError, match=r"^the cutoff and the half-cycle steps m need .* "
                                             r"reduce the cutoff and the half-cycle steps m$"):
            cycle_map(params, cutoff, m)


def test_cycle_map_prices_no_trace():
    # CI's refused 14,000-cycle trace at v0 = 40, f0 = 0.5, cutoff 8: step_grid refuses
    # its 896,001 samples, while the build of the same m alone is admitted
    params = LatticeParams(40.0, 0.5)
    with pytest.raises(ValueError, match="reduce the cutoff, the cycles"):
        step_grid(params, SolverConfig(cutoff=8, n_cycles=14000))
    m = step_grid(params, SolverConfig(cutoff=8, n_cycles=1))
    cycle, psi0, maps = cycle_map(params, 8, m)
    assert m == 640 and maps.shape == (32, 17, 17) and cycle.shape == (17, 17)
    assert abs(np.linalg.norm(cycle @ psi0) - 1.0) < 1e-12


def test_a_failing_step_reaches_the_caller_and_no_build_starts_a_thread(monkeypatch):
    # the build runs in the calling thread: a windowed step that fails at exact-run's
    # cutoff 32 (65 windows of 25 rows) raises through evolve_lattice, and the thread count
    # read inside every step, at cutoffs 8 and 32 and in the sweep, is the caller's
    step = dynamics._step
    params = LatticeParams(1.0, 0.383)
    def fail(x, y, *args):
        if x.shape[:2] == (65, 25):
            raise FloatingPointError("windowed step")
        return step(x, y, *args)
    monkeypatch.setattr(dynamics, "_step", fail)
    with pytest.raises(FloatingPointError, match="windowed step"):
        evolve_lattice(params, SolverConfig(cutoff=32, dt=0.01, n_cycles=2))
    threads, counts = threading.active_count(), []
    def count(*args):
        counts.append(threading.active_count())
        return step(*args)
    monkeypatch.setattr(dynamics, "_step", count)
    for cutoff in (8, 32):
        evolve_lattice(params, SolverConfig(cutoff=cutoff, dt=0.01, n_cycles=2))
    lz_two_level_ode(1.0, 1.0, span_for(1.0, 1.0), dt_for(1.0, 1.0))
    assert counts and set(counts) == {threads}


def test_solver_memory_does_not_grow_with_the_step_count():
    # the build holds two blocks of segment maps whatever m is: tenfold the steps
    # (m = 832 -> 8224 at cutoff 16, 4 cycles) leaves the traced peak within 10%, and
    # so it does at cutoff 32, where the block holds its columns' windows
    params = LatticeParams(1.0, 0.383)
    for cutoff in (16, 32):
        peaks = []
        for dt in (0.01, 0.001):
            cfg = SolverConfig(cutoff=cutoff, dt=dt, n_cycles=4)
            tracemalloc.start()
            try:
                evolve_lattice(params, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], (cutoff, peaks)


def test_windowed_build_holds_no_more_than_one_block(monkeypatch):
    # at exact-run's point the windows' blocks and scratch blocks hold 25 / 65 of the one
    # block's, and the segment maps are filled once the scratch blocks are freed: the
    # windowed build's traced peak is no larger than the build forced to one block
    params = LatticeParams(1.0, 0.383)
    reach = dynamics._reach
    peaks = []
    for forced in (False, True):
        monkeypatch.setattr(dynamics, "_reach",
                            (lambda coupling, seg_time, dim: dim) if forced else reach)
        tracemalloc.start()
        try:
            cycle_map(params, 32, 832)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


# G_j and M of the windowed build against the one-block build: (v0, f0, cutoff, m)
# Cutoff 19 is the first windowed cutoff at exact-run's point, and its windows reach both
# edges of the basis
WINDOW_CASES = [(1.0, 0.383, 19, 832), (1.0, 0.383, 32, 832), (4.0, 0.5, 32, 2048),
                (2.0, 1.5, 40, 512), (10.0, 4.0, 48, 256), (1.0, 0.383, 64, 832)]


@pytest.mark.parametrize("v0, f0, cutoff, m", WINDOW_CASES)
def test_windowed_build_matches_one_block(v0, f0, cutoff, m, monkeypatch):
    # a window drops only entries below 2^-56: G_j and M move by reordered gemms' roundoff
    # (up to 9e-17 and 3e-16 to cutoff 48, 2e-15 and 8e-15 at cutoff 64), within 1e-14
    params, dim = LatticeParams(v0, f0), 2 * cutoff + 1
    assert 3 * dynamics._reach(v0 / 4.0, params.bloch_period / 64, dim) + 1 < dim  # windowed
    cycle, _, maps = cycle_map(params, cutoff, m)
    monkeypatch.setattr(dynamics, "_reach", lambda coupling, seg_time, dim: dim)
    one_cycle, _, one_maps = cycle_map(params, cutoff, m)
    assert np.max(np.abs(maps - one_maps)) < 1e-14
    assert np.max(np.abs(cycle - one_cycle)) < 1e-14


def test_one_block_build_keeps_its_bits_below_the_windows(monkeypatch):
    # at exact-run's point cutoff 18 is the last without windows (3 w + 1 = 37 = dim):
    # its build is the one-block build, bit for bit
    params = LatticeParams(1.0, 0.383)
    assert 3 * dynamics._reach(0.25, params.bloch_period / 64, 37) + 1 == 37
    cycle, _, maps = cycle_map(params, 18, 832)
    monkeypatch.setattr(dynamics, "_reach", lambda coupling, seg_time, dim: dim)
    one_cycle, _, one_maps = cycle_map(params, 18, 832)
    assert np.array_equal(maps, one_maps) and np.array_equal(cycle, one_cycle)


def test_reach_bounds_a_segment_and_stays_finite(monkeypatch):
    # x = |coupling| (2 W1 + |W0|) seg_time; the reach is the smallest w with
    # x^(w+1) / (w+1)! e^(x^2) <= 2^-56, and dim once x >= dim
    reach, x_per = dynamics._reach, 2.0 * _W1 - _W0
    for v0, f0, m, w in ((1.0, 0.383, 832, 12), (4.0, 0.5, 2048, 18), (40.0, 30.0, 64, 11),
                         (0.5, 3.9, 256, 7), (0.0, 0.383, 832, 0)):
        params = LatticeParams(v0, f0)
        assert reach(v0 / 4.0, params.bloch_period / 2.0 / m * (m // 32), 65) == w
        if w:
            x = v0 / 4.0 * x_per * params.bloch_period / 64
            bound = lambda d: x ** d / math.factorial(d) * math.exp(x * x)
            assert bound(w + 1) <= 2.0 ** -56 < bound(w)
    # slow deep points reach every mode, and no coupling time overflows x^2
    assert reach(10.0, LatticeParams(40.0, 0.5).bloch_period / 64, 65) == 65
    for coupling, seg_time, dim in ((1e200, 1e200, 65), (1e300, 1.0, 2), (7.0, 1.0, 321)):
        assert reach(coupling, seg_time, dim) == dim
    assert reach(5.0, 1.0, 321) < 321
    # at zero coupling the windows are one row each and the exponentials exactly I: the
    # v0 = 0 build equals the one-block build entry for entry (a zero off the windows
    # may carry the other sign), and so does the coupling-free sweep
    params = LatticeParams(0.0, 0.383)
    for cutoff in (4, 32):
        cycle, _, maps = cycle_map(params, cutoff, 832)
        monkeypatch.setattr(dynamics, "_reach", lambda coupling, seg_time, dim: dim)
        one_cycle, _, one_maps = cycle_map(params, cutoff, 832)
        monkeypatch.setattr(dynamics, "_reach", reach)
        assert np.array_equal(maps, one_maps) and np.array_equal(cycle, one_cycle)


@pytest.mark.parametrize("cutoff", [8, 16, 32])
def test_trace_is_priced_as_projected(cutoff, monkeypatch):
    # step_grid prices a trace as run projects it: the byte estimate the work budget gets
    # lies within 0.8-2x of the traced peak of evolve_lattice plus trace_rows at run's
    # default band cutoff (counting only the amplitudes, it is ~0.78 of it at cutoff 8).
    # The build inside, cycle_map, prices itself again, with no samples: no more bytes
    estimates = []
    monkeypatch.setattr(dynamics, "check_work",
                        lambda flags, cost, *sizes: estimates.append(cost(*sizes)[0]))
    params = LatticeParams(40.0, 0.5)  # adiabatic: the norm monitor never fires
    tracemalloc.start()
    try:
        trace = evolve_lattice(params, SolverConfig(cutoff=cutoff, n_cycles=300))
        trace_rows(trace, params, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 2 and 0.8 * peak <= estimates[0] <= 2.0 * peak, (estimates, peak)
    assert estimates[1] <= estimates[0], estimates


def test_kinetic_phases_match_exact_arithmetic():
    # the exact-run point: the integral of (k + 2n + c s)^2 over each Yoshida segment,
    # in exact rationals on the same float k, c and segment bounds; the edge modes
    # n = -+32 are where (x2^3 - x1^3) / (3c) lost 3e-10 rad to cancellation.  The table
    # holds the half cycle; step s >= m of the cycle has its phases mirrored, at column
    # 2m - 1 - s with the segment and mode axes reversed, which is why P G_j^T P are
    # the second half's segment maps.
    params, cutoff = LatticeParams(1.0, 0.383), 32
    m = step_grid(params, SolverConfig(cutoff=cutoff, dt=0.01))
    dt, c = params.bloch_period / 2.0 / m, params.f0 / math.pi
    k_start = np.arange(2 * m) / m
    k_start -= 2.0 * np.floor((k_start + 1.0) / 2.0)
    half = _kinetic_phases(k_start[:m], c, dt, cutoff)
    assert half.shape == (4, 2 * cutoff + 1, m)
    bounds = np.concatenate([[0.0], np.cumsum(_SEGMENTS * dt)])
    worst = 0.0
    for s in range(4):
        for i in (0, 1, cutoff, 2 * cutoff - 1, 2 * cutoff):
            for j in (0, m - 1, m, m + 1, 2 * m - 1):
                x1, x2 = (Fraction(k_start[j]) + 2 * (i - cutoff) + Fraction(c) * Fraction(b)
                          for b in bounds[s:s + 2])
                exact = (x2 ** 3 - x1 ** 3) / (3 * Fraction(c))
                got = half[s, i, j] if j < m else half[3 - s, 2 * cutoff - i, 2 * m - 1 - j]
                worst = max(worst, abs(float(Fraction(got) - exact)))
    assert worst < 1e-12, worst


def test_norm_drift_error_in_same_cycle_as_stepwise_oracle():
    params = LatticeParams(1.0, 0.383)
    cfg = SolverConfig(cutoff=8, n_cycles=20, dt=0.01)
    psi = evolve_lattice(params, SolverConfig(cutoff=8, n_cycles=1))[0].amplitudes
    cycle = re.compile(r"in cycle (\d+) ")
    with pytest.raises(NormDriftError) as want:
        stepwise_oracle(params, cfg, psi)
    with pytest.raises(NormDriftError) as got:
        evolve_lattice(params, cfg)
    assert cycle.search(str(got.value))[1] == cycle.search(str(want.value))[1]

def test_free_lattice_collapses_at_first_crossing():
    params = LatticeParams(0.0, 0.383)
    cfg = SolverConfig(cutoff=8, n_cycles=1, dt=0.05)
    states = evolve_lattice(params, cfg)
    # the band-1 vector at k = 0 of the free lattice is the plane wave n = 0, exactly
    assert np.array_equal(states[0].amplitudes, np.eye(2 * cfg.cutoff + 1)[cfg.cutoff])
    t_half = params.bloch_period / 2
    before = [s for s in states if s.time < t_half - 0.5]
    after = [s for s in states if s.time > t_half + 0.5]
    assert band_survival(before[-1], params) == pytest.approx(1.0, abs=1e-12)
    assert band_survival(after[0], params) == 0.0


def test_free_collapse_is_bit_reproducible():
    params = LatticeParams(0.0, 0.383)
    cfg = SolverConfig(cutoff=8, n_cycles=1, dt=0.05)
    a = evolve_lattice(params, cfg)
    b = evolve_lattice(params, cfg)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_adiabatic_cycle_keeps_band_one():
    params = LatticeParams(2.0, 0.05)
    states = evolve_lattice(params, SolverConfig(cutoff=16, n_cycles=1, dt=0.01))
    assert band_survival(states[-1], params) > 0.999
    # transient dressing at the crossing dips the instantaneous projection a little
    assert min(band_survival(s, params) for s in states) > 0.995


def test_unitarity_over_ten_cycles(trace_v1):
    norms = [s.norm for s in trace_v1]
    assert max(abs(n - 1.0) for n in norms) < 1e-8


def test_norm_drift_error_when_cutoff_starves():
    # 20 cycles push the escaped population past an 8-mode basis edge
    params = LatticeParams(1.0, 0.383)
    with pytest.raises(NormDriftError, match="cutoff"):
        evolve_lattice(params, SolverConfig(cutoff=8, n_cycles=20, dt=0.01))


def test_step_halving_converges(paper_params):
    def final_survival(dt):
        states = evolve_lattice(paper_params, SolverConfig(dt=dt, n_cycles=3))
        return band_survival(states[-1], paper_params)
    assert abs(final_survival(0.02) - final_survival(0.01)) < 1e-6


def test_cutoff_doubling_converges(paper_params):
    def final_survival(cutoff):
        states = evolve_lattice(paper_params, SolverConfig(cutoff=cutoff, n_cycles=3))
        return band_survival(states[-1], paper_params)
    assert abs(final_survival(16) - final_survival(32)) < 1e-8


def test_sampling_density_and_final_sample(paper_params):
    states = evolve_lattice(paper_params, SolverConfig(n_cycles=3))
    t_bloch = paper_params.bloch_period
    assert len(states) == 3 * MIN_SAMPLES_PER_CYCLE + 1
    assert states[-1].time == pytest.approx(3 * t_bloch, rel=1e-12)
    # a dt above T_B / 64 still gets 64 steps per cycle, one per sample: dt = 1 runs the
    # grid of dt = T_B / 64, bit for bit
    coarse, fine = (evolve_lattice(paper_params, SolverConfig(dt=dt, n_cycles=3))
                    for dt in (1.0, t_bloch / 64))
    assert len(coarse) == 3 * MIN_SAMPLES_PER_CYCLE + 1
    for field in ("amplitudes", "time", "quasimomentum"):
        assert np.array_equal(getattr(coarse, field), getattr(fine, field)), field


def test_step_grid_rounds_m_up_to_whole_segments(paper_params):
    # T_B / (2 dt) = 32.75 asks for 33 steps per half cycle: m is rounded up to 64,
    # two per segment, and the step only shrinks
    t_bloch = paper_params.bloch_period
    dt = t_bloch / 65.5
    m = step_grid(paper_params, SolverConfig(dt=dt))
    assert m == 64 and m % 32 == 0
    assert t_bloch / (2 * m) <= dt
    # a dt of T_B / 64 or more gives the fewest whole segments, m = 32 of one step each:
    # 61 steps per cycle or dt = 1 round up to dt = T_B / 64's grid, and the step shrinks
    for coarse in (t_bloch / 64, t_bloch / 61, 1.0):
        assert step_grid(paper_params, SolverConfig(dt=coarse)) == 32


def test_projections_complete_and_consistent(trace_v1, paper_params):
    state = trace_v1[len(trace_v1) // 2]
    all_bands = band_projections(state, paper_params, n_bands=state.cutoff,
                                 band_cutoff=state.cutoff)
    assert float(all_bands.sum()) == pytest.approx(state.norm ** 2, abs=1e-10)
    assert band_survival(state, paper_params) == pytest.approx(all_bands[0], abs=1e-15)
    for n_bands in (0, 11):  # the band cutoff is min(10, 16)
        with pytest.raises(ValueError, match="need 1 <= n_bands <= band cutoff=10"):
            band_projections(state, paper_params, n_bands=n_bands)


def test_eigensolver_failure_maps_to_eigensolver_error(trace_v1, paper_params,
                                                       monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigensolverError, match="no convergence"):
        band_projections(trace_v1[0], paper_params)


def test_gauge_fold_invariance(paper_params):
    # every fold step is a sample
    states = evolve_lattice(paper_params, SolverConfig(dt=0.13, n_cycles=2))
    folded = next(s for s in states if s.quasimomentum == -1.0)
    # undo the relabeling: same physical momenta expressed at k = +1
    pre = np.zeros_like(folded.amplitudes)
    pre[:-1] = folded.amplitudes[1:]
    unfolded = HoustonState(amplitudes=pre, time=folded.time, quasimomentum=1.0)
    assert band_survival(unfolded, paper_params) == pytest.approx(
        band_survival(folded, paper_params), abs=1e-10)


def test_cycle_boundaries_are_samples_and_plateaus_are_overlaps(trace_v1, paper_params):
    # sample 64 n is the state at n T_B, back at k = 0, so the band-1 plateau is
    # |psi0^dagger x_n|^2 with x_n = M^n psi0 (the samples hold modes -16..16 and
    # the plateaus project on modes -10..10)
    boundaries = trace_v1[::MIN_SAMPLES_PER_CYCLE]
    n = np.arange(len(boundaries))
    assert len(boundaries) == 11 and len(trace_v1) == 641
    assert [st.quasimomentum for st in boundaries] == [0.0] * 11
    t_bloch = paper_params.bloch_period
    assert np.allclose([st.time for st in boundaries], n * t_bloch, rtol=1e-14, atol=0)
    psi0 = trace_v1[0].amplitudes
    overlaps = np.abs([psi0.conj() @ st.amplitudes for st in boundaries]) ** 2
    plateaus = extract_plateaus(trace_v1, paper_params).probabilities
    assert np.max(np.abs(plateaus - overlaps)) < 1e-12


def test_plateau_structure(trace_v1, paper_params):
    # survival is flat inside plateaus and drops across the crossings
    t_bloch = paper_params.bloch_period
    times = np.array([s.time for s in trace_v1])
    def p1_at(t):
        return band_survival(trace_v1[int(np.argmin(np.abs(times - t)))], paper_params)
    for n in (1, 2, 3):
        center = p1_at(n * t_bloch)
        off = p1_at(n * t_bloch + t_bloch / 8)
        assert abs(off - center) / center < 0.01
        after = p1_at((n + 1) * t_bloch)
        assert after < 0.75 * center


def test_folded_k_consistent_with_stored_quasimomentum(trace_v1, paper_params):
    # the stored k is f0 tau / pi less 2 per fold so far, and lies in B = [-1, 1)
    for state in trace_v1[::37]:
        folds = (paper_params.f0 * state.time / math.pi - state.quasimomentum) / 2.0
        assert folds == pytest.approx(round(folds), abs=1e-9)
        assert -1.0 <= state.quasimomentum < 1.0


def test_trace_rows_shape(trace_v1, paper_params):
    rows = list(trace_rows(trace_v1[:5], paper_params, 10))
    assert len(rows) == 5
    tau, p1, p2, rest, norm = rows[0]
    assert tau == 0.0
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert abs(p2) < 1e-12
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert abs(p1 + p2 + rest - norm ** 2) < 1e-12


def test_exact_run_point_takes_64_band_eigensolves_and_1_for_the_plateaus(monkeypatch):
    # v0 = 1, f0 = 0.383, cutoff 32, 20 cycles: 1,281 samples on 64 quasimomenta
    params = LatticeParams(1.0, 0.383)
    states = evolve_lattice(params, SolverConfig(cutoff=32, n_cycles=20))
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: shapes.append(h.shape) or eigh(h))
    trace_rows(states, params, 10)
    assert len(states) == 1281 and sum(s[0] for s in shapes) == 64
    shapes.clear()
    extract_plateaus(states, params)
    assert shapes == [(1, 21, 21)]


def test_band_projections_chunk_many_distinct_k_and_match_one_at_a_time(monkeypatch):
    # 400 samples on 300 distinct k: more than the 148 matrices of one chunk at band
    # cutoff 10; reference: the same projection made one sample at a time
    rng = np.random.default_rng(11)
    params = LatticeParams(2.0, 0.5)
    k = rng.uniform(-1.0, 1.0, 300)
    k = np.concatenate([k, rng.choice(k, 100)])
    amps = rng.normal(size=(400, 25)) + 1j * rng.normal(size=(400, 25))
    states = HoustonState(amps, np.arange(400.0), k)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or eigh(h))
    got = band_projections(states, params, 3)
    assert len(calls) > 1 and all(h.size <= _CHUNK_ELEMENTS for h in calls)
    assert np.array_equal(np.concatenate(calls),
                          build_bloch_hamiltonian(params, np.unique(k), 10))
    monkeypatch.undo()
    one = np.array([band_projections(states[i], params, 3) for i in range(len(k))])
    assert np.array_equal(got, one)


def test_many_distinct_k_are_refused_before_any_eigensolve(monkeypatch):
    # a caller's stack of 10^5 snapshots, each at its own quasimomentum: 10^5 eigensolves
    # with vectors at band cutoff 16 are priced at ~5.8 s (bands.check_band_vectors) and
    # refused before any runs.  The amplitudes are one broadcast row, so the peak is
    # np.unique's sort of k (4.9e6 bytes), far below the 5.3e7 bytes the band vectors
    # alone would hold
    k = np.linspace(-1.0, 1.0, 10 ** 5, endpoint=False)
    states = HoustonState(np.broadcast_to(np.ones(33, complex), (len(k), 33)), k, k)
    monkeypatch.setattr(np.linalg, "eigh", None)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="the distinct quasimomenta and the band cutoff "
                                             r"need ~1.15e\+08 bytes / ~5.79 s"):
            band_projections(states, LatticeParams(2.0, 0.5), 2, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 23, peak


def test_band_projections_are_priced_per_sample(monkeypatch):
    # 10^5 samples on the 64 quasimomenta of a trace, state cutoff 32, band cutoff 10:
    # the sort of the quasimomenta and its inverse (41 bytes per sample) set the peak,
    # not the 64 eigensolves.  The byte estimate lies within 1-2x of tracemalloc's peak
    # (measured 1.69x).  The amplitudes are one broadcast row, allocated before the
    # trace starts
    estimates = []
    check_work = bands.check_work
    monkeypatch.setattr(bands, "check_work", lambda flags, cost, *sizes:
                        estimates.append(cost(*sizes)[0]) or check_work(flags, cost, *sizes))
    k = np.resize(np.linspace(-1.0, 1.0, MIN_SAMPLES_PER_CYCLE, endpoint=False), 10 ** 5)
    amps = np.broadcast_to(np.ones(65, complex) / 65.0, (len(k), 65))
    states = HoustonState(amps, k, k)
    tracemalloc.start()
    try:
        band_projections(states, LatticeParams(1.0, 0.383), 2, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1 and peak <= estimates[0] <= 2.0 * peak, (estimates, peak)


def full_cutoff_projections(state, params):
    """P1, P2 of one snapshot on all 2c + 1 modes of its basis."""
    c = state.cutoff
    diag = (state.quasimomentum + 2.0 * np.arange(-c, c + 1)) ** 2
    _, vec = scipy.linalg.eigh_tridiagonal(diag, np.full(2 * c, params.v0 / 4.0),
                                           select="i", select_range=(0, 1))
    return np.abs(vec.T @ state.amplitudes) ** 2


@pytest.mark.parametrize("v0, f0", [(1.0, 0.383), (4.0, 1.0)])
def test_trace_rows_match_full_cutoff_projections(v0, f0, monkeypatch):
    # fast path: one batched eigh over the distinct quasimomenta at band cutoff 10;
    # oracle: one tridiagonal eigensolve per snapshot at the state's cutoff 32
    # (measured <= 7e-14)
    params = LatticeParams(v0, f0)
    states = evolve_lattice(params, SolverConfig(cutoff=32, n_cycles=6))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or eigh(h))
    rows = trace_rows(states, params, 10)
    # the calls hold each distinct quasimomentum's hamiltonian exactly once: the
    # 64 of one cycle, which every cycle repeats
    k = np.unique(states.quasimomentum)
    assert len(k) == MIN_SAMPLES_PER_CYCLE
    assert np.array_equal(np.concatenate(calls), build_bloch_hamiltonian(params, k, 10))
    monkeypatch.undo()
    want = np.array([full_cutoff_projections(st, params) for st in states])
    assert np.max(np.abs(rows[:, 1:3] - want)) < 1e-12
    norms = np.array([st.norm for st in states])
    assert np.max(np.abs(rows[:, 3] - (norms ** 2 - want.sum(axis=1)))) < 1e-12
    assert np.array_equal(rows[:, 4], norms)


def coupling_matrix(coupling, dim):
    """The tridiagonal coupling matrix T: zero diagonal, constant off-diagonal."""
    t = np.zeros((dim, dim))
    i = np.arange(dim - 1)
    t[i, i + 1] = t[i + 1, i] = coupling
    return t


def test_coupling_exponentials_unitary_to_roundoff(monkeypatch):
    # the exponentials come from T's DST-I eigenbasis in closed form, with no eigensolve;
    # reference: scipy.linalg.expm(-i T h) for the two substep widths h = w dt.  Over the
    # lattice's dims 9-129 (measured <= 1.3e-15 unitarity, 1.0e-15 from expm; the
    # eigensolve route gave 5.3e-15 and 2.7e-15) and the sweep's dim 2 (1.1e-16 and
    # 7.2e-17; the eigensolve route's unitarity was 5.6e-16)
    def fail(*args, **kwargs):
        raise AssertionError("eigensolver called")
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, fail)
    cases = [(dim, coupling, dt, 1.5e-15) for dim in (9, 17, 33, 65, 97, 103, 119, 129)
             for coupling in (0.025, 0.25, 1.0, 10.0) for dt in (1e-3, 0.01, 0.05)]
    cases += [(2, delta, h, 2e-16) for delta in (0.1, 0.3, 1.0, 3.0)
              for h in (1e-4, 1e-3, 5e-3, 0.02)]
    for dim, coupling, dt, tol in cases:
        for w, b in zip((_W1, _W0), _coupling_exponentials(coupling, dim, dt)):
            assert np.max(np.abs(b.conj().T @ b - np.eye(dim))) <= tol, (dim, coupling, dt)
            want = scipy.linalg.expm(-1j * (w * dt) * coupling_matrix(coupling, dim))
            assert np.max(np.abs(b - want)) <= tol, (dim, coupling, dt)
    # at zero coupling every exponential is the identity, bit for bit: the free lattice
    # keeps each plane wave exactly
    for dim in (2, 9, 21, 65):
        assert all(np.array_equal(b, np.eye(dim)) for b in _coupling_exponentials(0.0, dim, 0.01))


def test_exact_run_norm_holds_to_roundoff():
    # exact-run's point: v0 = 1, f0 = 0.383, cutoff 32, 20 cycles at the default dt.  Every
    # factor is unitary to roundoff and nothing reaches the basis edge, so each cycle
    # start's norm stays within 1e-11 of 1 (measured 3.2e-12; 2.8e-11 with the
    # eigensolved exponentials).  The norm column trace_rows writes at a cycle start
    # is bit for bit the value the norm monitor checked, trace[::64].norm
    params = LatticeParams(1.0, 0.383)
    trace = evolve_lattice(params, SolverConfig(cutoff=32, n_cycles=20))
    norms = trace[::MIN_SAMPLES_PER_CYCLE].norm
    assert len(norms) == 21 and np.max(np.abs(norms - 1.0)) < 1e-11, norms
    assert np.array_equal(trace_rows(trace, params, 10)[::MIN_SAMPLES_PER_CYCLE, 4], norms)


def test_ode_cross_checks_deep_suppression():
    # exp(-9 pi) ~ 5.1e-13 sits below what a finite sweep window can resolve;
    # the integration still bounds the probability at the tail-leak level.
    p = lz_two_level_ode(1.0, 3.0, (-60.0, 60.0), 0.02 / 60.0)
    assert p == pytest.approx(lz_probability(1.0, 3.0), abs=2e-12)
    assert p < 2e-12
