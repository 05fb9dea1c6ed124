from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from blochdecay import (EigensolverError, HoustonState, LatticeParams,
                        NormDriftError, SolverConfig, band_projections,
                        band_survival, build_bloch_hamiltonian, dynamics,
                        evolve_lattice, extract_plateaus, lz_probability,
                        lz_two_level_ode, trace_rows)
from blochdecay.bands import _CHUNK_ELEMENTS
from blochdecay.dynamics import (_SEGMENTS, _W0, _W1, MIN_SAMPLES_PER_CYCLE,
                                 NORM_TOLERANCE, _coupling_exponentials,
                                 _kinetic_phases, _step, _sweep_phases, step_grid)


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
    with pytest.raises(ValueError):
        lz_two_level_ode(1.0, 1.0, (-20.0, 20.0), 0.0)


def test_sweep_norm_drift_error_advises_smaller_dt():
    with pytest.raises(ValueError, match="reduce dt"):
        lz_two_level_ode(1.0, 1.0, (-20.0, 20.0), 0.5)


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
    errors = []
    for h in (0.2, 0.1, 0.05):
        step = _step(np.eye(2)[:, None], _sweep_phases(alpha, np.array([t_start]), h),
                     *_coupling_exponentials(4.0 * delta, 2, h))
        errors.append(np.max(np.abs(step[:, 0] - expm_product(alpha, delta, t_start, h))))
    assert errors[0] / errors[1] >= 16 and errors[1] / errors[2] >= 16, errors
    # block i of a batch of k steps, modes first, takes its own phases only:
    # a batch whose every block steps with step i's phases gives it bit for bit
    t, h = t_start + 0.1 * np.arange(7), 0.1
    ph, coupling = _sweep_phases(alpha, t, h), _coupling_exponentials(4.0 * delta, 2, h)
    eyes = np.broadcast_to(np.eye(2)[:, None], (2, 7, 2))
    batch = _step(eyes, ph, *coupling)
    assert all(np.array_equal(batch[:, i], _step(eyes, np.repeat(ph[:, :, i:i + 1], 7, axis=2),
                                                 *coupling)[:, i])
               for i in range(7))


# --------------------------------------------------------- lattice evolution

def oracle_steps(params, cfg, psi, k0=0.0):
    """Every step of the solver's run in turn, from the state psi at k0: yields (s, state).

    k0 = 0 starts the run at step s = 0.  k0 = -1, the zone edge, resumes it at
    s = m, after its first fold; k0 = 1 is the same edge state labeled from the
    right, relabeled to -1 first.  Times, fold counts and quasimomenta are the
    run's from k = 0, and the state at the start comes first; the kinetic phases
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
    b_long, b_back = _coupling_exponentials(params.v0, len(psi), dt)
    seg = np.array([_W1 / 2, (_W1 + _W0) / 2, (_W0 + _W1) / 2, _W1 / 2]) * dt
    bounds = np.concatenate([[0.0], np.cumsum(seg)])
    k_start = k0 + np.arange(2 * m) / m
    k_start -= 2.0 * np.floor((k_start + 1.0) / 2.0)
    x = k_start[:, None, None] + 2.0 * n_modes + (c * bounds)[:, None]
    x1, x2 = x[:, :-1], x[:, 1:]  # w/3 (x1^2 + x1 x2 + x2^2) = (x2^3 - x1^3) / (3c), no cancellation
    phases = seg[:, None] / 3.0 * (x1 ** 2 + x1 * x2 + x2 ** 2)
    start = 0 if k0 == 0.0 else m
    folds, norm_prev = int(start > 0), 1.0
    yield start, HoustonState(psi.copy(), start * dt, folds, start / m - 2.0 * folds)
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
        yield s, HoustonState(psi.copy(), s * dt, folds, k_now)


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
# (k0, v0, dt, cycles, cutoff); the escaped population moves one mode outwards per cycle.
# The solver starts at k0 = 0 only; from the zone edge k0 = -+1 the oracle resumes
# its run half a cycle in and follows it for `cycles` more (see the test).
PARITY_CASES = [pytest.param(k0, v0, dt, cycles, 8 if cycles == 1 else 20,
                             id=f"{k0}-{v0}-{dt}-{cycles}")
                for k0, v0, dt, cycles in
                [(k0, v0, dt, cycles) for k0 in (0.0, -1.0, 1.0) for v0 in (0.0, 1.0)
                 for dt, cycles in ((0.13, 1), (0.13, 10), (0.01, 1))]
                + [(0.0, 1.0, 0.01, 10), (-1.0, 1.0, 0.01, 10)]]
# How the identity pass groups the 32 half-cycle segments, and where the fold falls:
PARITY_CASES += [
    # the operating point: 65 modes give groups of 15, 15 and 2 segments of 26 steps
    pytest.param(0.0, 1.0, 0.01, 3, 32, id="groups-15-15-2-at-cutoff-32"),
    # 64 steps per cycle at cutoff 4: every segment is one step
    pytest.param(0.0, 1.0, 0.26, 1, 4, id="one-step-segments"),
    # 14 cycle starts on 11 modes: the walk's blocks are wider than they are tall
    pytest.param(0.0, 18.0, 0.01, 14, 5, id="more-cycles-than-modes"),
]


@pytest.mark.parametrize("k0, v0, dt, cycles, cutoff", PARITY_CASES)
def test_cycle_map_solver_matches_stepwise_oracle(k0, v0, dt, cycles, cutoff):
    params = LatticeParams(v0, 0.383)
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
        assert (got.time, got.n_folds, got.quasimomentum) == (
            want.time, want.n_folds, want.quasimomentum)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-11


def test_cycle_map_steps_half_a_cycle(monkeypatch):
    # only the identity blocks are stepped, the m steps of k in [0, 1] once each: the
    # mirror gives the rest of the cycle, and the samples are gemms on the segment maps.
    # At cutoff 32 the 32 segments step in groups of at most 15.
    step = dynamics._step
    stepped = Counter()  # segments stepped, by the columns of their blocks
    def count(x, *args):
        assert x.shape[1] * x.shape[0] * x.shape[2] <= _CHUNK_ELEMENTS
        stepped[x.shape[2]] += x.shape[1]
        return step(x, *args)
    monkeypatch.setattr(dynamics, "_step", count)
    for cutoff in (8, 32):
        params, cfg = LatticeParams(1.0, 0.383), SolverConfig(cutoff=cutoff, dt=0.01, n_cycles=2)
        stepped.clear()
        evolve_lattice(params, cfg)
        assert stepped == {2 * cutoff + 1: step_grid(params, cfg)}


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
    with pytest.raises(ValueError):
        evolve_lattice(paper_params, SolverConfig(dt=1.0))  # < 64 steps per cycle


def test_step_grid_rounds_m_up_to_whole_segments(paper_params):
    # T_B / (2 dt) = 32.75 asks for 33 steps per half cycle: m is rounded up to 64,
    # two per segment, and the step only shrinks
    t_bloch = paper_params.bloch_period
    dt = t_bloch / 65.5
    m = step_grid(paper_params, SolverConfig(dt=dt))
    assert m == 64 and m % 32 == 0
    assert t_bloch / (2 * m) <= dt
    # the 64-step floor holds for the requested dt: 61 steps per cycle would round up
    # to 64, and are refused
    for coarse in (t_bloch / 61, 1.0):
        with pytest.raises(ValueError, match="steps per cycle"):
            step_grid(paper_params, SolverConfig(dt=coarse))


def test_projections_complete_and_consistent(trace_v1, paper_params):
    state = trace_v1[len(trace_v1) // 2]
    all_bands = band_projections(state, paper_params, n_bands=state.cutoff,
                                 band_cutoff=state.cutoff)
    assert float(all_bands.sum()) == pytest.approx(state.norm ** 2, abs=1e-10)
    assert band_survival(state, paper_params) == pytest.approx(all_bands[0], abs=1e-15)


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
    folded = next(s for s in states if s.n_folds >= 1 and s.quasimomentum == -1.0)
    # undo the relabeling: same physical momenta expressed at k = +1
    pre = np.zeros_like(folded.amplitudes)
    pre[:-1] = folded.amplitudes[1:]
    unfolded = HoustonState(amplitudes=pre, time=folded.time, n_folds=folded.n_folds - 1,
                            quasimomentum=1.0)
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
    assert [st.n_folds for st in boundaries] == n.tolist()
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
    for state in trace_v1[::37]:
        k = paper_params.f0 * state.time / math.pi - 2 * state.n_folds
        assert k == pytest.approx(state.quasimomentum, abs=1e-9)


def test_trace_rows_shape(trace_v1, paper_params):
    rows = list(trace_rows(trace_v1[:5], paper_params, 10))
    assert len(rows) == 5
    tau, p1, p2, rest, norm = rows[0]
    assert tau == 0.0
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert abs(p2) < 1e-12
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert abs(p1 + p2 + rest - norm ** 2) < 1e-12


def full_cutoff_projections(state, params):
    """P1, P2 of one snapshot on all 2c + 1 modes of its basis."""
    c = state.cutoff
    diag = (state.quasimomentum + 2.0 * np.arange(-c, c + 1)) ** 2
    _, vec = scipy.linalg.eigh_tridiagonal(diag, np.full(2 * c, params.v0 / 4.0),
                                           select="i", select_range=(0, 1))
    return np.abs(vec.T @ state.amplitudes) ** 2


@pytest.mark.parametrize("v0, f0", [(1.0, 0.383), (4.0, 1.0)])
def test_trace_rows_match_full_cutoff_projections(v0, f0, monkeypatch):
    # fast path: batched eigh over the samples at band cutoff 10, in bounded chunks;
    # oracle: one tridiagonal eigensolve per snapshot at the state's cutoff 32
    # (measured <= 7e-14)
    params = LatticeParams(v0, f0)
    states = evolve_lattice(params, SolverConfig(cutoff=32, n_cycles=6))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or eigh(h))
    rows = np.array(list(trace_rows(states, params, 10)))
    # the chunks hold every snapshot's hamiltonian exactly once, in order
    assert np.array_equal(np.concatenate(calls), build_bloch_hamiltonian(
        params, [st.quasimomentum for st in states], 10))
    assert len(calls) > 1 and all(h.size <= _CHUNK_ELEMENTS for h in calls)
    monkeypatch.undo()
    want = np.array([full_cutoff_projections(st, params) for st in states])
    assert np.max(np.abs(rows[:, 1:3] - want)) < 1e-12
    norms = np.array([st.norm for st in states])
    assert np.max(np.abs(rows[:, 3] - (norms ** 2 - want.sum(axis=1)))) < 1e-12
    assert np.array_equal(rows[:, 4], norms)


def test_coupling_exponentials_unitary_to_roundoff():
    # the exact-run operating point: dim 65, v0 = 1, dt = T_B / (2m) <= 0.01
    params = LatticeParams(1.0, 0.383)
    m = step_grid(params, SolverConfig(cutoff=32, n_cycles=20))
    for b in _coupling_exponentials(1.0, 65, params.bloch_period / 2.0 / m):
        assert np.max(np.abs(b.conj().T @ b - np.eye(65))) < 1e-14


def test_ode_cross_checks_deep_suppression():
    # exp(-9 pi) ~ 5.1e-13 sits below what a finite sweep window can resolve;
    # the integration still bounds the probability at the tail-leak level.
    p = lz_two_level_ode(1.0, 3.0, (-60.0, 60.0), 0.02 / 60.0)
    assert p == pytest.approx(lz_probability(1.0, 3.0), abs=2e-12)
    assert p < 2e-12
