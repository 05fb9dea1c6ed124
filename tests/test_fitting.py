from __future__ import annotations

import math

import numpy as np
import pytest

from blochdecay import (HoustonState, LatticeParams, SolverConfig, StepIngredients,
                        SurvivalSeries, TraceTooShortError, band_survival,
                        compare_models, default_window, evolve_lattice,
                        evolve_steps, extract_plateaus, fit_exponential,
                        gamma_asymptotic, spectral_decompose, step_operator,
                        z_exact)


def synthetic_series(z, gamma, t_bloch, n):
    t = t_bloch * np.arange(n + 1)
    return SurvivalSeries(probabilities=z * np.exp(-gamma * t), t_bloch=t_bloch)


# ----------------------------------------------------------- extraction

def test_effective_series_passes_through(operator_v1, paper_params, trace_v1):
    series = evolve_steps(operator_v1, 8, t_bloch=paper_params.bloch_period)
    assert extract_plateaus(series) is series
    assert series.t_bloch == paper_params.bloch_period
    # a solver trace is read against its lattice, which it does not carry
    with pytest.raises(ValueError, match="params required"):
        extract_plateaus(trace_v1)


def test_plateau_count_matches_cycles(trace_v1, paper_params):
    plate = extract_plateaus(trace_v1, paper_params)
    assert len(plate) == 11  # n_cycles + 1
    assert plate.probabilities[0] == pytest.approx(1.0, abs=1e-9)
    assert plate.t_bloch == paper_params.bloch_period


def test_extract_plateaus_makes_one_eigensolver_call(trace_v1, paper_params, monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    extract_plateaus(trace_v1, paper_params)
    assert calls == [(1, 21, 21)]  # the 11 plateaus all sit at k = 0


def test_plateaus_refuse_rows_off_the_cycle_boundaries(trace_v1, paper_params):
    # the plateaus are rows 64 n; a trace whose rows 64 n are not at n T_B of params
    # is refused, not searched for the sample nearest each boundary
    times = trace_v1.time.copy()
    times[1:-1] += 0.6 * times[1]  # inner samples moved 0.6 strides later
    shifted = HoustonState(trace_v1.amplitudes, times, trace_v1.quasimomentum)
    with pytest.raises(ValueError, match="not at n T_B"):
        extract_plateaus(shifted, paper_params)
    # the trace made at f0 = 0.383 read with the params of another force
    with pytest.raises(ValueError, match="not at n T_B"):
        extract_plateaus(trace_v1, LatticeParams(paper_params.v0, 0.3))


def test_trace_cut_mid_cycle_gives_its_whole_cycles_plateaus(trace_v1, paper_params):
    # rows 0 .. 199 hold the cycle starts 0, 64, 128 and 192
    cut = extract_plateaus(trace_v1[:200], paper_params).probabilities
    full = extract_plateaus(trace_v1, paper_params).probabilities
    assert np.array_equal(cut, full[:4])


def test_trace_too_short_raises(paper_params):
    states = evolve_lattice(paper_params, SolverConfig(n_cycles=2))
    with pytest.raises(TraceTooShortError):
        extract_plateaus(states, paper_params)


def test_single_snapshot_is_too_short(trace_v1, paper_params):
    # one HoustonState snapshot has no sample axis: refused like a one-sample stack
    for trace in (trace_v1[0], trace_v1[:1]):
        with pytest.raises(TraceTooShortError, match="fewer than 2 samples"):
            extract_plateaus(trace, paper_params)


def test_plateaus_insensitive_to_sampling_phase(trace_v1, paper_params):
    # residual interband beating limits plateau flatness to ~2.5e-3 relative
    t_bloch = paper_params.bloch_period
    times = np.array([s.time for s in trace_v1])
    for n in (1, 3, 5):
        center = band_survival(trace_v1[int(np.argmin(np.abs(times - n * t_bloch)))],
                               paper_params)
        for shift in (-t_bloch / 64, t_bloch / 64):
            t = n * t_bloch + shift
            jittered = band_survival(trace_v1[int(np.argmin(np.abs(times - t)))],
                                     paper_params)
            assert abs(jittered - center) / center < 5e-3


# ----------------------------------------------------------------- fitting

def test_fit_recovers_exact_exponential():
    t_bloch = 16.405553603155695
    series = synthetic_series(0.8, 0.1, t_bloch, 14)
    fit = fit_exponential(series, (2, 10))
    assert fit.z == pytest.approx(0.8, abs=1e-12)
    assert fit.gamma == pytest.approx(0.1, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_pure_cascade_intercept_is_unity():
    series = evolve_steps(step_operator(StepIngredients(0.8, 0.0, 0.0)), 14,
                          t_bloch=3.0)
    fit = fit_exponential(extract_plateaus(series), (2, 12))
    assert fit.z == pytest.approx(1.0, abs=1e-10)
    assert fit.gamma == pytest.approx(-math.log(0.8 ** 2) / 3.0, rel=1e-10)


def test_fit_effective_model_matches_spectral(operator_v1, paper_params):
    t_bloch = paper_params.bloch_period
    series = evolve_steps(operator_v1, 14, t_bloch=t_bloch)
    fit = fit_exponential(extract_plateaus(series), (6, 14))
    sd = spectral_decompose(operator_v1)
    assert abs(fit.gamma - gamma_asymptotic(sd) / t_bloch) < 1e-4
    assert abs(fit.z - z_exact(sd)) < 1e-3


def test_fit_window_moves_late_converges_geometrically(operator_v1, paper_params):
    t_bloch = paper_params.bloch_period
    series = evolve_steps(operator_v1, 16, t_bloch=t_bloch)
    plate = extract_plateaus(series)
    sd = spectral_decompose(operator_v1)
    errs = [abs(fit_exponential(plate, (lo, lo + 2)).z - z_exact(sd))
            for lo in (1, 4, 7)]
    assert errs[0] > errs[1] > errs[2]


def test_fit_validates_window_and_values():
    series = synthetic_series(1.0, 0.1, 2.0, 6)
    with pytest.raises(ValueError):
        fit_exponential(series, (5, 12))
    with pytest.raises(ValueError):
        fit_exponential(series, (4, 4))
    bad = SurvivalSeries(probabilities=np.array([1.0, 0.0, 0.1]), t_bloch=1.0)
    with pytest.raises(ValueError):
        fit_exponential(bad, (0, 2))


def test_default_window_clamps():
    assert default_window(20) == (6, 14)
    assert default_window(11) == (6, 10)


# -------------------------------------------------------------- comparison

def test_compare_identical_is_zero():
    series = synthetic_series(0.9, 0.2, 1.0, 8)
    devs, mx = compare_models(series, series)
    assert np.all(devs == 0.0)
    assert mx == 0.0


def test_compare_rejects_length_mismatch():
    a = synthetic_series(1.0, 0.1, 1.0, 5)
    b = synthetic_series(1.0, 0.1, 1.0, 6)
    with pytest.raises(ValueError):
        compare_models(a, b)


def test_compare_swap_rescales_by_ratio():
    a = synthetic_series(1.0, 0.12, 1.0, 6)
    b = synthetic_series(0.95, 0.10, 1.0, 6)
    dev_ab, _ = compare_models(a, b)
    dev_ba, _ = compare_models(b, a)
    assert np.allclose(dev_ab * b.probabilities, dev_ba * a.probabilities, rtol=1e-12)


def test_compare_window_max():
    a = synthetic_series(1.0, 0.1, 1.0, 6)
    values = a.probabilities.copy()
    values[5] *= 1.5
    b = SurvivalSeries(probabilities=values, t_bloch=1.0)
    devs, mx_all = compare_models(b, a)
    _, mx_head = compare_models(b, a, window=(0, 3))
    assert mx_all == pytest.approx(0.5, rel=1e-12)
    assert mx_head == pytest.approx(0.0, abs=1e-15)
    for window in ((0, 7), (-1, 3), (4, 2)):
        with pytest.raises(ValueError, match="outside series of length 7"):
            compare_models(b, a, window=window)


def test_z_exceeds_unity_at_resonant_phase(mean_gap_v1):
    # constructive interband interference pushes the extrapolated intercept
    # above 1; both descriptions agree on the side of unity
    params = LatticeParams(1.0, mean_gap_v1)  # cos(phi) = +1
    ing = StepIngredients.from_lattice(params, mean_gap=mean_gap_v1)
    z_model = z_exact(spectral_decompose(step_operator(ing)))
    trace = evolve_lattice(params, SolverConfig(n_cycles=10))
    fit = fit_exponential(extract_plateaus(trace, params), (6, 10))
    assert z_model > 1.0
    assert fit.z > 1.0


def test_cross_model_regression_shallow_slow_point():
    # frozen pipeline fixture: v0=0.5, f0=0.2, six cycles, default solver
    params = LatticeParams(0.5, 0.2)
    trace = evolve_lattice(params, SolverConfig(n_cycles=6))
    plate = extract_plateaus(trace, params)
    expected = np.array([0.9999999999999993, 0.31885790101164335,
                         0.10094038556721531, 0.03201535745032963,
                         0.01015446022676536, 0.003220731980815412,
                         0.0010215328179403948])
    assert np.allclose(plate.probabilities, expected, rtol=1e-6)
    ing = StepIngredients.from_lattice(params)
    series = evolve_steps(step_operator(ing), 6, t_bloch=params.bloch_period)
    devs, mx = compare_models(plate, extract_plateaus(series))
    assert mx == pytest.approx(0.10561649218529245, abs=2e-3)
    assert devs[:5].max() < 0.08
