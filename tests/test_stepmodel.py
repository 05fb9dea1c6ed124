from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from blochdecay import (DegenerateSpectrumError, LatticeParams,
                        StepIngredients, SurvivalSeries, bloch_phase, evolve_steps,
                        gamma_asymptotic, gamma_sequence, lz_probability,
                        mean_band_gap,
                        p_lz_12, renorm_fit, ret_resonances,
                        spectral_decompose, step_operator, stepmodel, z_exact,
                        z_first_order, z_running_estimate)
from blochdecay.stepmodel import MODULUS_TIE_TOL


def make_op(s12, s23, phi):
    return step_operator(StepIngredients(s12, s23, phi))


def random_ingredients(rng, ratio_max=None):
    """Valid draw; optionally reject slow spectral convergence."""
    while True:
        ing = StepIngredients(s12=rng.uniform(0.3, 0.98),
                              s23=rng.uniform(0.0, 0.3),
                              phi=rng.uniform(-8 * np.pi, 0.0))
        if ratio_max is None:
            return ing
        try:
            sd = spectral_decompose(step_operator(ing))
        except DegenerateSpectrumError:
            continue
        if abs(sd.e2 / sd.e1) <= ratio_max:
            return ing


# ---------------------------------------------------------------- formulas

def test_lz_probability_values():
    assert lz_probability(np.pi, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert lz_probability(3.7, 0.0) == 1.0
    with pytest.raises(ValueError):
        lz_probability(0.0, 1.0)
    with pytest.raises(ValueError):
        lz_probability(1.0, -0.5)


def test_lz_probability_past_the_float_range_of_delta_squared():
    # delta ** 2 raises OverflowError from delta ~ 1.34e154 and pi delta^2 is inf from
    # ~7.6e153: the exponent then divides by alpha first
    assert lz_probability(1.0, 1e200) == 0.0
    assert lz_probability(1e308, 1.5e154) == pytest.approx(math.exp(-2.25 * math.pi), rel=1e-14)
    # below that it is the plain formula, bit for bit: delta * delta differs from
    # delta ** 2 in the last bit for ~1 in 1,200 inputs, so 100,000 pairs catch it
    rng = np.random.default_rng(22)
    log_delta = rng.uniform(-100.0, 153.8, 100_000)
    paired = np.minimum(2.0 * log_delta + rng.uniform(-3.0, 4.0, 100_000), 300.0)  # exponent ~1
    log_alpha = np.where(np.arange(100_000) % 2, paired, rng.uniform(-300.0, 300.0, 100_000))
    for alpha, delta in zip((10.0 ** log_alpha).tolist(), (10.0 ** log_delta).tolist()):
        assert lz_probability(alpha, delta) == math.exp(-math.pi * delta ** 2 / alpha)


def test_p_lz_12_values():
    assert p_lz_12(LatticeParams(1.0, 0.383)) == pytest.approx(0.4469593780413833, rel=1e-12)
    assert p_lz_12(LatticeParams(0.0, 0.7)) == 1.0
    assert p_lz_12(LatticeParams(1.0, 1e-4)) < 1e-100  # adiabatic limit: no tunneling out


def test_p_lz_23_values():
    # the band-2 -> 3 Zener probability p23 = 1 - s23^2 of StepIngredients.from_lattice
    def p23(v0, f0):
        return 1.0 - StepIngredients.from_lattice(LatticeParams(v0, f0), mean_gap=1.0).s23 ** 2
    assert p23(1.0, 0.383) == pytest.approx(0.9984284089685025, rel=1e-12)
    ing = StepIngredients.from_lattice(LatticeParams(1.0, 0.383), mean_gap=2.106303516768004)
    assert ing.s23 == pytest.approx(0.03964329743471789, rel=1e-12)
    assert p23(0.0, 0.7) == 1.0  # fully open second band
    assert p23(4.0, 1.0) == pytest.approx(0.8570898111217011, rel=1e-12)


def test_ingredients_validation():
    with pytest.raises(ValueError):
        StepIngredients(1.2, 0.1, 0.0)
    with pytest.raises(ValueError):
        StepIngredients(0.5, -0.1, 0.0)
    with pytest.raises(ValueError):
        StepIngredients(0.5, 0.1, float("inf"))
    ing = StepIngredients(0.6, 0.1, 1.0)
    assert ing.s12 ** 2 + ing.p12 ** 2 == pytest.approx(1.0, abs=1e-15)


def test_from_lattice_survival_split(paper_params, mean_gap_v1, ingredients_v1):
    # band-1 survival and the Zener jump exhaust the unit probability
    assert ingredients_v1.s12 ** 2 + p_lz_12(paper_params) == pytest.approx(1.0, abs=1e-14)
    p23 = math.exp(-math.pi ** 2 * paper_params.v0 ** 4 / (16384.0 * paper_params.f0))
    assert ingredients_v1.s23 ** 2 + p23 == pytest.approx(1.0, abs=1e-14)
    assert ingredients_v1.phi == bloch_phase(paper_params, mean_gap_v1)


def test_shallow_survival_amplitude_keeps_full_precision():
    # p23 = exp(-x) with x ~ 1e-5 here: 1 - p23 would cancel five digits
    ing = StepIngredients.from_lattice(LatticeParams(0.5, 3.9), mean_gap=1.0)
    x = math.pi ** 2 * 0.5 ** 4 / (16384.0 * 3.9)
    assert ing.s23 ** 2 == pytest.approx(-math.expm1(-x), rel=1e-14, abs=0.0)


# ------------------------------------------------------------ step operator

def test_step_operator_no_transition_limit():
    u = make_op(1.0, 0.7, 1.3)
    w = np.exp(1.3j)
    assert np.allclose(u, np.diag([1.0, 0.7 * w]), atol=1e-15)
    series = evolve_steps(u, 8)
    assert np.all(series.probabilities == 1.0)


def test_step_operator_fully_lossy_second_band():
    u = make_op(0.6, 0.0, 0.9)
    assert np.all(u[:, 1] == 0.0)
    lam = np.linalg.eigvals(u)
    assert sorted(np.abs(lam)) == pytest.approx([0.0, 0.6], abs=1e-15)


def test_singular_values_frozen_example(paper_params, mean_gap_v1):
    phi = bloch_phase(paper_params, mean_gap_v1)
    u = make_op(0.6685, 0.0396, phi)
    sv = np.linalg.svd(u, compute_uv=False)
    assert np.max(np.abs(sv - [1.0, 0.0396])) < 1e-12


def test_singular_values_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ing = random_ingredients(rng)
        sv = np.linalg.svd(step_operator(ing), compute_uv=False)
        assert np.max(np.abs(sv - [1.0, ing.s23])) < 1e-12


def test_contraction_property():
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = step_operator(random_ingredients(rng))
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert np.linalg.norm(u @ v) <= np.linalg.norm(v) * (1 + 1e-12)


def test_factor_order_irrelevant_on_initial_state():
    # the loss/phase factor acts trivially on band 1 before the first crossing
    ing = StepIngredients(0.7, 0.2, 2.1)
    u = step_operator(ing)
    rot = np.array([[ing.s12, -ing.p12], [ing.p12, ing.s12]])
    e1 = np.array([1.0, 0.0])
    assert np.allclose(u @ e1, rot @ e1, atol=1e-15)


# ------------------------------------------------------------- iteration

def test_first_step_is_pure_crossing():
    rng = np.random.default_rng(9)
    for _ in range(20):
        ing = random_ingredients(rng)
        series = evolve_steps(step_operator(ing), 3)
        assert series.probabilities[1] == ing.s12 ** 2


def test_pure_cascade_powers():
    u = make_op(0.8, 0.0, 0.4)
    series = evolve_steps(u, 12)
    expected = (0.8 ** 2) ** np.arange(13)
    assert np.allclose(series.probabilities, expected, rtol=1e-13)


def test_step_times_ladder():
    series = evolve_steps(make_op(0.7, 0.1, 0.2), 4, t_bloch=3.0)
    assert np.array_equal(series.times, 3.0 * np.arange(5))
    assert series.t_bloch == 3.0
    with pytest.raises(ValueError, match="n_steps >= 1"):
        evolve_steps(make_op(0.7, 0.1, 0.2), 0)
    for t_bloch in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_bloch must be > 0"):
            evolve_steps(make_op(0.7, 0.1, 0.2), 4, t_bloch=t_bloch)


def test_long_series_is_refused_before_any_allocation():
    # n_steps + 1 floats and n_steps products of bands.STEP_PRODUCT_S (fitted in README's
    # calibration table): 10^8 steps would hold 800 MB and take minutes, and the work
    # budget refuses them, naming n_steps, before the series is allocated
    op = make_op(0.7, 0.1, 0.2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"n_steps need ~8e\+08 bytes / ~350 s .*; reduce n_steps"):
            evolve_steps(op, 10 ** 8)
        with pytest.raises(ValueError, match=r"^n_steps must be an integer, got 2\.5$"):
            evolve_steps(op, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_second_step_first_order_expansion(ingredients_v1, operator_v1):
    ing = ingredients_v1
    series = evolve_steps(operator_v1, 3)
    ratio = series.probabilities[2] / series.probabilities[1]
    first_order = ing.s12 ** 2 - 2 * ing.s23 * ing.p12 ** 2 * math.cos(ing.phi)
    assert abs(ratio - first_order) < 2 * ing.s23 ** 2


# ---------------------------------------------------------------- spectrum

def test_spectral_closed_form_lossy_limit():
    # U = [[0.6, 0], [0.8, 0]]: <1|U^n|1> = 0.6^n exactly, one pole of unit weight
    u = make_op(0.6, 0.0, 0.0)
    sd = spectral_decompose(u)
    assert sd.e1 == pytest.approx(0.6, abs=1e-14)
    assert sd.e2 == pytest.approx(0.0, abs=1e-14)
    assert sd.d1 == pytest.approx(1.0, abs=1e-14)
    assert sd.d2 == pytest.approx(0.0, abs=1e-14)


def spectral_draws(seed, count):
    """count non-degenerate random (ingredients, operator, spectrum) triples."""
    rng = np.random.default_rng(seed)
    while count:
        ing = random_ingredients(rng)
        u = step_operator(ing)
        try:
            sd = spectral_decompose(u)
        except DegenerateSpectrumError:
            continue
        count -= 1
        yield ing, u, sd


def test_poles_and_residues_reproduce_iterated_survival():
    n = np.arange(41)
    for ing, u, sd in spectral_draws(17, 1000):
        recon = np.abs(sd.d1 * sd.e1 ** n + sd.d2 * sd.e2 ** n) ** 2
        assert np.max(np.abs(recon - evolve_steps(u, 40).probabilities)) < 1e-12
        assert abs(abs(sd.e1 * sd.e2) - ing.s23) < 1e-12  # |det U| identity


def test_residue_matches_eigenvector_expansion():
    # oracle: expand (1, 0) = c1 psi1 + c2 psi2 in scipy's eigenvectors; d1 = c1 psi1[0]
    from scipy.linalg import eig
    for _, u, sd in spectral_draws(19, 300):
        lam, vec = eig(u)
        vec = vec[:, np.argsort(-np.abs(lam))]
        c = np.linalg.solve(vec, [1.0, 0.0])
        assert abs(c[0] * vec[0, 0] - sd.d1) < 1e-12
        assert abs(c[1] * vec[0, 1] - sd.d2) < 1e-12


def test_degenerate_spectrum_raises():
    # s12 = 0 makes the two eigenvalue moduli coincide at sqrt(s23)
    with pytest.raises(DegenerateSpectrumError):
        spectral_decompose(make_op(0.0, 0.5, 0.7))


def test_broadcast_chain_matches_scalar_calls():
    rng = np.random.default_rng(29)
    n = 300
    s12 = rng.uniform(0.3, 0.98, n)
    s12[::25] = 0.0  # degenerate: both moduli equal sqrt(s23)
    s23 = rng.uniform(0.0, 0.3, n)
    phi = rng.uniform(-8 * np.pi, 0.0, n)
    sd = spectral_decompose(step_operator(StepIngredients(s12, s23, phi)))
    z, gamma = z_exact(sd), gamma_asymptotic(sd)
    assert z.shape == gamma.shape == (n,)
    assert np.array_equal(sd.degenerate, s12 == 0.0)
    for i in range(n):
        op = make_op(s12[i], s23[i], phi[i])
        if sd.degenerate[i]:
            assert np.isnan(z[i]) and np.isnan(gamma[i])
            with pytest.raises(DegenerateSpectrumError):
                spectral_decompose(op)
            continue
        one = spectral_decompose(op)
        assert abs(z[i] - z_exact(one)) <= 1e-12
        assert abs(gamma[i] - gamma_asymptotic(one)) <= 1e-12


def eigvals_spectrum(u):
    """Oracle: (Z, gamma, degenerate) from np.linalg.eigvals ordered by modulus."""
    lam = np.linalg.eigvals(u)
    lam = np.take_along_axis(lam, np.argsort(-np.abs(lam), axis=-1), axis=-1)
    mod = np.abs(lam)
    degenerate = np.abs(mod[..., 0] - mod[..., 1]) < MODULUS_TIE_TOL
    e1, e2 = lam[..., 0], lam[..., 1]
    d1 = (u[..., 0, 0] - e2) / np.where(degenerate, 1.0, e1 - e2)
    with np.errstate(divide="ignore"):  # the oracle may take log 0 at a degenerate point
        return np.abs(d1) ** 2, -2.0 * np.log(mod[..., 0]), degenerate


def sweep_operators(v0s, f0):
    """The step operators of a scaling or ret sweep over f0 at each depth, stacked."""
    ops = []
    for v0 in v0s:
        params = LatticeParams(v0, f0)
        ops.append(step_operator(StepIngredients.from_lattice(
            params, mean_gap=mean_band_gap(params))))
    return np.concatenate(ops)


@pytest.mark.parametrize("grid", ["z-scaling", "depth-scan", "ret", "random", "v0=0", "ties"])
def test_closed_form_spectrum_matches_eigvals(grid):
    # Z and gamma within 1e-13 absolute (measured <= 2.6e-14 and <= 3.7e-15) and the
    # same degenerate points; ties and zero-trace operators must not warn
    rng = np.random.default_rng(41)
    u = {
        "z-scaling": lambda: sweep_operators([1.0, 2.0, 3.0, 4.0], np.linspace(0.5, 4.0, 5000)),
        "depth-scan": lambda: sweep_operators(0.5 * np.arange(1, 17), np.linspace(0.5, 4.0, 200)),
        "ret": lambda: sweep_operators([1.0], np.linspace(0.8, 2.6, 200)),
        "random": lambda: np.array([step_operator(random_ingredients(rng))
                                    for _ in range(1000)]),
        "v0=0": lambda: sweep_operators([0.0], np.linspace(0.5, 4.0, 50)),
        # s12 = 1, s23 = 1: unit moduli; s12 = 0: zero trace; all zero but one entry
        "ties": lambda: step_operator(StepIngredients(np.array([1.0, 0.0, 0.0, 1.0]),
                                                      np.array([1.0, 0.5, 0.0, 0.0]),
                                                      np.array([0.3, 0.7, 0.0, 0.0]))),
    }[grid]()
    sd = spectral_decompose(u)
    z_ref, gamma_ref, degenerate_ref = eigvals_spectrum(u)
    assert np.array_equal(sd.degenerate, degenerate_ref)
    ok = ~degenerate_ref
    assert np.max(np.abs(z_exact(sd)[ok] - z_ref[ok]), initial=0.0) <= 1e-13
    assert np.max(np.abs(gamma_asymptotic(sd)[ok] - gamma_ref[ok]), initial=0.0) <= 1e-13
    assert np.all(np.abs(sd.e1[ok]) >= np.abs(sd.e2[ok]))
    assert np.all(np.isnan(sd.e1[~ok]))
    if grid == "v0=0":
        assert np.all(sd.degenerate)
    if grid == "ties":
        assert sd.degenerate.tolist() == [True, True, True, False]


def test_broadcast_over_forces_and_scalar_results(mean_gap_v1):
    f0 = np.linspace(0.3, 4.0, 57)
    ing = StepIngredients.from_lattice(LatticeParams(1.0, f0), mean_gap=mean_gap_v1)
    z = z_exact(spectral_decompose(step_operator(ing)))
    for i in (0, 20, 56):
        one = StepIngredients.from_lattice(LatticeParams(1.0, f0[i]), mean_gap=mean_gap_v1)
        assert ing.phi[i] == one.phi
        sd = spectral_decompose(step_operator(one))
        # scalar inputs give scalars, not 0-d arrays (fit.json serializes them)
        for x in (one.s12, one.s23, sd.e1, sd.d1, z_exact(sd), gamma_asymptotic(sd)):
            assert np.isscalar(x)
        assert abs(z[i] - z_exact(sd)) <= 1e-12
    with pytest.raises(ValueError):
        LatticeParams(1.0, np.array([1.0, float("nan")]))
    with pytest.raises(ValueError):
        LatticeParams(1.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        StepIngredients(np.array([0.5, 1.2]), 0.1, 0.0)
    with pytest.raises(ValueError):
        StepIngredients(0.5, np.array([0.1, -0.1]), 0.0)
    with pytest.raises(ValueError):
        StepIngredients(0.5, 0.1, np.array([0.0, float("inf")]))


# ------------------------------------------------------------- gamma and Z

def test_gamma_pure_cascade():
    sd = spectral_decompose(make_op(0.8, 0.0, 0.0))
    assert gamma_asymptotic(sd) == pytest.approx(-math.log(0.8 ** 2), rel=1e-14)


def test_gamma_closed_band():
    sd = spectral_decompose(make_op(1.0, 0.3, 0.5))
    assert gamma_asymptotic(sd) == pytest.approx(0.0, abs=1e-14)


def test_gamma_matches_long_run_slope(operator_v1):
    sd = spectral_decompose(operator_v1)
    series = evolve_steps(operator_v1, 16)
    n = np.arange(8, 17)
    slope = np.polyfit(n, np.log(series.probabilities[8:17]), 1)[0]
    assert abs(-slope - gamma_asymptotic(sd)) < 1e-6


def test_gamma_sequence_constant_for_cascade():
    series = evolve_steps(make_op(0.8, 0.0, 0.0), 10)
    rates, truncated = gamma_sequence(series)
    assert not truncated
    assert np.allclose(rates, -math.log(0.8 ** 2), rtol=1e-12)


def test_gamma_zero_is_first_crossing_rate():
    rng = np.random.default_rng(23)
    for _ in range(20):
        ing = random_ingredients(rng)
        rates, _ = gamma_sequence(evolve_steps(step_operator(ing), 2))
        assert rates[0] == pytest.approx(-2 * math.log(ing.s12), rel=1e-12)


def test_gamma_sequence_truncates_at_zero():
    series = evolve_steps(make_op(0.0, 0.0, 0.0), 5)  # survival dies at step 1
    rates, truncated = gamma_sequence(series)
    assert truncated
    assert len(rates) == 0


def test_gamma_residual_geometric_envelope(operator_v1):
    sd = spectral_decompose(operator_v1)
    gamma = gamma_asymptotic(sd)
    ratio = abs(sd.e2 / sd.e1)
    rates, _ = gamma_sequence(evolve_steps(operator_v1, 21))
    res = np.abs(rates - gamma)
    c = max(res[n] / ratio ** n for n in range(9))
    for n in range(len(res)):
        assert res[n] <= 1.1 * c * ratio ** n + 1e-14


def test_z_exact_cascade_is_unity():
    z1 = z_exact(spectral_decompose(make_op(0.6, 0.0, 0.0)))
    z2 = z_exact(spectral_decompose(make_op(0.6, 0.0, 0.0)))
    assert abs(z1 - 1.0) < 1e-14
    assert z1 == z2  # deterministic to the bit


def test_z_below_one_at_operating_point(operator_v1):
    z = z_exact(spectral_decompose(operator_v1))
    assert z < 1.0
    assert z == pytest.approx(0.9462576171504696, rel=1e-9)


def test_z_minus_one_flips_with_phase_shift():
    # phase shift by pi flips the first-order term
    za = z_exact(spectral_decompose(make_op(0.74, 0.02, 0.7)))
    zb = z_exact(spectral_decompose(make_op(0.74, 0.02, 0.7 + math.pi)))
    assert (za - 1.0) > 0 > (zb - 1.0)


def test_z_first_order_values():
    assert z_first_order(StepIngredients(0.7, 0.0, 1.0)) == 1.0
    z1 = z_first_order(StepIngredients(0.6685, 0.0396, 0.0))
    assert z1 == pytest.approx(1.0980239281392774, rel=1e-12)
    assert z1 == pytest.approx(1.0980, abs=5e-5)
    z1m = z_first_order(StepIngredients(0.6685, 0.0396, math.pi))
    assert z1m == pytest.approx(0.9019760718607226, rel=1e-12)
    assert z1m < 1.0
    with pytest.raises(ValueError, match="s12 > 0 required"):
        z_first_order(StepIngredients(0.0, 0.1, 0.0))


def test_z_first_order_accuracy_scaling():
    # discrepancy vs z_exact is quadratic in the loss amplitude
    rng = np.random.default_rng(29)
    for _ in range(20):
        s12 = rng.uniform(0.45, 0.95)
        phi = rng.uniform(0.0, 2 * np.pi)
        def gap_err(s23):
            ing = StepIngredients(s12, s23, phi)
            return abs(z_first_order(ing) - z_exact(spectral_decompose(step_operator(ing))))
        assert gap_err(2e-4) / gap_err(1e-4) >= 3.5


def test_z_running_cascade_is_unity():
    series = evolve_steps(make_op(0.8, 0.0, 0.0), 12)
    for n in range(1, 11):
        assert z_running_estimate(series, n) == pytest.approx(1.0, abs=1e-12)


def test_z_running_first_step_matches_first_order():
    ing = StepIngredients(0.74, 2e-4, 1.1)
    series = evolve_steps(step_operator(ing), 4)
    assert abs(z_running_estimate(series, 1) - z_first_order(ing)) < 3 * ing.s23 ** 2


def test_z_running_converges_fast(operator_v1):
    series = evolve_steps(operator_v1, 12)
    z = z_exact(spectral_decompose(operator_v1))
    assert abs(z_running_estimate(series, 8) - z) < 1e-4


def test_z_running_length_check(monkeypatch):
    series = evolve_steps(make_op(0.8, 0.1, 0.1), 4)
    with pytest.raises(ValueError):
        z_running_estimate(series, 4)
    with pytest.raises(ValueError):
        z_running_estimate(series, 0)
    with monkeypatch.context() as mp:  # refused before any rate is computed
        mp.setattr(stepmodel, "gamma_sequence", None)
        with pytest.raises(ValueError, match=r"^N must be an integer, got 2\.0$"):
            z_running_estimate(series, 2.0)
    # P_2 = 0 leaves one rate: Z_2 needs gamma_2
    vanished = SurvivalSeries(probabilities=np.array([1.0, 0.5, 0.0, 0.0, 0.0]), t_bloch=1.0)
    with pytest.raises(ValueError, match="survival vanished before step N"):
        z_running_estimate(vanished, 2)


def test_sign_of_z_minus_one_follows_cos_phi():
    # restricted to first-order dominance: |cos phi| >= 15 s23
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 100:
        s12 = rng.uniform(0.5, 0.9)
        s23 = rng.uniform(0.0005, 0.05)
        phi = rng.uniform(-6 * np.pi, 0.0)
        if abs(math.cos(phi)) < 15 * s23:
            continue
        checked += 1
        z = z_exact(spectral_decompose(make_op(s12, s23, phi)))
        assert np.sign(z - 1.0) == np.sign(math.cos(phi))


# ------------------------------------------------------------- resonances

def test_ret_resonance_ladder():
    forces = ret_resonances(LatticeParams(1.0, 1.0), mean_gap=2.0, j_max=3)
    assert np.allclose(forces, [2.0, 1.0, 2.0 / 3.0], rtol=1e-15)
    with pytest.raises(ValueError):
        ret_resonances(LatticeParams(1.0, 1.0), mean_gap=-1.0, j_max=2)
    with pytest.raises(ValueError):
        ret_resonances(LatticeParams(1.0, 1.0), mean_gap=2.0, j_max=0)
    with pytest.raises(ValueError, match=r"^j_max must be an integer, got 2\.5$"):
        ret_resonances(LatticeParams(1.0, 1.0), mean_gap=2.0, j_max=2.5)


def test_ret_resonances_wind_full_turns(mean_gap_v1):
    for j, f0 in enumerate(ret_resonances(LatticeParams(1.0, 1.0), mean_gap_v1, 3), start=1):
        phi = bloch_phase(LatticeParams(1.0, f0), mean_gap_v1)
        assert math.cos(phi) == pytest.approx(1.0, abs=1e-12)
        assert phi / (-2 * math.pi) == pytest.approx(j, rel=1e-12)


# ------------------------------------------------------------- renorm_fit

def test_renorm_fit_assembly(operator_v1):
    fit = renorm_fit(operator_v1, evolve_steps(operator_v1, 20))
    sd = spectral_decompose(operator_v1)
    assert fit.gamma == pytest.approx(gamma_asymptotic(sd), rel=1e-12)
    assert fit.z == pytest.approx(z_exact(sd), rel=1e-12)
    assert fit.converged
    assert fit.tol_achieved < 1e-8
    # two steps give rates gamma_0, gamma_1 only: no Z_N - Z_{N-1} to measure
    short = renorm_fit(operator_v1, evolve_steps(operator_v1, 2))
    assert short.tol_achieved == math.inf and not short.converged
    assert short.z == fit.z


def test_series_serialization_roundtrip(tmp_path):
    # the (n, t, P) columns of the run command's steps file read back exactly
    from blochdecay.cli import _write_csv
    series = evolve_steps(make_op(0.7, 0.1, 0.3), 5, t_bloch=2.0)
    n = np.arange(len(series))
    columns = [n, series.t_bloch * (n + 0.5), series.probabilities]
    assert [col[0] for col in columns] == [0, 1.0, 1.0]
    path = _write_csv(str(tmp_path / "steps.csv"), "{}", "n,t,P", columns)
    back = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
    assert np.array_equal(back[:, 0], np.arange(len(series)))
    assert np.array_equal(back[:, 1], series.times + 1.0)
    assert np.array_equal(back[:, 2], series.probabilities)
    assert series.t_bloch == 2.0
