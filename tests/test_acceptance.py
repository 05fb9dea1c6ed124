"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report lines.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import blochdecay as bd
from blochdecay.cli import main as cli_main


def report(num: int, label: str, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_two_level_sweep_formula():
    t0 = time.perf_counter()
    worst = 0.0
    for ratio in (0.1, 0.5, 1.0, 2.0):
        alpha, delta = 1.0, math.sqrt(ratio)
        edge = 20.0 * max(delta, 1.0)
        omega_max = math.hypot(alpha * edge, delta)
        p = bd.lz_two_level_ode(alpha, delta, (-edge, edge), 0.02 / omega_max)
        worst = max(worst, abs(p - bd.lz_probability(alpha, delta)))
    elapsed = time.perf_counter() - t0
    report(1, "sweep ODE vs closed form",
           worst < 1e-3 and elapsed < 10.0,
           f"max abs err {worst:.2e} (tol 1e-3), runtime {elapsed:.1f}s (< 10s)")


def test_criterion_2_cross_model_plateaus():
    t0 = time.perf_counter()
    params = bd.LatticeParams(1.0, 0.383)
    trace = bd.evolve_lattice(params, bd.SolverConfig(n_cycles=10))
    full = bd.extract_plateaus(trace, params)
    ing = bd.StepIngredients.from_lattice(params)
    series = bd.evolve_steps(bd.step_operator(ing), 10, t_bloch=params.bloch_period)
    _, max_dev = bd.compare_models(full, bd.extract_plateaus(series), window=(0, 4))
    elapsed = time.perf_counter() - t0
    report(2, "full solver vs step model, first 5 plateaus",
           max_dev < 0.15 and elapsed < 60.0,
           f"max rel dev {max_dev:.4f} (tol 0.15), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_3_z_below_one_at_operating_point(plateaus_v1):
    window = bd.default_window(len(plateaus_v1))
    fit = bd.fit_exponential(plateaus_v1, window)
    report(3, "fitted z from exact dynamics",
           fit.z < 1.0, f"z = {fit.z:.6f} < 1")


def test_criterion_4_spectral_vs_iterative():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst_gamma, worst_z = 0.0, 0.0
    count = 0
    while count < 1000:
        ing = bd.StepIngredients(s12=rng.uniform(0.3, 0.98),
                                 s23=rng.uniform(0.0, 0.3),
                                 phi=rng.uniform(-8 * np.pi, 0.0))
        op = bd.step_operator(ing)
        try:
            sd = bd.spectral_decompose(op)
        except bd.DegenerateSpectrumError:
            continue
        if abs(sd.e2 / sd.e1) > 0.4:
            continue  # keep the 20-step window asymptotic
        count += 1
        series = bd.evolve_steps(op, 40)
        n = np.arange(25, 41)
        slope = np.polyfit(n, np.log(series.probabilities[25:41]), 1)[0]
        worst_gamma = max(worst_gamma, abs(-slope - bd.gamma_asymptotic(sd)))
        worst_z = max(worst_z, abs(bd.z_running_estimate(series, 20) - bd.z_exact(sd)))
    elapsed = time.perf_counter() - t0
    report(4, "1000 random step operators",
           worst_gamma < 1e-6 and worst_z < 1e-6 and elapsed < 5.0,
           f"max |gamma dev| {worst_gamma:.1e}, max |Z dev| {worst_z:.1e} "
           f"(tol 1e-6), runtime {elapsed:.1f}s (< 5s)")


def test_criterion_5_gamma_sequence_convergence_law(operator_v1):
    sd = bd.spectral_decompose(operator_v1)
    gamma = bd.gamma_asymptotic(sd)
    log_ratio = math.log(abs(sd.e2 / sd.e1))
    rates, _ = bd.gamma_sequence(bd.evolve_steps(operator_v1, 21))
    residuals = np.abs(rates - gamma)
    mask = residuals > 1e-12
    n = np.arange(len(residuals))[mask][:13]
    slope = np.polyfit(n, np.log(residuals[mask][:13]), 1)[0]
    rel_dev = abs(slope - log_ratio) / abs(log_ratio)
    report(5, "log-residual decay rate of gamma_n",
           rel_dev < 0.05,
           f"slope {slope:.5f} vs ln|e2/e1| {log_ratio:.5f}, rel dev {rel_dev:.4f} (tol 0.05)")


def test_criterion_6_first_order_z_scaling():
    rng = np.random.default_rng(0)
    worst = math.inf
    for _ in range(20):
        s12 = rng.uniform(0.4, 0.95)
        phi = rng.uniform(0.0, 2 * np.pi)
        def gap_err(s23):
            ing = bd.StepIngredients(s12, s23, phi)
            sd = bd.spectral_decompose(bd.step_operator(ing))
            return abs(bd.z_first_order(ing) - bd.z_exact(sd))
        worst = min(worst, gap_err(2e-4) / gap_err(1e-4))
    report(6, "|Z_1 - Z| shrinks when the loss amplitude halves",
           worst >= 3.5, f"min shrink factor {worst:.3f} (>= 3.5)")


def test_criterion_7_trivial_limits():
    # closed second band: Z = 1 and gamma is set by the per-cycle survival
    def closed_band():
        ing = bd.StepIngredients(s12=math.sqrt(1.0 - bd.p_lz_12(bd.LatticeParams(1.0, 0.383))),
                                 s23=0.0, phi=-7.0)
        sd = bd.spectral_decompose(bd.step_operator(ing))
        return bd.z_exact(sd), bd.gamma_asymptotic(sd), ing
    z_a, gamma_a, ing = closed_band()
    z_b, gamma_b, _ = closed_band()
    ok_z = abs(z_a - 1.0) < 1e-14 and z_a == z_b
    ok_gamma = (abs(gamma_a - (-math.log(ing.s12 ** 2))) < 1e-14
                and gamma_a == gamma_b)

    params = bd.LatticeParams(0.0, 0.383)
    cfg = bd.SolverConfig(cutoff=8, n_cycles=1, dt=0.05)
    runs = [bd.evolve_lattice(params, cfg) for _ in range(2)]
    t_half = params.bloch_period / 2
    after = [next(s for s in states if s.time > t_half + 0.5) for states in runs]
    ok_collapse = (bd.band_survival(after[0], params) == 0.0
                   and np.array_equal(after[0].amplitudes, after[1].amplitudes))
    report(7, "trivial limits, bit-reproducible",
           ok_z and ok_gamma and ok_collapse,
           f"|Z-1| = {abs(z_a - 1.0):.1e}, |gamma + ln s12^2| = "
           f"{abs(gamma_a + math.log(ing.s12 ** 2)):.1e}, free-lattice survival "
           f"{bd.band_survival(after[0], params):.1e}")


def test_criterion_8_scaling_plot(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "scaling.csv"
    assert cli_main(["scaling", "--v0", "1,2,3,4", "--f0-min", "0.5",
                     "--f0-max", "4.0", "--n-points", "200",
                     "--out", str(out)]) == 0
    body = [ln for ln in out.read_text().strip().split("\n") if not ln.startswith("#")]
    rows = np.array([[float(x) for x in ln.split(",")] for ln in body[1:]])
    ptp = {}
    resonances_hit = True
    for v0 in (1.0, 2.0, 3.0, 4.0):
        block = rows[rows[:, 0] == v0]
        z = block[:, 3]
        phi = block[:, 2]
        ptp[v0] = z.max() - z.min()
        maxima = [i for i in range(1, len(z) - 1) if z[i] > z[i - 1] and z[i] > z[i + 1]]
        j_lo = math.ceil(-phi[0] / (2 * math.pi))   # phi[0] most negative
        j_hi = math.floor(-phi[-1] / (2 * math.pi))
        for j in range(max(1, j_hi), j_lo + 1):
            target = -2 * math.pi * j
            if not (phi[1] <= target <= phi[-2]):
                continue
            near = min(
                (abs(phi[i] - target) for i in maxima), default=math.inf)
            i_t = int(np.argmin(np.abs(phi - target)))
            local_step = max(abs(phi[min(i_t + 1, len(phi) - 1)] - phi[i_t]),
                             abs(phi[i_t] - phi[max(i_t - 1, 0)]))
            if near > local_step:
                resonances_hit = False
    decreasing = ptp[1.0] > ptp[2.0] > ptp[3.0] > ptp[4.0]
    elapsed = time.perf_counter() - t0
    report(8, "scaling sweep oscillations",
           decreasing and resonances_hit and elapsed < 300.0,
           f"peak-to-peak {ptp[1.0]:.3f} > {ptp[2.0]:.3f} > {ptp[3.0]:.3f} > "
           f"{ptp[4.0]:.3f}, maxima at phase resonances: {resonances_hit}, "
           f"runtime {elapsed:.0f}s (< 300s)")


def test_criterion_9_ret_resonance_positions(tmp_path):
    out = tmp_path / "ret.csv"
    assert cli_main(["ret", "--v0", "1", "--f0-min", "0.8", "--f0-max", "2.6",
                     "--n-points", "14", "--j-max", "2",
                     "--out", str(out)]) == 0
    comments = [ln for ln in out.read_text().split("\n") if ln.startswith("#")]
    hits = {j: any(f"j={j} " in c and "within_one_step=True" in c for c in comments)
            for j in (1, 2)}
    report(9, "decay-rate maxima at mean_gap/j",
           hits[1] and hits[2], f"j=1 within one grid step: {hits[1]}, j=2: {hits[2]}")


def test_criterion_10_band_structure_checks():
    free = bd.band_energies(bd.LatticeParams(0.0, 1.0), n_bands=2,
                            grid_size=64, cutoff=16)
    k = free.k_grid
    err_free = max(np.max(np.abs(free.energies[:, 0] - k ** 2)),
                   np.max(np.abs(free.energies[:, 1] - (2 - np.abs(k)) ** 2)))
    table = bd.band_energies(bd.LatticeParams(1.0, 1.0), n_bands=2,
                             grid_size=64, cutoff=32)
    i_edge = int(np.argmin(np.abs(table.k_grid + 1.0)))
    gap_edge = table.energies[i_edge, 1] - table.energies[i_edge, 0]
    mean_free = bd.mean_band_gap(bd.LatticeParams(0.0, 1.0))
    ok = (err_free < 1e-12
          and abs(gap_edge - 0.5) / 0.5 < 0.05
          and abs(mean_free - 2.0) < 1e-6)
    report(10, "band-structure oracles",
           ok,
           f"free-band err {err_free:.1e} (< 1e-12), edge gap {gap_edge:.4f} "
           f"(0.5 +- 5%), free mean gap dev {abs(mean_free - 2.0):.1e} (< 1e-6)")
