from __future__ import annotations

import numpy as np
import pytest

from blochdecay import (LatticeParams, band_energies, bloch_phase,
                        build_bloch_hamiltonian, mean_band_gap)
from blochdecay.bands import lowest_eigenpairs


def dense_hamiltonian(v0, k, cutoff):
    """Independent dense construction used as diagonalization oracle."""
    n = np.arange(-cutoff, cutoff + 1)
    h = np.diag((k + 2.0 * n) ** 2)
    for i in range(2 * cutoff):
        h[i, i + 1] = h[i + 1, i] = v0 / 4.0
    return h


def test_free_particle_diagonal():
    h = build_bloch_hamiltonian(LatticeParams(0.0, 1.0), k=0.0, cutoff=4)
    assert h.diagonal.tolist() == [64, 36, 16, 4, 0, 4, 16, 36, 64]
    assert np.all(h.off_diagonal == 0.0)


def test_zone_edge_construction():
    h = build_bloch_hamiltonian(LatticeParams(1.0, 1.0), k=1.0, cutoff=4)
    n = np.arange(-4, 5)
    assert np.array_equal(h.diagonal, (1.0 + 2 * n) ** 2)
    assert np.all(h.off_diagonal == 0.25)


def test_matches_dense_oracle_at_double_cutoff():
    # two lowest eigenvalues at cutoff 8 vs dense solve at cutoff 16
    params = LatticeParams(2.0, 1.0)
    table = band_energies(params, n_bands=2, grid_size=16, cutoff=8)
    oracle = np.linalg.eigvalsh(dense_hamiltonian(2.0, 0.5, 16))[:2]
    i = np.argmin(np.abs(table.k_grid - 0.5))
    assert table.k_grid[i] == 0.5
    assert np.max(np.abs(table.energies[i] - oracle)) < 1e-10


def test_build_rejects_bad_inputs():
    params = LatticeParams(1.0, 1.0)
    with pytest.raises(ValueError):
        build_bloch_hamiltonian(params, k=float("nan"), cutoff=8)
    with pytest.raises(ValueError):
        build_bloch_hamiltonian(params, k=1.5, cutoff=8)
    with pytest.raises(ValueError):
        build_bloch_hamiltonian(params, k=0.0, cutoff=3)
    with pytest.raises(ValueError):
        LatticeParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        LatticeParams(1.0, 0.0)


def test_band_energies_rejects_bad_inputs():
    params = LatticeParams(1.0, 1.0)
    with pytest.raises(ValueError):
        band_energies(params, n_bands=9, grid_size=32, cutoff=8)
    with pytest.raises(ValueError):
        band_energies(params, n_bands=2, grid_size=8, cutoff=8)


def test_free_bands_fold_analytically():
    # E1 = k^2, E2 = (2 - |k|)^2 on the folded free dispersion
    table = band_energies(LatticeParams(0.0, 1.0), n_bands=2, grid_size=64, cutoff=16)
    k = table.k_grid
    assert np.max(np.abs(table.energies[:, 0] - k ** 2)) < 1e-12
    assert np.max(np.abs(table.energies[:, 1] - (2.0 - np.abs(k)) ** 2)) < 1e-12


def test_first_gap_nearly_free_limit():
    # at the zone edge the lowest gap is twice the coupling v0/4
    table = band_energies(LatticeParams(1.0, 1.0), n_bands=2, grid_size=64, cutoff=32)
    i = np.argmin(np.abs(table.k_grid + 1.0))
    gap = table.energies[i, 1] - table.energies[i, 0]
    assert abs(gap - 0.5) / 0.5 < 0.05


def test_bands_flatten_with_depth():
    widths = {}
    for v0 in (1.0, 4.0):
        table = band_energies(LatticeParams(v0, 1.0), n_bands=1, grid_size=64, cutoff=32)
        widths[v0] = np.ptp(table.energies[:, 0])
    assert widths[4.0] < widths[1.0]


def test_parity_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(25):
        v0 = rng.uniform(0.0, 10.0)
        k = rng.uniform(0.0, 1.0)
        params = LatticeParams(v0, 1.0)
        ep = lowest_eigenpairs(build_bloch_hamiltonian(params, k, 16), 3)
        em = lowest_eigenpairs(build_bloch_hamiltonian(params, -k, 16), 3)
        assert np.max(np.abs(ep - em)) < 1e-9


def test_cutoff_convergence():
    rng = np.random.default_rng(11)
    for _ in range(8):
        v0 = rng.uniform(0.0, 10.0)
        k = rng.uniform(-1.0, 1.0)
        params = LatticeParams(v0, 1.0)
        e16 = lowest_eigenpairs(build_bloch_hamiltonian(params, k, 16), 2)
        e32 = lowest_eigenpairs(build_bloch_hamiltonian(params, k, 32), 2)
        assert np.max(np.abs(e16 - e32)) < 1e-8


def test_gap_positive_at_finite_depth():
    for v0 in (0.5, 1.0, 4.0):
        table = band_energies(LatticeParams(v0, 1.0), n_bands=2, grid_size=64, cutoff=32)
        assert np.all(table.energies[:, 1] - table.energies[:, 0] > 0)


def test_mean_gap_free_value():
    # DE(k) = (2-|k|)^2 - k^2 = 4 - 4|k| averages to exactly 2 over B
    assert mean_band_gap(LatticeParams(0.0, 1.0)) == pytest.approx(2.0, abs=1e-12)


def test_mean_gap_grid_refinement():
    params = LatticeParams(1.0, 1.0)
    g256 = mean_band_gap(params, grid_size=256)
    g512 = mean_band_gap(params, grid_size=512)
    assert abs(g256 - g512) / g512 < 1e-3


def test_mean_gap_grows_with_depth():
    gaps = [mean_band_gap(LatticeParams(v0, 1.0), grid_size=128) for v0 in (1, 2, 3, 4)]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_bloch_phase_direct_values():
    assert bloch_phase(LatticeParams(0.0, 1.0), 2.0) == pytest.approx(-4 * np.pi)
    phi = bloch_phase(LatticeParams(0.0, 2.0), 2.0)
    assert phi == pytest.approx(-2 * np.pi)
    assert np.cos(phi) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bloch_phase(LatticeParams(1.0, 1.0), 0.0)


def test_bloch_phase_pipeline_regression(paper_params, mean_gap_v1):
    # frozen pipeline value at the operating point (grid 512, cutoff 32)
    assert mean_gap_v1 == pytest.approx(2.106303516768004, rel=1e-9)
    phi = bloch_phase(paper_params, mean_gap_v1)
    assert phi == pytest.approx(-34.55429584599847, rel=1e-9)
