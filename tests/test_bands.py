from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from blochdecay import (LatticeParams, band_energies, bands, bloch_phase,
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
    assert np.diag(h).tolist() == [64, 36, 16, 4, 0, 4, 16, 36, 64]
    assert np.all(np.diag(h, 1) == 0.0)


def test_zone_edge_construction():
    h = build_bloch_hamiltonian(LatticeParams(1.0, 1.0), k=1.0, cutoff=4)
    n = np.arange(-4, 5)
    assert np.array_equal(np.diag(h), (1.0 + 2 * n) ** 2)
    assert np.all(np.diag(h, 1) == 0.25)
    assert np.array_equal(h, h.T) and np.count_nonzero(h) == 9 + 2 * 8


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
    with pytest.raises(ValueError, match="k=-1.5"):  # every element of an array k
        build_bloch_hamiltonian(params, k=np.array([0.0, 1.0, -1.5]), cutoff=8)
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
    # frozen pipeline value at the operating point (grid 512, cutoff 32); the
    # default cutoff 10 reproduces it to 4e-15 relative
    assert mean_gap_v1 == pytest.approx(2.106303516768004, rel=1e-9)
    phi = bloch_phase(paper_params, mean_gap_v1)
    assert phi == pytest.approx(-34.55429584599847, rel=1e-9)


def tridiagonal_bands(v0, k_grid, cutoff):
    """Slow path oracle: one tridiagonal eigensolve per k."""
    n = np.arange(-cutoff, cutoff + 1)
    return np.array([scipy.linalg.eigh_tridiagonal(
        (k + 2.0 * n) ** 2, np.full(2 * cutoff, v0 / 4.0), eigvals_only=True,
        select="i", select_range=(0, 1)) for k in k_grid])


@pytest.mark.parametrize("v0", [0.25, 1.0, 8.0, 16.0])
def test_batched_bands_match_tridiagonal_oracle(v0):
    # A dense solve is accurate to a few eps |H| absolute, |H| ~ (2c + 1)^2 =
    # 4225 at c = 32: measured <= 1.1e-15 |H| (4.4e-12), checked at 2e-15 |H|.
    # E1 ~ 1e-4 at shallow depth, so a per-element relative check cannot hold;
    # the mean gap, which the physics uses, is checked at 1e-12 relative.
    table = band_energies(LatticeParams(v0, 1.0), n_bands=2, grid_size=512, cutoff=32)
    oracle = tridiagonal_bands(v0, table.k_grid, 32)
    assert np.max(np.abs(table.energies - oracle)) < 2e-15 * 65 ** 2
    gap, want = (float(np.mean(e[:, 1] - e[:, 0])) for e in (table.energies, oracle))
    assert abs(gap - want) < 1e-12 * want


def test_chunked_band_table_matches_one_call(monkeypatch):
    params = LatticeParams(1.0, 1.0)
    whole = band_energies(params, n_bands=3, grid_size=100, cutoff=8)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(len(h)) or eigvalsh(h))
    monkeypatch.setattr(bands, "_CHUNK_ELEMENTS", 7 * 17 ** 2)  # 7 k points per call
    chunked = band_energies(params, n_bands=3, grid_size=100, cutoff=8)
    assert calls == [7] * 14 + [2]
    assert np.array_equal(chunked.k_grid, whole.k_grid)
    assert np.array_equal(chunked.energies, whole.energies)


def test_gap_check_names_unconverged_cutoff():
    with pytest.raises(ValueError, match="not converged at cutoff 4:"):
        mean_band_gap(LatticeParams(8.0, 1.0), cutoff=4)
    # the default cutoff holds v0 = 100 (measured to fail from v0 ~ 150)
    assert mean_band_gap(LatticeParams(100.0, 1.0)) > 0
