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


@pytest.mark.parametrize("v0", [0.0, 1e-200])
def test_mean_gap_is_exact_where_the_hamiltonians_are_diagonal(v0):
    # b^2 = (v0/4)^2 is 0 at v0 = 0 and underflows at 1e-200: every hamiltonian is
    # diagonal, so LAPACK's pair is exact and neither Newton step may move it.  Over
    # these grids 4 - 4|k| averages to exactly 2
    for grid_size in (16, 512):
        for cutoff in (4, 10):
            assert mean_band_gap(LatticeParams(v0, 1.0), grid_size, cutoff) == 2.0


def test_mean_gap_grid_refinement():
    params = LatticeParams(1.0, 1.0)
    g256 = mean_band_gap(params, grid_size=256)
    g512 = mean_band_gap(params, grid_size=512)
    assert abs(g256 - g512) / g512 < 1e-3


@pytest.mark.parametrize("grid_size", [16, 17, 512, 513])
def test_half_zone_mean_gap_matches_full_grid_mean(grid_size, monkeypatch):
    # E(k) = E(-k): the half zone with weights 1 at k = 1 (and k = 0 on even grids)
    # and 2 elsewhere gives the mean over the full grid, each pair refined by the same
    # Newton step at the cutoff (measured <= 2.2e-16 relative)
    sizes = []
    lowest_bands = bands.lowest_bands
    monkeypatch.setattr(bands, "lowest_bands",
                        lambda params, k, *a: sizes.append(len(k)) or lowest_bands(params, k, *a))
    for v0 in (0.0, 0.5, 1.0, 4.0, 16.0):
        for cutoff in (10, 12):
            params = LatticeParams(v0, 1.0)
            table = band_energies(params, 2, grid_size, cutoff)
            stepped, _ = bands._newton_step(v0, table.k_grid, table.energies, cutoff)
            want = float(np.mean(np.diff(stepped)))
            sizes.clear()
            gap = mean_band_gap(params, grid_size=grid_size, cutoff=cutoff)
            assert sizes == [grid_size // 2 + 1]  # the cutoff's only: cutoff + 2 takes no solve
            assert abs(gap - want) <= 4e-15 * want, (v0, cutoff)


def half_zone(grid_size):
    """The half-zone quasimomenta and their weights, as mean_band_gap documents them."""
    k = 1.0 - 2.0 * np.arange(grid_size // 2 + 1) / grid_size
    weights = np.full(len(k), 2.0)
    weights[0] = 1.0
    if grid_size % 2 == 0:
        weights[-1] = 1.0
    return k, weights


def stepped_mean(v0, k, weights, pair, cutoff):
    """The weighted mean gap of pair (len(k), 2) after one Newton step at cutoff."""
    stepped, _ = bands._newton_step(v0, k, pair, cutoff)
    return float(np.sum(weights * np.diff(stepped)[:, 0])) / np.sum(weights)


@pytest.mark.parametrize("grid_size", [16, 17, 512, 513])
def test_mean_gap_is_the_cutoff_eigensolve_bit_for_bit(grid_size):
    # the check at cutoff + 2 only decides: the mean returned is the cutoff's own LAPACK
    # pair, formed here in one eigvalsh call over the whole half zone, after one Newton
    # step at the cutoff from each E_1, E_2, weighted and summed
    k, weights = half_zone(grid_size)
    for v0 in (0.0, 0.3, 1.0, 4.0, 16.0, 100.0):
        params = LatticeParams(v0, 1.0)
        e = np.linalg.eigvalsh(build_bloch_hamiltonian(params, k, 10))[:, :2]
        assert mean_band_gap(params, grid_size=grid_size) == stepped_mean(v0, k, weights, e, 10), v0


# Mean gaps (v0, grid, cutoff): Newton steps on the pivot recurrence in 50-digit mpmath
# from the LAPACK pair, weighted as mean_band_gap weights them
FROZEN_MEAN_GAPS = {(1.0, 512, 10): "2.1063035167679976948876",
                    (3.76e-4, 108, 30): "2.0000017615291505621825"}


@pytest.mark.parametrize("v0, grid_size, cutoff", sorted(FROZEN_MEAN_GAPS))
def test_mean_gap_matches_high_precision_values(v0, grid_size, cutoff):
    # the Newton step at the cutoff drops LAPACK's roundoff: the mean came within 3.3e-17
    # and 8.2e-18 relative of these values, checked at a few ulps.  LAPACK's own mean was
    # 8.1e-16 and 1.06e-12 off: at cutoff 30 its roundoff is as large as the convergence
    # tolerance
    params, want = LatticeParams(v0, 1.0), float(FROZEN_MEAN_GAPS[v0, grid_size, cutoff])
    assert abs(mean_band_gap(params, grid_size, cutoff) - want) <= 1e-15 * want


@pytest.mark.parametrize("cutoff", range(4, 15))
def test_gap_check_decides_as_the_cutoff_plus_two_eigensolve(cutoff, monkeypatch):
    # the Newton steps pass and refuse where LAPACK's cutoff and cutoff + 2 means do,
    # over depths that cross every cutoff's limit; every mismatch is listed.  Without
    # its pivot guard the step is nan at v0 = 0, where every start is a diagonal entry,
    # and at v0 ~ 22.2, cutoff 14, where parity zeroes band 2's pivot at k = 0.  Where
    # the mean is converged the two check means agree to 1e-13 relative (measured
    # <= 2.8e-14).  LAPACK's own roundoff, ~eps (2 cutoff + 5)^2, is ~1e-12 of the mean
    # by cutoff 30, where the two routes may part.  mean_band_gap gets the test's own
    # solve at the cutoff, so each depth takes two
    lowest_bands = bands.lowest_bands
    k, weights = half_zone(512)
    mismatches = []
    for v0 in [0.0, *np.logspace(-3, np.log10(500.0), 60)]:
        params = LatticeParams(v0, 1.0)
        pair, oracle = (lowest_bands(params, k, c, 2) for c in (cutoff, cutoff + 2))
        stepped, below = bands._newton_step(v0, k, pair, cutoff + 2)
        gap, check, newton = (float(np.sum(weights * np.diff(p)[:, 0])) / 512
                              for p in (pair, oracle, stepped))
        converged = abs(check - gap) <= bands.GAP_CONVERGENCE_TOL * check
        monkeypatch.setattr(bands, "lowest_bands", lambda *args: pair)
        try:
            got = mean_band_gap(params, cutoff=cutoff)
        except ValueError as exc:
            assert "not converged at cutoff" in str(exc), (v0, exc)
            if converged:
                mismatches.append((v0, "refused"))
            continue
        assert got == stepped_mean(v0, k, weights, pair, cutoff), v0
        if not converged:
            mismatches.append((v0, "passed"))
            continue
        assert np.all(below <= (1, 2)), v0
        assert abs(newton - check) <= 1e-13 * check, v0
    assert not mismatches


def test_gap_check_refuses_a_pair_that_is_not_the_lowest(monkeypatch):
    # the sign count of the pivots: bands 3 and 4 handed over as the pair have at least 2
    # and 3 eigenvalues below them at cutoff + 2 (their own counted or not, by roundoff),
    # more than 1 and 2, so the cutoff is refused although their mean barely moves
    params, lowest_bands = LatticeParams(1.0, 1.0), bands.lowest_bands
    k, _ = half_zone(512)
    upper = lowest_bands(params, k, 10, 4)[:, 2:]
    stepped, below = bands._newton_step(1.0, k, upper, 12)
    assert np.all(below >= (2, 3))
    assert np.max(np.abs(stepped - lowest_bands(params, k, 12, 4)[:, 2:])) < 1e-12
    monkeypatch.setattr(bands, "lowest_bands", lambda p, k, c, n: lowest_bands(p, k, c, 4)[:, 2:])
    with pytest.raises(ValueError, match="not converged at cutoff 10: it moves by inf"):
        mean_band_gap(params)


def test_gap_check_sees_past_roundoff_in_the_cutoff_pair(monkeypatch):
    # LAPACK's roundoff in the cutoff's pair reaches ~1e-12 of the mean by cutoff 30
    # (test_mean_gap_matches_high_precision_values).  Here every E_2 is raised by 1e-11:
    # the mean moves by ~5e-12 relative against the Newton step at cutoff + 2, but the
    # pair stepped at the cutoff itself drops the 1e-11, so the check passes and the mean
    # returned is the unperturbed one to roundoff (it came out equal to the last bit)
    params, lowest_bands = LatticeParams(1.0, 1.0), bands.lowest_bands
    k, weights = half_zone(512)
    exact = lowest_bands(params, k, 10, 2)
    pair = exact + [0.0, 1e-11]
    monkeypatch.setattr(bands, "lowest_bands", lambda *args: pair)
    gap = float(np.sum(weights * np.diff(pair)[:, 0])) / 512
    stepped, _ = bands._newton_step(1.0, k, pair, 12)
    assert abs(float(np.sum(weights * np.diff(stepped)[:, 0])) / 512 - gap) > 4e-12 * gap
    want = stepped_mean(1.0, k, weights, exact, 10)
    assert abs(mean_band_gap(params) - want) <= 1e-15 * want


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


# 40-digit eigenvectors (mpmath eigsy) of the cutoff-10 hamiltonian at v0 = 1, bands 1 and 2,
# on modes n = -4..4, signed so that the largest component is positive.  Bands 2 and 3
# nearly cross at k = 0 and bands 1 and 2 at k = -1, where LAPACK's own vectors are off by
# up to 1.7e-12 and 8.4e-14.
FROZEN_BAND_VECTORS = {
    0.0: [[2.6129409246162293e-08, -6.6923076277494235e-06, 0.0009644970697190796,
           -0.061840869778321685, 0.9961674322378498, -0.061840869778321685,
           0.0009644970697190796, -6.6923076277494235e-06, 2.6129409246162293e-08],
          [-4.792047527011724e-07, 0.00011501787350698362, -0.014724204160234209,
           0.7069534529108029, 0.0, -0.7069534529108029,
           0.014724204160234209, -0.00011501787350698362, 4.792047527011724e-07]],
    -1.0: [[3.5601097016823765e-09, -1.1428956300479257e-06, 0.00022060990873632482,
            -0.021404699355825924, 0.7067827036476265, -0.7067827036476265,
            0.021404699355825924, -0.00022060990873632482, 1.1428956300479257e-06],
           [3.933828369202811e-09, -1.2550098465908434e-06, 0.0002397434027241121,
            -0.022782096494292702, 0.7067396398963699, 0.7067396398963699,
            -0.022782096494292702, 0.0002397434027241121, -1.2550098465908434e-06]],
}


def test_band_vectors_match_high_precision_values():
    # the batched band vectors, and the single solve at k = 0 that gives the start state
    params = LatticeParams(1.0, 1.0)
    k = np.array(sorted(FROZEN_BAND_VECTORS))
    _, vec = bands.lowest_bands(params, k, 10, 2, vectors=True)
    _, at_zero = lowest_eigenpairs(build_bloch_hamiltonian(params, 0.0, 10), 2, vectors=True)
    for ki, v in [*zip(k, vec), (0.0, at_zero)]:
        want = np.array(FROZEN_BAND_VECTORS[ki]).T
        got = v[6:15] * np.sign(np.sum(v[6:15] * want, axis=0))
        assert np.max(np.abs(got - want)) < 2e-14, ki
