import logging
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from weil_lab import debranges as db
from weil_lab import identities as ids
from weil_lab import numerics as nu
from weil_lab import special_fn as sf
from weil_lab import zero_catalog as zc

from conftest import ZERO_TABLE, mp_log_derivative


# ----------------------------------------------------------------------
# Theta' at the zeros
# ----------------------------------------------------------------------

def test_theta_prime_first_zeros(catalog):
    tp = db.theta_prime_at_zero(catalog.ordinates[:2])
    assert np.all(np.abs(tp + 2j) <= 1e-5)


def test_theta_prime_batch_matches_single_ordinates():
    # each value is ~2e-14 off (the point route's ~1e-14 |L|^2 at
    # |L| ~ 1/h) per Theta sample; through the Richardson weights that is
    # (4 * 2 * 2e-14 / h + 2 * 2e-14 / (2 h)) / 3 = 6e-10 per route, so
    # 1.2e-9 between the batch and the one-ordinate sweeps
    zs = zc.compute_zeros(120.0)
    g = np.concatenate([-np.array(zs.ordinates), zs.ordinates])
    single = np.array([db.theta_prime_at_zero([x])[0] for x in g])
    assert np.max(np.abs(db.theta_prime_at_zero(g) - single)) <= 1.2e-9


def test_theta_prime_row_compares_with_the_multiplicity():
    # Theta'(gamma) = -2i/m: gamma_1 given m = 2 reads |-2i + 2i/2| = 1
    zs = zc.compute_zeros(50.0)
    doubled = zc.ZeroSet(zs.ordinates, (2,) + zs.multiplicities[1:],
                         zs.height_T, zs.source)
    assert ids.theta_prime_at_zeros(zs) <= 1e-9
    assert abs(ids.theta_prime_at_zeros(doubled) - 1.0) <= 1e-9
    assert ids.theta_prime_at_zeros(zc.compute_zeros(10.0)) == 0.0   # no zero


def test_theta_prime_step_halving_consistency(catalog):
    g = catalog.ordinates[0]
    h = 1e-4
    x = np.array([g - h, g + h, g - h / 2, g + h / 2])
    th = sf.theta_on_axis(x)
    d_h = (th[1] - th[0]) / (2 * h)
    d_h2 = (th[3] - th[2]) / h
    assert abs(d_h - d_h2) < 1e-6


# ----------------------------------------------------------------------
# basis functions
# ----------------------------------------------------------------------

def test_basis_values_at_zeros(catalog):
    g1, g2 = catalog.ordinates[:2]
    at_g1, at_g2 = db.BasisFunction(g1, catalog).values_on_axis([g1, g2])
    assert abs(at_g1 + 1j / math.sqrt(math.pi)) <= 1e-6
    assert abs(at_g2) <= 1e-8


def test_basis_far_field_bound(catalog):
    g1 = catalog.ordinates[0]
    F1 = db.BasisFunction(g1, catalog)
    x = g1 + 50.0
    assert abs(F1.values_on_axis([x])[0]) <= (1.0 / math.sqrt(math.pi)) / 50.0 + 1e-12


def test_basis_rejects_non_catalog_gamma(catalog):
    with pytest.raises(ValueError):
        db.BasisFunction(17.0, catalog)


def test_basis_negative_gamma(catalog):
    g1 = catalog.ordinates[0]
    at_minus, at_plus = db.BasisFunction(-g1, catalog).values_on_axis([-g1, g1])
    assert abs(at_minus + 1j / math.sqrt(math.pi)) <= 1e-6
    assert abs(at_plus) <= 1e-8


def test_basis_limit_branch_matches_nearby_values(catalog):
    g1 = catalog.ordinates[0]
    # the limit branch at g1 + 5e-7, the quotient branch at g1 + 5e-5
    near, outside = db.BasisFunction(g1, catalog).values_on_axis([g1 + 5e-7, g1 + 5e-5])
    assert abs(near - outside) < 1e-4 * abs(near)


def test_values_near_another_zero_follow_the_error_model(catalog):
    # within 1e-6 of gamma_2, L carries ~1e-14 |L|^2 (gamma_2 moved by
    # ~1e-14): Theta stays within ~2e-14 and F_gamma1 within
    # ~1e-14 sqrt(m/pi)/|x - gamma_1| of their 30-digit values
    g1, g2 = catalog.ordinates[:2]
    F = db.BasisFunction(g1, catalog)
    norm = math.sqrt(F.m_gamma / math.pi)
    x = g2 + np.array([3e-7, -8e-7])
    theta, vals = sf.theta_on_axis(x), F.values_on_axis(x)
    with mp.workdps(30):
        for xk, th, v in zip(x, theta, vals):
            L = mp_log_derivative(xk).real
            assert abs(L) > 1e6
            assert abs(th - complex((1 - 1j * L) / (1 + 1j * L))) <= 2e-14
            exact = complex(norm / ((1 + 1j * L) * (mp.mpf(xk) - g1)))
            assert abs(v - exact) <= 1e-14 * norm / abs(xk - g1)


def test_basis_h2_proxy_bounded_decreasing(catalog):
    # |F(gamma + iy)| stays bounded and decreases over y in [1, 50], with
    # F(z) = sqrt(m/pi) (1 + Theta(z)) / (2 (z - gamma)) off the axis
    g1, m1 = catalog.ordinates[0], catalog.multiplicities[0]
    z = g1 + 1j * np.array([1.0, 5.0, 15.0, 50.0])
    vals = np.abs(math.sqrt(m1 / math.pi) * (1.0 + sf.theta_xi(z)) / (2.0 * (z - g1)))
    assert all(v <= 1.0 for v in vals)
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


def test_synthetic_multiplicity_normalization():
    # the m-dependent algebra of the basis values: with Theta'(g) = -2i/m,
    # |F_g(g)|^2 * (pi m) = 1 for every m
    for m in (1, 2, 3):
        norm = math.sqrt(m / math.pi)
        limit = norm * (-2j / m) / 2.0
        assert limit == pytest.approx(-1j / math.sqrt(m * math.pi))
        assert abs(limit) ** 2 * math.pi * m == pytest.approx(1.0)


def test_synthetic_multiplicity_zero_set(catalog):
    zs = zc.ZeroSet((10.0, 20.0), (1, 2), 25.0, "table")
    F = db.BasisFunction(20.0, zs)
    assert F.m_gamma == 2
    assert F.values_on_axis([20.0])[0] == (math.sqrt(2.0 / math.pi)
                                           * db.theta_prime_at_zero([20.0]) / 2.0)[0]


def test_basis_table_rows_take_their_own_limits():
    # synthetic rows, one with m = 2, two of them 1.5e-6 apart; the limit
    # sits exactly at the nodes within 1e-6 of a row's own gamma
    gam, mults = [-31.5, 14.25, 20.0, 20.0 + 1.5e-6], [1, 2, 1, 3]
    x = np.array([-40.0, -31.5 + 3e-7, 0.0, 14.25, 19.0, 20.0 - 5e-7,
                  20.0 + 8e-7, 55.5])
    L = np.random.default_rng(4).standard_normal(x.size) * 10.0
    L[2] = 3e7
    table = db.basis_table(gam, mults, x, log_deriv=L)
    assert table.shape == (4, 8)
    near = {(0, 1), (1, 3), (2, 5), (2, 6), (3, 6)}
    # every row has a limit node: one Theta' sweep over all four
    limit = np.sqrt(np.array(mults) / math.pi) * db.theta_prime_at_zero(gam) / 2.0
    for (k, j), v in np.ndenumerate(table):
        norm = math.sqrt(mults[k] / math.pi)
        if (k, j) in near:
            assert v == limit[k]
        else:
            ref = norm / ((1 + 1j * L[j]) * (x[j] - gam[k]))
            assert abs(v - ref) <= 1e-15 * abs(ref)



def _basis_table_unblocked(gammas, mults, x, L):
    """The basis_table formula on all columns at once: the byte oracle."""
    g, m = np.asarray(gammas, dtype=float), np.asarray(mults)
    dx = x - g[:, None]
    near = np.abs(dx) < 1e-6
    vals = (np.sqrt(m / math.pi)[:, None]
            / ((1.0 + 1j * np.real(L)[None, :]) * np.where(near, 1.0, dx)))
    have = np.flatnonzero(near.any(axis=1))
    limit = dict(zip(have, np.sqrt(m[have] / math.pi)
                     * db.theta_prime_at_zero(g[have]) / 2.0))
    rows, cols = np.nonzero(near)
    vals[rows, cols] = [limit[r] for r in rows]
    return vals


@pytest.mark.parametrize("n", [3 * nu._BLOCK + 100, 2 * nu._BLOCK + 1])
@pytest.mark.parametrize("rows", [1, 3])
def test_basis_table_column_blocks_are_byte_equal(n, rows):
    # more than two column blocks, and a size whose last block would hold
    # one column; limit nodes sit in the first, a middle and the last block
    gam, mults = [14.25, -31.5, 20.0][:rows], [1, 2, 3][:rows]
    x = np.linspace(-40.0, 55.5, n)
    for k, j in zip(range(rows), (5, nu._BLOCK + 3, n - 1)):
        x[j] = gam[k] + 4e-7
    L = np.random.default_rng(n + rows).standard_normal(n) * 10.0
    table = db.basis_table(gam, mults, x, log_deriv=L)
    assert table.tobytes() == _basis_table_unblocked(gam, mults, x, L).tobytes()


# ----------------------------------------------------------------------
# psi_gamma
# ----------------------------------------------------------------------

def test_psi_gamma_requires_large_Z(catalog):
    with pytest.raises(ValueError):
        db.psi_gamma(catalog.ordinates[0], catalog, 200.0,
                     nu.Grid(-1.0, 10.0, 101))


def test_psi_gamma_norm_within_tail_bound(small_psi, catalog):
    bound = max(db.psi_gamma_tail_bound(catalog.ordinates[0], small_psi["Z"]), 1e-2)
    assert ids.l2_defect(small_psi["psi1"]) <= bound


def test_psi_gamma_supported_on_positive_axis(small_psi):
    psi = small_psi["psi1"]
    x = psi.grid.nodes()
    neg_mass = np.sum(np.abs(psi.values[x < 0.0]) ** 2) * psi.grid.h
    assert neg_mass <= db.psi_gamma_tail_bound(14.13, small_psi["Z"])


def test_psi_gamma_negative_mass_shrinks_with_Z(small_psi, catalog):
    g1 = catalog.ordinates[0]
    grid = small_psi["grid"]
    psi_a = small_psi["psi1"]
    psi_b = db.psi_gamma(g1, catalog, 2.0 * small_psi["Z"], grid)
    x = grid.nodes()

    def neg_mass(p):
        return float(np.sum(np.abs(p.values[x < 0.0]) ** 2) * grid.h)

    # empirical O(1/Z) leak: doubling Z shrinks it by at least 1.5x
    assert neg_mass(psi_b) <= neg_mass(psi_a) / 1.5


def test_psi_gamma_orthogonality(small_psi, catalog):
    ip = nu.inner_product_grid(small_psi["psi1"], small_psi["psi2"])
    assert abs(ip) <= db.psi_gamma_tail_bound(catalog.ordinates[1],
                                              small_psi["Z"])


def test_psi_gamma_l2_identity_with_pairing(small_psi, catalog):
    # 2 ||psi||^2 = <psi, psi>_W within the truncation budget
    from weil_lab import weil_form as wf
    psi = small_psi["psi1"]
    lhs = 2.0 * nu.grid_norm_sq(psi)
    rhs = wf.weil_pairing(psi, psi, catalog).value.real
    assert abs(lhs - rhs) <= db.psi_gamma_tail_bound(
        catalog.ordinates[0], small_psi["Z"]) / math.pi


def test_psi_gamma_holds_one_set_of_frequency_samples(catalog):
    # the node array and the summed samples are freed before the transform:
    # at Z = 2000 (193,723 frequency nodes) the traced peak stays at that of
    # the basis_table row, with the sweep and the kernel spectrum warm;
    # holding both across the transform reads 13.9 MiB
    g1 = catalog.ordinates[0]
    grid = nu.band_exact_grid(-6.0, 38.0, 4080.0, 80.0)
    db.psi_gamma(g1, catalog, 2000.0, grid)
    tracemalloc.start()
    try:
        db.psi_gamma(g1, catalog, 2000.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11.0 * 2 ** 20


_OVERSIZED = {
    # each first allocation was above 2^47 bytes: the axis sweeps died in
    # numpy's MemoryError (361 and 373 GiB), the grid was made, and a
    # forward transform onto it asked for 14.6 TiB
    "psi_gamma_at_Z_1e9": lambda zs: db.psi_gamma(
        zs.ordinates[0], zs, 1e9, nu.Grid(-6.0, 38.0, 1001)),
    "axis_samples_at_Z_1e9": lambda zs: db.axis_samples(1e9, 0.02),
    "grid_of_1e12_points": lambda zs: nu.Grid(0.0, 1.0, 10 ** 12),
    "forward_transform_onto_1e12_points": lambda zs: nu.forward_fourier_grid(
        nu.GridFunction(nu.Grid(0.0, 1.0, 5), np.ones(5), "time"),
        nu.Grid(0.0, 1.0, 10 ** 12)),
}


@pytest.mark.parametrize("call", _OVERSIZED.values(), ids=list(_OVERSIZED))
def test_oversized_library_call_raises_before_allocating(call, catalog):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="points on .*limit of %d"
                           % nu.POINT_LIMIT):
            call(catalog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_axis_cache_reuse(catalog):
    db.clear_axis_cache()
    g1, g2 = catalog.ordinates[:2]
    grid = nu.band_exact_grid(-2.0, 16.0, 700.0)
    db.psi_gamma(g1, catalog, 520.0, grid)
    assert len(db._AXIS_CACHE) == 1
    db.psi_gamma(g2, catalog, 520.0, grid)
    assert len(db._AXIS_CACHE) == 1       # second build reuses the sweep


def test_axis_samples_are_the_real_mirrored_sweep():
    # L is kept as float64: Re of the sweep over x = k h >= 0, mirrored by
    # L(-x) = -conj(L(x))
    Z, spacing = 37.0, 0.05
    db.clear_axis_cache()
    try:
        fgrid, L = db.axis_samples(Z, spacing)
    finally:
        db.clear_axis_cache()
    k = np.arange(fgrid.n_points // 2 + 1)
    L_half = sf.critical_line_log_derivative(k * fgrid.h, step=fgrid.h)
    ref = np.real(np.concatenate([-np.conj(L_half[:0:-1]), L_half]))
    assert L.dtype == np.float64 and L.tobytes() == ref.tobytes()


def test_axis_sweep_miss_is_logged(caplog):
    Z, spacing = 61.0, 0.05
    db.clear_axis_cache()
    with caplog.at_level(logging.DEBUG, logger="weil_lab"):
        db.axis_samples(37.0, spacing)
        db.axis_samples(Z, spacing)
        db.axis_samples(Z, spacing)      # a hit logs nothing
        db.axis_samples(37.0, spacing)   # nor does a slice
    msgs = [r.getMessage() for r in caplog.records if r.name == "weil_lab"]
    db.clear_axis_cache()
    assert len(msgs) == 4
    # the whole first block of 8,192 nodes sets N and the fine grid
    assert msgs[0].startswith("critical-line sweep: 741 points, largest "
                              "Euler-Maclaurin N 221, 1 NUFFT chunks, "
                              "0 point by point, largest fine grid 16384, "
                              "0 nodes re-summed exactly, ")
    assert msgs[1].startswith("axis sweep at step 0.05: 0 -> 741 half-grid "
                              "nodes, 741 swept, ")
    assert msgs[2].startswith("critical-line sweep: 480 points, ")
    assert msgs[3].startswith("axis sweep at step 0.05: 741 -> 1221 half-grid "
                              "nodes, 480 swept, ")
    assert msgs[1].endswith(" s") and msgs[3].endswith(" s")


def test_axis_cache_slices_and_extends_byte_for_byte():
    # Z = 461 at spacing 0.05 sweeps 9,221 half-grid nodes, across the
    # block boundary at k = 8192; Z = 37 sweeps 741, all in block 0
    h = 0.05
    db.clear_axis_cache()
    try:
        _, small = db.axis_samples(37.0, h)
        small = small.copy()                   # cold Z1
        db.clear_axis_cache()
        grid, big = db.axis_samples(461.0, h)
        big = big.copy()                       # cold Z2
        c, m = big.size // 2, small.size // 2
        assert big[c - m:c + m + 1].tobytes() == small.tobytes()
        _, again = db.axis_samples(37.0, h)    # Z1 after Z2: a view
        assert again.tobytes() == small.tobytes()
        assert np.shares_memory(again, db._AXIS_CACHE[grid.h])
        assert not again.flags.writeable
        db.clear_axis_cache()
        db.axis_samples(37.0, h)
        _, grown = db.axis_samples(461.0, h)   # Z2 after Z1
        assert grown.tobytes() == big.tobytes()
        assert len(db._AXIS_CACHE) == 1
    finally:
        db.clear_axis_cache()


def test_axis_cache_keys_by_spacing_and_slices_sweep_nothing(monkeypatch):
    db.clear_axis_cache()
    calls = []
    sweep = sf.critical_line_log_derivative

    def counted(x, step=None):
        calls.append(np.size(x))
        return sweep(x, step=step)
    monkeypatch.setattr(sf, "critical_line_log_derivative", counted)
    try:
        db.axis_samples(61.0, 0.05)
        db.axis_samples(37.0, 0.05)
        assert calls == [1221]
        db.axis_samples(37.0, 0.04)            # another spacing, its own entry
        assert calls == [1221, 926] and len(db._AXIS_CACHE) == 2
        db.clear_axis_cache()
        assert not db._AXIS_CACHE
    finally:
        db.clear_axis_cache()


def test_declared_step_is_checked_bit_for_bit():
    h = 0.05
    k = np.arange(3, 40)
    L = sf.critical_line_log_derivative(k * h, step=h)
    assert L.shape == (37,)
    for bad in (np.linspace(3 * h, 39 * h, 37),      # linspace, not k * h
                np.delete(k, 5) * h,                 # a gap in k
                k[::-1] * h):                        # k decreasing
        assert not np.array_equal(bad, k * h)
        with pytest.raises(ValueError):
            sf.critical_line_log_derivative(bad, step=h)
    for step in (-h, 0.0, np.nan):
        with pytest.raises(ValueError):
            sf.critical_line_log_derivative(k * h, step=step)


# ----------------------------------------------------------------------
# K operator
# ----------------------------------------------------------------------

def test_K_involution_and_isometry_on_bumps(catalog):
    from weil_lab import weil_form as wf
    rng = np.random.default_rng(31)
    Z = 300.0
    grid = nu.band_exact_grid(-30.0, 30.0, 2 * Z)
    for _ in range(5):
        b = wf.random_bump(rng)
        psi = nu.GridFunction(grid, b(grid.nodes()), "time")
        k_psi = db.K_apply(psi, Z, band_limit=Z)
        kk_psi = db.K_apply(k_psi, Z, band_limit=Z)
        n0 = math.sqrt(nu.grid_norm_sq(psi))
        assert ids.grid_distance(kk_psi, psi) / n0 <= 1e-3
        assert abs(math.sqrt(nu.grid_norm_sq(k_psi)) / n0 - 1.0) <= 1e-3


def test_K_conjugate_linearity(catalog):
    from weil_lab import weil_form as wf
    Z = 300.0
    grid = nu.band_exact_grid(-30.0, 30.0, 2 * Z)
    b = wf.TestFunction.bump(0.4, 0.9)
    psi = nu.GridFunction(grid, b(grid.nodes()), "time")
    psi_i = nu.GridFunction(grid, 1j * psi.values, "time")
    k1 = db.K_apply(psi_i, Z, band_limit=Z)
    k2 = db.K_apply(psi, Z, band_limit=Z)
    assert np.max(np.abs(k1.values + 1j * k2.values)) <= 1e-12


def test_K_fixes_basis_function(small_psi):
    assert ids.k_fixes_basis(small_psi["psi1"], small_psi["Z"]) <= 5e-3


# ----------------------------------------------------------------------
# restriction isometry
# ----------------------------------------------------------------------

def test_restriction_isometry(catalog):
    lhs, rhs = db.restriction_isometry_check(catalog.ordinates[0], catalog)
    assert abs(rhs - 1.0) <= 1e-6
    assert abs(lhs / rhs - 1.0) <= 1e-2


def test_restriction_rhs_invariant_under_catalog_extension(catalog,
                                                           table_catalog):
    # extra far zeros contribute |F_gamma(gamma')|^2 ~ 0
    extended = zc.load_zeros(ZERO_TABLE, 110.0)
    g1 = catalog.ordinates[0]
    _, rhs_small = db.restriction_isometry_check(g1, catalog, Z=800.0)
    _, rhs_big = db.restriction_isometry_check(g1, extended, Z=800.0)
    # far zeros add |F(gamma')|^2 ~ 1e-24; the residual difference reflects
    # the table-vs-computed ordinate rounding, not the new entries
    assert abs(rhs_big - rhs_small) <= 1e-8
