"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion. Desk scale: the 29 ordinates below
T = 100, double precision.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np

from weil_lab import debranges as db
from weil_lab import hilbert_polya as hp
from weil_lab import identities as ids
from weil_lab import numerics as nu
from weil_lab import weil_form as wf
from weil_lab import zero_catalog as zc

from conftest import eigen_samples


def report(num, name, passed, detail):
    line = "criterion %02d %s  %s  (%s)" % (num, "PASS" if passed else "FAIL",
                                            name, detail)
    print(line)
    assert passed, line


def _norm(gf):
    return math.sqrt(max(nu.grid_norm_sq(gf), 0.0))


def test_criterion_01_special_function_suite():
    t0 = time.time()
    rel_half, worst_sym, worst_mod, theta0 = ids.xi_theta_values(
        np.random.default_rng(101), 115.0)
    elapsed = time.time() - t0
    ok = (rel_half <= 1e-10 and worst_sym <= 1e-10
          and worst_mod <= 1e-12 and theta0 <= 1e-12 and elapsed < 10.0)
    report(1, "special functions: xi(1/2), symmetry, |Theta|=1, Theta(0)=1",
           ok, "rel %.1e, sym %.1e, |Theta| %.1e, Theta(0) %.1e, %.1fs"
           % (rel_half, worst_sym, worst_mod, theta0, elapsed))


def test_criterion_02_theta_prime_at_all_zeros(catalog):
    t0 = time.time()
    worst = ids.theta_prime_at_zeros(catalog)
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    report(2, "Theta'(gamma) = -2i/m at all 29 zeros", ok,
           "worst %.1e, %.1fs" % (worst, elapsed))


def test_criterion_03_basis_value_table(catalog):
    t0 = time.time()
    worst_diag, worst_off = ids.basis_value_table(catalog)
    elapsed = time.time() - t0
    ok = worst_diag <= 1e-6 and worst_off <= 1e-6 and elapsed < 60.0
    report(3, "29x29 basis table: F(g) = -i/sqrt(m pi), F(g') = 0", ok,
           "diag %.1e, off %.1e, %.1fs" % (worst_diag, worst_off, elapsed))


def test_criterion_04_basis_pairing(heavy_psi, catalog):
    err_diag, err_cross = ids.basis_pairing(
        [heavy_psi["psi1_z1"], heavy_psi["psi2_z1"]], catalog)
    ok = err_diag <= 1e-5 and err_cross <= 1e-5
    report(4, "<psi_g1,psi_g1>_W = 1/pi and cross terms vanish", ok,
           "diag %.1e, cross %.1e" % (err_diag, err_cross))


def test_criterion_05_l2_identity_and_tail_scaling(heavy_psi, catalog):
    g1 = catalog.ordinates[0]
    Z1, Z2 = heavy_psi["Z1"], heavy_psi["Z2"]
    d1 = ids.l2_defect(heavy_psi["psi1_z1"])
    d2 = ids.l2_defect(heavy_psi["psi1_z2"])
    tol = max(db.psi_gamma_tail_bound(g1, Z1), 1e-2)
    ratio = d1 / d2
    ok = d1 <= tol and ratio >= 1.8
    report(5, "2 pi ||psi_g1||^2 = 1 with O(1/Z) defect", ok,
           "defect %.2e <= %.2e, doubling shrink x%.2f" % (d1, tol, ratio))


def test_criterion_06_k_operator(heavy_psi, catalog):
    rng = np.random.default_rng(106)
    Z = 300.0
    grid = nu.band_exact_grid(-30.0, 30.0, 2 * Z)
    worst_inv = worst_iso = 0.0
    for _ in range(20):
        b = wf.random_bump(rng)
        psi = nu.GridFunction(grid, b(grid.nodes()), "time")
        k_psi = db.K_apply(psi, Z, band_limit=Z)
        kk_psi = db.K_apply(k_psi, Z, band_limit=Z)
        n0 = _norm(psi)
        worst_inv = max(worst_inv, ids.grid_distance(kk_psi, psi) / n0)
        worst_iso = max(worst_iso, abs(_norm(k_psi) / n0 - 1.0))
    basis_fix = ids.k_fixes_basis(heavy_psi["psi1_z1"], heavy_psi["Z1"])
    ok = worst_inv <= 1e-3 and worst_iso <= 1e-3 and basis_fix <= 5e-2
    report(6, "K^2 = id, ||K psi|| = ||psi||, K psi_g1 = psi_g1", ok,
           "inv %.1e, iso %.1e, basis %.1e" % (worst_inv, worst_iso, basis_fix))


def test_criterion_07_screw_kernel_positivity_and_equality(catalog):
    rng = np.random.default_rng(107)
    worst_eig = ids.gram_psd_margin(rng, 100, catalog)
    worst_gap = ids.screw_weil_margin(rng, 10, catalog)
    ok = worst_eig <= 0.0 and worst_gap <= 0.0
    report(7, "Gram PSD and screw form = paired antiderivatives", ok,
           "eig margin %.1e, equality margin %.1e" % (worst_eig, worst_gap))


def test_criterion_08_positivity(catalog):
    worst = ids.positivity_margin(np.random.default_rng(108), 50, catalog,
                                  wf.random_bump)
    ok = worst <= 0.0
    report(8, "Re <psi,psi>_W >= -(tail + quad) for 50 random bumps", ok,
           "worst margin %.1e" % worst)


def test_criterion_09_restriction_isometry(catalog):
    worst_ratio, worst_rhs = ids.restriction_isometry(catalog)
    ok = worst_ratio <= 1e-2 and worst_rhs <= 1e-6
    report(9, "restriction onto the catalog is isometric", ok,
           "lhs/rhs %.1e, rhs-1 %.1e" % (worst_ratio, worst_rhs))


def test_criterion_10_eigen_residuals(catalog):
    p = hp.ExtensionParams(math.pi / 2)
    rng = np.random.default_rng(110)
    sets = [(g, eigen_samples(rng, [g, p.w0])) for g in catalog.ordinates]
    shifted = (catalog.ordinates[0],
               [complex(v, 0.3) for v in (2.0, 7.0, 33.0, 61.0)])
    worst, pert_ratio = ids.eigen_residuals(p, sets, shifted)
    ok = worst <= 1e-7 and pert_ratio >= 1e-2
    report(10, "eigen residuals vanish; shifted eigenvalue detected", ok,
           "worst %.1e, perturbed %.1e" % (worst, pert_ratio))


def test_criterion_11_decomposition(lw_grid, catalog):
    worst_coeff, decs = ids.decomposition_null(
        np.random.default_rng(111), 10, catalog, 500.0, lw_grid,
        wf.random_bump)
    worst_gap = -1e30
    for psi, dec, res in decs:
        fv = wf.weil_pairing(psi, psi, catalog)
        pairing_psi1 = wf.tau_norm(dec.coeffs - res, catalog)
        s, r = np.abs(dec.coeffs), np.abs(res)
        coupling = np.sum(dec.mults * (2 * s * r + r ** 2))
        budget = fv.quad_error + coupling + 1e-12
        gap = abs(fv.value.real - pairing_psi1)
        worst_gap = max(worst_gap, gap - budget)
    ok = worst_gap <= 0.0 and worst_coeff <= 1e-5
    report(11, "psi0 is transform-null and psi1 carries the pairing", ok,
           "max |S_psi0| %.1e, pairing margin %.1e" % (worst_coeff, worst_gap))


def test_criterion_12_zero_catalog(catalog, table_catalog):
    rep = zc.counting_check(catalog)
    diffs = np.abs(np.array(catalog.ordinates)
                   - np.array(table_catalog.ordinates))
    ok = (len(catalog) == 29 and len(table_catalog) == 29
          and diffs.max() <= 1e-6 and rep.passed)
    report(12, "29 computed ordinates match the published table", ok,
           "max diff %.1e, count vs estimate %.2f" % (diffs.max(),
                                                      rep.estimate))
