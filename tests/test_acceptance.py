"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion. Desk scale: the 29 ordinates below
T = 100, double precision.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from weil_lab import debranges as db
from weil_lab import hilbert_polya as hp
from weil_lab import numerics as nu
from weil_lab import special_fn as sf
from weil_lab import weil_form as wf
from weil_lab import zero_catalog as zc


XI_HALF = 0.4971207781883141099127737


def report(num, name, passed, detail):
    line = "criterion %02d %s  %s  (%s)" % (num, "PASS" if passed else "FAIL",
                                            name, detail)
    print(line)
    assert passed, line


def _norm(gf):
    return math.sqrt(max(nu.grid_norm_sq(gf), 0.0))


def _diff_norm(a, b):
    return _norm(nu.GridFunction(a.grid, a.values - b.values, "time"))


def test_criterion_01_special_function_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)

    rel_half = abs(sf.xi(0.5).xi - XI_HALF) / XI_HALF

    worst_sym = 0.0
    for _ in range(100):
        s = complex(rng.uniform(-8, 9), rng.uniform(-110, 110))
        a, b = sf.xi(s).xi, sf.xi(1.0 - s).xi
        worst_sym = max(worst_sym, abs(a - b) / max(abs(a), 1e-300))

    x = rng.uniform(-115, 115, size=100)
    worst_mod = float(np.max(np.abs(np.abs(sf.theta_on_axis(x)) - 1.0)))
    theta0 = abs(sf.theta_xi(0.0) - 1.0)

    elapsed = time.time() - t0
    ok = (rel_half <= 1e-10 and worst_sym <= 1e-10
          and worst_mod <= 1e-12 and theta0 <= 1e-12 and elapsed < 10.0)
    report(1, "special functions: xi(1/2), symmetry, |Theta|=1, Theta(0)=1",
           ok, "rel %.1e, sym %.1e, |Theta| %.1e, Theta(0) %.1e, %.1fs"
           % (rel_half, worst_sym, worst_mod, theta0, elapsed))


def test_criterion_02_theta_prime_at_all_zeros(catalog):
    t0 = time.time()
    worst = max(abs(db.theta_prime_at_zero(g) + 2j) for g in catalog.ordinates)
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    report(2, "Theta'(gamma) = -2i/m at all 29 zeros", ok,
           "worst %.1e, %.1fs" % (worst, elapsed))


def test_criterion_03_basis_value_table(catalog):
    t0 = time.time()
    gam = np.array(catalog.ordinates)
    worst_diag = worst_off = 0.0
    for g in catalog.ordinates:
        F = db.BasisFunction(g, catalog)
        vals = F.values_on_axis(gam)
        i = int(np.argmin(np.abs(gam - g)))
        worst_diag = max(worst_diag,
                         abs(vals[i] + 1j / math.sqrt(math.pi * F.m_gamma)))
        off = np.abs(np.delete(vals, i))
        if len(off):
            worst_off = max(worst_off, float(off.max()))
    elapsed = time.time() - t0
    ok = worst_diag <= 1e-6 and worst_off <= 1e-6 and elapsed < 60.0
    report(3, "29x29 basis table: F(g) = -i/sqrt(m pi), F(g') = 0", ok,
           "diag %.1e, off %.1e, %.1fs" % (worst_diag, worst_off, elapsed))


def test_criterion_04_basis_pairing(heavy_psi, catalog):
    p1, p2 = heavy_psi["psi1_z1"], heavy_psi["psi2_z1"]
    diag = wf.weil_pairing(p1, p1, catalog)
    cross = wf.weil_pairing(p1, p2, catalog)
    err_diag = abs(diag.value - 1.0 / math.pi)
    err_cross = abs(cross.value)
    ok = err_diag <= 1e-5 and err_cross <= 1e-5
    report(4, "<psi_g1,psi_g1>_W = 1/pi and cross terms vanish", ok,
           "diag %.1e, cross %.1e" % (err_diag, err_cross))


def test_criterion_05_l2_identity_and_tail_scaling(heavy_psi, catalog):
    g1 = catalog.ordinates[0]
    Z1, Z2 = heavy_psi["Z1"], heavy_psi["Z2"]
    d1 = abs(2 * math.pi * nu.grid_norm_sq(heavy_psi["psi1_z1"]) - 1.0)
    d2 = abs(2 * math.pi * nu.grid_norm_sq(heavy_psi["psi1_z2"]) - 1.0)
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
        worst_inv = max(worst_inv, _diff_norm(kk_psi, psi) / n0)
        worst_iso = max(worst_iso, abs(_norm(k_psi) / n0 - 1.0))
    basis_fix = _diff_norm(heavy_psi["k_psi1"], heavy_psi["psi1_z1"])
    ok = worst_inv <= 1e-3 and worst_iso <= 1e-3 and basis_fix <= 5e-2
    report(6, "K^2 = id, ||K psi|| = ||psi||, K psi_g1 = psi_g1", ok,
           "inv %.1e, iso %.1e, basis %.1e" % (worst_inv, worst_iso, basis_fix))


def test_criterion_07_screw_kernel_positivity_and_equality(catalog):
    rng = np.random.default_rng(107)
    worst_eig = -1e30
    for _ in range(100):
        nodes = rng.uniform(-3, 3, size=8)
        diffs = np.subtract.outer(nodes, nodes)
        g_diff = wf.screw_g_array(diffs.ravel(), catalog).reshape(8, 8)
        g_t = wf.screw_g_array(nodes, catalog)
        g_ms = wf.screw_g_array(-nodes, catalog)
        M = g_diff - g_t[:, None] - g_ms[None, :]
        ev = np.linalg.eigvalsh(M)
        worst_eig = max(worst_eig, -(ev[0] + 1e-8 * np.trace(M).real))
    psd_ok = worst_eig <= 0.0

    worst_gap = -1e30
    eq_ok = True
    for _ in range(10):
        phi = wf.random_mean_zero(rng)
        psi = wf.antiderivative(phi)
        sv = wf.screw_form(phi, phi, catalog)
        pv = wf.weil_pairing(psi, psi, catalog)
        budget = (sv.quad_error + sv.tail_bound + pv.tail_bound
                  + pv.quad_error + 1e-10)
        gap = abs(sv.value - pv.value)
        worst_gap = max(worst_gap, gap - budget)
        eq_ok = eq_ok and gap <= budget
    ok = psd_ok and eq_ok
    report(7, "Gram PSD and screw form = paired antiderivatives", ok,
           "eig margin %.1e, equality margin %.1e" % (worst_eig, worst_gap))


def test_criterion_08_positivity(catalog):
    rng = np.random.default_rng(108)
    worst = -1e30
    for _ in range(50):
        psi = wf.random_bump(rng, x_range=(-3.0, 3.0))
        fv = wf.weil_pairing(psi, psi, catalog)
        worst = max(worst, -(fv.value.real + fv.tail_bound + fv.quad_error))
    ok = worst <= 0.0
    report(8, "Re <psi,psi>_W >= -(tail + quad) for 50 random bumps", ok,
           "worst margin %.1e" % worst)


def test_criterion_09_restriction_isometry(catalog):
    worst_ratio = worst_rhs = 0.0
    for g in catalog.ordinates[:3]:
        lhs, rhs = db.restriction_isometry_check(g, catalog)
        worst_ratio = max(worst_ratio, abs(lhs / rhs - 1.0))
        worst_rhs = max(worst_rhs, abs(rhs - 1.0))
    ok = worst_ratio <= 1e-2 and worst_rhs <= 1e-6
    report(9, "restriction onto the catalog is isometric", ok,
           "lhs/rhs %.1e, rhs-1 %.1e" % (worst_ratio, worst_rhs))


def test_criterion_10_eigen_residuals(catalog):
    p = hp.ExtensionParams(math.pi / 2)
    rng = np.random.default_rng(110)
    worst = 0.0
    for g in catalog.ordinates:
        samples = []
        while len(samples) < 20:
            z = complex(rng.uniform(-30, 30), rng.uniform(-2, 2))
            if abs(z - g) > 0.5 and abs(z - p.w0) > 0.5:
                samples.append(z)
        chk = hp.eigen_residual(p, g, samples)
        worst = max(worst, chk.residual / max(chk.g_scale, 1e-300))
    g1 = catalog.ordinates[0]
    samples = [complex(v, 0.3) for v in (2.0, 7.0, 33.0, 61.0)]
    pert = hp.eigen_residual(p, g1, samples, eigenvalue=g1 + 0.1)
    pert_ratio = pert.residual / max(pert.g_scale, 1e-300)
    ok = worst <= 1e-7 and pert_ratio >= 1e-2
    report(10, "eigen residuals vanish; shifted eigenvalue detected", ok,
           "worst %.1e, perturbed %.1e" % (worst, pert_ratio))


def test_criterion_11_decomposition(basis_bank, catalog):
    rng = np.random.default_rng(111)
    worst_coeff = -1.0
    worst_gap = -1e30
    ok = True
    for _ in range(10):
        psi = wf.random_bump(rng)
        dec = hp.decompose_LW(psi, catalog, bank=basis_bank)
        res = dec.residual_coeffs()
        worst_coeff = max(worst_coeff, max(abs(v) for v in res.entries))

        fv = wf.weil_pairing(psi, psi, catalog)
        pairing_psi1 = wf.tau_norm(
            wf.SpectralCoefficients(tuple(
                s - r for s, r in zip(dec.coeffs.entries, res.entries))),
            catalog)
        coupling = sum(m * (2 * abs(s) * abs(r) + abs(r) ** 2)
                       for (g, m), s, r in zip(zc.iterate_symmetric(catalog),
                                               dec.coeffs.entries, res.entries))
        budget = fv.quad_error + coupling + 1e-12
        gap = abs(fv.value.real - pairing_psi1)
        worst_gap = max(worst_gap, gap - budget)
        ok = ok and gap <= budget and worst_coeff <= 1e-5
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
