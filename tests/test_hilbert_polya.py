import math
import tracemalloc

import numpy as np
import pytest

from weil_lab import cli
from weil_lab import debranges as db
from weil_lab import hilbert_polya as hp
from weil_lab import identities as ids
from weil_lab import numerics as nu
from weil_lab import special_fn as sf
from weil_lab import weil_form as wf
from weil_lab import zero_catalog as zc

from conftest import count_xi_points, eigen_samples, with_pairs


# ----------------------------------------------------------------------
# S_theta
# ----------------------------------------------------------------------

def test_s_pi_half_is_minus_xi():
    # against the product route to xi: S_{pi/2} = -xi is exact in xi itself
    z = 3.0
    assert abs(hp.s_theta(math.pi / 2, z) + ids.xi_product(0.5 - 1j * z)) <= 1e-14


def test_s_theta_vanishes_at_zeros(catalog):
    g1 = catalog.ordinates[0]
    assert abs(hp.s_theta(math.pi / 2, g1)) <= 1e-8


@pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, 2.9])
def test_s_theta_real_on_axis(theta):
    for x in (0.3, 11.0, 47.5):
        v = hp.s_theta(theta, x)
        assert abs(v.imag) <= 1e-12 * max(abs(v), 1e-300)


def test_s_theta_broadcasts_with_one_xi_call(monkeypatch):
    theta = 0.7
    z = np.array([[0.3, 14.0 + 0.5j], [-7.0 - 1.5j, 2j]])
    ref = np.array([[0.5j * (np.exp(1j * theta) * sf.E_xi(v)
                             - np.exp(-1j * theta) * np.conj(sf.E_xi(np.conj(v))))
                     for v in row] for row in z])
    sizes = count_xi_points(monkeypatch)
    got = hp.s_theta(theta, z)
    hp.ExtensionParams(theta)
    assert sizes == [z.size, 1]
    assert got.shape == z.shape
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


def test_spectra_interlace_on_complete_catalogs(catalog, monkeypatch):
    assert ids.spectra_interlace(zc.compute_zeros(120.0)) == 0
    sizes = count_xi_points(monkeypatch)
    assert ids.spectra_interlace(catalog) == 0
    assert sizes == [1977]          # the scan, at step 0.05, in one xi call


@pytest.mark.parametrize("edit", [
    lambda p: p[1:],                                    # gamma_1 deleted
    lambda p: p[:2] + p[3:],                            # gamma_3 deleted
    lambda p: p + [(45.0, 1)],                          # a spurious zero
    lambda p: [(p[0][0], 2)] + p[1:],                   # m(gamma_1) = 2
], ids=["gamma_1_deleted", "gamma_3_deleted", "spurious_zero_at_45",
        "gamma_1_doubled"])
def test_spectra_interlace_sees_a_faulty_catalog(catalog, edit):
    assert ids.spectra_interlace(with_pairs(catalog, edit)) >= 1


def test_spectra_interlace_cannot_see_the_last_zero_missing(catalog):
    # no S_0 zero above gamma_N is promised below T
    assert ids.spectra_interlace(with_pairs(catalog, lambda p: p[:-1])) == 0


def test_spectra_interlace_scan_is_capped_before_allocation():
    # two ordinates 1e-9 apart ask for a step of 2.5e-10: 5.6e10 points
    zs = zc.ZeroSet((14.0, 14.000000001), (1, 1), 20.0, "table")
    with pytest.raises(ValueError, match="limit of %d" % nu.POINT_LIMIT):
        ids.spectra_interlace(zs)


def test_extension_params_validation(catalog):
    hp.ExtensionParams(math.pi / 2)       # w0 = i is fine
    with pytest.raises(ValueError):
        hp.ExtensionParams(-0.1)
    with pytest.raises(ValueError):
        hp.ExtensionParams(math.pi)
    with pytest.raises(ValueError):
        # w0 at a zero of S_{pi/2} (= a catalog ordinate)
        hp.ExtensionParams(math.pi / 2, w0=complex(catalog.ordinates[0], 0.0))


# ----------------------------------------------------------------------
# eigenfunction residuals
# ----------------------------------------------------------------------

def test_eigen_residual_first_two_zeros(catalog):
    p = hp.ExtensionParams(math.pi / 2)
    rng = np.random.default_rng(33)
    for g in catalog.ordinates[:2]:
        chk = hp.eigen_residual(p, g, eigen_samples(rng, [g, p.w0]))
        assert chk.residual <= 1e-7 * chk.g_scale


def test_eigen_residual_detects_perturbed_eigenvalue(catalog):
    p = hp.ExtensionParams(math.pi / 2)
    rng = np.random.default_rng(34)
    g1 = catalog.ordinates[0]
    chk = hp.eigen_residual(p, g1, eigen_samples(rng, [g1, p.w0]),
                            eigenvalue=g1 + 0.1)
    assert chk.residual >= 1e-2 * chk.g_scale


def test_eigen_residual_evaluates_s_theta_once_per_sample(catalog, monkeypatch):
    p = hp.ExtensionParams(math.pi / 3)
    g1 = catalog.ordinates[0]
    samples = eigen_samples(np.random.default_rng(35), [g1, p.w0], n=7)
    s_w0 = p.s(p.w0)

    def F(z):
        return (p.s(z) / s_w0) * (g1 - p.w0) / (complex(z) - g1)

    def m_theta(z):
        # (G(z), M_theta G(z)) at one sample for the domain element
        # generated by F, by the formulas that eigen_residual forms at once
        z = complex(z)
        f_w0, s_z = complex(F(p.w0)), p.s(z)
        G = (s_w0 * complex(F(z)) - s_z * f_w0) / (z - p.w0)
        return G, z * G + f_w0 * s_z

    per_call = [m_theta(z) for z in samples]
    sizes = count_xi_points(monkeypatch)
    chk = hp.eigen_residual(p, g1, samples, eigenvalue=g1 + 0.01)
    assert sizes == [len(samples) + 1]
    # the one-sample route is the oracle; the batch sums differ from its
    # one-point sums at roundoff
    scale = max(abs(G) for G, _ in per_call)
    ref = max(abs(MG - (g1 + 0.01) * G) for G, MG in per_call)
    assert abs(chk.residual - ref) <= 1e-12 * scale
    assert abs(chk.g_scale - scale) <= 1e-13 * scale


def test_eigen_residual_rejects_bad_samples(catalog):
    p = hp.ExtensionParams(math.pi / 2)
    g1 = catalog.ordinates[0]
    with pytest.raises(ValueError):
        hp.eigen_residual(p, g1, [complex(g1, 0.0)])


def test_eigenbasis_orthogonality_on_axis(catalog):
    # grid inner products of S(z)/((z-gamma) E(z)) = F_gamma/norm vanish
    # off the diagonal up to the truncation tail
    fg = nu.symmetric_grid(800.0, 0.05)
    x = fg.nodes()
    L = db.axis_samples(800.0, 0.05)[1]
    vals = db.basis_table(catalog.ordinates[:3], catalog.multiplicities[:3],
                          x, L)
    gram = vals @ vals.conj().T * fg.h
    assert np.max(np.abs(gram - np.eye(3))) <= 2e-3


# ----------------------------------------------------------------------
# spectral coefficients and the decomposition
# ----------------------------------------------------------------------

def test_spectral_coeffs_zero_function(catalog):
    zero = wf.TestFunction.combination([0.0], [wf.TestFunction.bump()])
    S = hp.spectral_coeffs(zero, catalog)
    assert S.shape == (2 * len(catalog),) and np.all(S == 0.0)


def test_spectral_coeffs_of_basis_grid(small_psi, catalog):
    S = hp.spectral_coeffs(small_psi["psi1"], catalog)
    idx = len(catalog)                                  # the +gamma_1 slot
    assert abs(S[idx] + 1j / math.sqrt(math.pi)) <= 1e-3
    assert np.max(np.abs(np.delete(S, idx))) <= 1e-3


def test_tau_norm_equals_pairing(catalog):
    psi = wf.TestFunction.bump(0.4, 1.1)
    S = hp.spectral_coeffs(psi, catalog)
    lhs = wf.tau_norm(S, catalog)
    rhs = wf.weil_pairing(psi, psi, catalog).value.real
    assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1e-30)


def test_decompose_bump(lw_grid, catalog):
    rng = np.random.default_rng(35)
    psi = wf.random_combination(rng)
    dec = hp.decompose_LW(psi, catalog, 500.0, lw_grid)
    res = hp.residual_coeffs(dec.coeffs, catalog)
    assert np.max(np.abs(res)) <= 1e-5
    # pairing is carried entirely by psi1
    pv = wf.weil_pairing(psi, psi, catalog).value.real
    pv1 = wf.tau_norm(dec.coeffs, catalog)
    assert abs(pv - pv1) <= 1e-10 * max(pv, 1e-30)
    # time-domain split reassembles the input
    assert np.max(np.abs(dec.psi0.values + dec.psi1.values
                         - psi(lw_grid.nodes()))) <= 1e-12


def test_decompose_basis_function_is_pure_span(lw_grid, catalog):
    psi1 = db.psi_gamma(catalog.ordinates[0], catalog, 500.0, lw_grid)
    dec = hp.decompose_LW(psi1, catalog, 500.0, lw_grid)
    n1 = math.sqrt(nu.grid_norm_sq(dec.psi1))
    n0 = math.sqrt(nu.grid_norm_sq(dec.psi0))
    assert n0 <= 2e-2 * n1


def test_decompose_projection_property(lw_grid, catalog):
    rng = np.random.default_rng(36)
    psi = wf.random_combination(rng)
    first = hp.decompose_LW(psi, catalog, 500.0, lw_grid)
    second = hp.decompose_LW(first.psi1, catalog, 500.0, lw_grid)
    # applying the splitter to psi1 returns (~0, psi1) within twice the
    # single-pass grid-transform floor
    floor = math.sqrt(nu.grid_norm_sq(nu.GridFunction(
        lw_grid, first.psi1.values
        - (psi(lw_grid.nodes()) - first.psi0.values), "time"))) \
        + np.max(np.abs(hp.spectral_coeffs(first.psi1, catalog))) \
        * len(catalog.gammas)
    n0 = math.sqrt(nu.grid_norm_sq(second.psi0))
    n1 = math.sqrt(nu.grid_norm_sq(second.psi1))
    assert n0 <= 2.0 * max(floor, 0.05 * n1)


def test_decompose_weil_degeneracy_of_null_part(lw_grid, catalog):
    rng = np.random.default_rng(37)
    psi = wf.random_combination(rng)
    dec = hp.decompose_LW(psi, catalog, 500.0, lw_grid)
    res = hp.residual_coeffs(dec.coeffs, catalog)
    null_pairing = wf.tau_norm(res, catalog)
    assert null_pairing <= 1e-9
    # the grid route carries the psi_gamma transform floor but stays a
    # bounded defect of the finite catalog, as documented
    grid_pairing = wf.weil_pairing(dec.psi0, dec.psi0, catalog)
    assert abs(grid_pairing.value) <= 1e-4


def test_decompose_on_a_T50_catalog(lw_grid):
    # a T = 50 decomposition runs over its own 20-entry catalog: the
    # coefficients are spectral_coeffs of zs50 and the residuals the
    # row-by-row sums, bit for bit; psi1, one transform of the summed
    # samples, matches the sum of the psi_gamma rows to rounding
    zs50 = zc.compute_zeros(50.0)
    psi = wf.random_combination(np.random.default_rng(38))
    dec = hp.decompose_LW(psi, zs50, 500.0, lw_grid)
    assert dec.coeffs.tobytes() == hp.spectral_coeffs(psi, zs50).tobytes()
    assert len(zs50.gammas) == 20
    table = db.basis_table(zs50.gammas, zs50.mults, zs50.gammas)
    expansion = 1j * dec.coeffs * np.sqrt(zs50.mults * math.pi)
    psi1, scale, res = 0.0, 0.0, dec.coeffs
    for c, g, t in zip(expansion, zs50.gammas, table):
        row = db.psi_gamma(g, zs50, 500.0, lw_grid).values
        psi1, res = psi1 + c * row, res - c * t
        scale += abs(c) * np.max(np.abs(row))
    assert np.max(np.abs(dec.psi1.values - psi1)) <= 1e-14 * scale
    assert hp.residual_coeffs(dec.coeffs, zs50).tobytes() == res.tobytes()
    assert np.max(np.abs(dec.psi0.values + dec.psi1.values
                         - psi(lw_grid.nodes()))) <= 1e-12


def test_verify_makes_no_decomposition_grid(tmp_path, monkeypatch):
    # the decomposition rows read S and its residual on the catalog: no psi1
    # combination and no inverse transform to the time side
    calls = []
    for module, name in ((db, "psi_combination"), (nu, "inverse_fourier_grid")):
        monkeypatch.setattr(module, name, lambda *a, _f=getattr(module, name), _n=name,
                            **k: calls.append(_n) or _f(*a, **k))
    assert cli.main(["verify", "hilbert_polya", "--height-T", "50", "--cutoff-Z", "500",
                     "--out", str(tmp_path)]) == 0
    assert calls == []


def test_decompose_on_an_empty_catalog(lw_grid, monkeypatch):
    # no zero below T = 10: psi1 is zero, with no transform, psi0 is the
    # samples, and there is no residual coefficient
    calls = []
    inverse = nu.inverse_fourier_grid
    monkeypatch.setattr(nu, "inverse_fourier_grid",
                        lambda *a: calls.append(1) or inverse(*a))
    psi = wf.TestFunction.bump(0.0, 1.0)
    empty = zc.compute_zeros(10.0)
    dec = hp.decompose_LW(psi, empty, 500.0, lw_grid)
    assert not calls and not np.any(dec.psi1.values)
    assert np.array_equal(dec.psi0.values, psi(lw_grid.nodes()))
    assert hp.residual_coeffs(dec.coeffs, empty).size == 0


def test_decompose_makes_one_inverse_transform(lw_grid, catalog, monkeypatch):
    # psi1 is one transform of the summed frequency samples, not one per
    # catalog entry (58 at T = 100)
    calls = []
    inverse = nu.inverse_fourier_grid
    monkeypatch.setattr(nu, "inverse_fourier_grid",
                        lambda *a: calls.append(1) or inverse(*a))
    hp.decompose_LW(wf.random_combination(np.random.default_rng(39)),
                    catalog, 500.0, lw_grid)
    assert len(calls) == 1


def test_decompose_holds_one_row_of_frequency_samples(lw_grid, catalog):
    # psi1 sums its frequency samples one basis_table row at a time: the
    # traced peak of a decomposition stays below one 58 x n_freq complex
    # matrix of every F_gamma sample
    psi = wf.random_combination(np.random.default_rng(40))
    hp.decompose_LW(psi, catalog, 500.0, lw_grid)       # the sweep is warm
    fgrid, _ = db.axis_samples(500.0, db._default_freq_spacing(18.0))
    values_matrix = 58 * fgrid.n_points * 16              # 20.3 MiB
    tracemalloc.start()
    try:
        hp.decompose_LW(psi, catalog, 500.0, lw_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values_matrix


def test_decompose_grid_mismatch(lw_grid, catalog):
    other = nu.GridFunction(nu.Grid(-1.0, 1.0, 11), np.zeros(11), "time")
    with pytest.raises(nu.GridMismatchError):
        hp.decompose_LW(other, catalog, 500.0, lw_grid)


def test_generator_is_i_d_dx_on_smooth_grids(catalog):
    # frequency-side multiplication by z realizes i d/dx on the time side
    b = wf.TestFunction.bump(0.0, 1.0)
    Z = 250.0
    fg = nu.symmetric_grid(Z, 0.05)
    tg = nu.Grid(-2.0, 2.0, 801)
    spec = b.fourier(fg.nodes())
    mult = nu.GridFunction(fg, fg.nodes() * spec, "frequency")
    a_psi = nu.inverse_fourier_grid(mult, tg)
    x = tg.nodes()
    h = tg.h
    d_psi = np.gradient(b(x), h)
    err = np.max(np.abs(a_psi.values - 1j * d_psi)[20:-20])
    assert err <= 1e-3 * np.max(np.abs(d_psi))
