import math

import numpy as np
import pytest
from scipy import integrate

from weil_lab import numerics as nu
from weil_lab.weil_form import TestFunction

# integral of exp(-1/(1-x^2)) over [-1,1], frozen from a 30-digit quadrature
UNIT_BUMP_MASS = 0.4439938161680786


def test_unit_bump_mass_oracle():
    # the frozen constant itself against an adaptive oracle
    live, err = integrate.quad(lambda x: math.exp(-1.0 / (1.0 - x * x)),
                               -1, 1, epsabs=1e-14, limit=200)
    assert abs(live - UNIT_BUMP_MASS) < 1e-12


def test_fourier_at_unit_bump_at_zero():
    b = TestFunction.bump(0.0, 1.0)
    val = nu.fourier_at(b, 0.0)
    assert abs(val - UNIT_BUMP_MASS) < 1e-12
    assert abs(val.imag) < 1e-15


def test_fourier_at_odd_function_vanishes():
    phi = TestFunction.bump(0.0, 1.0).derivative()
    assert abs(nu.fourier_at(phi, 0.0)) < 1e-14


@pytest.mark.parametrize("z", [0.7, 14.13, 55.0])
def test_fourier_translation_law(z):
    c = 1.25
    base = TestFunction.bump(0.0, 0.8)
    shifted = TestFunction.bump(c, 0.8)
    lhs = nu.fourier_at(shifted, z)
    rhs = np.exp(1j * z * c) * nu.fourier_at(base, z)
    assert abs(lhs - rhs) < 1e-12


def test_fourier_matches_adaptive_quadrature():
    b = TestFunction.bump(0.3, 0.9)
    for z in (2.0, 31.5):
        re, _ = integrate.quad(lambda x: (b(x) * np.exp(1j * z * x)).real,
                               *b.support(), epsabs=1e-13, limit=400)
        im, _ = integrate.quad(lambda x: (b(x) * np.exp(1j * z * x)).imag,
                               *b.support(), epsabs=1e-13, limit=400)
        assert abs(nu.fourier_at(b, z) - complex(re, im)) < 1e-11


def test_fourier_entire_cauchy_riemann():
    b = TestFunction.bump(-0.4, 1.1)
    rng = np.random.default_rng(7)
    h = 1e-4
    for _ in range(5):
        z = complex(rng.uniform(-20, 20), rng.uniform(-3, 3))
        dx = (nu.fourier_at(b, z + h) - nu.fourier_at(b, z - h)) / (2 * h)
        dy = (nu.fourier_at(b, z + 1j * h) - nu.fourier_at(b, z - 1j * h)) / (2 * h)
        assert abs(dx + 1j * dy) < 1e-6  # d/dy = i d/dx for analytic f


def test_fourier_growth_guard():
    b = TestFunction.bump(0.0, 1.0)
    with pytest.raises(ValueError):
        nu.fourier_at(b, 60j)


def test_gauss_legendre_panels_integrate_polynomials_exactly():
    x, w = nu.panel_rule(-0.3, 1.9, 0.25, 8)
    assert x.shape == w.shape == (9, 8)
    exact = (1.9 ** 16 - 0.3 ** 16) / 16.0      # 8 points are exact to degree 15
    assert abs(np.sum(w * x ** 15) - exact) <= 1e-13 * exact
    x1, w1 = nu.panel_rule(0.0, 1e-4, 1.0, 4)   # never fewer than one panel
    assert x1.shape == (1, 4) and abs(np.sum(w1) - 1e-4) <= 1e-19


def test_band_exact_spacing_clears_alias_images():
    g = nu.band_exact_grid(-4.0, 18.0, 600.0, 50.0)
    assert (g.x_min, g.x_max) == (-4.0, 18.0)
    assert 2.0 * math.pi / g.h >= 650.0 / 0.98 * (1 - 1e-12)
    assert g.n_points == nu.band_exact_grid(-4.0, 18.0, 650.0, 0.0).n_points


def test_grid_validation():
    with pytest.raises(ValueError):
        nu.Grid(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        nu.Grid(0.0, 1.0, 1)
    g = nu.Grid(0.0, 1.0, 11)
    assert g.h == pytest.approx(0.1)


def test_gridfunction_validation():
    g = nu.Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        nu.GridFunction(g, np.zeros(3), "time")
    with pytest.raises(ValueError):
        nu.GridFunction(g, np.array([np.nan, 0, 0, 0]), "time")
    with pytest.raises(ValueError):
        nu.GridFunction(g, np.zeros(4), "space")
    f = nu.GridFunction(g, np.zeros(4), "time")
    with pytest.raises(ValueError):
        f.values[0] = 1.0  # immutable after construction


def test_inverse_fourier_zero_input():
    fg = nu.Grid(-50.0, 50.0, 2001)
    F = nu.GridFunction(fg, np.zeros(2001), "frequency")
    out = nu.inverse_fourier_grid(F, nu.Grid(-1.0, 1.0, 51))
    assert np.max(np.abs(out.values)) == 0.0


def test_inverse_fourier_recovers_bump():
    b = TestFunction.bump(0.0, 1.0)
    out_grid = nu.Grid(-2.0, 2.0, 201)
    ref = b(out_grid.nodes())

    def l2_err(Z):
        fg = nu.symmetric_grid(Z, 0.02)
        samples = np.array([b.fourier(z) for z in fg.nodes()])
        F = nu.GridFunction(fg, samples, "frequency")
        rec = nu.inverse_fourier_grid(F, out_grid)
        return math.sqrt(np.sum(np.abs(rec.values - ref) ** 2) * out_grid.h)

    e1, e2 = l2_err(60.0), l2_err(120.0)
    assert e2 < 1e-5
    assert e2 <= e1 / 1.5  # truncation-dominated decay in Z


def test_inverse_fourier_conjugate_symmetric_gives_real():
    fg = nu.symmetric_grid(40.0, 0.05)
    z = fg.nodes()
    F_vals = np.exp(-z * z / 30.0) * (np.cos(z) + 1j * np.sin(z))  # F(-z)=conj F(z)
    F = nu.GridFunction(fg, F_vals, "frequency")
    out = nu.inverse_fourier_grid(F, nu.Grid(-3.0, 3.0, 301))
    assert np.max(np.abs(out.values.imag)) < 1e-12 * np.max(np.abs(out.values))


def test_inverse_fourier_aliasing_guard():
    fg = nu.symmetric_grid(100.0, 0.5)
    F = nu.GridFunction(fg, np.zeros(fg.n_points), "frequency")
    with pytest.raises(nu.AliasingGuardError):
        nu.inverse_fourier_grid(F, nu.Grid(-10.0, 10.0, 101))


def test_forward_guard_and_band_limit():
    tg = nu.Grid(-3.0, 3.0, 61)   # h = 0.1
    psi = nu.GridFunction(tg, np.exp(-tg.nodes() ** 2), "time")
    fg = nu.symmetric_grid(30.0, 0.1)
    with pytest.raises(nu.AliasingGuardError):
        nu.forward_fourier_grid(psi, fg)          # 0.1 * 30 > pi/4
    nu.forward_fourier_grid(psi, fg, band_limit=25.0)  # 2pi/0.1 > 30 + 25
    with pytest.raises(nu.AliasingGuardError):
        nu.forward_fourier_grid(psi, fg, band_limit=40.0)


def _direct_sum(vals, grid, sign, scale, x):
    """Oracle: the trapezoid sum scale * sum_j w_j vals_j exp(sign i z_j x)
    per x by an explicit exp matrix, with the sum of |terms|."""
    w = np.ones(grid.n_points)
    w[0] = w[-1] = 0.5
    terms = vals * w * scale * np.exp(1j * sign * np.multiply.outer(x, grid.nodes()))
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n, m", [(2, 2), (2, 9), (9, 2), (40, 301),
                                  (301, 40), (1000, 1000)])
@pytest.mark.parametrize("zs, xs", [((-30.0, 30.0), (-2.0, 3.0)),
                                    ((5.5, 80.25), (-7.3, -1.1)),
                                    ((-100.0, -20.0), (3.0, 11.0))])
def test_chirp_z_matches_direct_sum(sign, n, m, zs, xs):
    zgrid, out = nu.Grid(*zs, n), nu.Grid(*xs, m)
    rng = np.random.default_rng(n + 7 * m)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = nu.GridFunction(zgrid, vals, "frequency")
    got = nu._chirp_z(f, sign, 0.3, out, "time")
    assert got.grid == out and got.domain_tag == "time"
    ref, mag = _direct_sum(vals, zgrid, sign, 0.3, out.nodes())
    assert np.max(np.abs(got.values - ref) / mag) <= 1e-12


def test_grid_transforms_are_trapezoid_sums():
    fg = nu.Grid(-37.0, 52.0, 700)
    tg = nu.Grid(-1.5, 0.9, 333)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(700) + 1j * rng.standard_normal(700)
    inv = nu.inverse_fourier_grid(nu.GridFunction(fg, vals, "frequency"), tg)
    ref, mag = _direct_sum(vals, fg, -1.0, fg.h / (2 * math.pi), tg.nodes())
    assert np.max(np.abs(inv.values - ref) / mag) <= 1e-12
    fwd = nu.forward_fourier_grid(inv, fg, band_limit=60.0)
    ref, mag = _direct_sum(inv.values, tg, 1.0, tg.h, fg.nodes())
    assert np.max(np.abs(fwd.values - ref) / mag) <= 1e-12


def test_grid_transforms_at_acceptance_size():
    # the heavy_psi shapes: 968,633 frequency nodes on [-10^4, 10^4] onto the
    # 145,774-node window [-6, 38] and back; the chirp phase reaches ~3e6 rad
    fg = nu.symmetric_grid(10000.0, 0.999 * nu.ALIAS_GUARD / 38.0)
    tg = nu.band_exact_grid(-6.0, 38.0, 20000.0, margin=400.0)
    assert (fg.n_points, tg.n_points) == (968633, 145774)
    rng = np.random.default_rng(2024)
    vals = rng.standard_normal(fg.n_points) + 1j * rng.standard_normal(fg.n_points)
    inv = nu.inverse_fourier_grid(nu.GridFunction(fg, vals, "frequency"), tg)
    fwd = nu.forward_fourier_grid(inv, fg, band_limit=10000.0)
    for src, dst, sign, scale in ((vals, inv, -1.0, fg.h / (2 * math.pi)),
                                  (inv.values, fwd, 1.0, tg.h)):
        grid = fg if sign < 0 else tg
        k = rng.choice(dst.grid.n_points, 6, replace=False)
        ref, mag = _direct_sum(src, grid, sign, scale, dst.grid.nodes()[k])
        assert np.max(np.abs(dst.values[k] - ref) / mag) <= 1e-10


def test_inner_product_constant():
    g = nu.Grid(0.0, 1.0, 101)
    one = nu.GridFunction(g, np.ones(101), "time")
    assert abs(nu.inner_product_grid(one, one) - 1.0) < 1e-14


def test_inner_product_hermitian_symmetry():
    g = nu.Grid(-1.0, 1.0, 201)
    rng = np.random.default_rng(3)
    f = nu.GridFunction(g, rng.standard_normal(201) + 1j * rng.standard_normal(201), "time")
    h = nu.GridFunction(g, rng.standard_normal(201) + 1j * rng.standard_normal(201), "time")
    assert abs(nu.inner_product_grid(f, h)
               - np.conj(nu.inner_product_grid(h, f))) < 1e-13


def test_inner_product_grid_mismatch():
    f = nu.GridFunction(nu.Grid(0, 1, 11), np.ones(11), "time")
    g = nu.GridFunction(nu.Grid(0, 1, 12), np.ones(12), "time")
    with pytest.raises(nu.GridMismatchError):
        nu.inner_product_grid(f, g)
    h = nu.GridFunction(nu.Grid(0, 1, 11), np.ones(11), "frequency")
    with pytest.raises(nu.GridMismatchError):
        nu.inner_product_grid(f, h)


def test_inner_product_matches_adaptive_quadrature():
    b1 = TestFunction.bump(0.2, 0.7)
    b2 = TestFunction.bump(-0.1, 0.9)
    g = nu.Grid(-1.5, 1.5, 3001)
    f1 = nu.GridFunction(g, b1(g.nodes()), "time")
    f2 = nu.GridFunction(g, b2(g.nodes()), "time")
    ref, _ = integrate.quad(lambda x: (b1(x) * np.conj(b2(x))).real, -1.5, 1.5,
                            epsabs=1e-12, limit=200)
    assert abs(nu.inner_product_grid(f1, f2) - ref) < 1e-8


def test_inner_product_error_halves_with_spacing():
    b = TestFunction.bump(0.0, 1.0)
    ref, _ = integrate.quad(lambda x: abs(b(x)) ** 2, -1, 1, epsabs=1e-14,
                            limit=200)

    def err(n):
        g = nu.Grid(-1.0, 1.0, n)
        f = nu.GridFunction(g, b(g.nodes()), "time")
        return abs(nu.inner_product_grid(f, f).real - ref)

    coarse, fine = err(101), err(201)
    assert fine <= coarse / 2.0


def test_plancherel_convention():
    b = TestFunction.bump(0.1, 0.8)
    norm_sq, _ = integrate.quad(lambda x: abs(b(x)) ** 2, *b.support(),
                                epsabs=1e-14, limit=200)

    def freq_mass(Z):
        fg = nu.symmetric_grid(Z, 0.05)
        vals = np.array([b.fourier(z) for z in fg.nodes()])
        F = nu.GridFunction(fg, vals, "frequency")
        return nu.grid_norm_sq(F)

    m100, m200 = freq_mass(100.0), freq_mass(200.0)
    target = 2.0 * math.pi * norm_sq
    assert abs(m200 - target) < 1e-8
    assert abs(m200 - target) <= abs(m100 - target) + 1e-12


def test_csv_export_format_and_determinism(tmp_path):
    g = nu.Grid(0.0, 1.0, 3)
    f = nu.GridFunction(g, np.array([1 / 3, 0.123456789012345678, 1j]), "time")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    nu.write_grid_csv(f, p1)
    nu.write_grid_csv(f, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 4
    assert "0.33333333333333331" in lines[1]  # >= 15 significant digits
