import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from weil_lab import cli
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
    val = b.fourier(0.0)
    assert abs(val - UNIT_BUMP_MASS) < 1e-12
    assert abs(val.imag) < 1e-15


def test_fourier_at_odd_function_vanishes():
    phi = TestFunction.bump(0.0, 1.0).derivative()
    assert abs(phi.fourier(0.0)) < 1e-14


@pytest.mark.parametrize("z", [0.7, 14.13, 55.0])
def test_fourier_translation_law(z):
    c = 1.25
    base = TestFunction.bump(0.0, 0.8)
    shifted = TestFunction.bump(c, 0.8)
    lhs = shifted.fourier(z)
    rhs = np.exp(1j * z * c) * base.fourier(z)
    assert abs(lhs - rhs) < 1e-12


def test_fourier_matches_adaptive_quadrature():
    b = TestFunction.bump(0.3, 0.9)
    for z in (2.0, 31.5):
        re, _ = integrate.quad(lambda x: (b(x) * np.exp(1j * z * x)).real,
                               *b.support(), epsabs=1e-13, limit=400)
        im, _ = integrate.quad(lambda x: (b(x) * np.exp(1j * z * x)).imag,
                               *b.support(), epsabs=1e-13, limit=400)
        assert abs(b.fourier(z) - complex(re, im)) < 1e-11


def test_fourier_entire_cauchy_riemann():
    b = TestFunction.bump(-0.4, 1.1)
    rng = np.random.default_rng(7)
    h = 1e-4
    for _ in range(5):
        z = complex(rng.uniform(-20, 20), rng.uniform(-3, 3))
        dx = (b.fourier(z + h) - b.fourier(z - h)) / (2 * h)
        dy = (b.fourier(z + 1j * h) - b.fourier(z - 1j * h)) / (2 * h)
        assert abs(dx + 1j * dy) < 1e-6  # d/dy = i d/dx for analytic f


def test_fourier_growth_guard():
    b = TestFunction.bump(0.0, 1.0)
    with pytest.raises(ValueError):
        b.fourier(60j)


def test_gauss_legendre_panels_integrate_polynomials_exactly():
    x, w = nu.panel_rule(-0.3, 1.9, 0.25)
    assert x.shape == w.shape == (9, 32)
    exact = (1.9 ** 64 - 0.3 ** 64) / 64.0      # 32 points are exact to degree 63
    assert abs(np.sum(w * x ** 63) - exact) <= 1e-13 * exact
    x1, w1 = nu.panel_rule(0.0, 1e-4, 1.0)      # never fewer than one panel
    assert x1.shape == (1, 32) and abs(np.sum(w1) - 1e-4) <= 1e-19


def test_gauss_legendre_rule_is_built_on_first_use():
    # not at import: import time is part of every command's set-up
    code = ("import weil_lab.cli, weil_lab.numerics as nu; "
            "assert not nu._GAUSS_LEGENDRE; nu.panel_rule(0.0, 1.0, 1.0); "
            "assert len(nu._GAUSS_LEGENDRE[0]) == 32")
    src = os.path.dirname(os.path.dirname(nu.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


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
    for a, b in ((-math.inf, 1.0), (-math.inf, math.inf), (0.0, math.nan),
                 (0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            nu.Grid(a, b, 5)
    # 10.5 made a grid with h = 1/9.5 whose nodes() raised a TypeError
    for n in (10.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="integer"):
            nu.Grid(0.0, 1.0, n)
    assert type(nu.Grid(0.0, 1.0, 11.0).n_points) is int
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
        samples = b.fourier(fg.nodes())
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
    per x by explicit exponentials, one x at a time, with the sum of |terms|."""
    w = np.ones(grid.n_points)
    w[0] = w[-1] = 0.5
    z = grid.nodes()
    rows = (vals * w * scale * np.exp(1j * sign * (xi * z)) for xi in x)
    total, mag = np.array([(t.sum(), np.abs(t).sum()) for t in rows]).T
    return total, mag.real


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n, m", [(2, 2), (2, 9), (9, 2), (40, 301),
                                  (301, 40), (1000, 1000),
                                  # one node past one and two assembly blocks
                                  (16385, 7), (32769, 20),
                                  # four input tiles, n - 1 even and odd
                                  (140001, 7), (140002, 7)])
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
    # both in halves on the Z = 5000 grid's one spectrum (within the cap)
    assert [(k[0], k[2], len(s)) for k, s in nu._PLANS.items()] == [
        (484317, 145774, 640000)]
    for src, dst, sign, scale in ((vals, inv, -1.0, fg.h / (2 * math.pi)),
                                  (inv.values, fwd, 1.0, tg.h)):
        grid = fg if sign < 0 else tg
        k = rng.choice(dst.grid.n_points, 6, replace=False)
        ref, mag = _direct_sum(src, grid, sign, scale, dst.grid.nodes()[k])
        assert np.max(np.abs(dst.values[k] - ref) / mag) <= 1e-10


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_chirp_z_kernel_cache_is_byte_equal(sign):
    # the cutoff ladder's three grid pairs (frequency grids at Z = 1000 and
    # 2000 against the [-6, 38] window) and a few small ones: a miss, a hit
    # and a call after emptying the cache give the same bytes, and the held
    # spectra are read-only
    window = nu.band_exact_grid(-6.0, 38.0, 4000.0, margin=80.0)
    h = 0.999 * nu.ALIAS_GUARD / 38.0
    pairs = [(nu.symmetric_grid(1000.0, h), window),
             (nu.symmetric_grid(2000.0, h), window),
             (window, nu.symmetric_grid(1000.0, h)),
             (nu.Grid(-30.0, 30.0, 2), nu.Grid(-2.0, 3.0, 9)),
             (nu.Grid(5.5, 80.25, 301), nu.Grid(-7.3, -1.1, 40)),
             (nu.Grid(-100.0, -20.0, 16385), nu.Grid(3.0, 11.0, 7))]
    assert [(a.n_points, b.n_points) for a, b in pairs[:3]] == [
        (96865, 29156), (193729, 29156), (29156, 96865)]
    rng = np.random.default_rng(3)
    for src, out in pairs:
        vals = rng.standard_normal(src.n_points) + 1j * rng.standard_normal(src.n_points)
        f = nu.GridFunction(src, vals, "frequency")
        miss = nu._chirp_z(f, sign, 0.3, out, "time").values.tobytes()
        held = [id(s) for s in nu._PLANS.values()]
        hit = nu._chirp_z(f, sign, 0.3, out, "time").values.tobytes()
        assert [id(s) for s in nu._PLANS.values()] == held    # nothing rebuilt
        nu._PLANS.clear()
        again = nu._chirp_z(f, sign, 0.3, out, "time").values.tobytes()
        assert miss == hit == again
    assert sum(len(s) for s in nu._PLANS.values()) <= nu._PLAN_ELEMS
    for spectrum in nu._PLANS.values():           # held read-only
        with pytest.raises(ValueError):
            spectrum[0] = 0.0


def test_chirp_z_kernels_are_keyed_by_spacing_and_sign():
    # equal n and m: only the input spacing or the sign tells these three
    # kernels apart, and each transform is the trapezoid sum
    out = nu.Grid(-2.0, 3.0, 301)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    cases = [(nu.Grid(-30.0, 30.0, 1000), 1.0),
             (nu.Grid(-40.0, 40.0, 1000), 1.0),
             (nu.Grid(-30.0, 30.0, 1000), -1.0)]

    def error(zgrid, sign):
        f = nu.GridFunction(zgrid, vals, "frequency")
        got = nu._chirp_z(f, sign, 0.3, out, "time").values
        ref, mag = _direct_sum(vals, zgrid, sign, 0.3, out.nodes())
        return np.max(np.abs(got - ref) / mag)

    for zgrid, sign in cases:
        assert error(zgrid, sign) <= 1e-12
    keys = list(nu._PLANS)
    assert len(keys) == 3
    # the first spectrum served under the other two keys fails the bound
    for (zgrid, sign), key in zip(cases[1:], keys[1:]):
        nu._PLANS[key] = nu._PLANS[keys[0]]
        assert error(zgrid, sign) > 1e-6


def test_chirp_z_held_spectra_stay_within_the_bound(monkeypatch):
    # a bound of three length-1000 spectra: a fourth drops the least
    # recently used one, and a longer spectrum is never kept
    monkeypatch.setattr(nu, "_PLAN_ELEMS", 3000)
    out = nu.Grid(-2.0, 3.0, 500)

    def run(x_max, n=501):
        f = nu.GridFunction(nu.Grid(-30.0, x_max, n), np.ones(n), "frequency")
        nu._chirp_z(f, 1.0, 1.0, out, "time")

    for x_max in (30.0, 31.0, 32.0):
        run(x_max)                        # 501 + 500 - 1 -> length 1000
    first, second, third = list(nu._PLANS)
    run(30.0)                             # a hit: now the most recent
    assert list(nu._PLANS) == [second, third, first]
    run(33.0)
    assert list(nu._PLANS)[:2] == [third, first] and len(nu._PLANS) == 3
    before = dict(nu._PLANS)
    run(30.0, n=2600)                     # length 3125 > 3000
    assert len(nu._PLANS) == 3
    assert all(nu._PLANS[k] is v for k, v in before.items())
    assert sum(len(s) for s in nu._PLANS.values()) <= 3000


def _tile_edges(m, m_s):
    """Output indices at and beside every tile boundary of an output side
    of m nodes summed in tiles of m_s."""
    edges = np.arange(0, m, m_s - 1)
    return np.unique(np.clip(np.concatenate([edges - 1, edges, edges + 1, [m - 1]]),
                             0, m - 1))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("m, tile", [(140001, 35001), (140002, 35002)])
def test_chirp_z_output_tiles_match_direct_sum(sign, m, tile):
    # seven inputs onto four output tiles (m - 1 even, then odd: the last
    # tile runs past the grid), checked beside every tile boundary; the
    # spectrum is held once, with the longer side as input
    zgrid, out = nu.Grid(-30.0, 30.0, 7), nu.Grid(-2.0, 3.0, m)
    rng = np.random.default_rng(m)
    vals = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    got = nu._chirp_z(nu.GridFunction(zgrid, vals, "frequency"), sign, 0.3,
                      out, "time").values
    k = np.union1d(_tile_edges(m, tile), rng.choice(m, 200, replace=False))
    ref, mag = _direct_sum(vals, zgrid, sign, 0.3, out.nodes()[k])
    assert np.max(np.abs(got[k] - ref) / mag) <= 1e-12
    assert [(key[0], key[2], key[4]) for key in nu._PLANS] == [(tile, 7, -sign)]


def test_chirp_z_tiles_on_a_tiny_output(monkeypatch):
    # the _BLOCK floor keeps tiles from shrinking with the output: at most
    # n / (2 _BLOCK) of them
    n, m = 500001, 3
    zgrid, out = nu.Grid(-30.0, 30.0, n), nu.Grid(-2.0, 3.0, m)
    vals = np.random.default_rng(8).standard_normal(n) + 0j
    calls = []
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: calls.append(1) or ifft(*a, **k))
    got = nu._chirp_z(nu.GridFunction(zgrid, vals, "frequency"), 1.0, 0.3,
                      out, "time").values
    assert 2 <= len(calls) <= n / (2 * nu._BLOCK)
    ref, mag = _direct_sum(vals, zgrid, 1.0, 0.3, out.nodes())
    assert np.max(np.abs(got - ref) / mag) <= 1e-12


def test_ladder_grid_pairs_share_one_spectrum():
    # the cutoff ladder: inverse transforms at Z = 1000 and 2000 onto the
    # [-6, 38] window and the forward transform back to Z. The 2Z grid is
    # two Z grids end to end and the forward spectrum is the conjugate of
    # the inverse one, so one 128,000-entry spectrum serves all three; its
    # canonical orientation makes the bytes independent of the call order
    window = nu.band_exact_grid(-6.0, 38.0, 4000.0, margin=80.0)
    h = 0.999 * nu.ALIAS_GUARD / 38.0
    fg1, fg2 = nu.symmetric_grid(1000.0, h), nu.symmetric_grid(2000.0, h)
    rng = np.random.default_rng(30)
    F1, F2 = (nu.GridFunction(g, rng.standard_normal(g.n_points)
                              + 1j * rng.standard_normal(g.n_points), "frequency")
              for g in (fg1, fg2))
    psi = nu.GridFunction(window, rng.standard_normal(window.n_points) + 0j, "time")
    calls = {"inverse Z": lambda: nu.inverse_fourier_grid(F1, window),
             "inverse 2Z": lambda: nu.inverse_fourier_grid(F2, window),
             "forward": lambda: nu.forward_fourier_grid(psi, fg1, band_limit=1000.0)}
    runs = []
    for order in (["inverse Z", "inverse 2Z", "forward"],
                  ["forward", "inverse 2Z", "inverse Z"],
                  ["inverse 2Z", "forward", "inverse Z"]):
        nu._PLANS.clear()
        runs.append({name: calls[name]().values.tobytes() for name in order})
        assert [len(s) for s in nu._PLANS.values()] == [128000]
    assert runs[0] == runs[1] == runs[2]
    # each is the trapezoid sum
    for F, out, sign, scale, name in (
            (F1, window, -1.0, fg1.h / (2 * math.pi), "inverse Z"),
            (F2, window, -1.0, fg2.h / (2 * math.pi), "inverse 2Z"),
            (psi, fg1, 1.0, window.h, "forward")):
        got = np.frombuffer(runs[0][name], dtype=complex)
        k = np.union1d([0, out.n_points - 1], rng.choice(out.n_points, 20))
        ref, mag = _direct_sum(F.values, F.grid, sign, scale, out.nodes()[k])
        assert np.max(np.abs(got[k] - ref) / mag) <= 1e-12


def _ladder_grids():
    """The cutoff ladder's window and its frequency grids at Z = 1000, 2000."""
    h = 0.999 * nu.ALIAS_GUARD / 38.0
    return (nu.band_exact_grid(-6.0, 38.0, 4000.0, margin=80.0),
            nu.symmetric_grid(1000.0, h), nu.symmetric_grid(2000.0, h))


_U = 2.0 ** -53                          # the unit roundoff


@pytest.mark.parametrize("tau", [(0.3, 0.0), (-0.3, 0.0), (1.0 / 3.0, 2e-17),
                                 (-2.0 ** -20, 0.0), (7.77e-9, -3e-25)])
def test_exact_phase_matches_rational_reduction(tau):
    # exp(-2 pi i tau q) against tau q reduced mod 1 in exact rationals, for
    # q up to 2^52, at the ladder's chirp tau (both signs) and others. The
    # bound is the helper's rounding count: half an ulp of one turn per
    # head (at most floor(log2(|tau| max q) / bits) + 1 of them), two more
    # for the rest, then the 2 pi product and the exponential; the
    # reference rounds its fraction, its 2 pi product and its exponential
    window, fg1, _ = _ladder_grids()
    rng = np.random.default_rng(52)
    for t in (tau, nu._per_turn(fg1.h, window.h, -0.5),
              nu._per_turn(fg1.h, window.h, 0.5)):
        exact_tau = Fraction(t[0]) + Fraction(t[1])
        for top in (20, 36, 52):
            q = np.concatenate([[0.0, 1.0, 2.0 ** top - 1.0],
                                np.floor(rng.uniform(0.0, 2.0 ** top, 40))])
            got = nu._phase(t, q)
            bits = max(1, 53 - int(q.max()).bit_length())
            reach = abs(t[0]) * q.max()
            heads = int(math.log2(reach) // bits) + 1 if reach >= 1.0 else 0
            bound = (2.0 * math.pi * (heads / 2.0 + 3.0) + 8.0) * _U
            for qi, g in zip(q, got):
                x = exact_tau * int(qi)
                frac = float(x - round(x))
                assert abs(g - cmath.exp(-2j * math.pi * frac)) <= bound


def _conjugate_chirp(tau, out):
    """The chirp exp(-2 pi i tau l^2) by one exponential per entry, the
    phase reduced mod 1 exactly (the route the phase tables replaced)."""
    length = len(out)
    q_max = float((length - 1) ** 2)
    bits = 53 - int(q_max).bit_length()
    heads, rest = [], tau
    while rest != 0.0 and abs(rest) * q_max >= 1.0:
        mant, e = math.frexp(rest)
        heads.append(math.ldexp(round(math.ldexp(mant, bits)), e - bits))
        rest -= heads[-1]
    for l0 in range(0, length, nu._BLOCK):
        q = np.arange(l0, min(length, l0 + nu._BLOCK), dtype=float) ** 2
        turns = np.zeros(len(q))
        for head in heads:
            turns += head * q - np.rint(head * q)
        turns += rest * q
        block = out[l0:l0 + len(q)]
        block.real = 0.0
        np.multiply(-2.0 * math.pi, turns - np.rint(turns), out=block.imag)
        np.exp(block, out=block)


@pytest.mark.parametrize("n", [1000, 96865, 484317])
def test_table_chirp_matches_one_exponential_per_entry(n):
    # the chirp as anchor[b] inner[b0, r] outer[b1, r] against one
    # exponential per entry, at the ladder's and the heavy_psi tau, both
    # signs. Bound: a rounding budget of 2 eps for each of the three table
    # factors and the oracle's one, and for each of the two products: 12 eps
    window, fg1, _ = _ladder_grids()
    heavy = nu.symmetric_grid(10000.0, 0.999 * nu.ALIAS_GUARD / 38.0)
    for h_in, h_out in ((fg1.h, window.h), (heavy.h, heavy.h)):
        for times in (0.5, -0.5):
            tau = nu._per_turn(h_in, h_out, times)
            ref = np.empty(n, dtype=complex)
            _conjugate_chirp(tau[0], ref)
            got = np.empty(n, dtype=complex)
            tables = nu._tables((tau[0], 0.0), n)
            for l0, l1 in nu._blocks(n):
                nu._fill(tables, l0, got[l0:l1])
            assert np.max(np.abs(got - ref)) <= 12 * np.finfo(float).eps


def test_ladder_transforms_evaluate_no_exponential_per_node(monkeypatch):
    # the ladder's four transforms (psi at Z and 2Z, then K psi's forward
    # and inverse) from an empty spectrum cache count the entries passed to
    # a complex exp. A transform whose longer tile side has N nodes makes
    # its chirp tables (N/B + 3 sqrt(N B) + B entries at most: A, then U
    # and V of at most (sqrt(N/B) + 1) B and 2 sqrt(N/B) B), and a second
    # set on a kernel miss; each side adds a row anchor per B nodes and a
    # B-entry ramp per linear phase. With B = 128 and N <= 2^17 that is at
    # most 32 per sqrt(n) + sqrt(m) of the four transforms; one exponential
    # per node and per chirp entry made 1,017,565 (495 per)
    window, fg1, fg2 = _ladder_grids()
    rng = np.random.default_rng(31)
    F1, F2 = (nu.GridFunction(g, rng.standard_normal(g.n_points) + 0j, "frequency")
              for g in (fg1, fg2))
    psi = nu.GridFunction(window, rng.standard_normal(window.n_points) + 0j, "time")
    count = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        if np.iscomplexobj(x):
            count.append(np.size(x))
        return exp(x, *args, **kwargs)

    nu._PLANS.clear()
    monkeypatch.setattr(np, "exp", counted)
    nu.inverse_fourier_grid(F1, window)
    nu.inverse_fourier_grid(F2, window)
    spec = nu.forward_fourier_grid(psi, fg1, band_limit=1000.0)
    nu.inverse_fourier_grid(nu.GridFunction(fg1, np.conj(spec.values), "frequency"),
                            window)
    monkeypatch.undo()
    sides = [(fg1, window), (fg2, window), (window, fg1), (fg1, window)]
    budget = 32 * sum(math.sqrt(a.n_points) + math.sqrt(b.n_points) for a, b in sides)
    assert 0 < sum(count) <= budget


_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)


def _two_prod(a, b):
    """Dekker's exact product: a b = p + e."""
    def split(x):
        t = 134217729.0 * x
        return t - (t - x), x - (t - (t - x))
    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _direct_sum_dd(vals, grid, sign, scale, out, k):
    """Oracle: the trapezoid sum at the nodes x_min + j h of grid and
    out.x_min + k out.h of out with each phase in double-double (Dekker
    products, 2 pi in two parts), reduced mod 2 pi before its exponential;
    with the sum of |terms|."""
    def nodes(g, idx):
        p, pe = _two_prod(np.asarray(idx, dtype=float), g.h)
        s, se = _two_sum(p, g.x_min)
        return _two_sum(s, se + pe)
    w = np.ones(grid.n_points)
    w[0] = w[-1] = 0.5
    zh, zl = nodes(grid, np.arange(grid.n_points))
    total, mag = [], []
    for xh, xl in zip(*nodes(out, k)):
        p, pe = _two_prod(zh, xh)
        p, pe = _two_sum(p, pe + (zh * xl + zl * xh))
        turns = np.rint(p / _TWO_PI[0])
        r, re = _two_prod(turns, _TWO_PI[0])
        s, se = _two_sum(p, -r)
        t = vals * w * scale * np.exp(1j * sign * (s + (se + pe - re - turns * _TWO_PI[1])))
        total.append(t.sum())
        mag.append(np.abs(t).sum())
    return np.array(total), np.array(mag)


@pytest.mark.parametrize("which", ["inverse Z", "inverse 2Z", "forward"])
def test_ladder_transforms_match_double_double_phases(which):
    # the ladder's shapes against the direct sum with double-double phases,
    # for random terms and for terms that add up in phase at one output
    # (the rounding of a phase coefficient, amplified by the node index,
    # shows there in full; plainly rounded per-node offsets read ~2e-12)
    window, fg1, fg2 = _ladder_grids()
    src, dst, sign = {"inverse Z": (fg1, window, -1.0),
                      "inverse 2Z": (fg2, window, -1.0),
                      "forward": (window, fg1, 1.0)}[which]
    scale = src.h / (2 * math.pi) if sign < 0 else src.h
    rng = np.random.default_rng(src.n_points)
    k = np.union1d([0, 1, dst.n_points - 2, dst.n_points - 1],
                   rng.choice(dst.n_points, 8, replace=False))
    x_peak = dst.x_min + k[4] * dst.h
    for vals in (rng.standard_normal(src.n_points) + 1j * rng.standard_normal(src.n_points),
                 np.exp(-1j * sign * x_peak * src.nodes())):
        got = nu._chirp_z(nu.GridFunction(src, vals, "frequency"), sign, scale,
                          dst, "time").values[k]
        ref, mag = _direct_sum_dd(vals, src, sign, scale, dst, k)
        assert np.max(np.abs(got - ref) / mag) <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 1000, 1001, 29157])
def test_fourier_grid_at_matches_direct_sum(n):
    grid = nu.Grid(-6.0, 38.0, n) if n > 1001 else nu.Grid(-1.5, 2.25, n)
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi = nu.GridFunction(grid, vals, "time")
    z = np.concatenate([rng.uniform(-200.0, 200.0, 40), [0.0, 200.0, -200.0],
                        rng.uniform(-200.0, 200.0, 20) + 1j * rng.uniform(-2.0, 2.0, 20)])
    got = nu.fourier_grid_at(psi, z)
    ref, mag = _direct_sum(vals, grid, 1.0, grid.h, z)
    assert got.shape == z.shape
    assert np.max(np.abs(got - ref) / mag) <= 1e-12
    one = nu.fourier_grid_at(psi, z[-1])
    assert isinstance(one, complex) and abs(one - ref[-1]) <= 1e-12 * mag[-1]
    assert nu.fourier_grid_at(psi, np.array([])).shape == (0,)


def test_fourier_grid_at_memory_is_linear_in_the_grid():
    # the weil_pairing shape: 58 catalog points and 18 sup probes on the
    # heavy_psi window; the exp-matrix route peaked at 288 MB here
    grid = nu.band_exact_grid(-6.0, 38.0, 20000.0, margin=400.0)
    assert grid.n_points == 145774
    x = grid.nodes()
    psi = nu.GridFunction(grid, np.exp(-(x - 3.0) ** 2) * np.cos(14.1 * x), "time")
    z = np.concatenate([np.linspace(-100.0, 100.0, 58), np.linspace(100.0, 200.0, 18)])
    tracemalloc.start()
    try:
        nu.fourier_grid_at(psi, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 16 * grid.n_points


def test_fast_len_is_the_smallest_5_smooth_length():
    smooth = np.zeros(20001, dtype=bool)
    for p2 in 2 ** np.arange(15):
        for p3 in 3 ** np.arange(10):
            for p5 in 5 ** np.arange(7):
                if p2 * p3 * p5 <= 20000:
                    smooth[p2 * p3 * p5] = True
    nxt = 32768                  # 2^15, the smallest 5-smooth length > 20000
    for n in range(20000, 0, -1):
        nxt = n if smooth[n] else nxt
        assert nu._fast_len(n) == nxt


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
        vals = b.fourier(fg.nodes())
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
    cli._write_csv(p1, g.nodes(), f.values)
    cli._write_csv(p2, g.nodes(), f.values)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 4
    assert "0.33333333333333331" in lines[1]  # >= 15 significant digits
