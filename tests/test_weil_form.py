import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from weil_lab import identities as ids
from weil_lab import numerics as nu
from weil_lab import weil_form as wf
from weil_lab import zero_catalog as zc

from conftest import ZERO_TABLE


def direct_pairing(psi1, psi2, zs):
    """Independent oracle: the zero sum assembled by hand from transforms."""
    total = 0.0j
    for g, m in zc.iterate_symmetric(zs):
        f1 = psi1.fourier(g)
        f2 = psi2.fourier(np.conj(g))
        total += m * f1 * np.conj(f2)
    return total


def direct_screw_g(t, zs):
    total = 0.0j
    for g, m in zc.iterate_symmetric(zs):
        total += m * (cmath.exp(1j * g * t) - 1.0) / g ** 2
    return total


def gl_panels(a, b, width, order):
    """Oracle rule: order-point Gauss-Legendre on panel_rule's panels."""
    t, w = np.polynomial.legendre.leggauss(order)
    mid, half = nu._panels(a, b, width)
    return mid[:, None] + half[:, None] * t, half[:, None] * w


def per_z_fourier_integral(f, support, z, zmax=0.0):
    """Oracle: the scalar panel route, one z at a time with whole phases
    e^{izx}, on the node set for max(|z|, zmax) (zmax = 0: each z's own
    node set, as before arrays). Returns (value, sum of |terms|)."""
    a, b = support
    z = complex(z)
    width = min(nu._PANEL_PHASE / (1.0 + max(abs(z), zmax)), (b - a) / 16.0)
    x, w = (p.ravel() for p in nu.panel_rule(a, b, width))
    terms = w * np.asarray(f(x), dtype=complex) * np.exp(1j * z * x)
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def per_z_transform(psi, z, zmax=0.0):
    """Oracle for TestFunction.fourier, one per-z call per part:
    (value, sum of |terms|)."""
    if psi.kind == "antiderivative_of_bump":
        base = psi.parts[0]
        if abs(z) > 1e-8:
            v, s = per_z_transform(base, z, zmax)
            return v / (-1j * z), s / abs(z)
        v, s = per_z_fourier_integral(lambda y: y * base._eval(y),
                                      base.support(), 0.0)
        return -v, s
    if psi.kind == "finite_combination":
        vs = [per_z_transform(p, z, zmax) for p in psi.parts]
        return (sum(c * v for c, (v, _) in zip(psi.coefficients, vs)),
                sum(abs(c) * s for c, (_, s) in zip(psi.coefficients, vs)))
    return per_z_fourier_integral(psi, psi.support(), z, zmax)


def g_matrix_screw_form(phi1, phi2, zs):
    """Oracle: the screw form as the double sum of the t x s matrix of
    G(t,s) = g(t-s) - g(t) - g(-s) on 64-point Gauss-Legendre panels of
    width min(72/(1 + max|gamma|), (b-a)/16) over each support, nodes that
    transform_at's 32-point rule does not use. Over the symmetric catalog
    g(x) = -4 sum_{gamma > 0} m sin^2(gamma x/2)/gamma^2, real, summed one
    gamma at a time. When both supports agree, t - s is one of 2P - 1
    panel offsets plus a difference of two nodes of the first panel, so
    g(t - s) is summed at (2P - 1) 64^2 points, not (64 P)^2.

    Returns (value, roundoff bound). With u the unit roundoff, |t|, |s|,
    |t - s| <= L and S = sum_{gamma > 0} m/gamma^2, each term
    4 m sin^2(gamma x/2)/gamma^2 is off by <= (4 |gamma| L + 5) u 4 m/gamma^2
    (x = t - s, to within 3 u L, and the phase rounded, then sin, the
    square and the weight); with the two subtractions and the sum over N
    gammas a G entry is off by <= 12 (4 max|gamma| L + 7 + N) u S, and the
    sums over the n_s x n_t nodes add <= (n_s + n_t) u of their sum of
    |terms| (worst case). So |error| <= 12 (N + n_s + n_t + 4 max|gamma| L
    + 8) u S ||f1||_1 ||f2||_1 for the weighted samples f1, f2."""
    gam, m = zs.gammas, zs.mults
    m, gam = m[gam > 0], gam[gam > 0]

    def g(x):
        out = np.zeros(np.shape(x))
        for gm, c in zip(gam, 4.0 * m / gam ** 2):
            out -= c * np.sin(0.5 * gm * x) ** 2
        return out

    cap = 72.0 / (1.0 + np.max(gam))
    (a1, b1), (a2, b2) = phi1.support(), phi2.support()
    xs, s_w = gl_panels(a1, b1, min(cap, (b1 - a1) / 16), 64)
    xt, t_w = gl_panels(a2, b2, min(cap, (b2 - a2) / 16), 64)
    s, t = xs.ravel(), xt.ravel()
    if (a1, b1) == (a2, b2):
        P = len(xs)
        off = xs[0] - xs[0, 0]
        d = ((xs[1, 0] - xs[0, 0]) * np.arange(1 - P, P)[:, None, None]
             + np.subtract.outer(off, off))
        p_q = np.subtract.outer(np.arange(P), np.arange(P)) + P - 1
        g_diff = g(d)[p_q].transpose(0, 2, 1, 3).reshape(len(t), len(s))
    else:
        g_diff = g(np.subtract.outer(t, s))
    G = g_diff - g(t)[:, None] - g(-s)[None, :]
    f1 = phi1._eval(s) * s_w.ravel()
    f2 = np.conj(phi2._eval(t)) * t_w.ravel()
    L = max(abs(a1), abs(b1)) + max(abs(a2), abs(b2))
    n_terms = len(gam) + len(s) + len(t) + 4.0 * np.max(gam) * L + 8
    bound = (12.0 * n_terms * np.finfo(float).eps / 2 * np.sum(m / gam ** 2)
             * np.sum(np.abs(f1)) * np.sum(np.abs(f2)))
    return complex(f2 @ G @ f1), float(bound)


# ----------------------------------------------------------------------
# TestFunction algebra
# ----------------------------------------------------------------------

def test_bump_support_and_smoothness():
    b = wf.TestFunction.bump(0.5, 0.75)
    assert b.support() == (-0.25, 1.25)
    assert b(-0.25) == 0.0 and b(1.25) == 0.0
    assert abs(b(0.5)) == pytest.approx(math.exp(-1.0))


@pytest.mark.parametrize("center, half_width", [
    (math.nan, 1.0), (0.0, math.inf), (math.inf, 1.0), (0.0, math.nan),
    (0.0, 0.0), (0.0, -1.0)])
def test_bump_rejects_bad_center_or_half_width(center, half_width):
    # a NaN center had an empty support, so its transform read 0; an
    # infinite half-width overflowed the panel count. The dataclass
    # constructor checks too: a negative width made a bump whose values
    # were nonzero while its transform read 0
    for kind in ("bump", "bump_derivative"):
        with pytest.raises(ValueError):
            wf.TestFunction(kind, center, half_width)
    with pytest.raises(ValueError):
        wf.TestFunction.bump(center, half_width)


_BUMP_D = wf.TestFunction.bump(0.0, 1.0).derivative()


@pytest.mark.parametrize("fields", [
    ("gaussian",), ("finite_combination", 0.0, 1.0, (), ()),
    ("finite_combination", 0.0, 1.0, (1.0,), ()),
    ("finite_combination", 0.0, 1.0, (1.0, 2.0), (_BUMP_D,)),
    ("antiderivative_of_bump", 0.0, 1.0, (), (_BUMP_D, _BUMP_D)),
    ("antiderivative_of_bump", 0.0, 1.0, (), (wf.TestFunction.bump(0.0, 1.0),))])
def test_constructor_checks_every_kind(fields):
    # the dataclass constructor, not only the factories (bumps: above)
    with pytest.raises(ValueError):
        wf.TestFunction(*fields)


def test_constructor_coerces_fields():
    b = wf.TestFunction("bump", 1, 2)
    assert (type(b.center), type(b.half_width)) == (float, float)
    c = wf.TestFunction("finite_combination", coefficients=[2], parts=[b])
    assert c.coefficients == (2 + 0j,) and type(c.coefficients[0]) is complex
    assert c.parts == (b,)
    assert wf.TestFunction.combination([2], [b]) == c


def test_bump_derivative_matches_finite_difference():
    b = wf.TestFunction.bump(0.0, 1.0)
    d = b.derivative()
    h = 1e-6
    for x in (-0.7, -0.2, 0.4, 0.9):
        fd = (b(x + h) - b(x - h)) / (2 * h)
        assert abs(d(x) - fd) < 1e-7


def test_antiderivative_inverts_derivative():
    b = wf.TestFunction.bump(0.3, 0.8)
    psi = wf.antiderivative(b.derivative())
    assert psi.kind == "bump"
    assert psi.center == b.center and psi.half_width == b.half_width


def test_antiderivative_of_unbalanced_bump_flagged():
    # its running integral would not be compactly supported
    b = wf.TestFunction.bump(0.0, 1.0)
    with pytest.raises(ValueError, match="nonzero mean"):
        wf.antiderivative(b)


def test_antiderivative_evaluates_running_integral():
    phi = wf.random_mean_zero(np.random.default_rng(5))
    psi = wf.antiderivative(phi)
    assert psi.support() == phi.support()
    a, b = phi.support()
    x = np.array([a - 0.5, a, 0.7, -0.3, 0.5 * (a + b), b, b + 1.0])
    for xv, gv in zip(x, psi(x)):
        hi = min(max(xv, a), b)
        ref, _ = integrate.quad(lambda y: phi(y).real, a, hi,
                                epsabs=1e-12, limit=200)
        ref_im, _ = integrate.quad(lambda y: phi(y).imag, a, hi,
                                   epsabs=1e-12, limit=200)
        assert abs(gv - complex(ref, ref_im)) < 1e-9


def test_antiderivative_transform_identity():
    phi = wf.TestFunction.bump(0.2, 0.9).derivative()
    psi = wf.antiderivative(phi)
    lam = 3.0
    assert abs(psi.fourier(lam) - phi.fourier(lam) / (-1j * lam)) <= 1e-10


def _transform_inputs():
    rng = np.random.default_rng(61)
    return [wf.TestFunction.bump(0.3, 0.8),
            wf.TestFunction.bump(-1.2, 0.45).derivative(),
            wf.random_combination(rng, 3),
            wf.antiderivative(wf.random_mean_zero(rng, 3)),
            wf.antiderivative(wf.random_combination(rng, 2).derivative())]


def test_array_transform_matches_per_z_oracle(catalog):
    # one array call against one per-z call per node: z = 0, |z| <= 1e-8
    # (the antiderivative's moment branch), complex z, the catalog nodes
    # and the sup samples up to 2T, alone and all in one node set
    special = np.array([0.0, 1e-9, -1e-8, 3e-8, 0.5, 3.0 + 2.0j,
                        -7.0 - 1.5j, 12.0 + 40.0j, -30.0 + 49.0j])
    gam = np.array([g for g, _ in zc.iterate_symmetric(catalog)], dtype=complex)
    sup = wf._sup_samples(catalog.height_T).astype(complex)
    inputs = _transform_inputs()
    assert [psi.kind for psi in inputs] == [
        "bump", "bump_derivative", "finite_combination",
        "antiderivative_of_bump", "finite_combination"]
    for psi in inputs:
        for zs in (special, gam, sup, np.concatenate([special, gam, sup])):
            got = psi.fourier(zs)
            assert got.shape == zs.shape
            zmax = float(np.max(np.abs(zs)))
            for z, v in zip(zs, got):
                # the factored phases and blocked sums, on the call's nodes
                ref, size = per_z_transform(psi, z, zmax)
                assert abs(v - ref) <= 1e-14 * size, (psi.kind, z)
                # each z's own node set
                ref, size = per_z_transform(psi, z)
                assert abs(v - ref) <= 1e-14 * size, (psi.kind, z)
    for z in (0.0, 5e-9, 2.5, 1.0 - 3.0j):
        for psi in inputs:
            got = psi.fourier(z)
            assert isinstance(got, complex)
            ref, size = per_z_transform(psi, z)
            assert abs(got - ref) <= 1e-14 * size


def test_bump_derivative_transform_on_finer_panels_against_mpmath():
    # a narrow bump derivative at small |z|, alone (a scalar call on its own
    # node set, under the (b-a)/16 panel cap) and in a call whose largest
    # |z| is 200 (finer panels), against a 30-digit reference; a (b-a)/8 cap
    # left the scalar call off by ~1e-12 of sum|terms|
    c, hw = -1.2, 0.45
    d = wf.TestFunction.bump(c, hw).derivative()

    def p_prime(x):
        u = (x - c) / hw
        one = 1 - u * u
        return mp.exp(-1 / one) * (-2 * u / one ** 2) / hw if one > 0 else 0

    zs = np.array([0.5, 3.0 + 2.0j, 200.0])
    got = d.fourier(zs)
    with mp.workdps(30):
        for z, v in zip(zs[:2], got):
            exact = complex(mp.quad(lambda x: p_prime(x) * mp.exp(1j * z * x),
                                    mp.linspace(c - hw, c + hw, 17)))
            size = per_z_transform(d, z)[1]
            assert abs(v - exact) <= 1e-15 * size
            assert abs(d.fourier(complex(z)) - exact) <= 1e-15 * size


def test_bump_transforms_to_the_tail_probes_reach_against_mpmath():
    # bumps and bump derivatives of the draws' half-widths, up to the tail
    # probes' reach z = 2 MAX_HEIGHT, in one call over all z and in one
    # call per z: within 4e-15 of sum|terms| of a 40-digit reference. That
    # is hw e^{izc} B(z hw) for the bump and -iz times it for its derivative
    # (by parts), B(w) = 2 integral_0^1 exp(-1/(1-u^2)) cos(wu) du by
    # mpmath.quad on pieces of at most 32 radians
    c = -1.2
    zs = np.array([14.13, 50.0, 99.0, 120.0, 200.0, 2.0 * zc.MAX_HEIGHT])
    for hw in (0.3, 0.45, 0.9, 1.5):
        bump = wf.TestFunction.bump(c, hw)
        with mp.workdps(40):
            ref = []
            for z in zs:
                w = mp.mpf(z) * hw
                B = 2 * mp.quad(lambda u: mp.exp(-1 / (1 - u * u)) * mp.cos(w * u)
                                if u < 1 else 0, mp.linspace(0, 1, int(w / 32) + 5))
                ref.append(hw * mp.expj(mp.mpf(z) * c) * B)
            exact = {bump: [complex(r) for r in ref],
                     bump.derivative(): [complex(-1j * z * r) for z, r in zip(zs, ref)]}
        for psi, values in exact.items():
            for z, v, e in zip(zs, psi.fourier(zs), values):
                size = per_z_transform(psi, z)[1]
                assert abs(v - e) <= 4e-15 * size, (psi.kind, hw, z)
                assert abs(psi.fourier(z) - e) <= 4e-15 * size, (psi.kind, hw, z)


def test_transform_guard_applies_to_every_element():
    b = wf.TestFunction.bump(0.0, 1.0)
    with pytest.raises(ValueError):
        b.fourier(np.array([1.0, 2.0 + 60.0j, 3.0]))
    with pytest.raises(ValueError):
        nu.fourier_integral(b, b.support(), np.array([[0.0], [-51.0j]]))


def test_combination_transform_linearity():
    rng = np.random.default_rng(6)
    combo = wf.random_combination(rng, 3)
    z = 4.2
    by_parts = sum(c * p.fourier(z)
                   for c, p in zip(combo.coefficients, combo.parts))
    assert abs(combo.fourier(z) - by_parts) < 1e-14


# ----------------------------------------------------------------------
# weil_pairing
# ----------------------------------------------------------------------

def test_pairing_zero_function(catalog):
    zero = wf.TestFunction.combination([0.0], [wf.TestFunction.bump()])
    fv = wf.weil_pairing(zero, zero, catalog)
    assert fv.value == 0.0


def test_pairing_matches_direct_sum_oracle(catalog):
    b = wf.TestFunction.bump(0.3, 0.8)
    fv = wf.weil_pairing(b, b, catalog)
    ref = direct_pairing(b, b, catalog)
    assert abs(fv.value - ref) < 1e-13
    assert fv.value.real > 0.0
    assert abs(fv.value.imag) <= fv.quad_error


def test_pairing_hermitian_and_sesquilinear(catalog):
    rng = np.random.default_rng(8)
    a = wf.random_combination(rng)
    b = wf.random_combination(rng)
    ab = wf.weil_pairing(a, b, catalog).value
    ba = wf.weil_pairing(b, a, catalog).value
    assert abs(ab - np.conj(ba)) <= 1e-13 * max(1.0, abs(ab))
    c = 1.3 - 0.7j
    ca = wf.TestFunction.combination([c], [a])
    assert abs(wf.weil_pairing(ca, b, catalog).value - c * ab) \
        <= 1e-12 * max(1.0, abs(ab))


def test_pairing_positivity_random(catalog):
    assert ids.positivity_margin(np.random.default_rng(9), 10, catalog,
                                 wf.random_combination) <= 0.0


def test_pairing_declared_tail_bounds_the_omitted_zeros():
    # the zeros in (50, 110] are part of what the T = 50 tail model declares
    # it may miss: the pairing over them must stay within that bound
    short = zc.compute_zeros(50.0)
    longer = zc.load_zeros(ZERO_TABLE, 110.0)
    rng = np.random.default_rng(2024)
    inputs = ([wf.random_bump(rng) for _ in range(20)]
              + [wf.random_combination(rng, 3) for _ in range(20)])
    for psi in inputs:
        fv = wf.weil_pairing(psi, psi, short)
        omitted = wf.weil_pairing(psi, psi, longer).value - fv.value
        assert fv.tail_bound > 0.0
        assert abs(omitted) <= fv.tail_bound


def test_pairing_with_itself_makes_two_transform_calls_per_part(catalog, monkeypatch):
    psi = wf.random_combination(np.random.default_rng(12), 3)
    twin = wf.TestFunction.combination(psi.coefficients, psi.parts)
    assert twin == psi and twin is not psi
    unshared = wf.weil_pairing(psi, twin, catalog)
    calls = []
    real_fourier_integral = nu.fourier_integral
    monkeypatch.setattr(nu, "fourier_integral",
                        lambda *a: calls.append(a) or real_fourier_integral(*a))
    fv = wf.weil_pairing(psi, psi, catalog)
    # the catalog nodes and the sup samples, in one call per part
    assert len(calls) == len(psi.parts)
    # reusing conj(psihat(gamma)) on a real catalog changes no bit
    assert fv == unshared


def test_pairing_of_basis_grid(small_psi, catalog):
    fv = wf.weil_pairing(small_psi["psi1"], small_psi["psi1"], catalog)
    assert abs(fv.value - 1.0 / math.pi) <= 1e-4
    cross = wf.weil_pairing(small_psi["psi1"], small_psi["psi2"], catalog)
    assert abs(cross.value) <= 1e-4


# ----------------------------------------------------------------------
# screw function and kernel
# ----------------------------------------------------------------------

def test_screw_g_at_zero(catalog):
    assert wf.screw_g(0.0, catalog) == 0.0


def test_screw_g_conjugate_symmetry(catalog):
    # g(-t) = conj g(t) and g is real: a float64 g, even bit for bit
    t = np.random.default_rng(31).uniform(-40.0, 40.0, 20000)
    g = wf.screw_g_array(t, catalog)
    assert g.dtype == np.float64
    assert wf.screw_g_array(-t, catalog).tobytes() == g.tobytes()


def test_screw_g_near_zero_against_mpmath(catalog):
    # -4 sum_{gamma > 0} m sin^2(gamma t/2)/gamma^2 at 40 digits: no
    # cancellation of e^{i gamma t} - 1 costs relative accuracy at small t
    gam, m = catalog.gammas, catalog.mults
    pos = gam > 0
    with mp.workdps(40):
        for t in (1e-8, 1e-7, 1e-5, 1e-3, 0.3, 5.0):
            ref = -4 * mp.fsum(int(mk) * mp.sin(mp.mpf(gk) * mp.mpf(t) / 2) ** 2
                               / mp.mpf(gk) ** 2 for gk, mk in zip(gam[pos], m[pos]))
            assert abs(wf.screw_g(t, catalog) - ref) <= 1e-14 * abs(ref), t


def test_screw_g_matches_direct_sum(catalog, table_catalog):
    got = wf.screw_g(1.0, catalog)
    ref = direct_screw_g(1.0, table_catalog)
    assert abs(got - ref) < 1e-7
    assert got.real < 0.0
    assert abs(got.imag) < 1e-15


def test_screw_kernel_identities(catalog):
    assert wf.screw_kernel(0.0, 0.0, catalog) == 0.0
    G_ts = wf.screw_kernel(1.1, 0.4, catalog)
    G_st = wf.screw_kernel(0.4, 1.1, catalog)
    assert G_ts == G_st
    # G(t,s) = G(s,t) bit for bit, on 8-node Gram matrices drawn as gram_psd's
    zs, rng = zc.compute_zeros(50.0), np.random.default_rng(10)
    for _ in range(50):
        nodes = rng.uniform(-3, 3, size=8)
        M = wf.screw_kernel(nodes[:, None], nodes[None, :], zs)
        assert M.tobytes() == M.T.tobytes()
    t = 0.8
    diag = wf.screw_kernel(t, t, catalog)
    # G(t,t) = 2 sum over the symmetric catalog of m (1 - cos gamma t)/gamma^2
    ref = sum(2 * m * (1 - math.cos(g * t)) / g ** 2
              for g, m in zc.iterate_symmetric(catalog))
    assert diag.real == pytest.approx(ref, abs=1e-13)
    assert diag.real >= 0.0


def test_screw_kernel_broadcasts(catalog):
    t = np.array([-2.1, 0.0, 0.4, 1.1, 2.9])
    s = np.array([1.3, -0.7, 0.0])
    M = wf.screw_kernel(t[:, None], s[None, :], catalog)
    assert M.shape == (5, 3)
    ref = np.array([[wf.screw_kernel(ti, sj, catalog) for sj in s] for ti in t])
    assert np.max(np.abs(M - ref)) <= 1e-15
    t2 = np.array([[-2.1, 0.4, 1.1], [2.9, 0.0, -0.7]])
    g = wf.screw_g_array(t2, catalog)
    assert g.shape == t2.shape
    assert g.tobytes() == wf.screw_g_array(t2.ravel(), catalog).tobytes()


def test_gram_matrices_positive_semidefinite(catalog):
    assert ids.gram_psd_margin(np.random.default_rng(10), 10, catalog) <= 0.0


def test_screw_form_zero_input(catalog):
    zero = wf.TestFunction.combination(
        [0.0], [wf.TestFunction.bump(0.0, 1.0).derivative()])
    fv = wf.screw_form(zero, zero, catalog)
    assert abs(fv.value) <= 1e-15


def test_screw_form_requires_mean_zero(catalog):
    b = wf.TestFunction.bump(0.0, 1.0)
    with pytest.raises(ValueError):
        wf.screw_form(b, b, catalog)
    # a mean of 5e-10 of the L1 norm: it has no compactly supported
    # antiderivative, so the Weil side of screw_equals_weil could not be
    # formed either
    T = wf.TestFunction
    phi = T.combination([1.0, -(1.0 - 1e-9)], [T.bump(-1.0, 0.5), T.bump(1.0, 0.5)])
    with pytest.raises(ValueError, match="nonzero mean"):
        wf.antiderivative(phi)
    with pytest.raises(ValueError, match="mean-zero"):
        wf.screw_form(phi, phi, catalog)


def test_screw_form_matches_weil_pairing_of_antiderivative(catalog):
    phi = wf.TestFunction.bump(0.1, 0.9).derivative()
    psi = wf.antiderivative(phi)
    sv = wf.screw_form(phi, phi, catalog)
    pv = wf.weil_pairing(psi, psi, catalog)
    assert abs(sv.value - pv.value) <= 1e-5
    assert abs(sv.value - pv.value) <= sv.quad_error + sv.tail_bound \
        + pv.tail_bound + pv.quad_error + 1e-10


def test_screw_form_quad_error_is_the_transform_model(catalog):
    # 1e-12 of the L1 scale per transform value, doubled in each difference
    # phihat(gamma) - phihat(0) and carried through the weights m/gamma^2
    gam, m = catalog.gammas, catalog.mults
    rng = np.random.default_rng(20)
    for _ in range(3):
        phi = wf.random_mean_zero(rng)
        sv = wf.screw_form(phi, phi, catalog)
        d = np.abs(wf.transform_at(phi, gam) - wf.transform_at(phi, 0.0))
        e = 2e-12 * wf._transform_scale(phi)
        assert sv.quad_error == pytest.approx(
            np.sum(m / gam ** 2 * (2.0 * d * e + e * e)), rel=1e-6)
        assert sv.value.real >= -1e-10


@pytest.mark.parametrize("T", [50.0, 110.0])
def test_separable_screw_form_matches_g_matrix_oracle(T):
    # the G matrix on its own nodes; at T = 50 also mean-zero draws whose
    # support is at most 2 wide, which an uncapped 72/(1 + max|gamma|)
    # panel width covers with one or two panels
    zs = zc.compute_zeros(T) if T == 50.0 else zc.load_zeros(ZERO_TABLE, T)
    rng = np.random.default_rng(2026)
    phis = [wf.random_mean_zero(rng) for _ in range(3)]
    phis.append(wf.TestFunction.bump(0.4, 0.7).derivative())
    pairs = [(p, p) for p in phis] + [(phis[3], phis[2])]
    if T == 50.0:
        draws = (wf.random_mean_zero(rng) for _ in range(400))
        narrow = [p for p in draws if p.support()[1] - p.support()[0] <= 2.0][:3]
        assert len(narrow) == 3
        pairs += [(p, p) for p in narrow] + [(narrow[0], narrow[1])]
    for phi1, phi2 in pairs:
        ref, bound = g_matrix_screw_form(phi1, phi2, zs)
        assert abs(wf.screw_form(phi1, phi2, zs).value - ref) <= bound


def test_screw_form_declared_tail_bounds_the_omitted_zeros():
    # the screw form over the zeros in (50, 110] is part of what the T = 50
    # tail model declares it may miss; each form's quadrature gap is added
    short = zc.compute_zeros(50.0)
    longer = zc.load_zeros(ZERO_TABLE, 110.0)
    rng = np.random.default_rng(2025)
    for _ in range(12):
        phi = wf.random_mean_zero(rng)
        fv = wf.screw_form(phi, phi, short)
        fl = wf.screw_form(phi, phi, longer)
        assert fv.tail_bound > 0.0
        assert abs(fl.value - fv.value) <= (fv.tail_bound + fv.quad_error
                                            + fl.quad_error)


def test_screw_g_declared_tail_bounds_the_omitted_zeros():
    # g over the zeros in (50, 110] is part of what the T = 50 tail model
    # declares it may miss
    short = zc.compute_zeros(50.0)
    longer = zc.load_zeros(ZERO_TABLE, 110.0)
    t = np.array([1e-4, 0.01, 0.05, 1.0, 6.0, 100.0])
    omitted = wf.screw_g_array(t, longer) - wf.screw_g_array(t, short)
    bound = np.array([wf.screw_tail_bound(ti, short) for ti in t])
    assert np.all(np.abs(omitted) <= bound), t[np.abs(omitted) > bound]


def test_screw_tail_bound_model(catalog):
    assert wf.screw_tail_bound(0.0, catalog) == 0.0
    assert wf.screw_tail_bound(1.0, catalog) == pytest.approx(
        2.0 * math.log(100.0) / 100.0)


# ----------------------------------------------------------------------
# tau norm and spectral coefficients
# ----------------------------------------------------------------------

def test_tau_norm_basis_vector(catalog):
    n = len(zc.iterate_symmetric(catalog))
    entries = np.zeros(n, dtype=complex)
    entries[n // 2] = 1.0     # the +gamma_1 slot
    assert wf.tau_norm(entries, catalog) == 1.0


def test_tau_norm_theoretical_basis_coefficients(catalog):
    entries = np.zeros(2 * len(catalog), dtype=complex)
    entries[len(catalog)] = -1j / math.sqrt(math.pi)    # the +gamma_1 slot
    val = wf.tau_norm(entries, catalog)
    assert val == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_tau_norm_scaling(catalog):
    rng = np.random.default_rng(21)
    n = len(zc.iterate_symmetric(catalog))
    entries = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    base = wf.tau_norm(entries, catalog)
    scaled = wf.tau_norm(2.5j * entries, catalog)
    assert scaled == pytest.approx(6.25 * base, rel=1e-14)


def test_tau_norm_alignment_guard(catalog):
    for bad in (np.ones(1), np.ones((2 * len(catalog), 1))):
        with pytest.raises(ValueError):
            wf.tau_norm(bad, catalog)


def test_form_value_rejects_negative_bounds():
    wf.FormValue(1.5 - 0.25j, 1e-3, 1e-6)
    with pytest.raises(ValueError):
        wf.FormValue(0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        wf.FormValue(0.0, 0.0, -1e-6)
