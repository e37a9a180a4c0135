import logging
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from weil_lab import numerics as nu
from weil_lab import special_fn as sf
from weil_lab import zero_catalog as zc
from weil_lab.identities import XI_HALF_REF

from conftest import count_xi_points, mp_log_derivative

mp.mp.dps = 30

# frozen reference from an independent high-precision evaluation
GAMMA1 = 14.134725141734693790  # first ordinate, from a high-precision root find


def _mp_xi(s):
    s = mp.mpc(s)
    return mp.mpf(1) / 2 * s * (s - 1) * mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)


# ----------------------------------------------------------------------
# log_gamma / digamma
# ----------------------------------------------------------------------

def test_log_gamma_classics():
    assert abs(sf.log_gamma(1.0)) < 1e-14
    assert abs(sf.log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14
    assert abs(sf.log_gamma(5.0) - math.log(24.0)) < 1e-13


def test_log_gamma_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        z = complex(rng.uniform(-8, 10), rng.uniform(-60, 60))
        if abs(z.imag) < 0.1 and z.real <= 0.5:
            continue
        ref = complex(mp.loggamma(z))
        assert abs(sf.log_gamma(z) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_log_gamma_pole():
    with pytest.raises(ValueError):
        sf.log_gamma(0.0)
    with pytest.raises(ValueError):
        sf.log_gamma(-3.0)


def test_digamma_against_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        z = complex(rng.uniform(-8, 10), rng.uniform(-60, 60))
        if abs(z.imag) < 0.1 and z.real <= 0.5:
            continue
        ref = complex(mp.digamma(z))
        assert abs(sf.digamma(z) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_digamma_at_the_lift_boundary():
    # the series of digamma and log_gamma run unlifted wherever |z| >= 12:
    # on the sweep's argument 1.25 - ix/2 for |x| >= 23.9, at Re z = 0.01
    # and 5 up to |Im z| = 1e4, and (after reflection) at Re z < 0; at
    # 0 <= Re z < 1/2 they take the lift alone
    r = np.array([11.0, 11.99, 12.0, 12.01, 13.0, 100.0, 5000.0])
    x = 2.0 * np.sqrt(r * r - 1.25 ** 2)
    im = np.array([1.0, 11.9, 11.99, 12.0, 12.1, 100.0, 1e4])
    z = np.concatenate([1.25 - 0.5j * x, 1.25 + 0.5j * x,
                        0.01 + 1j * im, 0.01 - 1j * im, 5.0 + 1j * im,
                        [-0.5 + 11.9j, -0.01 - 11.99j, -3.3 + 12.5j,
                         -7.2 - 1e3j, -11.5 + 4.0j],
                        [0.3j, 0.0 - 11.99j, 0.2 + 12.5j, 0.25 + 0.01j,
                         0.49 - 5.0j, 0.4999 + 100.0j]])
    for fn, oracle in ((sf.digamma, mp.digamma), (sf.log_gamma, mp.loggamma)):
        for zk, g in zip(z, fn(z)):
            ref = complex(oracle(zk))
            assert abs(g - ref) <= 1e-12 * max(1.0, abs(ref)), (fn, zk)


def test_log_gamma_on_the_package_argument_families():
    # log Gamma at the arguments xi, E, Theta and zeta's reflection take it:
    # s/2 (Re s in [-8, 9]), s/2 + 1 (Re s >= 1/2) and 1.25 - it/2, 400
    # points each, to |Im s| = |t| = 2 MAX_HEIGHT. To MAX_HEIGHT the bounds
    # hold a Lanczos rule too (max 5.9e-14, mean <= 1.1e-14); past it either
    # rule errs by ~2 ulps of log Gamma (|log Gamma| ~ 490 at t = 240)
    rng = np.random.default_rng(28)
    t = rng.uniform(-2.0 * zc.MAX_HEIGHT, 2.0 * zc.MAX_HEIGHT, (3, 400))
    families = [(rng.uniform(-8.0, 9.0, 400) + 1j * t[0]) / 2.0,
                (rng.uniform(0.5, 9.0, 400) + 1j * t[1]) / 2.0 + 1.0,
                1.25 - 0.5j * t[2]]
    for z, tk in zip(families, t):
        ref = np.array([complex(mp.loggamma(v)) for v in z])
        d = np.abs(sf.log_gamma(z) - ref)
        low = np.abs(tk) <= zc.MAX_HEIGHT
        assert d[low].max() <= 1e-13 and d[low].mean() <= 2e-14
        assert np.all(d <= 1e-14 + 4e-16 * np.abs(ref))


def test_xi_and_chi_pairs_take_one_gamma_pass(monkeypatch):
    calls = []
    core = sf._gamma_core
    monkeypatch.setattr(sf, "_gamma_core", lambda z, *a: calls.append(z.size) or core(z, *a))
    s = np.array([0.5 + 14.1j, 2.0 - 30.0j, 0.7 + 0.0j])
    sf._xi_pair(s, np.ones(3), np.ones(3))
    assert calls == [3]
    sf._chi_pair(-s)
    assert calls == [3, 3]
    # digamma, and so the axis sweep, never sums log Gamma's series
    x = np.linspace(1.0, 50.0, 7)
    psi, L = sf.digamma(s), sf.critical_line_log_derivative(x)
    monkeypatch.setattr(sf, "_LOG_GAMMA_C", np.full(8, np.nan))
    assert np.all(np.isnan(sf.log_gamma(s)))
    assert np.array_equal(sf.digamma(s), psi)
    assert np.array_equal(sf.critical_line_log_derivative(x), L)


# ----------------------------------------------------------------------
# zeta
# ----------------------------------------------------------------------

def test_zeta_classics():
    assert abs(sf.zeta_pair(2.0)[0] - math.pi ** 2 / 6) < 1e-14
    assert abs(sf.zeta_pair(0.0)[0] + 0.5) < 1e-14
    assert abs(sf.zeta_pair(-1.0)[0] + 1.0 / 12.0) < 1e-14


def test_zeta_pole():
    with pytest.raises(ValueError):
        sf.zeta_pair(1.0)
    with pytest.raises(ValueError):
        sf.zeta_pair(np.array([2.0, 1.0]))


def test_zeta_vanishes_at_first_ordinate():
    assert abs(sf.zeta_pair(complex(0.5, 14.134725142))[0]) <= 1e-8


def test_zeta_and_derivative_against_oracle():
    rng = np.random.default_rng(13)
    pts = [complex(rng.uniform(-9, 10), rng.uniform(-120, 120))
           for _ in range(25)] + [0.25 + 30j, -2.0, -4.0]
    # the array route against the one-point loop: one Euler-Maclaurin N per
    # chunk, so equal to roundoff rather than bitwise
    zb, zpb = sf.zeta_pair(np.array(pts))
    for s, z_arr, zp_arr in zip(pts, zb, zpb):
        z, zp = sf.zeta_pair(s)
        ref = complex(mp.zeta(mp.mpc(s)))
        refp = complex(mp.zeta(mp.mpc(s), derivative=1))
        # relative to the local scale; at near-zero dips the absolute error
        # stays at the 1e-14 level
        scale = max(abs(ref), 1e-2)
        assert abs(z - ref) <= 1e-12 * scale
        assert abs(zp - refp) <= 1e-12 * max(abs(refp), 1e-2)
        assert abs(z_arr - z) <= 1e-12 * scale
        assert abs(zp_arr - zp) <= 1e-12 * max(abs(refp), 1e-2)


# ----------------------------------------------------------------------
# xi
# ----------------------------------------------------------------------

def test_xi_at_half():
    v = sf.xi(0.5)
    assert abs(v.xi - XI_HALF_REF) <= 1e-12 * XI_HALF_REF
    assert abs(v.xi_prime) <= 1e-12


def test_xi_functional_symmetry_spots():
    a, b = sf.xi(2.0), sf.xi(-1.0)
    assert abs(a.xi - b.xi) <= 1e-13 * abs(a.xi)


def test_xi_symmetry_random():
    rng = np.random.default_rng(14)
    for _ in range(100):
        s = complex(rng.uniform(-9, 10), rng.uniform(-115, 115))
        a, b = sf.xi(s), sf.xi(1.0 - s)
        assert abs(a.xi - b.xi) <= 1e-10 * max(abs(a.xi), 1e-300)
        assert abs(a.xi_prime + b.xi_prime) <= 1e-9 * max(abs(a.xi_prime), 1e-300)


def test_xi_vanishes_on_first_zero():
    v = sf.xi(complex(0.5, GAMMA1))
    assert abs(v.xi) <= 1e-8


def test_xi_prime_near_zero_fd_branch():
    # at the first zero xi' comes from the same product formula as anywhere
    # else (nothing divides by xi); compare against a high-precision derivative
    s = mp.mpc(mp.mpf(1) / 2, GAMMA1)
    ref = complex(mp.diff(_mp_xi, s))
    got = sf.xi(complex(0.5, GAMMA1)).xi_prime
    assert abs(got - ref) <= 5e-14 * abs(ref)


@pytest.mark.parametrize("ds", [1e-6j, 4e-4j, -9e-4j, 3e-4,
                                complex(-5e-4, 6e-4)])
def test_xi_prime_within_1e3_of_a_zero(ds):
    # xi' = P (w (psi(s/2+1) - log pi)/2 + w') keeps its relative accuracy
    # where w -> 0: against a 40-digit derivative of the defining product
    s = complex(0.5, GAMMA1) + ds
    with mp.workdps(40):
        ref = complex(mp.diff(_mp_xi, mp.mpc(s)))
    got = sf.xi(s).xi_prime
    assert abs(got - ref) <= 5e-14 * abs(ref)


def test_xi_against_oracle_random():
    rng = np.random.default_rng(15)
    for _ in range(10):
        s = complex(rng.uniform(-5, 6), rng.uniform(-80, 80))
        ref = complex(_mp_xi(s))
        refp = complex(mp.diff(_mp_xi, mp.mpc(s)))
        v = sf.xi(s)
        assert abs(v.xi - ref) <= 1e-11 * abs(ref)
        assert abs(v.xi_prime - refp) <= 1e-9 * max(abs(refp), abs(ref))


def test_a_function_identity():
    # (E(z) + E#(z))/2 = xi(1/2 - iz)
    rng = np.random.default_rng(16)
    for _ in range(10):
        z = complex(rng.uniform(-60, 60), rng.uniform(-3, 3))
        E = sf.E_xi(z)
        E_sharp = np.conj(sf.E_xi(np.conj(z)))
        A = 0.5 * (E + E_sharp)
        ref = sf.xi(0.5 - 1j * z).xi
        assert abs(A - ref) <= 1e-10 * max(abs(ref), 1e-300)


# ----------------------------------------------------------------------
# E and Theta
# ----------------------------------------------------------------------

def test_E_at_zero_real_and_theta_one():
    E0 = sf.E_xi(0.0)
    assert abs(E0.imag) <= 1e-13 * abs(E0)
    assert abs(sf.theta_xi(0.0) - 1.0) <= 1e-12


def test_theta_unimodular_on_axis():
    rng = np.random.default_rng(17)
    x = rng.uniform(-115, 115, size=100)
    for xv in x:
        assert abs(abs(sf.theta_xi(float(xv))) - 1.0) <= 1e-12
    vals = sf.theta_on_axis(x)
    assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-12


def test_theta_sharp_involution_on_axis():
    rng = np.random.default_rng(18)
    for _ in range(10):
        x = float(rng.uniform(-100, 100))
        th = sf.theta_xi(x)
        th_sharp = np.conj(sf.theta_xi(x))   # conj(Theta(conj z)) at real z
        assert abs(th * th_sharp - 1.0) <= 1e-12


def test_theta_contracts_upper_half_plane():
    assert abs(sf.theta_xi(2j)) < 1.0
    assert abs(sf.theta_xi(complex(10.0, 1.5))) < 1.0


def test_theta_axis_route_matches_value_route():
    x = np.array([3.7, 14.2, 55.2, 101.3])
    direct = np.array([sf.theta_xi(float(v)) for v in x])
    assert np.max(np.abs(sf.theta_on_axis(x) - direct)) <= 1e-11


def test_theta_axis_survives_deep_heights():
    th = sf.theta_on_axis(np.array([500.0, 2000.0, 9000.0]))
    assert np.all(np.isfinite(th))
    assert np.max(np.abs(np.abs(th) - 1.0)) <= 1e-12


def test_theta_value_route_underflow_guard():
    # |E| underflows around |z| ~ 900; the value route must refuse rather
    # than return 0/0
    with pytest.raises(ZeroDivisionError):
        sf.theta_xi(1500.0)


# ----------------------------------------------------------------------
# array routes against the per-point route
# ----------------------------------------------------------------------

def _w_pair(s):
    """(w, w') = ((s-1) zeta(s), its s-derivative) at up to one chunk of s,
    in the evaluator's height order."""
    _, _, w, wp, _ = next(sf._em_chunks(s))
    return w, wp


def _per_point_xi(s):
    """Oracle: the scalar xi route, one point per Euler-Maclaurin sum, with
    Re(s) < 1/2 reflected. Returns (xi, xi', tolerance) for a route that
    sums in another order: 1e-13 of the local scale max(|xi|, |xi'|), which
    near a zero is what the cancelling sums carry, on xi and on xi' alike
    (xi' comes from the same sums by one formula at every s)."""
    s = complex(s)
    if s.real < 0.5:
        v, vp, tol = _per_point_xi(1.0 - s)
        return v, -vp, tol
    one = np.array([s])
    v, vp = (complex(a[0]) for a in sf._xi_pair(one, *_w_pair(one)))
    return v, vp, 1e-13 * max(abs(v), abs(vp))


def _per_point_E(z):
    """(E(z), tolerance) from the per-point xi oracle."""
    v, vp, tol = _per_point_xi(0.5 - 1j * complex(z))
    return v + vp, 2.0 * tol


def _per_point_omega(x):
    """Oracle: the scalar omega series; returns (omega(x), sum of |terms|)."""
    a = math.exp(2.0 * x)
    n = np.arange(1, int(math.ceil(math.sqrt(40.0 / (math.pi * a)))) + 11, dtype=float)
    terms = (4.0 * math.pi ** 2 * n ** 4 * math.exp(4.5 * x)
             - 6.0 * math.pi * n ** 2 * math.exp(2.5 * x)) * np.exp(-math.pi * n * n * a)
    if not np.any(np.abs(terms) >= 1e-16):
        return float(terms[0]), float(abs(terms[0]))
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


# s = 1/2, 1, 2; points within 1e-3 of 1/2 + i gamma_1 and of its mirror
# 1/2 - i gamma_1; Re(s) < 1/2; seeded points
_XI_POINTS = np.concatenate([
    [0.5, 1.0, 2.0, complex(0.5, GAMMA1 + 4e-4), complex(0.5, -GAMMA1 + 2e-4),
     complex(-3.0, 7.0), complex(0.2, -40.0), complex(0.4999, 101.0)],
    np.random.default_rng(41).uniform(-6.0, 7.0, 16)
    + 1j * np.random.default_rng(42).uniform(-110.0, 110.0, 16)])

# real z, |Im z| <= 2 on both sides of the axis (Im z < 0 reflects), and
# z at or within 1e-3 of gamma_1
_Z_POINTS = np.concatenate([
    [0.0, 3.0, -40.0, -3.2, 7.7, 90.0, GAMMA1, GAMMA1 + 3e-4, -GAMMA1,
     complex(GAMMA1, 5e-4), 1j, -2j, complex(10.0, 1.5), complex(-55.0, -1.9)],
    np.random.default_rng(43).uniform(-100.0, 100.0, 12)
    + 1j * np.random.default_rng(44).uniform(-2.0, 2.0, 12)])


def test_xi_array_matches_per_point_oracle():
    near = _XI_POINTS[3:5]
    w, wp = _w_pair(near)
    assert np.all(np.abs(w) < 1e-3 * np.abs(wp))          # w nearly 0
    worst = 0.0
    for s in (_XI_POINTS, _XI_POINTS.reshape(4, 6)):
        v = sf.xi(s)
        assert v.xi.shape == v.xi_prime.shape == s.shape
        for sk, a, ap in zip(s.ravel(), v.xi.ravel(), v.xi_prime.ravel()):
            ref, ref_p, tol = _per_point_xi(sk)
            assert abs(a - ref) <= tol, sk
            assert abs(ap - ref_p) <= tol, sk
            if abs(ref) >= 1e-3 * abs(ref_p):   # away from the zeros
                worst = max(worst, abs(a - ref) / abs(ref))
    assert worst <= 1e-13


def test_real_lattice_left_of_the_strip_matches_per_point_route():
    # s in [-180, -2] reflects to u = 1 - s in [181, 3], a real uniform
    # grid: undeclared, it is summed point by point and matches the scalar
    # route
    s = np.linspace(-180.0, -2.0, 1000)
    z, zp = sf.zeta_pair(s)
    v = sf.xi(s)
    assert np.all(np.isfinite(z)) and np.all(np.isfinite(v.xi_prime))
    for k in range(0, s.size, 4):
        sk, got = s[k], (z[k], zp[k], v.xi[k], v.xi_prime[k])
        x = sf.xi(sk)
        for a, ref in zip(got, sf.zeta_pair(sk) + (x.xi, x.xi_prime)):
            assert abs(a - ref) <= 1e-13 * abs(ref), sk


def test_E_and_theta_arrays_match_per_point_oracle():
    E = sf.E_xi(_Z_POINTS)
    th = sf.theta_xi(_Z_POINTS)
    assert E.shape == th.shape == _Z_POINTS.shape
    for z, e, t in zip(_Z_POINTS, E, th):
        ref, tol = _per_point_E(z)
        assert abs(e - ref) <= tol, z
        ref_sharp, tol_sharp = _per_point_E(np.conj(z))
        ref_t = np.conj(ref_sharp) / ref
        assert abs(t - ref_t) <= abs(ref_t) * (tol / abs(ref) + tol_sharp / abs(ref_sharp)), z
    with pytest.raises(ZeroDivisionError):
        sf.theta_xi(np.array([3.0, 1500.0]))


def test_theta_xi_evaluates_each_point_once(monkeypatch):
    # theta_xi takes E and E^# from one xi call at its own points
    sizes = count_xi_points(monkeypatch)
    sf.theta_xi(_Z_POINTS)
    assert sizes == [_Z_POINTS.size]


def test_xi_is_bitwise_conjugate_symmetric():
    # xi(conj s) has the bytes of conj xi(s): at random s on both sides of
    # Re s = 1/2 and on the catalog's scan grid
    rng = np.random.default_rng(47)
    s = np.concatenate([rng.uniform(-8.0, 9.0, 300) + 1j * rng.uniform(-110.0, 110.0, 300),
                        0.5 + 1j * np.append(np.arange(2.0, 100.0, 0.25), 100.0)])
    a, b = sf.xi(s), sf.xi(np.conj(s))
    assert b.xi.tobytes() == np.conj(a.xi).tobytes()
    assert b.xi_prime.tobytes() == np.conj(a.xi_prime).tobytes()


def test_E_sharp_is_xi_minus_xi_prime():
    # E^#(z) = conj E(conj z) = xi(s) - xi'(s) at s = 1/2 - iz, byte for byte
    # at non-real z off the imaginary axis (at real z, Re s = 1/2 is not
    # reflected and they agree only to roundoff; on the imaginary axis s is
    # real and they differ in the sign of a zero imaginary part)
    z = _Z_POINTS[(_Z_POINTS.imag != 0.0) & (_Z_POINTS.real != 0.0)]
    v = sf.xi(0.5 - 1j * z)
    assert (v.xi - v.xi_prime).tobytes() == np.conj(sf.E_xi(np.conj(z))).tobytes()
    assert sf.theta_xi(z).tobytes() == ((v.xi - v.xi_prime) / sf.E_xi(z)).tobytes()


def test_omega_array_matches_per_point_oracle():
    x = np.concatenate([[-5.0, -3.7, -1.3, 0.0, 0.3, -0.3, 2.0, 5.0],
                        np.random.default_rng(45).uniform(-5.0, 5.0, 40)])
    got = sf.omega_profile(x.reshape(6, 8))
    assert got.shape == (6, 8)
    for xv, v in zip(x, got.ravel()):
        ref, size = _per_point_omega(xv)
        assert abs(v - ref) <= 1e-13 * size, xv
    with pytest.raises(ValueError):
        sf.omega_profile(np.array([0.0, -5.5]))


def test_omega_value_does_not_depend_on_the_batch():
    # a row is as wide as its own term count rounded up to a power of two,
    # so numpy's pairwise sum adds a value's terms in one order alone and
    # inside a call whose widest row (x = -5) takes 540 terms
    x = np.random.default_rng(46).uniform(-5.0, 5.0, 400)
    batch = sf.omega_profile(np.concatenate([[-5.0], x, [5.0]]))[1:-1]
    alone = np.array([sf.omega_profile(v) for v in x])
    assert batch.tobytes() == alone.tobytes()


def test_omega_array_working_set_is_bounded():
    # 20,001 points take up to 540 series terms each: the term table is
    # built in row blocks, not as one 20001 x 540 array (86 MB)
    x = np.linspace(-5.0, 5.0, 20001)
    tracemalloc.start()
    try:
        sf.omega_profile(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2 ** 20


def test_scalar_inputs_return_scalars():
    v = sf.xi(0.5)
    assert all(type(f) is complex for f in (v.xi, v.xi_prime))
    assert (v.xi, v.xi_prime) == _per_point_xi(0.5)[:2]
    assert type(sf.E_xi(3.0)) is complex and sf.E_xi(3.0) == _per_point_E(3.0)[0]
    assert type(sf.theta_xi(1j)) is complex
    assert type(sf.omega_profile(0.3)) is float


# ----------------------------------------------------------------------
# omega profile
# ----------------------------------------------------------------------

def test_omega_even():
    assert abs(sf.omega_profile(0.3) - sf.omega_profile(-0.3)) <= 1e-12


def test_omega_integral_matches_xi_half():
    val = nu.fourier_integral(
        lambda u: np.array([sf.omega_profile(t) for t in np.atleast_1d(u)]),
        (-5.0, 5.0), 0.0)
    assert abs(val - XI_HALF_REF) <= 1e-10


@pytest.mark.parametrize("z", [0.0, 1.0, 2.0])
def test_omega_transform_consistency(z):
    got = nu.fourier_integral(
        lambda u: np.array([sf.omega_profile(t) for t in np.atleast_1d(u)]),
        (-5.0, 5.0), z)
    ref = sf.xi(0.5 - 1j * z).xi
    assert abs(got - ref) <= 1e-6


def test_omega_superexponential_decay():
    assert abs(sf.omega_profile(5.0)) <= 1e-16


def test_omega_range_guard():
    with pytest.raises(ValueError):
        sf.omega_profile(5.5)


# ----------------------------------------------------------------------
# critical-line helpers
# ----------------------------------------------------------------------

def test_critical_line_log_derivative_against_oracle():
    for x in (3.3, 21.5, 77.0):
        L = complex(sf.critical_line_log_derivative(np.array([x]))[0])
        s = mp.mpc(mp.mpf(1) / 2, -x)
        ref = complex(-1j * mp.diff(_mp_xi, s) / _mp_xi(s))
        assert abs(L - ref) <= 1e-10 * max(1.0, abs(ref))
        assert abs(L.imag) <= 1e-9 * max(1.0, abs(L))


# 2 pi in long double, from 40 digits
_TWO_PI_LD = np.longdouble(6.283185307179586) + np.longdouble(
    float(Fraction("6.283185307179586476925286766559005768394") - Fraction(6.283185307179586)))


def _exp_matrix_sums(s, N):
    """Oracle for the Dirichlet sums of the Euler-Maclaurin evaluator: one
    term n^{-s} = n^{-Re s} e^{-i Im s ln n} per (point, n), summed directly,
    in blocks of at most 1024 points x 256 n. The phase Im s ln n is formed
    and reduced mod 2 pi in long double (a 64-bit significand on x86-64), so
    each term is good to ~1e-16 of itself where fl(s ln n) leaves an error
    ~1e-16 |Im s| ln n."""
    n = np.arange(1, N, dtype=float)
    ln_ld = np.log(n.astype(np.longdouble))
    ln_n = ln_ld.astype(float)
    S = np.zeros(s.size, dtype=complex)
    Sp = np.zeros(s.size, dtype=complex)
    for r0 in range(0, s.size, 1024):
        rows = slice(r0, r0 + 1024)
        t = s[rows].imag.astype(np.longdouble)
        for i0 in range(0, ln_n.size, 256):
            cols = slice(i0, i0 + 256)
            ph = np.multiply.outer(t, ln_ld[cols])
            ph -= np.rint(ph / _TWO_PI_LD) * _TWO_PI_LD
            E = np.exp(np.multiply.outer(-s[rows].real, ln_n[cols]) - 1j * ph.astype(float))
            S[rows] += E.sum(axis=1)
            Sp[rows] -= E @ ln_n[cols]
    return S, Sp


def test_exp_matrix_oracle_against_mpmath():
    # the oracle's own error, at heights where plain rounding of s ln n
    # would leave ~1e-13 of the sum of |terms|
    s = 0.5 - 1j * np.array([1e4, 1e4 + 0.02, 3819.0])
    N = sf._em_length(s)
    S, Sp = _exp_matrix_sums(s, N)
    n = np.arange(1, N, dtype=float)
    ln_n = [mp.log(j) for j in range(1, N)]
    for k, sk in enumerate(s):
        sk = mp.mpc(mp.mpf(1) / 2, sk.imag)
        p = [mp.exp(-sk * ln) for ln in ln_n]
        ref, ref_p = complex(mp.fsum(p)), complex(-mp.fsum(a * b for a, b in zip(ln_n, p)))
        assert abs(S[k] - ref) <= 1e-15 * np.sum(n ** -0.5), k
        assert abs(Sp[k] - ref_p) <= 1e-15 * np.sum(np.log(n) * n ** -0.5), k


def _sum_cases():
    """(name, (s, step)): step = -i h for s declared as the whole blocks of
    k h that critical_line_log_derivative(x, step=h) sums, None for points
    summed point by point."""
    rng = np.random.default_rng(21)

    def blocks(j0, j1, h):
        k = np.arange(j0 * sf._CHUNK, j1 * sf._CHUNK)
        return 0.5 - 1j * (k * h), complex(0.0, -h)
    yield "2 nodes at 1e4", (0.5 - 1j * np.linspace(1e4, 1e4 + 0.02, 2), None)
    yield "95 nodes, negative x", (0.5 - 1j * np.linspace(-1e4, -9998.6, 95), None)
    yield "block 8 at h = 0.05, to 3686", blocks(8, 9, 0.05)
    yield "8192-node half-grid from ~0", blocks(0, 1, 25 / 1024)
    # an undeclared uniform grid: two chunks, of 8192 points and of one
    yield "8193 nodes", (0.5 - 1j * np.linspace(2000.5, 2246.26, 8193), None)
    yield "seeded points", (0.5 - 1j * rng.uniform(1000.0, 2000.0, 3000), None)
    # every block slices the shared ln n to its own N: 221, 426, 631, 836
    yield "4 blocks at h = 0.05 from 0", blocks(0, 4, 0.05)
    yield "block -1 at h = 0.05, negative x", blocks(-1, 0, 0.05)
    yield "12 nodes at 1e4", (0.5 - 1j * np.linspace(1e4, 1e4 + 0.22, 12), None)


def _route_sums(s, Ns, step):
    """(S, S') for each chunk of _CHUNK points of s, to its own N of Ns, by
    the route _em_chunks takes: _lattice_sums on a declared step, else
    _point_sums, both on slices of one ln n table."""
    hi, lo = sf._ln_parts(np.arange(1.0, max(Ns)))
    inv_T = sf._deconvolution(sf._CHUNK, nu._fast_len(2 * sf._CHUNK))
    for i0, N in zip(range(0, s.size, sf._CHUNK), Ns):
        sc, ln_n = s[i0:i0 + sf._CHUNK], (hi[:N - 1], lo[:N - 1])
        if step is None:
            yield sf._point_sums(sc, *ln_n)
        else:
            yield sf._lattice_sums(sc, step, *ln_n, inv_T)


@pytest.mark.parametrize("name,s", list(_sum_cases()))
def test_dirichlet_sums_match_exp_matrix_oracle(name, s):
    # summed as the evaluator sums: declared blocks as they are, other
    # points in height order, in chunks of their own N
    s, step = s
    if step is None:
        s = s[np.argsort(np.abs(s.imag), kind="stable")]
    starts = range(0, s.size, sf._CHUNK)
    Ns = [sf._em_length(s[i0:i0 + sf._CHUNK]) for i0 in starts]
    if name.startswith("4 blocks"):
        assert Ns == [221, 426, 631, 836]
    sums = list(_route_sums(s, Ns, step))
    assert len(sums) == len(Ns)
    for i0, N, (S, Sp) in zip(starts, Ns, sums):
        sc = s[i0:i0 + sf._CHUNK]
        S_ref, Sp_ref = _exp_matrix_sums(sc, N)
        terms = np.arange(1, N, dtype=float) ** -0.5      # |n^{-s}|
        ln_n = np.log(np.arange(1, N, dtype=float))
        # bounds fixed before measuring, from each route's error model: point
        # by point each compensated term is within ~1e-15 of itself and the
        # gemv's accumulation adds at most ~3e-15 of the sum of |terms| at
        # these N; on the lattice route 1e-14 of the sum of |terms|
        if step is None:
            bound, bound_p = 4e-15 * np.sum(terms), 4e-15 * np.sum(ln_n * terms)
        else:
            bound, bound_p = 1e-14 * np.sum(terms), 1e-14 * np.sum(ln_n * terms)
        assert np.all(np.abs(S - S_ref) <= bound)
        assert np.all(np.abs(Sp - Sp_ref) <= bound_p)


def test_nufft_chunk_at_1e4_against_mpmath():
    # a full chunk below t = 1e4 (N = 5,017) on a lattice declared with the
    # exact step 1/64 (so eps = 0 and S' is taken at each node), at both
    # ends of the block and its middle; bound fixed before measuring: the
    # route's error model, 1e-14 of the sum of |terms|
    K = sf._CHUNK
    s = 0.5 - 1j * (1e4 - (K - 1 - np.arange(K)) / 64.0)
    N = sf._em_length(s)
    assert N == 5017
    S, Sp = next(_route_sums(s, [N], complex(0.0, -1 / 64)))
    n = np.arange(1, N, dtype=float)
    terms = n ** -0.5
    ln_n = [mp.log(j) for j in range(1, N)]
    for k in (0, 1, K // 2, K - 1):
        sk = mp.mpc(mp.mpf(1) / 2, s[k].imag)
        p = [mp.exp(-sk * ln) for ln in ln_n]
        ref, ref_p = complex(mp.fsum(p)), complex(-mp.fsum(a * b for a, b in zip(ln_n, p)))
        assert abs(S[k] - ref) <= 1e-14 * np.sum(terms), k
        assert abs(Sp[k] - ref_p) <= 1e-14 * np.sum(np.log(n) * terms), k


def _per_term_w_pair(s, N, S, Sp):
    """Oracle for the factored Euler-Maclaurin tail: the Bernoulli terms
    T_k = B_{2k}/(2k)! P_k N^{1-s-2k} and their s-derivatives summed one by
    one, each with its own power of N. Returns (w, w', scale of w, scale of
    w'), a scale being the sum of |terms| with S and S' counted by the sums
    of their own |terms|, sum n^{-Re s} and sum ln n n^{-Re s}."""
    n = np.arange(1, N, dtype=float)
    sigma, inv = np.unique(s.real, return_inverse=True)
    tab = n ** -sigma[:, None]
    a, a_ln = tab.sum(axis=1)[inv], (tab @ np.log(n))[inv]
    lnN = math.log(N)
    NmS = np.exp(-s * lnN)
    sm1 = s - 1.0
    w_terms = [sm1 * S, N * NmS, 0.5 * sm1 * NmS]
    wp_terms = [S, sm1 * Sp, -lnN * N * NmS, 0.5 * NmS, -0.5 * lnN * sm1 * NmS]
    P = s.copy()
    D = np.ones_like(s)
    Npow = NmS / N
    for k in range(1, sf._EM_TERMS + 1):
        c = sf._B2K_OVER_FACT[k - 1]
        T = c * P * Npow
        w_terms.append(sm1 * T)
        wp_terms += [T, sm1 * c * Npow * D, -sm1 * c * Npow * P * lnN]
        a_k = s + (2 * k - 1)
        b_k = s + (2 * k)
        D = D * a_k * b_k + P * (a_k + b_k)
        P = P * a_k * b_k
        Npow = Npow / (N * N)
    w_scale = np.abs(sm1) * a + sum(np.abs(t) for t in w_terms[1:])
    wp_scale = a + np.abs(sm1) * a_ln + sum(np.abs(t) for t in wp_terms[2:])
    return sum(w_terms), sum(wp_terms), w_scale, wp_scale


def test_factored_tail_matches_per_term_oracle():
    # bound fixed before measuring: both routes round ~30 times along the
    # longest product P_15 N^{-29}, ~3.3e-15 of each term; the two routes
    # together stay below 1e-14 of the sum scale
    # (blocks 0 and 14 of k / 64, declared with their exact step, and
    # scattered points summed point by point)
    k = np.arange(sf._CHUNK)
    cases = [(0.5 - 1j * (k / 64), complex(0.0, -1 / 64)),
             (0.5 - 1j * ((k + 14 * sf._CHUNK) / 64), complex(0.0, -1 / 64)),
             (np.array([0.5, 1.0, 2.0, 3.0, 1e-3 + 5j, 0.2 - 40j, 2.5 + 90j,
                        0.5 + 1j * GAMMA1, 0.5 - 1e4j]), None)]
    for s, step in cases:
        N = sf._em_length(s)
        S, Sp = next(_route_sums(s, [N], step))
        w, wp = sf._w_pair(s, N, S, Sp)
        w_ref, wp_ref, w_scale, wp_scale = _per_term_w_pair(s, N, S, Sp)
        assert np.max(np.abs(w - w_ref) / w_scale) <= 1e-14
        assert np.max(np.abs(wp - wp_ref) / wp_scale) <= 1e-14


def test_factored_sweep_near_a_zero_against_oracle():
    # the first block of a declared lattice k h: node k sits within 1e-6 of
    # gamma_1, where |L| ~ 1e6 magnifies any error of the factored sums (the
    # per-node lattice correction is checked with the sums alone). Four
    # spacings near 0.019, 0.02, 0.021 and 0.022, so that the bound does not
    # hold by the choice of grid
    for h0 in (0.019, 0.02, 0.021, 0.022):
        k = round(GAMMA1 / h0)
        h = (GAMMA1 - 3e-7) / k
        x = np.arange(sf._CHUNK) * h
        assert abs(x[k] - GAMMA1) <= 1e-6
        L = sf.critical_line_log_derivative(x, step=h)
        ref = complex(mp_log_derivative(x[k]))
        assert abs(ref) > 1e6
        # the oracle test's 1e-10 relative bound plus the roundoff of w
        # itself: an absolute error ~1e-14 |w'| in w becomes ~1e-14 |L|^2
        # in L = w'/w + ...
        assert abs(L[k] - ref) <= 1e-10 * abs(ref) + 1e-14 * abs(ref) ** 2, h0


def test_point_by_point_working_set_is_bounded():
    # 8,192 scattered points at heights up to 2000 take N ~ 1016 terms: the
    # exponential table is built in column blocks, not as one 8192 x N array
    x = np.random.default_rng(5).uniform(1000.0, 2000.0, 8192)
    tracemalloc.start()
    try:
        sf.critical_line_log_derivative(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2 ** 20


def test_undeclared_uniform_grid_is_summed_point_by_point(caplog):
    # the lattice route is taken only where the caller declares the step
    x = np.arange(741) * 0.05
    with caplog.at_level(logging.DEBUG, logger="weil_lab"):
        sf.critical_line_log_derivative(x)
    msgs = [r.getMessage() for r in caplog.records if r.name == "weil_lab"]
    assert len(msgs) == 1
    assert msgs[0].startswith("critical-line sweep: 741 points, largest "
                              "Euler-Maclaurin N 35, 0 NUFFT chunks, "
                              "1 point by point, largest fine grid 0, ")


def test_xi_on_critical_line_real():
    t = np.array([0.0, 5.0, 14.0, 60.0])
    vals = sf.xi_on_critical_line(t)
    assert np.max(np.abs(vals.imag)) <= 1e-13 * np.max(np.abs(vals.real))
    assert abs(vals[0] - XI_HALF_REF) <= 1e-12

