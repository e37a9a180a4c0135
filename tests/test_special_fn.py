import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from weil_lab import numerics as nu
from weil_lab import special_fn as sf
from weil_lab.identities import XI_HALF_REF

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
    # the series runs unlifted wherever |z| >= 12: on the sweep's argument
    # 1.25 - ix/2 for |x| >= 23.9, at Re z = 0.01 and 5 up to |Im z| = 1e4,
    # and (after reflection) at Re z < 0
    r = np.array([11.0, 11.99, 12.0, 12.01, 13.0, 100.0, 5000.0])
    x = 2.0 * np.sqrt(r * r - 1.25 ** 2)
    im = np.array([1.0, 11.9, 11.99, 12.0, 12.1, 100.0, 1e4])
    z = np.concatenate([1.25 - 0.5j * x, 1.25 + 0.5j * x,
                        0.01 + 1j * im, 0.01 - 1j * im, 5.0 + 1j * im,
                        [-0.5 + 11.9j, -0.01 - 11.99j, -3.3 + 12.5j,
                         -7.2 - 1e3j, -11.5 + 4.0j]])
    got = sf.digamma(z)
    for zk, g in zip(z, got):
        ref = complex(mp.digamma(zk))
        assert abs(g - ref) <= 1e-12 * max(1.0, abs(ref)), zk


# ----------------------------------------------------------------------
# zeta
# ----------------------------------------------------------------------

def test_zeta_classics():
    assert abs(sf.zeta(2.0) - math.pi ** 2 / 6) < 1e-14
    assert abs(sf.zeta(0.0) + 0.5) < 1e-14
    assert abs(sf.zeta(-1.0) + 1.0 / 12.0) < 1e-14


def test_zeta_pole():
    with pytest.raises(ValueError):
        sf.zeta(1.0)
    with pytest.raises(ValueError):
        sf.zeta_pair(np.array([2.0, 1.0]))


def test_zeta_vanishes_at_first_ordinate():
    assert abs(sf.zeta(complex(0.5, 14.134725142))) <= 1e-8


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
    # s in [-180, -2] reflects to u = 1 - s in [181, 3]: a real lattice with
    # a negative step in height order, which the lattice sums refuse (their
    # factors n^{-b R d} would overflow), so it matches the scalar route
    s = np.linspace(-180.0, -2.0, 1000)
    z, zp = sf.zeta_pair(s)
    v = sf.xi(s)
    assert sf._lattice_step(1.0 - s) is None
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


def _exp_matrix_sums(s, N):
    """Oracle for the Dirichlet sums of the Euler-Maclaurin evaluator: one
    complex exponential per (point, n), summed directly."""
    ln_n = np.log(np.arange(1, N, dtype=float))
    S = np.zeros(s.size, dtype=complex)
    Sp = np.zeros(s.size, dtype=complex)
    for i0 in range(0, ln_n.size, 256):
        ln_c = ln_n[i0:i0 + 256]
        E = np.exp(-np.multiply.outer(s, ln_c))
        S += E.sum(axis=1)
        Sp -= E @ ln_c
    return S, Sp


def _sum_cases():
    rng = np.random.default_rng(21)
    yield "2 nodes at 1e4", 0.5 - 1j * np.linspace(1e4, 1e4 + 0.02, 2)
    yield "95 nodes, negative x", 0.5 - 1j * np.linspace(-1e4, -9998.6, 95)
    yield "8191 nodes to 3819", 0.5 - 1j * np.linspace(3000.0, 3819.0, 8191)
    x = np.linspace(-200.0, 200.0, 16385)
    yield "8192-node half-grid from ~0", 0.5 - 1j * x[x >= 0.0][:8192]
    yield "8193 nodes", 0.5 - 1j * np.linspace(2000.5, 2246.26, 8193)
    yield "seeded points", 0.5 - 1j * rng.uniform(1000.0, 2000.0, 3000)
    # 3 full chunks and one of 1,000 nodes, with N = 221, 426, 631 and 657:
    # every chunk slices the shared tables to its own N, the last three
    # across two or three column blocks
    x = np.linspace(-1280.0, 1280.0, 51151)
    yield "25,576-node half-grid from 0", 0.5 - 1j * x[x >= 0.0]
    # nodes up to 1e-11 off their lattice, inside its tolerance: the Taylor
    # step must carry S from each lattice point to the node itself
    x = np.linspace(1000.0, 1170.0, 8192) + rng.uniform(-1e-11, 1e-11, 8192)
    yield "8192 nodes 1e-11 off a lattice", 0.5 - 1j * x


@pytest.mark.parametrize("name,s", list(_sum_cases()))
def test_dirichlet_sums_match_exp_matrix_oracle(name, s):
    # summed as the evaluator sums: in height order, in chunks of their own
    # N. A uniform grid of at least two nodes is a lattice as a whole and
    # takes the factored branch in every chunk; scattered points do not
    s = s[np.argsort(np.abs(s.imag), kind="stable")]
    step = sf._lattice_step(s)
    assert (step is not None) == (name != "seeded points")
    starts = range(0, s.size, sf._CHUNK)
    Ns = [sf._em_length(s[i0:i0 + sf._CHUNK]) for i0 in starts]
    if name.startswith("25,576"):
        assert Ns == [221, 426, 631, 657]
    sums = list(sf._dirichlet_sums(s, Ns, step))
    assert len(sums) == len(Ns)
    for i0, N, (S, Sp) in zip(starts, Ns, sums):
        sc = s[i0:i0 + sf._CHUNK]
        S_ref, Sp_ref = _exp_matrix_sums(sc, N)
        terms = np.arange(1, N, dtype=float) ** -0.5      # |n^{-s}|
        ln_n = np.log(np.arange(1, N, dtype=float))
        assert np.max(np.abs(S - S_ref)) <= 1e-12 * np.sum(terms)
        # S' stays at the lattice point, off by up to |eps| sum ln^2 n |n^{-s}|
        off = 1e-11 * np.sum(ln_n ** 2 * terms) if "off a lattice" in name else 0.0
        assert np.max(np.abs(Sp - Sp_ref)) <= 1e-12 * np.sum(ln_n * terms) + off


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
    cases = [0.5 - 1j * np.linspace(0.0, 170.0, 8192),
             0.5 - 1j * np.linspace(1830.0, 2000.0, 8192),
             np.array([0.5, 1.0, 2.0, 3.0, 1e-3 + 5j, 0.2 - 40j, 2.5 + 90j,
                       0.5 + 1j * GAMMA1, 0.5 - 1e4j])]
    for s in cases:
        N = sf._em_length(s)
        S, Sp = next(sf._dirichlet_sums(s, [N], sf._lattice_step(s)))
        w, wp = sf._w_pair(s, N, S, Sp)
        w_ref, wp_ref, w_scale, wp_scale = _per_term_w_pair(s, N, S, Sp)
        assert np.max(np.abs(w - w_ref) / w_scale) <= 1e-14
        assert np.max(np.abs(wp - wp_ref) / wp_scale) <= 1e-14


def test_factored_sweep_near_a_zero_against_oracle():
    # the x >= 0 part of a grid over ~[-1000, 1000]: one node sits within
    # 1e-6 of gamma_1, where |L| ~ 1e6 magnifies any error of the factored
    # sums (the per-node lattice correction is checked with the sums alone).
    # Four spacings, so that the bound does not hold by the choice of grid
    for h in (0.019, 0.02, 0.021, 0.022):
        x0 = GAMMA1 - 3e-7 - 50000 * h
        x = np.linspace(x0, x0 + 100000 * h, 100001)
        half = x[x >= 0.0]
        k = int(np.argmin(np.abs(half - GAMMA1)))
        assert abs(half[k] - GAMMA1) <= 1e-6
        L = sf.critical_line_log_derivative(half[:8192])
        assert sf._lattice_step(0.5 - 1j * half[:8192]) is not None
        s = mp.mpc(mp.mpf(1) / 2, -mp.mpf(half[k]))
        ref = complex(-1j * (1 / s + 1 / (s - 1) - mp.log(mp.pi) / 2
                             + mp.digamma(s / 2) / 2
                             + mp.zeta(s, derivative=1) / mp.zeta(s)))
        assert abs(ref) > 1e6
        # the oracle test's 1e-10 relative bound plus the roundoff of w
        # itself: an absolute error ~1e-14 |w'| in w becomes ~1e-14 |L|^2
        # in L = w'/w + ...
        assert abs(L[k] - ref) <= 1e-10 * abs(ref) + 1e-14 * abs(ref) ** 2, h


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


def test_xi_on_critical_line_real():
    t = np.array([0.0, 5.0, 14.0, 60.0])
    vals = sf.xi_on_critical_line(t)
    assert np.max(np.abs(vals.imag)) <= 1e-13 * np.max(np.abs(vals.real))
    assert abs(vals[0] - XI_HALF_REF) <= 1e-12

