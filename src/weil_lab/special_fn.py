"""Evaluators for Gamma, zeta, the completed xi function, the structure
function E(z) = xi(1/2-iz) + xi'(1/2-iz), its inner-function ratio Theta,
and the omega profile (the time-domain inverse transform of xi(1/2-iz)).

All evaluators are double precision and validated against high-precision
references in the test suite. xi, E_xi, theta_xi, omega_profile,
log_gamma, digamma, zeta and zeta_pair take a scalar (and return scalars) or
an array (and return arrays of its shape); critical_line_log_derivative,
theta_on_axis and xi_on_critical_line take real arrays.

The vector routes sum zeta by Euler-Maclaurin in chunks of 8192 points of
comparable height. A chunk whose points lie on a lattice s_k = s_0 + k d up
to roundoff (a uniform grid on the critical line) shares its phases:
n^{-s_k} = n^{-s_b} n^{-r d} with anchors s_b every 96 points and one
offset table n^{-r d}, so it needs (8192/96 + 96) complex exponentials per n
instead of 8192 (the idea of Odlyzko and Schoenhage's multiple evaluation).
The evaluated point s_b + r d differs from the node s_k by its lattice
roundoff eps_k (~1e-13 on a grid over [-1000, 1000]); one Taylor step with
the derivative sum already at hand moves the sums to s_k itself, which
matters within ~1e-6 of a zero. Other chunks are summed point by point, as
one anchor per point with the single offset 0, through the same code.

Conventions used throughout the package:

    xi(s)    = (1/2) s (s-1) pi^(-s/2) Gamma(s/2) zeta(s)
             = P(s) w(s),   P = pi^(-s/2) Gamma(s/2 + 1),  w = (s-1) zeta(s)
    xi'(s)   = P(s) (w(s) (psi(s/2 + 1) - log pi)/2 + w'(s))
    E(z)     = xi(1/2 - iz) + xi'(1/2 - iz)        (' = d/ds)
    F^#(z)   = conj(F(conj(z)))
    Theta(z) = E^#(z) / E(z)
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "XiValue", "log_gamma", "digamma", "zeta", "zeta_pair", "xi", "E_xi",
    "theta_xi", "omega_profile", "critical_line_log_derivative",
    "theta_on_axis", "xi_on_critical_line",
]

_log = logging.getLogger("weil_lab")

# Bernoulli numbers B_{2k}, k = 1..16, exact.
_B2K = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
        Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
        Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
        Fraction(854513, 138), Fraction(-236364091, 2730),
        Fraction(8553103, 6), Fraction(-23749461029, 870),
        Fraction(8615841276005, 14322), Fraction(-7709321041217, 510)]
_B2K_OVER_FACT = np.array([float(b) / math.factorial(2 * (k + 1))
                           for k, b in enumerate(_B2K)])
_B2K_FLOAT = np.array([float(b) for b in _B2K])
_EM_TERMS = 15          # Bernoulli corrections kept in Euler-Maclaurin
_LN_PI = math.log(math.pi)
_LN_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class XiValue:
    xi: complex
    xi_prime: complex


# ----------------------------------------------------------------------
# log Gamma (Lanczos, g = 607/128, 15 terms) and digamma
# ----------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517, -59.597960355475491248, 14.136097974741747174,
    -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4,
    0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])


def _log_gamma_core(z: np.ndarray) -> np.ndarray:
    # Re(z) >= 0.5 assumed
    acc = np.full(z.shape, _LANCZOS_C[0], dtype=complex)
    for k in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[k] / (z + (k - 1))
    t = z + (_LANCZOS_G - 0.5)
    return (0.5 * _LN_2PI + (z - 0.5) * np.log(t) - t + np.log(acc))


def _log_sin_pi_upper(z: np.ndarray) -> np.ndarray:
    # log(sin(pi z)) continuous on the closed upper half-plane (Im z >= 0)
    return (-1j * math.pi * z + 0.5j * math.pi - math.log(2.0)
            + np.log1p(-np.exp(2j * math.pi * z)))


def log_gamma(z):
    """Principal-branch log Gamma(z).

    Lanczos rational approximation for Re(z) >= 1/2, reflection through
    sin(pi z) otherwise (with a branch-continuous log-sin). Relative error
    is at the 1e-13 level away from the poles at z = 0, -1, -2, ...
    """
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    bad = (z_arr.real <= 0) & (z_arr.imag == 0) & (z_arr.real == np.round(z_arr.real))
    if np.any(bad):
        raise ValueError("log_gamma pole at nonpositive integer")
    out = np.empty_like(z_arr)
    main = z_arr.real >= 0.5
    if np.any(main):
        out[main] = _log_gamma_core(z_arr[main])
    refl = ~main
    if np.any(refl):
        w = z_arr[refl]
        upper = w.imag >= 0
        res = np.empty_like(w)
        if np.any(upper):
            u = w[upper]
            res[upper] = _LN_PI - _log_sin_pi_upper(u) - _log_gamma_core(1.0 - u)
        if np.any(~upper):
            u = np.conj(w[~upper])
            res[~upper] = np.conj(_LN_PI - _log_sin_pi_upper(u)
                                  - _log_gamma_core(1.0 - u))
        out[refl] = res
    return complex(out[0]) if scalar else out


def digamma(z):
    """psi_0(z), the logarithmic derivative of Gamma.

    Asymptotic Bernoulli series after lifting Re(z) above 12 by the
    recurrence psi(z) = psi(z+1) - 1/z; reflection for Re(z) < 0.
    """
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr).copy()
    bad = (z_arr.real <= 0) & (z_arr.imag == 0) & (z_arr.real == np.round(z_arr.real))
    if np.any(bad):
        raise ValueError("digamma pole at nonpositive integer")
    out = np.zeros_like(z_arr)
    refl = z_arr.real < 0
    if np.any(refl):
        w = z_arr[refl]
        out[refl] -= math.pi / np.tan(math.pi * w)
        z_arr[refl] = 1.0 - w
    # lift to Re >= 12
    for _ in range(14):
        low = z_arr.real < 12.0
        if not np.any(low):
            break
        out[low] -= 1.0 / z_arr[low]
        z_arr[low] += 1.0
    w = z_arr
    inv2 = 1.0 / (w * w)
    series = np.zeros_like(w)
    p = inv2.copy()
    for k in range(1, 9):
        series += _B2K_FLOAT[k - 1] / (2 * k) * p
        p *= inv2
    out += np.log(w) - 0.5 / w - series
    return complex(out[0]) if scalar else out


# ----------------------------------------------------------------------
# zeta by Euler-Maclaurin, with the termwise s-derivative
# ----------------------------------------------------------------------

# Points per shared offset table in the factored sum.
_ANCHOR_STRIDE = 96
# The sums run over blocks of at most 512 ln n columns and 2**20 complex
# table elements (16 MB): a factored chunk's two tables then fit in L2 cache,
# and a point-by-point chunk of 8192 points takes 128 columns at a time.
_BLOCK_COLS = 512
_TABLE_ELEMS = 1 << 20


def _em_length(s: np.ndarray) -> int:
    """Euler-Maclaurin truncation index N, set from the largest |s| of the
    batch (so callers should batch points of comparable height)."""
    smax = float(np.max(np.abs(s))) if s.size else 0.0
    return max(32, int(math.ceil(0.5 * smax)) + 16)


def _lattice_step(s: np.ndarray):
    """The step d when the points are s_0 + k d up to roundoff, else None."""
    if s.size < 2:
        return None
    d = (s[-1] - s[0]) / (s.size - 1)
    dev = np.max(np.abs(s - (s[0] + np.arange(s.size) * d)))
    if d == 0 or not dev <= 64 * np.finfo(float).eps * np.max(np.abs(s)):
        return None
    return d


def _dirichlet_sums(s: np.ndarray, N: int, step):
    """(S, S') = (sum n^{-s}, -sum ln n n^{-s}) over n < N at the flat s.

    Each point is split as s_k = a_b + o_r + eps_k, so that
    n^{-s} = n^{-a_b} n^{-o_r} costs one exponential per anchor a_b and one
    per offset o_r. On a lattice s_k = s_0 + k d (step = d) the anchors are
    every _ANCHOR_STRIDE-th point and the offsets are r d, with eps_k the
    roundoff of the lattice (a lattice of fewer points has one anchor and
    one offset per point); otherwise (step None) every point is its own
    anchor with the single offset 0. Both sums are matrix-vector products
    of the anchor table with one offset row (per-row products, not one
    matrix product, keep the bytes independent of the BLAS thread count).
    One Taylor step S += eps_k S' carries the sums from the evaluated point
    a_b + o_r to s_k itself.
    """
    R = min(_ANCHOR_STRIDE, s.size) if step is not None else 1
    anchors = s[::R]
    offsets = np.arange(R) * (step if step is not None else 0j)
    cols = min(_BLOCK_COLS, _TABLE_ELEMS // anchors.size)
    S = np.zeros((anchors.size, R), dtype=complex)
    Sp = np.zeros_like(S)
    ln_n = np.log(np.arange(1, N, dtype=float))
    for i0 in range(0, ln_n.size, cols):
        ln_c = ln_n[i0:i0 + cols]
        anchor_tab = np.multiply.outer(-anchors, ln_c)
        np.exp(anchor_tab, out=anchor_tab)
        offset_tab = np.exp(np.multiply.outer(-offsets, ln_c))
        for r in range(R):
            S[:, r] += anchor_tab @ offset_tab[r]
            Sp[:, r] -= anchor_tab @ (ln_c * offset_tab[r])
    S = S.ravel()[:s.size]
    Sp = Sp.ravel()[:s.size]
    k = np.arange(s.size)
    eps = (s - anchors[k // R]) - offsets[k % R]
    return S + eps * Sp, Sp


def _w_pair(s: np.ndarray, step=None):
    """((s-1) zeta(s), d/ds[(s-1) zeta(s)]) for Re(s) >= 0; regular at s = 1.

    step is the lattice step of s (see _lattice_step), or None to sum point
    by point.
    """
    s = s.ravel()
    N = _em_length(s)
    S, Sp = _dirichlet_sums(s, N, step)

    lnN = math.log(N)
    NmS = np.exp(-s * lnN)
    sm1 = s - 1.0
    w = sm1 * S + N * NmS + 0.5 * sm1 * NmS
    wp = S + sm1 * Sp - lnN * N * NmS + 0.5 * NmS - 0.5 * lnN * sm1 * NmS

    # Bernoulli tail: T_k = B_{2k}/(2k)! * P_k * N^{1-s-2k},
    # P_k = prod_{j=0}^{2k-2}(s+j), D_k = dP_k/ds.
    P = s.copy()
    D = np.ones_like(s)
    Npow = NmS / N
    for k in range(1, _EM_TERMS + 1):
        c = _B2K_OVER_FACT[k - 1]
        T = c * P * Npow
        w += sm1 * T
        wp += T + sm1 * c * Npow * (D - P * lnN)
        a = s + (2 * k - 1)
        b = s + (2 * k)
        D = D * a * b + P * (a + b)
        P = P * a * b
        Npow = Npow / (N * N)
    return w, wp


def _em_chunks(s: np.ndarray):
    """Yield (idx, s[idx], w, w', step) over chunks of 8192 points of the flat
    array s, taken in order of |Im s| so the Euler-Maclaurin N of each chunk
    tracks its local height (|Im s| = |x| on the critical line). step is the
    chunk's lattice step, or None when it was summed point by point."""
    s = s.ravel()
    order = np.argsort(np.abs(s.imag), kind="stable")
    for i0 in range(0, len(s), 8192):
        idx = order[i0:i0 + 8192]
        sc = s[idx]
        step = _lattice_step(sc)
        yield (idx, sc) + _w_pair(sc, step) + (step,)


def _chi_pair(s: np.ndarray):
    """(chi(s), chi'(s)) for the functional equation zeta(s) = chi(s) zeta(1-s),
    chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s). Finite at the trivial zeros."""
    u = 1.0 - s
    pref = np.exp(s * math.log(2.0) + (s - 1.0) * _LN_PI + log_gamma(u))
    sn = np.sin(math.pi * s / 2.0)
    cs = np.cos(math.pi * s / 2.0)
    return pref * sn, pref * ((_LN_2PI - digamma(u)) * sn + (math.pi / 2.0) * cs)


def zeta_pair(s):
    """(zeta(s), zeta'(s)) at a scalar s != 1 (two complex numbers) or an
    array of s (two arrays of its shape).

    Euler-Maclaurin with the termwise derivative for Re(s) >= 0, summed in
    chunks of comparable height like xi; the functional equation (with its
    differentiated form) for Re(s) < 0.
    """
    s_arr = np.asarray(s, dtype=complex)
    if np.any(s_arr == 1.0):
        raise ValueError("zeta pole at s = 1")
    flat = s_arr.ravel()
    refl = flat.real < 0.0
    u = np.where(refl, 1.0 - flat, flat)
    val = np.empty_like(u)
    der = np.empty_like(u)
    for idx, sc, w, wp, _ in _em_chunks(u):
        sm1 = sc - 1.0
        val[idx], der[idx] = w / sm1, (wp * sm1 - w) / (sm1 * sm1)
    chi, chi_p = _chi_pair(flat[refl])
    val[refl], der[refl] = chi * val[refl], chi_p * val[refl] - chi * der[refl]
    if s_arr.ndim == 0:
        return complex(val[0]), complex(der[0])
    return val.reshape(s_arr.shape), der.reshape(s_arr.shape)


def zeta(s):
    """Riemann zeta at a scalar or an array of s != 1."""
    return zeta_pair(s)[0]


# ----------------------------------------------------------------------
# xi and its derivative
# ----------------------------------------------------------------------

def _xi_factor(s: np.ndarray) -> np.ndarray:
    """P = pi^(-s/2) Gamma(s/2+1), so that xi = P (s-1) zeta(s)."""
    return np.exp(-0.5 * s * _LN_PI + log_gamma(s / 2.0 + 1.0))


def _log_derivative(s: np.ndarray, w: np.ndarray, wp: np.ndarray) -> np.ndarray:
    return -0.5 * _LN_PI + 0.5 * digamma(s / 2.0 + 1.0) + wp / w


def _xi_pair(s: np.ndarray, w: np.ndarray, wp: np.ndarray):
    """(xi, xi') at an array of s with Re(s) >= 1/2, given (w, w') there:
    xi = P w and xi' = P (w (psi(s/2+1) - log pi)/2 + w'), with
    P = pi^(-s/2) Gamma(s/2+1). Nothing divides by w, so the zeros of w
    need no other route."""
    P = _xi_factor(s)
    return P * w, P * (0.5 * w * (digamma(s / 2.0 + 1.0) - _LN_PI) + wp)


def xi(s) -> XiValue:
    """xi(s) and xi'(s) at a scalar s (an XiValue of two complex numbers)
    or at an array of s (an XiValue of two arrays of its shape).

    xi is computed as pi^(-s/2) Gamma(s/2+1) (s-1) zeta(s) with the factor
    (s-1) zeta(s) evaluated in pole-free form; s with Re(s) < 1/2 is
    reflected through xi(s) = xi(1-s), xi'(s) = -xi'(1-s). With
    w = (s-1) zeta(s) and P = pi^(-s/2) Gamma(s/2+1) the derivative is
        xi'(s) = P (w (psi(s/2+1) - log pi)/2 + w'),
    one formula at every s, zeros of xi included.
    The reflected points are summed in chunks of comparable height (see the
    module docstring); a scalar is a chunk of one point.
    """
    s_arr = np.asarray(s, dtype=complex)
    refl = s_arr.real < 0.5
    u = np.where(refl, 1.0 - s_arr, s_arr).ravel()
    val = np.empty(u.shape, dtype=complex)
    der = np.empty_like(val)
    for idx, sc, w, wp, _ in _em_chunks(u):
        val[idx], der[idx] = _xi_pair(sc, w, wp)
    der = np.where(refl.ravel(), -der, der)
    if s_arr.ndim == 0:
        return XiValue(complex(val[0]), complex(der[0]))
    return XiValue(val.reshape(s_arr.shape), der.reshape(s_arr.shape))


def E_xi(z):
    """E(z) = xi(1/2 - iz) + xi'(1/2 - iz) at a scalar z (a complex) or an
    array of z (an array of its shape), through xi.

    Value form: on the real axis it underflows for |z| beyond ~900, where
    |xi| drops below the double-precision range; use the ratio helpers
    (critical_line_log_derivative, theta_on_axis) for larger grids."""
    v = xi(0.5 - 1j * np.asarray(z, dtype=complex))
    return v.xi + v.xi_prime


def theta_xi(z):
    """Theta(z) = E^#(z)/E(z) with E^#(z) = conj(E(conj z)), at a scalar z
    (a complex) or an array of z; E and E^# come from one E_xi call.

    Raises when |E(z)| underflows at any z (a real zero of E would sit at a
    multiple zero of xi)."""
    z_arr = np.asarray(z, dtype=complex)
    E = E_xi(np.stack([z_arr, np.conj(z_arr)]))
    if np.any(np.abs(E[0]) < 1e-300):
        raise ZeroDivisionError("theta_xi: E vanishes (or underflows) at z = %r" % (z,))
    out = np.conj(E[1]) / E[0]
    return complex(out) if np.ndim(out) == 0 else out


# ----------------------------------------------------------------------
# vectorized critical-line routes (used for large frequency grids)
# ----------------------------------------------------------------------

def critical_line_log_derivative(x):
    """d/dz log xi(1/2 - iz) at real z = x, vectorized.

    Returns -i * (xi'/xi)(1/2 - ix); real-valued up to roundoff since
    xi(1/2 - iz) is real on the real axis.  The ratio form stays finite
    through the exponentially small range of xi (no underflow), which makes
    it usable on frequency grids far beyond |x| ~ 900, where xi does.  At
    zeros of xi the value blows up like m/(x - gamma); callers that need the
    limit there use the basis-function limit branch instead.

    On a uniform grid (say the half-grid of an axis sweep) each chunk takes
    the factored sum of the module docstring, corrected from its lattice
    point to each node's own float value; scattered x is summed point by
    point. Each call logs, at DEBUG on the "weil_lab" logger, its point
    count, largest Euler-Maclaurin N, chunks per branch and elapsed time.
    """
    t0 = time.perf_counter()
    s = 0.5 - 1j * np.asarray(x, dtype=float)
    out = np.empty(s.shape, dtype=complex)
    chunks = factored = 0
    for idx, sc, w, wp, step in _em_chunks(s):
        out.flat[idx] = -1j * _log_derivative(sc, w, wp)
        chunks += 1
        factored += step is not None
    _log.debug("critical-line sweep: %d points, largest Euler-Maclaurin N %d, "
               "%d chunks factored, %d point by point, %.3f s", s.size,
               _em_length(s), factored, chunks - factored,
               time.perf_counter() - t0)
    return out


def theta_on_axis(x, log_deriv=None):
    """Theta(x) for real x via the unimodular ratio form.

    With L(x) = d/dz log xi(1/2-iz) (exactly real on the axis since
    xi(1/2-iz) is real there),
        E = q (1 + i L),  E^# = q (1 - i L),  q real,
    so Theta = (1 - i L)/(1 + i L): exactly unimodular and immune to the
    underflow of xi at large |x|. The evaluator's imaginary residue on L is
    discarded; near the zeros (where |L| blows up like m/(x-gamma)) that
    residue would otherwise dominate the phase error.

    Error model near a zero: L comes from O(1) sums that cancel there, so
    its error is ~1e-14 |L|^2, the same as moving the zero by ~1e-14. Theta
    takes 2|dL|/(1 + L^2), at most ~2e-14 at any x.
    """
    L = critical_line_log_derivative(x) if log_deriv is None else log_deriv
    a = np.real(L)
    return (1.0 - 1j * a) / (1.0 + 1j * a)


def xi_on_critical_line(t):
    """xi(1/2 + it) for real t, vectorized; real-valued up to roundoff."""
    s = 0.5 + 1j * np.asarray(t, dtype=float)
    out = np.empty(s.shape, dtype=complex)
    for idx, sc, w, _, _ in _em_chunks(s):
        out.flat[idx] = _xi_factor(sc) * w
    return out


# ----------------------------------------------------------------------
# omega profile
# ----------------------------------------------------------------------

def omega_profile(x):
    """Time-domain profile whose transform is xi(1/2 - iz):

        omega(x) = sum_{n>=1} (4 pi^2 n^4 e^{9x/2} - 6 pi n^2 e^{5x/2})
                              * exp(-pi n^2 e^{2x}),

    i.e. the theta-series kernel normalized so that
    integral omega(x) e^{izx} dx = xi(1/2 - iz) (checked against a 30-digit
    quadrature oracle; the half-size normalization seen in some references
    pairs with a one-sided cosine transform instead).

    At a scalar x (a float) or an array of x (an array of its shape); each
    x sums its own n <= sqrt(40/(pi e^{2x})) + 10 terms. Series validated
    for |x| <= 5, which every element must satisfy. A value whose terms all
    lie below 1e-16 is its leading term. Even in exact arithmetic; for
    x < -1 the evenness holds only up to absolute (not relative)
    double-precision residue, which is what the declared range needs.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(np.abs(x_arr) > 5.0):
        raise ValueError("omega_profile validated for |x| <= 5")
    xf = x_arr.ravel()
    n_max = np.ceil(np.sqrt(40.0 / (math.pi * np.exp(2.0 * xf)))) + 10
    out = np.empty(xf.shape)
    rows = max(1, _TABLE_ELEMS // int(n_max.max(initial=1)))    # tables <= 8 MB
    for i0 in range(0, xf.size, rows):
        x, top = xf[i0:i0 + rows, None], n_max[i0:i0 + rows, None]
        n, a = np.arange(1, top.max() + 1), np.exp(2.0 * x)
        terms = (4.0 * math.pi ** 2 * n ** 4 * np.exp(4.5 * x)
                 - 6.0 * math.pi * n ** 2 * np.exp(2.5 * x)) * np.exp(-math.pi * n * n * a)
        terms[n > top] = 0.0
        # retain the leading term so superexponentially small values decay smoothly
        keep = np.any(np.abs(terms) >= 1e-16, axis=1)
        out[i0:i0 + rows] = np.where(keep, np.sum(terms, axis=1), terms[:, 0])
    out = out.reshape(x_arr.shape)
    return float(out) if out.ndim == 0 else out
