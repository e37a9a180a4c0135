"""Evaluators for Gamma, zeta, the completed xi function, the structure
function E(z) = xi(1/2-iz) + xi'(1/2-iz), its inner-function ratio Theta,
and the omega profile (the time-domain inverse transform of xi(1/2-iz)).

All evaluators are double precision and validated against high-precision
references in the test suite. xi, E_xi, theta_xi, omega_profile,
log_gamma, digamma, zeta and zeta_pair take a scalar (and return scalars) or
an array (and return arrays of its shape); critical_line_log_derivative,
theta_on_axis and xi_on_critical_line take real arrays.

The vector routes sum zeta by Euler-Maclaurin in chunks of 8192 points of
comparable height, each to its own N. When the whole height-sorted input is
a lattice s_k = s_0 + k d up to roundoff (a uniform grid on the critical
line), every chunk shares one set of phase tables:

    n^{-s_k} = n^{-c_j} n^{-b R d} n^{-r d},

with c_j the chunk's first point, anchors b every R = 96 points and offsets
r < 96. The anchor and offset tables are built once per block of n for all
chunks, and a chunk adds one exponential row n^{-c_j}: a sweep of J chunks
takes 86 + 96 + J complex exponentials per n instead of 8192 J (the idea of
Odlyzko and Schoenhage's multiple evaluation). The sums are per-row
matrix-vector products (gemv), not one matrix product (gemm): a zgemm does
an 86 x 256 x 192 block ~2.7x faster, but with OpenBLAS 0.3.31 its sweep
bytes differ between 1 and 2 threads, while the gemv bytes agree and
exports are byte-equal across thread counts. The tables' phases are
compensated for the rounding of ln n and of its product with Im s (see
_powers), so each power is good to a few ulps at any height: near a zero
the sums cancel to |w| << |w'|, and fl(s ln n) alone would leave an error
~1e-14 |L|^2 in L. All chunks share the tables, so this costs little. A
lattice whose step has Re d < 0 is not factored (its anchor factors would
grow). The evaluated point c_j + b R d + r d differs from the node s_k by
its lattice roundoff eps_k (~1e-13 on a grid over [-1000, 1000]); one
Taylor step with the derivative sum already at hand moves the sums to s_k
itself, which matters within ~1e-6 of a zero. Other inputs are summed
point by point, with plain fl(s ln n). The Bernoulli tail factors out
N^{-s}, leaving the polynomial sums Q and Q'.

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

    Asymptotic Bernoulli series after lifting |z| above 12 by the
    recurrence psi(z) = psi(z+1) - 1/z; reflection for Re(z) < 0. After the
    reflection Re(z) >= 0, so the series runs only in |arg z| <= pi/2; at
    |z| >= 12 its first omitted term, |B_18|/(18 |z|^18), is below 1.2e-19.
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
    # lift to |z| >= 12 (Re z >= 0 here: at most 12 steps)
    for _ in range(14):
        low = np.abs(z_arr) < 12.0
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

# Points per Euler-Maclaurin chunk (one N each), and per anchor of a lattice.
_CHUNK = 8192
_ANCHOR_STRIDE = 96
# The sums run over blocks of ln n columns. A lattice takes 256 at a time:
# its largest table (192 x 256, 0.75 MB) then stays smaller than the 1.5 MB
# arrays of a Z = 2000 sweep. At 512 columns the sweep ran as fast, but the
# freed 1.5 MB tables left perfbench's cutoff_ladder at a 3 MB higher peak
# RSS. A point-by-point chunk takes at most 512 columns and 2**20 table
# elements (16 MB): 128 columns for 8192 points.
_LATTICE_COLS = 256
_BLOCK_COLS = 512
_TABLE_ELEMS = 1 << 20


def _em_length(s: np.ndarray) -> int:
    """Euler-Maclaurin truncation index N, set from the largest |s| of the
    batch (so callers should batch points of comparable height)."""
    smax = float(np.max(np.abs(s))) if s.size else 0.0
    return max(32, int(math.ceil(0.5 * smax)) + 16)


def _lattice_step(s: np.ndarray):
    """The step d when the points are s_0 + k d up to roundoff, else None.

    A step with Re d < 0 is refused: the lattice sums factor each power as
    n^{-c} n^{-b R d} n^{-r d}, and those factors stay at most 1 in modulus
    only when Re d >= 0 (on the critical line Re d = 0)."""
    if s.size < 2:
        return None
    d = (s[-1] - s[0]) / (s.size - 1)
    dev = np.max(np.abs(s - (s[0] + np.arange(s.size) * d)))
    if d == 0 or d.real < 0 or not dev <= 64 * np.finfo(float).eps * np.max(np.abs(s)):
        return None
    return d


def _ln_parts(n: np.ndarray):
    """(hi, lo) with ln n = hi + lo: hi = fl(ln n) and lo its rounding
    error, taken from the long double logarithm (0 where long double is
    double)."""
    hi = np.log(n)
    return hi, (np.log(n.astype(np.longdouble)) - hi).astype(float)


def _split(x):
    """Veltkamp's split x = h + l into halves of 26 bits, so that products
    of halves are exact."""
    c = 134217729.0 * x
    h = c - (c - x)
    return h, x - h


def _powers(a: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The table exp(-a_i ln n_j), ln n = hi + lo (see _ln_parts), with the
    rounding of its phase compensated: p = fl(-Im a hi), the exact error of
    that product (Dekker's) and -Im a lo give the phase to a few ulps, where
    fl(-a ln n) alone is off by ~1e-16 |Im a| ln n, an error that the
    cancelling sums near a zero of zeta magnify. The modulus keeps
    fl(-Re a ln n), off by ~1e-16 Re a ln n relative."""
    x = -a.imag
    xh, xl = _split(x)
    hh, hl = _split(hi)
    tab = np.empty((a.size, hi.size), dtype=complex)
    np.multiply.outer(-a.real, hi, out=tab.real)
    np.multiply.outer(x, hi, out=tab.imag)
    err = np.multiply.outer(xh, hh)
    err -= tab.imag
    tmp = np.empty_like(err)
    for u, v in ((xh, hl), (xl, hh), (xl, hl), (x, lo)):
        err += np.multiply.outer(u, v, out=tmp)
    np.exp(tab, out=tab)
    # tab *= 1 + i err
    np.multiply(tab.imag, err, out=tmp)
    err *= tab.real
    tab.real -= tmp
    tab.imag += err
    return tab


def _dirichlet_sums(s: np.ndarray, Ns, step):
    """Yield (S, S') = (sum n^{-s}, -sum ln n n^{-s}) over n < Ns[j] for each
    chunk j of _CHUNK points of the flat s.

    On a lattice s_k = s_0 + k d (step = d), point m = b R + r of chunk j
    (R = _ANCHOR_STRIDE, or the point count if smaller) is evaluated at
    c_j + b R d + r d, c_j the chunk's first point:
        n^{-s} = n^{-c_j} n^{-b R d} n^{-r d}.
    The anchor table n^{-b R d} and the offset table n^{-r d}, with its
    ln n-weighted copy, are the same in every chunk, so each column block
    builds them once for the whole input, with one row n^{-c_j} per chunk
    (all by _powers). A chunk scales the anchor rows by its row n^{-c_j}
    and sums each against the offset tables by a matrix-vector product
    (per-row products, not one matrix product, keep the bytes independent
    of the BLAS thread count).
    One Taylor step S += eps S' carries the sums from the evaluated point to
    s_k itself, eps = s_k - (c_j + b R d + r d) being the lattice roundoff.
    Otherwise (step None) every point is summed by itself, chunk by chunk.
    """
    starts = range(0, s.size, _CHUNK)
    if step is None:
        for i0, N in zip(starts, Ns):
            sc = s[i0:i0 + _CHUNK]
            cols = min(_BLOCK_COLS, _TABLE_ELEMS // sc.size)
            S = np.zeros(sc.size, dtype=complex)
            Sp = np.zeros_like(S)
            ln_n = np.log(np.arange(1, N, dtype=float))
            for c0 in range(0, ln_n.size, cols):
                ln_c = ln_n[c0:c0 + cols]
                tab = np.multiply.outer(-sc, ln_c)
                np.exp(tab, out=tab)
                S += tab @ np.ones(ln_c.size, dtype=complex)
                Sp -= tab @ ln_c
            yield S, Sp
        return
    R = min(_ANCHOR_STRIDE, s.size)
    anchors = np.arange(-(-min(_CHUNK, s.size) // R)) * (R * step)
    offsets = np.arange(R) * step
    bases = s[::_CHUNK]
    # per chunk: rows b of [S at b R + r for r < R, S' likewise]
    acc = [np.zeros((-(-min(_CHUNK, s.size - i0) // R), 2 * R), dtype=complex)
           for i0 in starts]
    hi, lo = _ln_parts(np.arange(1, max(Ns), dtype=float))
    for c0 in range(0, hi.size, _LATTICE_COLS):
        hi_c, lo_c = hi[c0:c0 + _LATTICE_COLS], lo[c0:c0 + _LATTICE_COLS]
        anchor_tab = _powers(anchors, hi_c, lo_c)
        base_tab = _powers(bases, hi_c, lo_c)
        offset_tab = np.empty((2 * R, hi_c.size), dtype=complex)
        offset_tab[:R] = _powers(offsets, hi_c, lo_c)
        np.multiply(offset_tab[:R], -hi_c, out=offset_tab[R:])
        for j, (i0, N) in enumerate(zip(starts, Ns)):
            nc = N - 1 - c0
            if nc <= 0:
                continue
            rows = anchor_tab[:len(acc[j]), :nc] * base_tab[j, :nc]
            tab = offset_tab[:, :nc]
            for b, row in enumerate(rows):
                acc[j][b] += tab @ row
    m = np.arange(min(_CHUNK, s.size))
    a_m, o_m = anchors[m // R], offsets[m % R]
    for j, i0 in enumerate(starts):
        sc = s[i0:i0 + _CHUNK]
        k = sc.size
        S = acc[j][:, :R].ravel()[:k]
        Sp = acc[j][:, R:].ravel()[:k]
        acc[j] = None
        # on the critical line each subtraction is exact (Sterbenz's lemma)
        eps = ((sc - bases[j]) - a_m[:k]) - o_m[:k]
        yield S + eps * Sp, Sp


def _w_pair(s: np.ndarray, N: int, S: np.ndarray, Sp: np.ndarray):
    """((s-1) zeta(s), d/ds[(s-1) zeta(s)]) for Re(s) >= 0 from the Dirichlet
    sums (S, S') to N; regular at s = 1.

    The Bernoulli tail sum_k B_{2k}/(2k)! P_k N^{1-s-2k}, k <= _EM_TERMS,
    with P_k = prod_{j=0}^{2k-2} (s+j), is N^{-s} Q for the polynomial sum
    Q = sum_k c_k P_k, c_k = B_{2k}/(2k)! N^{1-2k}, and its s-derivative is
    N^{-s} (Q' - ln N Q): the tail takes one exponential, N^{-s}, formed
    with the compensated exponent of the lattice tables (see _powers): near
    a zero its terms cancel against (s-1) S. Q and Q' run by Horner's rule
    in P_{k+1} = P_k m_k, m_k = (s+2k-1)(s+2k).
    """
    c = _B2K_OVER_FACT[:_EM_TERMS] * float(N) ** (-1.0 - 2.0 * np.arange(_EM_TERMS))
    # h_k = c_k + m_k h_{k+1}, so Q = s h_1 and Q' = h_1 + s h_1'; with
    # t = s - 1/2, m_k = t^2 + 4k t + 4k^2 - 1/4 and m_k' = 2t + 4k
    # (in place: fresh chunk-sized temporaries at every step left perfbench's
    # cutoff_ladder at a 3 MB higher peak RSS)
    t = s - 0.5
    t2 = t * t
    h = np.full_like(s, c[-1])
    hp = np.zeros_like(s)
    m = np.empty_like(s)
    mp = np.empty_like(s)
    for k in range(_EM_TERMS - 1, 0, -1):
        np.multiply(t, 4.0 * k, out=m)
        m += t2
        m += 4.0 * k * k - 0.25
        np.multiply(t, 2.0, out=mp)
        mp += 4.0 * k
        mp *= h
        hp *= m
        hp += mp
        h *= m
        h += c[k - 1]
    Q = s * h + 0.5                  # with the 1/2 N^{-s} boundary term
    Qp = h + s * hp
    hi, lo = _ln_parts(np.array([float(N)]))
    NmS = _powers(s, hi, lo)[:, 0]
    lnN = float(hi[0])
    sm1 = s - 1.0
    w = sm1 * S + NmS * (N + sm1 * Q)
    wp = S + sm1 * Sp + NmS * (Q - N * lnN + sm1 * (Qp - lnN * Q))
    return w, wp


def _em_chunks(s: np.ndarray):
    """Yield (idx, s[idx], w, w', step) over chunks of _CHUNK points of the
    flat array s, taken in order of |Im s| so the Euler-Maclaurin N of each
    chunk tracks its local height (|Im s| = |x| on the critical line). step
    is the lattice step of the whole sorted input, or None when it was
    summed point by point."""
    s = s.ravel()
    order = np.argsort(np.abs(s.imag), kind="stable")
    s = s[order]
    step = _lattice_step(s)
    starts = range(0, s.size, _CHUNK)
    Ns = [_em_length(s[i0:i0 + _CHUNK]) for i0 in starts]
    for i0, N, (S, Sp) in zip(starts, Ns, _dirichlet_sums(s, Ns, step)):
        sc = s[i0:i0 + _CHUNK]
        yield (order[i0:i0 + _CHUNK], sc) + _w_pair(sc, N, S, Sp) + (step,)


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
