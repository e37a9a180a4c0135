"""Evaluators for Gamma, zeta, the completed xi function, the structure
function E(z) = xi(1/2-iz) + xi'(1/2-iz), its inner-function ratio Theta,
and the omega profile (the time-domain inverse transform of xi(1/2-iz)).

All evaluators are double precision and validated against high-precision
references in the test suite. xi, E_xi, theta_xi, omega_profile,
log_gamma, digamma and zeta_pair take a scalar (and return scalars) or
an array (and return arrays of its shape); critical_line_log_derivative
(which returns one), theta_on_axis and xi_on_critical_line take real arrays.

The vector routes sum zeta by Euler-Maclaurin in chunks of 8192 points of
comparable height, each to its own N, and take the Dirichlet sums
S = sum_{n<N} n^{-s} and S' = -sum ln n n^{-s} by one of two routes,
chosen once per call in _em_chunks, which every evaluator goes through.

Point by point, every input but a declared lattice: each point sums its
own terms, with the rounding of the phase Im s ln n compensated (_powers),
so each term is good to a few ulps. Near a zero of zeta, w = (s-1) zeta
cancels: an error dw moves the zero by ~|dw/w'| and L = w'/w + ... by that
times |L|^2, ~1e-14 |L|^2 here.

On a declared lattice: critical_line_log_derivative(x, step=h) declares
x = k h for consecutive integers k, every product k h exact (checked bit
for bit, and by the bits of h and k). Its chunks are the fixed blocks of
k in [8192 j, 8192 (j + 1)), each made and summed whole in turn, on the
call's one fine grid of M = 16384 points, as a type-1 nonuniform FFT
(_lattice_sums) of
S_k = sum_{n<N} n^{-c} e^{i k h ln n} and S'_k (c the block's first node,
k counted from it): Odlyzko and Schoenhage's multiple evaluation in the
NUFFT form of Barnett, Magland and af Klinteberg, at O(17 N + M log M) per
block where summing each point costs O(K N).
N, fine grid and anchor come from the whole block, the step -i h is as
given and each node is c - i k h exactly, so the sums are taken at the
node itself, L at k h depends on (h, k) alone and debranges.axis_samples
extends and slices its cache byte for byte. The route calls np.bincount
and pocketfft, not BLAS, so the bytes do not depend on the thread count.
Its sums are good to ~1e-14 sum n^{-1/2} in absolute terms (1.7e-16 of it
measured at t = 1e4), which moves a zero by ~1e-14 sum n^{-1/2} / |zeta'|.
Nodes where that estimate of L's error exceeds 1e-2 (the point route's
~1e-14 |L|^2 at |L| = 1e6, 1e-6 from a zero) are summed again point by
point, a handful per sweep, so within ~1e-6 of a zero L keeps the point
route's error.

On both routes the Bernoulli tail factors out N^{-s}, leaving the
polynomial sums Q and Q'.

Conventions used throughout the package:

    xi(s)    = (1/2) s (s-1) pi^(-s/2) Gamma(s/2) zeta(s)
             = P(s) w(s),   P = pi^(-s/2) Gamma(s/2 + 1),  w = (s-1) zeta(s)
    xi'(s)   = P(s) (w(s) (psi(s/2 + 1) - log pi)/2 + w'(s))
    E(z)     = xi(1/2 - iz) + xi'(1/2 - iz)        (' = d/ds)
    F^#(z)   = conj(F(conj(z))),  so  E^#(z) = xi(1/2 - iz) - xi'(1/2 - iz)
    Theta(z) = E^#(z) / E(z) = (xi - xi') / (xi + xi')
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numerics

__all__ = [
    "XiValue", "log_gamma", "digamma", "zeta_pair", "xi", "E_xi",
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
# log Gamma and digamma: one Stirling series on _B2K (DLMF 5.11.1-2)
# ----------------------------------------------------------------------

# B_{2k} / (2k (2k - 1)), k = 8..1: log Gamma's series is 1/w times this
# polynomial in 1/w^2
_LOG_GAMMA_C = np.array([float(b) / ((2 * k + 2) * (2 * k + 1))
                         for k, b in enumerate(_B2K[:8])])[::-1]


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    # log(sin(pi z)), continuous on each closed half-plane: with sigma the
    # sign of Im z (+1 at Im z = +-0), sin(pi z) = sigma e^{sigma i pi/2}
    # e^{-sigma i pi z} (1 - e^{2 pi i sigma z}) / 2 and |e^{2 pi i sigma z}| <= 1
    sigma = np.where(z.imag >= 0, 1.0, -1.0)
    return (sigma * (-1j * math.pi * z + 0.5j * math.pi) - math.log(2.0)
            + np.log1p(-np.exp(2j * math.pi * sigma * z)))


def _gamma_core(z: np.ndarray, log: bool = True, psi: bool = True):
    """(log Gamma(z), psi(z)) at an array z off the poles, each None unless
    asked for, from one pass: reflection for Re(z) < 0, where log Gamma(z)
    = log pi - log sin(pi z) - log Gamma(1 - z); the lift to |z| >= 12 by
    Gamma(z + 1) = z Gamma(z), at most 12 steps at Re(z) >= 0; then the
    Stirling series in |arg z| <= pi/2, whose first omitted terms,
    |B_18|/(306 |z|^17) and |B_18|/(18 |z|^18), are below 1.2e-19."""
    z = z.copy()
    lg = np.zeros_like(z) if log else None
    ps = np.zeros_like(z) if psi else None
    refl = z.real < 0
    if np.any(refl):
        w = z[refl]
        if log:                  # negated with the series' sum at the end
            lg[refl] = _log_sin_pi(w) - _LN_PI
        if psi:
            ps[refl] -= math.pi / np.tan(math.pi * w)
        z[refl] = 1.0 - w
    for _ in range(14):
        low = np.abs(z) < 12.0
        if not np.any(low):
            break
        if log:
            lg[low] -= np.log(z[low])
        if psi:
            ps[low] -= 1.0 / z[low]
        z[low] += 1.0
    w = z
    log_w = np.log(w)
    inv2 = 1.0 / (w * w)
    if log:
        lg += ((w - 0.5) * (log_w - 1.0) + 0.5 * (_LN_2PI - 1.0)
               + np.polyval(_LOG_GAMMA_C, inv2) / w)
        if np.any(refl):
            lg[refl] *= -1.0
    if psi:
        series = np.zeros_like(w)
        p = inv2.copy()
        for k in range(1, 9):
            series += _B2K_FLOAT[k - 1] / (2 * k) * p
            p *= inv2
        ps += log_w - 0.5 / w - series
    return lg, ps


def _gamma_fn(z, log: bool):
    """log Gamma (log=True) or psi at a scalar or an array z."""
    numerics._require_finite(z=z)
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any((z_arr.imag == 0) & (z_arr.real <= 0) & (z_arr.real == np.round(z_arr.real))):
        raise ValueError("%s pole at nonpositive integer" % ("log_gamma" if log else "digamma"))
    out = _gamma_core(z_arr, log, not log)[0 if log else 1]
    return complex(out[0]) if np.ndim(z) == 0 else out


def log_gamma(z):
    """Principal-branch log Gamma(z), by the Stirling series after the
    reflection and lift that digamma takes (_gamma_core).

    Against 30-digit mpmath on the arguments the package takes, s/2
    (Re s in [-8, 9]), s/2 + 1 (Re s >= 1/2) and 1.25 - it/2, 400 points
    each: to |Im s|, |t| <= 120 the error is at most 4.1e-14 (mean 1e-14);
    to 240 at most 1.3e-13 (mean 2.4e-14), ~2 ulps of |log Gamma| ~ 490.
    Poles at z = 0, -1, -2, ...
    """
    return _gamma_fn(z, log=True)


def digamma(z):
    """psi_0(z), the logarithmic derivative of Gamma, by the Stirling series
    after the lift and reflection of _gamma_core (no log Gamma work)."""
    return _gamma_fn(z, log=False)


# ----------------------------------------------------------------------
# zeta by Euler-Maclaurin, with the termwise s-derivative
# ----------------------------------------------------------------------

# Points per Euler-Maclaurin chunk (one N each). A point-by-point chunk
# takes at most 512 columns of ln n, and its complex table with _powers' two
# float temporaries at most 2**20 complex elements (16 MB): 64 columns for
# 8192 points.
_CHUNK = 8192
_BLOCK_COLS = 512
_TABLE_ELEMS = 1 << 20
# The lattice route's kernel exp(beta (sqrt(1 - (2u/w)^2) - 1)) is w = 17
# fine-grid points wide, beta = 2.30 w for 2x oversampling (Barnett et al.
# 2019), and takes the offsets -8..8 from a source's nearest grid point;
# w = 16 takes as many and left 6x larger errors at the ends of a chunk.
# Sources go in blocks of 2048 (17 x 2048 tables, 0.28 MB each).
_SPREAD = 17
_BETA = 2.30 * _SPREAD
_OFFSETS = np.arange(-(_SPREAD // 2), _SPREAD // 2 + 1)
_SOURCE_BLOCK = 2048
# The lattice sums are good to ~_LATTICE_EPS sum |n^{-s}|; a node whose L
# would then be off by more than _L_BUDGET (the point route's 1e-14 |L|^2
# at |L| = 1e6) is summed again point by point.
_LATTICE_EPS = 1e-14
_L_BUDGET = 1e-2


def _em_length(s: np.ndarray) -> int:
    """Euler-Maclaurin truncation index N, set from the largest |s| of the
    batch (so callers should batch points of comparable height)."""
    smax = float(np.max(np.abs(s))) if s.size else 0.0
    return max(32, int(math.ceil(0.5 * smax)) + 16)


def _ln_parts(n: np.ndarray):
    """(hi, lo) with ln n = hi + lo: hi = fl(ln n) and lo its rounding
    error, taken from the long double logarithm (0 where long double is
    double)."""
    hi = np.log(n)
    return hi, (np.log(n.astype(np.longdouble)) - hi).astype(float)


def _powers(a: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The table exp(-a_i ln n_j), ln n = hi + lo (see _ln_parts), with the
    rounding of its phase compensated: p = fl(-Im a hi), the exact error of
    that product (Dekker's) and -Im a lo give the phase to a few ulps, where
    fl(-a ln n) alone is off by ~1e-16 |Im a| ln n, an error that the
    cancelling sums near a zero of zeta magnify. The modulus keeps
    fl(-Re a ln n), off by ~1e-16 Re a ln n relative."""
    x = -a.imag
    xh, xl = numerics._split(x)
    hh, hl = numerics._split(hi)
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


def _point_sums(s: np.ndarray, hi: np.ndarray, lo: np.ndarray):
    """(S, S') = (sum n^{-s}, -sum ln n n^{-s}) at each point of s by itself,
    ln n = hi + lo, in blocks of ln n columns of _powers tables."""
    cols = min(_BLOCK_COLS, _TABLE_ELEMS // (2 * s.size))
    S = np.zeros(s.size, dtype=complex)
    Sp = np.zeros_like(S)
    for c0 in range(0, hi.size, cols):
        hi_c = hi[c0:c0 + cols]
        tab = _powers(s, hi_c, lo[c0:c0 + cols])
        S += tab @ np.ones(hi_c.size, dtype=complex)
        Sp -= tab @ hi_c
    return S, Sp


def _kernel(u: np.ndarray) -> np.ndarray:
    """The spreading kernel at offsets u, in place; it is flat at e^{-beta}
    (~1e-17 of its peak) for |u| >= w/2."""
    u *= u
    u *= -4.0 / _SPREAD ** 2
    u += 1.0
    np.maximum(u, 0.0, out=u)
    np.sqrt(u, out=u)
    u -= 1.0
    u *= _BETA
    return np.exp(u, out=u)


def _deconvolution(K: int, M: int) -> np.ndarray:
    """1 / T(k - K//2) for k < K, T(k') = sum_{|j| <= 8} phi(j) e^{2 pi i j k'/M}
    being the spreading kernel phi summed over the fine grid of M points: real
    and even, it equals phi's Fourier transform at k'/M up to the aliasing
    that the lattice route neglects anyway."""
    row = np.zeros(M)
    row[_OFFSETS % M] = _kernel(_OFFSETS.astype(float))
    return 1.0 / np.fft.rfft(row).real[np.abs(np.arange(K) - K // 2)]


def _lattice_sums(s: np.ndarray, d: complex, hi: np.ndarray, lo: np.ndarray,
                  inv_T: np.ndarray, grid: np.ndarray):
    """(S, S') over n <= hi.size at the K nodes s_k = c + k d of a declared
    block (c = s_0, d = -i h), by a type-1 NUFFT; on an exact lattice (see
    critical_line_log_derivative) those are the nodes themselves.

    n^{-c - k d} = c_n e^{2 pi i k x_n / M} with c_n = n^{-c} (by _powers)
    and x_n = -Im d ln n M / 2pi on a fine grid of M = _fast_len(2K) points.
    x_n is formed in double-double (Dekker's product of ln n = hi + lo with
    the constant, itself a double-double from numerics._per_turn) and split
    into its nearest grid point m_n and an offset |b_n| <= 1/2, so the
    phase k m_n 2pi/M is the FFT's own and only k b_n is rounded. c_n takes
    e^{2 pi i k0 x_n / M}, k0 = K//2 (k0 m_n reduced mod M exactly), so the
    outputs are the centred modes k - k0. The two weight sets c_n and
    -ln n c_n are spread by np.bincount and transformed by one stacked FFT,
    in place on grid, the caller's (2, M) complex array (zeroed here, so one
    serves a sweep); inv_T (_deconvolution) deconvolves. Returns the (2, K)
    array of S and S' as rows.
    """
    K = s.size
    M = grid.shape[1]
    k0 = K // 2
    a_hi, a_lo = numerics._per_turn(-d.imag, float(M), 1.0)
    x, x_lo = numerics._two_prod(hi, a_hi)
    x_lo += hi * a_lo + lo * a_hi
    m = np.rint(x)
    b = (x - m) + x_lo
    m = m.astype(np.int64)
    c_n = _powers(s[:1], hi, lo)[0]
    c_n *= np.exp((2j * math.pi / M) * ((k0 * m) % M + k0 * b))
    grid.fill(0.0)
    for n0 in range(0, hi.size, _SOURCE_BLOCK):
        blk = slice(n0, n0 + _SOURCE_BLOCK)
        ker = _kernel(np.subtract.outer(_OFFSETS, b[blk]))
        idx = (np.add.outer(_OFFSETS, m[blk]) % M).ravel()
        tmp = np.empty_like(ker)
        src = c_n[blk]
        for row, w in zip(grid, (src, -hi[blk] * src)):
            for part, v in ((row.real, w.real), (row.imag, w.imag)):
                part += np.bincount(idx, np.multiply(ker, v, out=tmp).ravel(), M)
    np.fft.fft(grid, out=grid)
    # the modes k0, k0 - 1, ..., k0 - K + 1 (mod M)
    return np.concatenate((grid[:, k0::-1], grid[:, :M - K + k0:-1]), axis=1) * inv_T


def _w_pair(s: np.ndarray, N: int, S: np.ndarray, Sp: np.ndarray):
    """((s-1) zeta(s), d/ds[(s-1) zeta(s)]) for Re(s) >= 0 from the Dirichlet
    sums (S, S') to N; regular at s = 1.

    The Bernoulli tail sum_k B_{2k}/(2k)! P_k N^{1-s-2k}, k <= _EM_TERMS,
    with P_k = prod_{j=0}^{2k-2} (s+j), is N^{-s} Q for the polynomial sum
    Q = sum_k c_k P_k, c_k = B_{2k}/(2k)! N^{1-2k}, and its s-derivative is
    N^{-s} (Q' - ln N Q): the tail takes one exponential, N^{-s}, formed
    with a compensated exponent (see _powers): near a zero its terms cancel
    against (s-1) S. Q and Q' run by Horner's rule in P_{k+1} = P_k m_k,
    m_k = (s+2k-1)(s+2k).
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


def _em_chunks(s: np.ndarray, lattice=None):
    """Yield (idx, s[idx], w, w', (N, redone)) over chunks of _CHUNK points
    of the flat array s, taken in order of |Im s| so the Euler-Maclaurin N of
    each chunk tracks its local height (|Im s| = |x| on the critical line),
    and summed point by point (_point_sums).

    lattice = (k0, h) declares s = 1/2 - i k h for k = k0, k0 + 1, ...: the
    chunks are then the fixed blocks of k of the module docstring, summed by
    _lattice_sums on one fine grid, and s is read for its size alone: each
    block makes its own nodes, and idx is the slice of the given ones it
    holds. The route is chosen here, once per call; each chunk takes N from
    its nodes and ln n to that N. redone counts a chunk's nodes summed again
    point by point: on a lattice, those where the lattice sums' error model,
    |dw| ~ _LATTICE_EPS |s - 1| sum n^{-1/2}, puts the error of
    L = w'/w + ..., |w'| |dw| / |w|^2, above _L_BUDGET (near a zero, where
    w cancels); point by point, none."""
    s = s.ravel()
    n = s.size
    if lattice is None:
        order = np.argsort(np.abs(s.imag), kind="stable")
        s = s[order]
        k0, starts, sums = 0, range(0, n, _CHUNK), _point_sums
    else:
        k0, h = lattice
        starts = range(k0 - k0 % _CHUNK, k0 + n, _CHUNK)     # each block's first k
        grid = np.empty((2, numerics._fast_len(2 * _CHUNK)), dtype=complex)
        inv_T = _deconvolution(_CHUNK, grid.shape[1])

        def sums(sc, hi, lo):
            return _lattice_sums(sc, complex(0.0, -h), hi, lo, inv_T, grid)
    for i0 in starts:
        sc = (s[i0:i0 + _CHUNK] if lattice is None
              else 0.5 - 1j * (np.arange(i0, i0 + _CHUNK) * h))
        N = _em_length(sc)
        hi, lo = _ln_parts(np.arange(1.0, N))
        S, Sp = sums(sc, hi, lo)
        a, b = max(i0, k0), min(i0 + _CHUNK, k0 + n)      # the chunk's given nodes
        sc, S, Sp = sc[a - i0:b - i0], S[a - i0:b - i0], Sp[a - i0:b - i0]
        w, wp = _w_pair(sc, N, S, Sp)
        redo = ()
        if lattice is not None:
            dw = _LATTICE_EPS * np.sum(np.arange(1.0, N) ** -0.5) * np.abs(sc - 1.0)
            redo = np.flatnonzero(dw * np.abs(wp) > _L_BUDGET * np.abs(w) ** 2)
        if len(redo):
            S, Sp = _point_sums(sc[redo], hi, lo)
            w[redo], wp[redo] = _w_pair(sc[redo], N, S, Sp)
        idx = order[a:b] if lattice is None else slice(a - k0, b - k0)
        yield idx, sc, w, wp, (N, len(redo))


def _chi_pair(s: np.ndarray):
    """(chi(s), chi'(s)) for the functional equation zeta(s) = chi(s) zeta(1-s),
    chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s). Finite at the trivial zeros."""
    lg, ps = _gamma_core(1.0 - s)
    pref = np.exp(s * math.log(2.0) + (s - 1.0) * _LN_PI + lg)
    sn = np.sin(math.pi * s / 2.0)
    cs = np.cos(math.pi * s / 2.0)
    return pref * sn, pref * ((_LN_2PI - ps) * sn + (math.pi / 2.0) * cs)


def zeta_pair(s):
    """(zeta(s), zeta'(s)) at a scalar s != 1 (two complex numbers) or an
    array of s (two arrays of its shape).

    Euler-Maclaurin with the termwise derivative for Re(s) >= 0, summed in
    chunks of comparable height like xi; the functional equation (with its
    differentiated form) for Re(s) < 0.
    """
    numerics._require_finite(s=s)
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


# ----------------------------------------------------------------------
# xi and its derivative
# ----------------------------------------------------------------------

def _log_derivative(s: np.ndarray, w: np.ndarray, wp: np.ndarray) -> np.ndarray:
    # Re(-i (xi'/xi)(s)) = Im(-log(pi)/2 + psi(s/2 + 1)/2 + w'/w)
    return 0.5 * digamma(s / 2.0 + 1.0).imag + (wp / w).imag


def _xi_pair(s: np.ndarray, w: np.ndarray, wp: np.ndarray):
    """(xi, xi') at an array of s with Re(s) >= 1/2, given (w, w') there:
    xi = P w and xi' = P (w (psi(s/2+1) - log pi)/2 + w'), with
    P = pi^(-s/2) Gamma(s/2+1). Nothing divides by w, so the zeros of w
    need no other route. log Gamma and psi come from one _gamma_core pass."""
    lg, ps = _gamma_core(s / 2.0 + 1.0)
    P = np.exp(-0.5 * s * _LN_PI + lg)
    return P * w, P * (0.5 * w * (ps - _LN_PI) + wp)


def xi(s) -> XiValue:
    """xi(s) and xi'(s) at a scalar s (an XiValue of two complex numbers)
    or at an array of s (an XiValue of two arrays of its shape).

    xi is computed as pi^(-s/2) Gamma(s/2+1) (s-1) zeta(s) with the factor
    (s-1) zeta(s) evaluated in pole-free form; s with Re(s) < 1/2 is
    reflected through xi(s) = xi(1-s), xi'(s) = -xi'(1-s). With
    w = (s-1) zeta(s) and P = pi^(-s/2) Gamma(s/2+1) the derivative is
        xi'(s) = P (w (psi(s/2+1) - log pi)/2 + w'),
    one formula at every s, zeros of xi included.
    The points are summed point by point in chunks of comparable height
    (see the module docstring); a scalar is a chunk of one point.
    """
    numerics._require_finite(s=s)
    s_arr = np.asarray(s, dtype=complex)
    refl = (s_arr.real < 0.5).ravel()
    u = np.where(refl, 1.0 - s_arr.ravel(), s_arr.ravel())
    val, der = np.empty((2,) + u.shape, dtype=complex)
    for idx, sc, w, wp, _ in _em_chunks(u):
        val[idx], der[idx] = _xi_pair(sc, w, wp)
    der = np.where(refl, -der, der)
    if s_arr.ndim == 0:
        return XiValue(complex(val[0]), complex(der[0]))
    return XiValue(val.reshape(s_arr.shape), der.reshape(s_arr.shape))


def E_xi(z):
    """E(z) = xi(1/2 - iz) + xi'(1/2 - iz) at a scalar z (a complex) or an
    array of z (an array of its shape), through xi.

    Value form: on the real axis it underflows for |z| beyond ~900, where
    |xi| drops below the double-precision range; use the ratio helpers
    (critical_line_log_derivative, theta_on_axis) for larger grids."""
    numerics._require_finite(z=z)
    return _E_pair(z)[0]


def _E_pair(z):
    """(E(z), E^#(z)) = (xi + xi', xi - xi') at s = 1/2 - iz, from one xi
    call, by xi(1 - s) = xi(s) and xi(conj s) = conj xi(s)."""
    v = xi(0.5 - 1j * np.asarray(z, dtype=complex))
    return v.xi + v.xi_prime, v.xi - v.xi_prime


def theta_xi(z):
    """Theta(z) = E^#(z)/E(z) at a scalar z (a complex) or an array of z,
    with E and E^# from one xi call.

    Raises when |E(z)| underflows at any z (a real zero of E would sit at a
    multiple zero of xi)."""
    numerics._require_finite(z=z)
    E, E_sharp = _E_pair(z)
    if np.any(np.abs(E) < 1e-300):
        raise ZeroDivisionError("theta_xi: E vanishes (or underflows) at z = %r" % (z,))
    out = E_sharp / E
    return complex(out) if np.ndim(out) == 0 else out


# ----------------------------------------------------------------------
# vectorized critical-line routes (used for large frequency grids)
# ----------------------------------------------------------------------

def critical_line_log_derivative(x, step=None):
    """d/dz log xi(1/2 - iz) at real z = x, vectorized.

    Returns Re(-i * (xi'/xi)(1/2 - ix)) as float64: xi(1/2 - iz) is real
    on the real axis, so L is real there.  The ratio form stays finite
    through the exponentially small range of xi (no underflow), which makes
    it usable on frequency grids far beyond |x| ~ 900, where xi does.  At
    zeros of xi the value blows up like m/(x - gamma); callers that need the
    limit there use the basis-function limit branch instead.

    Without step, x is summed point by point. step > 0 declares
    x = k * step, as floats, for consecutive integers k = k0, k0 + 1, ...,
    say the half-grid of an axis sweep (numerics.symmetric_grid). Every
    k * step must be exact: ValueError unless x is that array bit for bit
    and the significant bits of step and the bit length of max|k| add up
    to at most 53. The sweep then takes the lattice route on fixed blocks of k
    (see the module docstring), with the nodes near a zero summed again
    point by point, so the value at x_k depends on (step, k) alone: a sweep
    over part of a lattice equals the same nodes of a sweep over more of it,
    byte for byte.

    Each call logs, at DEBUG on the "weil_lab" logger, its point count,
    largest Euler-Maclaurin N, chunks per route, largest fine grid, count of
    nodes summed again and elapsed time.
    """
    t0 = time.perf_counter()
    x = np.asarray(x, dtype=float)
    numerics._require_finite(x=x, step=step)
    lattice = None
    if step is not None and x.size:
        ok = step > 0 and np.isfinite(x.flat[0] / step)
        k0 = round(x.flat[0] / step) if ok else 0
        if not (ok and np.array_equal(x.ravel(), np.arange(k0, k0 + x.size) * step)):
            raise ValueError("x is not k * step for consecutive integers k")
        k_bits = max(abs(k0), abs(k0 + x.size - 1)).bit_length()
        if math.fmod(step, math.ulp(step) * 2 ** k_bits):   # step's low k_bits bits
            raise ValueError("k * step is not exact: step has over %d bits" % (53 - k_bits))
        lattice = (k0, float(step))
    out = np.empty(x.shape)
    chunks = redone = N_max = 0
    for idx, sc, w, wp, (N, r) in _em_chunks(x if lattice else 0.5 - 1j * x, lattice):
        out.flat[idx] = _log_derivative(sc, w, wp)
        chunks += 1
        redone += r
        N_max = max(N_max, N)
    lattice_chunks = chunks if lattice else 0
    fine = numerics._fast_len(2 * _CHUNK) if lattice_chunks else 0
    _log.debug("critical-line sweep: %d points, largest Euler-Maclaurin N %d, "
               "%d NUFFT chunks, %d point by point, largest fine grid %d, "
               "%d nodes re-summed exactly, %.3f s", x.size, N_max,
               lattice_chunks, chunks - lattice_chunks, fine, redone,
               time.perf_counter() - t0)
    return out


def theta_on_axis(x, log_deriv=None):
    """Theta(x) for real x via the unimodular ratio form, or from a given
    log_deriv L (x is then not read, and may be None).

    With L(x) = d/dz log xi(1/2-iz) (exactly real on the axis since
    xi(1/2-iz) is real there),
        E = q (1 + i L),  E^# = q (1 - i L),  q real,
    so Theta = (1 - i L)/(1 + i L): with L real (as
    critical_line_log_derivative returns it), exactly unimodular and immune
    to the underflow of xi at large |x|.

    Error model near a zero: L comes from O(1) sums that cancel there, so
    an error dw in w moves the zero by ~|dw / w'| and L by that times |L|^2.
    Point by point (every x here) that is ~1e-14 |L|^2. A log_deriv taken
    from a declared lattice (see the module docstring) moves the zero by
    ~1e-14 sum n^{-1/2} / |zeta'|, except at nodes whose L would be off by
    more than 1e-2, which are summed point by point. Theta takes
    2|dL|/(1 + L^2), i.e. twice the move of the zero.
    """
    numerics._require_finite(log_deriv=log_deriv)
    L = critical_line_log_derivative(x) if log_deriv is None else log_deriv
    return (1.0 - 1j * L) / (1.0 + 1j * L)


def xi_on_critical_line(t):
    """xi(1/2 + it) for real t, vectorized; real-valued up to roundoff. The
    critical-line case of xi."""
    numerics._require_finite(t=t)
    return xi(0.5 + 1j * np.asarray(t, dtype=float)).xi


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

    At a scalar x (a float) or an array of x (an array of its shape). omega
    is even (its transform is even by xi(s) = xi(1 - s)), so the series is
    summed at |x|, in one row of 16 terms at every point, so omega(-x) and
    omega(x) are the same bytes and neither depends on the other points.
    16 terms are all a double holds: at e^{2|x|} >= 1 the factor
    exp(-pi n^2 e^{2|x|}) of every term n >= 16 is below e^{-256 pi} <
    1e-349, so it underflows to 0. Series validated for |x| <= 5, which
    every element must satisfy (NaN does not).
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(x_arr) <= 5.0):
        raise ValueError("omega_profile validated for |x| <= 5")
    xf = np.abs(x_arr.ravel())
    n = np.arange(1, 17)
    out = np.empty(xf.shape)
    rows = _TABLE_ELEMS // n.size                               # tables <= 8 MB
    for i0 in range(0, xf.size, rows):
        x = xf[i0:i0 + rows, None]
        a = np.exp(2.0 * x)
        out[i0:i0 + rows] = np.sum((4.0 * math.pi ** 2 * n ** 4 * np.exp(4.5 * x)
                                    - 6.0 * math.pi * n ** 2 * np.exp(2.5 * x))
                                   * np.exp(-math.pi * n * n * a), axis=1)
    out = out.reshape(x_arr.shape)
    return float(out) if out.ndim == 0 else out
