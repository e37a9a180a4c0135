"""Shared quadrature, grid, and Fourier-transform machinery.

Transform convention (fixed package-wide; several factor-2 identities
depend on the signs):

    forward   f^(z) = integral f(x) e^{+izx} dx
    inverse   f(x)  = (1/2pi) integral F(z) e^{-izx} dz
    Plancherel ||f^||^2 = 2 pi ||f||^2

Frequency truncation windows and output grids are always caller-supplied;
nothing here chooses a cutoff silently. Uniform-to-uniform grid transforms
are chirp-z FFT convolutions: the trapezoid sums themselves, no interpolation.
A lopsided transform is summed in tiles of one shape, and each kernel
spectrum is computed once per tile shape, in one orientation: the forward
and inverse transforms of a grid pair, and the halves of a grid twice as
long at the same spacing, share it. The spectra are held in a bounded
least-recently-used cache (_PLANS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "Grid", "GridFunction", "AliasingGuardError", "GridMismatchError",
    "panel_rule", "fourier_integral", "inverse_fourier_grid",
    "fourier_grid_at", "forward_fourier_grid", "inner_product_grid",
    "grid_norm_sq", "symmetric_grid", "band_exact_grid", "ALIAS_GUARD",
]

ALIAS_GUARD = math.pi / 4.0
_GL_CACHE: dict = {}
_BLOCK = 1 << 14                # elements per block of blockwise array work
_TILE_RATIO = 4                 # a chirp-z side longer than this many times
                                # max(other side, _BLOCK) is summed in halves
_PLAN_ELEMS = 1 << 20           # complex entries of held kernel spectra (16 MiB)
_PLANS: dict = {}               # canonical (n, h_in, m, h_out, sign), n >= m
                                # -> kernel FFT, LRU first


class AliasingGuardError(ValueError):
    """Grid spacing too coarse for the requested output range."""


class GridMismatchError(ValueError):
    """Operands live on different grids or domains."""


@dataclass(frozen=True)
class Grid:
    """Uniform real grid with n_points nodes on [x_min, x_max]."""
    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("Grid requires finite endpoints")
        if not (self.x_min < self.x_max):
            raise ValueError("Grid requires x_min < x_max")
        if self.n_points < 2:
            raise ValueError("Grid requires n_points >= 2")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


def symmetric_grid(half_range: float, spacing: float) -> Grid:
    """Symmetric grid on [-R, R] containing 0, spacing <= requested."""
    m = int(math.ceil(half_range / spacing))
    return Grid(-m * (half_range / m), m * (half_range / m), 2 * m + 1)


def band_exact_grid(x_min: float, x_max: float, band: float,
                    margin: float = 150.0) -> Grid:
    """Grid on [x_min, x_max] whose trapezoid alias images (spaced 2pi/h)
    clear band + margin by 2%. For content limited to [-Z, Z], band = 2Z is
    the Nyquist rate and band = Z + zmax keeps transforms at |z| <= zmax
    alias-free."""
    tau = 2.0 * math.pi / (band + margin) * 0.98
    n = int(math.ceil((x_max - x_min) / tau)) + 1
    return Grid(x_min, x_max, n)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on a uniform grid, tagged time- or frequency-domain."""
    grid: Grid
    values: np.ndarray
    domain_tag: str   # 'time' | 'frequency'

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n_points,):
            raise ValueError("values must have one entry per grid node")
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridFunction requires finite entries")
        if self.domain_tag not in ("time", "frequency"):
            raise ValueError("domain_tag must be 'time' or 'frequency'")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _panels(a: float, b: float, width: float):
    """Midpoints and half-widths of the ceil((b-a)/width) equal panels of
    [a, b] (at least one)."""
    n_panels = max(1, int(math.ceil((b - a) / width)))
    edges = np.linspace(a, b, n_panels + 1)
    return 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])


def panel_rule(a: float, b: float, width: float, order: int):
    """Gauss-Legendre rule of the given order on each of ceil((b-a)/width)
    equal panels of [a, b] (at least one); returns (nodes, weights), each of
    shape (n_panels, order)."""
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    nodes, weights = _GL_CACHE[order]
    mid, half = _panels(a, b, width)
    return mid[:, None] + half[:, None] * nodes, half[:, None] * weights


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def fourier_integral(f: Callable[[np.ndarray], np.ndarray],
                     support: Tuple[float, float], z):
    """integral_a^b f(x) e^{izx} dx by 32-point Gauss-Legendre panels, at a
    scalar z (returns a complex) or an array of z (an array of its shape).

    One node set serves the call: panels of width min(1/(1+max|z|), (b-a)/16).
    Width <= 1/(1+|z|) keeps the phase advance per panel below one radian,
    so the fixed-order rule stays at spectral accuracy at the largest |z|
    (finer panels only help the smaller ones); the (b-a)/16 cap keeps
    edge-flat integrands (bumps and their derivatives) at spectral accuracy,
    ~1e-16 of sum|terms| at any z (a (b-a)/8 cap leaves a bump derivative of
    half-width 0.45 off by ~1e-12 of it). f is evaluated once.
    On panel p (midpoint m_p, common half-width h, Legendre nodes t_k) the
    phase factors as e^{iz m_p} e^{iz h t_k}: nz (n_p + 32) exponentials,
    and the sum is rowsum(A o (B @ FW^T)) in row blocks of a few MB.
    """
    z_arr = np.asarray(z, dtype=complex)
    zf = z_arr.ravel()
    out = np.zeros(len(zf), dtype=complex)
    a, b = support
    if b > a and len(zf):
        if np.any(np.abs(zf.imag) > 50.0):
            raise ValueError("fourier_integral: |Im z| > 50 growth guard")
        width = min(1.0 / (1.0 + np.max(np.abs(zf), initial=0.0)), (b - a) / 16.0)
        x, w = panel_rule(a, b, width, 32)
        mid = _panels(a, b, width)[0]
        fw = (np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape) * w).T
        ht = 0.5 * (b - a) / len(mid) * _GL_CACHE[32][0]
        step = max(1, (1 << 17) // len(mid))
        for i0 in range(0, len(zf), step):
            zc = zf[i0:i0 + step, None]
            out[i0:i0 + step] = np.sum(
                np.exp(1j * zc * mid) * (np.exp(1j * zc * ht) @ fw), axis=1)
    out = out.reshape(z_arr.shape)
    return complex(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# grid transforms
# ----------------------------------------------------------------------

def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: an FFT length pocketfft runs in
    radix-2/3/4/5 passes only."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _blocks(n: int):
    """(start, stop) of consecutive blocks of _BLOCK over range(n), the last
    taking the rest: a one-element block would take numpy's scalar loop,
    which rounds complex products and quotients differently from its array
    loops."""
    starts = list(range(0, n - _BLOCK, _BLOCK)) or [0]
    return zip(starts, starts[1:] + [n])


def _conjugate_chirp(tau: float, out: np.ndarray, j0: int = 0) -> None:
    """exp(-2 pi i tau q_l) into out[l], l < len(out), with q_l = l^2 (the
    chirp) or, given j0 > 0, q_l = 2 j0 l (the cross term of a chirp-z tile
    that starts at node j0). The phase tau q_l (in turns) is reduced mod 1
    exactly: q_l is an exact float64 integer below 2^53 and tau is peeled
    into heads of 53 - bits(max q) bits. Built in blocks of 2^14, so the
    temporaries stay a few hundred kB at any length."""
    length = len(out)
    q_max = float(2 * j0 * (length - 1) if j0 else (length - 1) ** 2)
    bits = 53 - int(q_max).bit_length()
    heads, rest = [], tau
    while rest != 0.0 and abs(rest) * q_max >= 1.0:
        mant, e = math.frexp(rest)
        heads.append(math.ldexp(round(math.ldexp(mant, bits)), e - bits))
        rest -= heads[-1]
    for l0 in range(0, length, _BLOCK):
        q = np.arange(l0, min(length, l0 + _BLOCK), dtype=float)
        q = q * (2.0 * j0) if j0 else q ** 2
        turns = np.zeros(len(q))
        for head in heads:
            turns += head * q - np.rint(head * q)
        turns += rest * q
        block = out[l0:l0 + len(q)]
        block.real = 0.0
        np.multiply(-2.0 * math.pi, turns - np.rint(turns), out=block.imag)
        np.exp(block, out=block)


def _chirp_z(f: GridFunction, sign: float, scale: float, out: Grid,
             tag: str) -> GridFunction:
    """scale * sum_j w_j f_j exp(sign i z_j x_k), w the trapezoid weights, at
    every node x_k of out by Bluestein's chirp-z transform: on uniform grids
    j k dz dx = (j^2 + k^2 - (k - j)^2) dz dx / 2 makes the sum one FFT
    convolution of chirped terms (_conjugate_chirp), with no interpolation.

    Tiles. Every transform is summed as tiles of one shape (n_s, m_s): while
    the longer side has more than _TILE_RATIO * max(shorter side, _BLOCK)
    nodes it is halved, the halves sharing one node that only the first
    counts (a 2Z frequency grid is two Z grids end to end). A tile sums in
    local indices; its offset j0 (input halves) or k0 (output halves)
    leaves the cross term e^{i sign h_in h_out j0 k} on the outputs (or
    e^{i sign h_in h_out j k0} on the inputs), formed by the chirp's exact
    mod-1 reduction of q = 2 j0 k, so no phase is rounded worse than the
    chirp's. The _BLOCK floor keeps tiles from shrinking on short sides.

    Spectra. Each convolution runs at length L = _fast_len(n_s + m_s - 1),
    the smallest 5-smooth length without wrap-around (at most 25% above
    n_s + m_s - 1 where a power of two can be 100% above). The kernel's FFT
    is built in one canonical orientation, the longer side as input (sign
    -1 on a tie), and kept read-only in _PLANS under that orientation's
    (n_s, h_in, m_s, h_out, sign). The reverse orientation's kernel is the
    conjugate reversal, so it multiplies by the conjugate spectrum (two
    in-place conjugations of the product) and chirps by the canonical chirp
    unconjugated: the forward and inverse transforms of a grid pair share
    one spectrum, and no transform's bytes depend on the calls before it.
    The least recently used spectra are dropped to hold at most
    _PLAN_ELEMS entries, and a longer one is never kept.

    Working memory: two complex arrays of length L, the chirp (max(n_s,
    m_s) complex; with one tile it is built in the FFT buffer, copied into
    the kernel's on a miss and overwritten by the chirped input, leaving an
    m_s-entry copy), the output and the input nodes (n reals), plus the
    held spectra. Each tile is assembled in blocks of _BLOCK nodes, and the
    cross terms are built in the FFT buffer's unused tail, so there is no
    n-length temporary. Products keep their operand order and temporaries
    (a *= kernel, ifft * conj(chirp)): numpy's vectorized complex multiply
    is not bitwise commutative, and swapping operands or the temporary
    written moves outputs by ~1e-15."""
    n, m = f.grid.n_points, out.n_points
    n_s, m_s = n, m
    while n_s > _TILE_RATIO * max(m_s, _BLOCK):
        n_s = n_s // 2 + 1
    while m_s > _TILE_RATIO * max(n_s, _BLOCK):
        m_s = m_s // 2 + 1
    tiles = [(j0, k0) for j0 in range(0, n - 1, n_s - 1)
             for k0 in range(0, m - 1, m_s - 1)]
    tau = sign * f.grid.h * out.h / (4.0 * math.pi)
    flip = m_s > n_s or (m_s == n_s and sign > 0)
    key = ((m_s, out.h, n_s, f.grid.h, -sign) if flip
           else (n_s, f.grid.h, m_s, out.h, sign))
    n_c, m_c = key[0], key[2]           # the canonical input and output sides
    conj = np.positive if flip else np.conjugate
    size = _fast_len(n_s + m_s - 1)
    a = np.empty(size, dtype=complex)
    c = a[:n_c] if len(tiles) == 1 else np.empty(n_c, dtype=complex)
    _conjugate_chirp(-tau if flip else tau, c)
    kernel = _PLANS.pop(key, None)       # put back last: LRU order
    if kernel is None:
        # room for a spectrum that will be kept, made before b is allocated
        while size <= _PLAN_ELEMS < size + sum(map(len, _PLANS.values())):
            del _PLANS[next(iter(_PLANS))]
        b = np.empty(size, dtype=complex)
        b[:m_c] = c[:m_c]
        b[m_c:size - n_c + 1] = 0.0
        b[size - n_c + 1:] = c[n_c - 1:0:-1]
        kernel = np.fft.fft(b, out=b)
        kernel.setflags(write=False)
        del b
    if size <= _PLAN_ELEMS:
        _PLANS[key] = kernel
    c_m = c[:m_s].copy() if len(tiles) == 1 else c[:m_s]
    y = np.empty(m, dtype=complex) if m_s < m else None
    x = f.grid.nodes()
    for i, (j0, k0) in enumerate(tiles):
        n_t = min(n_s, n - j0)           # the tile's nodes inside the grid
        if k0:                           # output halves: the cross term
            _conjugate_chirp(-tau, a[n:2 * n], k0)
        for l0, l1 in _blocks(n_t):
            j = slice(j0 + l0, j0 + l1)
            t = f.values[j].copy()
            if j0 + l0 == 0:
                t[0] *= 0.5          # the trapezoid weights, without an array
            if j0 + l1 == n:
                t[-1] *= 0.5
            t *= scale
            e = np.empty(len(t), dtype=complex)
            e.real = 0.0
            np.multiply(sign * out.x_min, x[j], out=e.imag)
            np.exp(e, out=e)
            t *= e
            if k0:
                t *= a[n + l0:n + l1]    # on the inputs
            t *= conj(c[l0:l1], out=e)
            a[l0:l1] = t
        if j0:
            a[0] = 0.0                   # the shared node, counted before
        a[n_t:] = 0.0
        if i == len(tiles) - 1:
            del x, t, e
        a = np.fft.fft(a, out=a)
        if flip:
            np.conjugate(a, out=a)
        a *= kernel
        if flip:
            np.conjugate(a, out=a)
        lo, hi = (1 if k0 else 0), min(m_s, m - k0)
        part = np.fft.ifft(a, out=a)[lo:hi] * conj(c_m[lo:hi])
        if j0:                           # input halves: the cross term
            _conjugate_chirp(-tau, a[m:2 * m], j0)
            part *= a[m:2 * m]           # on the outputs
            y += part
        elif m_s == m:
            y = part
        else:                            # output halves, the shared node
            y[k0 + lo:k0 + hi] = part    # kept from the tile before
    return GridFunction(out, y * np.exp(1j * sign * f.grid.x_min * out.h
                                        * np.arange(m)), tag)


def inverse_fourier_grid(F: GridFunction, out: Grid) -> GridFunction:
    """(1/2pi) integral_{-Z}^{Z} F(z) e^{-izx} dz per output node (trapezoid).

    Guard: the frequency spacing must satisfy h_freq * max|x| <= pi/4,
    otherwise the trapezoid sum aliases and the call is rejected.
    """
    if F.domain_tag != "frequency":
        raise GridMismatchError("inverse_fourier_grid expects a frequency-domain input")
    x_absmax = max(abs(out.x_min), abs(out.x_max))
    if F.grid.h * x_absmax > ALIAS_GUARD * (1 + 1e-12):
        raise AliasingGuardError(
            "h_freq * max|x| = %.3g exceeds pi/4" % (F.grid.h * x_absmax))
    return _chirp_z(F, -1.0, F.grid.h / (2.0 * math.pi), out, "time")


def forward_fourier_grid(psi: GridFunction, out: Grid,
                         band_limit: float | None = None) -> GridFunction:
    """Trapezoid forward transform of a time-domain grid onto a frequency grid.

    By default the symmetric guard h_time * max|z| <= pi/4 applies. A caller
    that knows the input's spectral content decays beyond |z| = band_limit
    may pass that bound instead; the guard then only requires the alias
    images (spaced 2pi/h_time) to clear max|z| + band_limit.
    """
    if psi.domain_tag != "time":
        raise GridMismatchError("forward_fourier_grid expects a time-domain input")
    z_absmax = max(abs(out.x_min), abs(out.x_max))
    if band_limit is None:
        if psi.grid.h * z_absmax > ALIAS_GUARD * (1 + 1e-12):
            raise AliasingGuardError(
                "h_time * max|z| = %.3g exceeds pi/4" % (psi.grid.h * z_absmax))
    else:
        if 2.0 * math.pi / psi.grid.h < z_absmax + band_limit:
            raise AliasingGuardError(
                "alias images at spacing %.3g overlap the declared band"
                % (2.0 * math.pi / psi.grid.h))
    return _chirp_z(psi, 1.0, psi.grid.h, out, "frequency")


def fourier_grid_at(psi: GridFunction, z) -> np.ndarray:
    """Trapezoid transform sum_j w_j h psi_j e^{i z x_j} of a time-domain
    grid at a scalar z (returns a complex) or an array of z (an array).

    With B = ceil(sqrt(n)) the node index is j = pB + r, and the phase
    factors as e^{iz(x_0 + pBh)} e^{iz rh}: per z two exponential rows of
    about sqrt(n) entries and one matrix-vector product against the
    coefficients reshaped to (P, B), one gemv per z (so each sum is
    ordered the same at any BLAS thread count). Working memory is one
    padded copy of the n coefficients plus rows for a block of 64 z."""
    if psi.domain_tag != "time":
        raise GridMismatchError("fourier_grid_at expects a time-domain input")
    z_arr = np.asarray(z, dtype=complex).ravel()
    n, h = psi.grid.n_points, psi.grid.h
    B = int(math.ceil(math.sqrt(n)))
    P = -(-n // B)
    coeff = np.zeros(P * B, dtype=complex)
    np.multiply(psi.values, _trapezoid_weights(n), out=coeff[:n])
    coeff[:n] *= h
    coeff = coeff.reshape(P, B)
    x_row = psi.grid.x_min + (B * h) * np.arange(P)
    r_row = h * np.arange(B)
    out = np.empty(len(z_arr), dtype=complex)
    for i0 in range(0, len(z_arr), 64):
        zc = z_arr[i0:i0 + 64, None]
        rows_p, rows_r = np.exp(1j * zc * x_row), np.exp(1j * zc * r_row)
        for k in range(len(zc)):
            out[i0 + k] = np.dot(rows_p[k], coeff @ rows_r[k])
    return out.reshape(np.shape(z)) if np.ndim(z) else complex(out[0])


def inner_product_grid(f: GridFunction, g: GridFunction) -> complex:
    """Trapezoid approximation of integral f(x) conj(g(x)) dx."""
    if f.grid != g.grid or f.domain_tag != g.domain_tag:
        raise GridMismatchError("inner_product_grid requires identical grids and tags")
    w = _trapezoid_weights(f.grid.n_points)
    return complex(np.sum(w * f.values * np.conj(g.values)) * f.grid.h)


def grid_norm_sq(f: GridFunction) -> float:
    return float(np.real(inner_product_grid(f, f)))

