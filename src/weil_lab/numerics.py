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
least-recently-used cache (_PLANS). Every phase of a transform (the chirp,
the grid offsets, the tile cross terms) is an exact integer times a
double-double coefficient, reduced mod one turn exactly, and the per-node
phase factors are products of short tables: a transform evaluates about
2 sqrt(128 n) + n/128 complex exponentials, not one per node, and its
working memory is its FFT buffer, one block of factors and the tables
(see _chirp_z). Transforms at scattered z, of Gauss-Legendre panels
(fourier_integral) and of grids (fourier_grid_at), are one factored phase
sum (_phase_sum) with an inner dimension of 32. No Grid, and so no axis
sweep or grid transform, has more than POINT_LIMIT nodes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "Grid", "GridFunction", "AliasingGuardError", "GridMismatchError",
    "panel_rule", "fourier_integral", "inverse_fourier_grid",
    "fourier_grid_at", "forward_fourier_grid", "inner_product_grid",
    "grid_norm_sq", "symmetric_grid", "band_exact_grid", "ALIAS_GUARD",
    "POINT_LIMIT",
]

ALIAS_GUARD = math.pi / 4.0
# The most points one call evaluates: the nodes of verify's widest axis
# sweep (|x| <= 38) at zero_catalog.MAX_CUTOFF, i.e. symmetric_grid(5e4,
# 0.999 ALIAS_GUARD / 38).n_points (a test checks the two agree). Grid,
# and so every grid, axis sweep and grid transform, raises above it, as do
# fourier_integral and export ranges, before they allocate.
POINT_LIMIT = 4_843_155
_GAUSS_LEGENDRE: list = []      # 32-point nodes and weights on [-1, 1], on first use
_PANEL_PHASE = 8.0              # radians of phase at most per fourier_integral panel
_BLOCK = 1 << 14                # elements per block of blockwise array work
_ROW = 128                      # entries per row of a phase table
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)   # 2 pi, in two parts
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
        n = self.n_points
        if not (isinstance(n, int) or (math.isfinite(n) and int(n) == n)):
            raise ValueError("Grid requires an integer n_points")
        if n < 2:
            raise ValueError("Grid requires n_points >= 2")
        if n > POINT_LIMIT:
            raise ValueError("Grid of %d points on [%.17g, %.17g] is above the "
                             "limit of %d" % (n, self.x_min, self.x_max, POINT_LIMIT))
        object.__setattr__(self, "n_points", int(n))

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


def symmetric_grid(half_range: float, spacing: float) -> Grid:
    """Grid of the nodes k h, |k| <= m = ceil(R/h), on [-R, R] and less than
    h beyond: h is the spacing cut to 53 - POINT_LIMIT.bit_length() = 30
    significant bits, so it depends on the spacing alone, and every i h
    (i < POINT_LIMIT), every node of Grid.nodes() and Grid.h are exact.
    Both arguments must be finite and the spacing positive (ValueError)."""
    _require_finite(half_range=half_range, spacing=spacing)
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    h = spacing - math.fmod(spacing, math.ulp(spacing) * 2 ** POINT_LIMIT.bit_length())
    m = int(math.ceil(half_range / h))
    return Grid(-m * h, m * h, 2 * m + 1)


def band_exact_grid(x_min: float, x_max: float, band: float,
                    margin: float = 150.0) -> Grid:
    """Grid on [x_min, x_max] whose trapezoid alias images (spaced 2pi/h)
    clear band + margin by 2%. For content limited to [-Z, Z], band = 2Z is
    the Nyquist rate and band = Z + zmax keeps transforms at |z| <= zmax
    alias-free. Every argument must be finite and band + margin positive
    (ValueError)."""
    _require_finite(x_min=x_min, x_max=x_max, band=band, margin=margin)
    if band + margin <= 0:
        raise ValueError("band + margin must be positive")
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
    """Midpoints a + (2p+1)h and half-widths h = (b-a)/(2n), one for all, of
    the n = ceil((b-a)/width) equal panels of [a, b] (at least one)."""
    n_panels = max(1, int(math.ceil((b - a) / width)))
    half = 0.5 * (b - a) / n_panels
    return a + half * np.arange(1.0, 2 * n_panels, 2), np.full(n_panels, half)


def panel_rule(a: float, b: float, width: float):
    """32-point Gauss-Legendre, the package's one rule (its order is fixed,
    see _phase_sum), on each of ceil((b-a)/width) equal panels of
    [a, b] (at least one); returns (nodes, weights) of shape (n_panels, 32)."""
    if not _GAUSS_LEGENDRE:
        _GAUSS_LEGENDRE[:] = np.polynomial.legendre.leggauss(32)
    nodes, weights = _GAUSS_LEGENDRE
    mid, half = _panels(a, b, width)
    return mid[:, None] + half[:, None] * nodes, half[:, None] * weights


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _phase_sum(z: np.ndarray, anchors: np.ndarray, offsets: np.ndarray,
               W: np.ndarray) -> np.ndarray:
    """sum_p e^{iz anchors_p} sum_k W[k, p] e^{iz offsets_k} at each z of a
    1-D complex array, for 32 offsets: per block of z one (z block x 32) @
    (32 x P) product, times the anchor factors and row-summed, in blocks of
    2^15 elements. The inner dimension is always 32, so each sum is ordered
    the same at any BLAS thread count."""
    out = np.empty(len(z), dtype=complex)
    step = max(1, (1 << 15) // len(anchors))
    for i0 in range(0, len(z), step):
        zc = z[i0:i0 + step, None]
        out[i0:i0 + step] = np.sum(
            np.exp(1j * zc * anchors) * (np.exp(1j * zc * offsets) @ W), axis=1)
    return out


def _require_finite(**args) -> None:
    """ValueError naming the first argument with a NaN or infinite element; None is skipped."""
    for name, value in args.items():
        scalar = isinstance(value, (float, complex, np.inexact))
        if value is not None and not (cmath.isfinite(value) if scalar
                                      else np.all(np.isfinite(value))):
            raise ValueError("%s must be finite" % name)


def fourier_integral(f: Callable[[np.ndarray], np.ndarray],
                     support: Tuple[float, float], z):
    """integral_a^b f(x) e^{izx} dx by 32-point Gauss-Legendre panels, at a
    scalar z (returns a complex) or an array of z (an array of its shape).

    One node set serves the call: n panels of width
    min(_PANEL_PHASE/(1+max|z|), (b-a)/16). At most 8 radians of phase per
    panel (the rule's error for e^{iwu}, |u| <= 1, w <= 4, is below 1e-69)
    and the (b-a)/16 cap, for edge-flat integrands such as bumps and their
    derivatives, keep it at ~1e-15 of sum|terms| at any z (a (b-a)/8 cap
    leaves a bump derivative of half-width 0.45 off by ~1e-12 of it). f is
    evaluated once, at no more than POINT_LIMIT nodes: a longer support or
    a larger |z| raises ValueError before anything is allocated.
    Panel p's nodes are c + (2p+1-n)h + h t_k (midpoint c, half-width h,
    Legendre nodes t_k): the phase factors as e^{izc} e^{iz(2p+1-n)h}
    e^{izht_k}, zc corrected by its rounding error, so no phase loses
    digits to a support far from 0: nz (n + 33) exponentials and one
    _phase_sum.
    """
    z_arr = np.asarray(z, dtype=complex)
    zf = z_arr.ravel()
    out = np.zeros(len(zf), dtype=complex)
    a, b = support
    if b > a and len(zf):
        if np.any(np.abs(zf.imag) > 50.0):
            raise ValueError("fourier_integral: |Im z| > 50 growth guard")
        _require_finite(z=zf)
        width = min(_PANEL_PHASE / (1.0 + np.max(np.abs(zf))), (b - a) / 16.0)
        n_nodes = 32.0 * max(1.0, float(np.ceil((b - a) / width)))
        if n_nodes > POINT_LIMIT:
            raise ValueError("fourier_integral needs %.6g nodes (32 per panel), "
                             "above the limit of %d" % (n_nodes, POINT_LIMIT))
        x, w = panel_rule(a, b, width)
        fw = (np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape) * w).T
        n, h, c = len(x), 0.5 * (b - a) / len(x), 0.5 * (a + b)
        residual = _two_prod(zf.real, c)[1] + 1j * _two_prod(zf.imag, c)[1]
        out = _phase_sum(zf, h * np.arange(1.0 - n, n, 2.0), h * _GAUSS_LEGENDRE[0],
                         fw) * (np.exp(1j * zf * c) * (1.0 + 1j * residual))
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


def _split(x):
    """Veltkamp's split x = h + l of a float or an array into halves of 26
    bits, so that products of halves are exact."""
    t = 134217729.0 * x              # 2^27 + 1
    h = t - (t - x)
    return h, x - h


def _two_prod(a, b):
    """(p, e) with p the rounded product and a b = p + e exactly (Dekker),
    of floats or elementwise of arrays."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _per_turn(a: float, b: float, times: float):
    """times * a b / (2 pi) in turns, times a power of two (or its
    negative), as an unevaluated sum (hi, lo) good to about 2^-100
    relative: the exact product, then one correction of the quotient by
    2 pi in two parts. Symmetric in a and b, bit for bit."""
    p, p_lo = _two_prod(a, b)
    hi = p / _TWO_PI[0]
    r, r_lo = _two_prod(hi, _TWO_PI[0])
    lo = ((p - r) - r_lo + p_lo - hi * _TWO_PI[1]) / _TWO_PI[0]
    return times * hi, times * lo


def _phase(tau, q: np.ndarray) -> np.ndarray:
    """exp(-2 pi i tau q) for tau = hi + lo (_per_turn) and an array q of
    exact float64 integers, 0 <= q < 2^53. The phase tau q (in turns) is
    reduced mod 1 exactly: hi is peeled into heads of max(1, 53 - bits(max
    q)) bits, so each head * q is an exact float64 whose fraction is
    exact, and only the rest of hi plus lo (below one turn at max q) is
    rounded; the turns are kept in [-1/2, 1/2] as the heads are summed."""
    q_max = float(np.max(q, initial=0.0))
    bits = max(1, 53 - int(q_max).bit_length())
    turns, rest = np.zeros(q.shape), tau[0]
    while rest != 0.0 and abs(rest) * q_max >= 1.0:
        mant, e = math.frexp(rest)
        head = math.ldexp(round(math.ldexp(mant, bits)), e - bits)
        part = head * q
        turns += part - np.rint(part)
        turns -= np.rint(turns)
        rest -= head
    turns += (rest + tau[1]) * q
    out = np.empty(q.shape, dtype=complex)
    out.real = 0.0
    np.multiply(-2.0 * math.pi, turns - np.rint(turns), out=out.imag)
    return np.exp(out, out=out)


def _tables(tau, n: int):
    """The chirp exp(-2 pi i tau l^2), l < n, for tau = hi + lo, as three
    tables from _phase. With l = bB + r (B = _ROW, r < B) and b = b1 S + b0
    (S a power of two near sqrt(n/B), at most _BLOCK/B, so S B divides
    _BLOCK), l^2 = (bB)^2 + (r^2 + 2BS b1 r) + 2B b0 r, each term an exact
    integer: the chirp is anchor[b] outer[b1, r] inner[b0, r], tables of
    about n/B, sqrt(n/B) B and sqrt(n/B) B entries."""
    rows = -(-n // _ROW)
    span = min(_BLOCK // _ROW, 1 << ((rows - 1).bit_length() + 1) // 2)
    r = np.arange(_ROW, dtype=float)
    groups = np.arange(-(-rows // span), dtype=float)[:, None]
    return (_phase(tau, (_ROW * np.arange(rows, dtype=float)) ** 2),
            _phase(tau, r * r + (2.0 * _ROW * span) * groups * r),
            _phase(tau, (2.0 * _ROW) * np.arange(span, dtype=float)[:, None] * r))


def _with_ramps(tables, n: int, ramps, scale):
    """The tables of scale times the chirp times exp(-2 pi i tau step
    (start + l)), for l < n and each (tau, step, start) of ramps: a linear
    phase is a factor at q = step (start + bB) per row, folded into the
    anchors, times one at q = step r, folded into every row of outer; both
    q are exact integers."""
    anchor, outer, inner = tables
    anchor, outer = anchor[:-(-n // _ROW)] * scale, outer.copy()
    for tau, step, start in ramps:
        anchor *= _phase(tau, step * (start + _ROW * np.arange(len(anchor), dtype=float)))
        outer *= _phase(tau, step * np.arange(_ROW, dtype=float))
    return anchor, outer, inner


def _fill(tables, l0: int, out: np.ndarray) -> None:
    """out[i] = anchor[b] inner[b0, r] outer[b1, r] at l = l0 + i =
    (b1 S + b0) B + r, for l0 a multiple of S B: two products per entry,
    S rows at a time."""
    anchor, outer, inner = tables
    span = len(inner)
    step = span * _ROW
    for i0 in range(0, len(out), step):
        b1 = (l0 + i0) // step
        rows = anchor[b1 * span:(b1 + 1) * span, None]
        if i0 + step <= len(out):
            view = out[i0:i0 + step].reshape(span, _ROW)
            np.multiply(rows, inner, out=view)
            view *= outer[b1]
        else:                            # the last rows: len(out) - i0 kept
            part = rows * inner[:len(rows)]
            part *= outer[b1]
            out[i0:] = part.ravel()[:len(out) - i0]


def _chirp_z(f: GridFunction, sign: float, scale: float, out: Grid,
             tag: str) -> GridFunction:
    """scale * sum_j w_j f_j exp(sign i z_j x_k), w the trapezoid weights, at
    every node x_k of out by Bluestein's chirp-z transform: on uniform grids
    j k dz dx = (j^2 + k^2 - (k - j)^2) dz dx / 2 makes the sum one FFT
    convolution of chirped terms, with no interpolation.

    Tiles. Every transform is summed as tiles of one shape (n_s, m_s): while
    the longer side has more than _TILE_RATIO * max(shorter side, _BLOCK)
    nodes it is halved, the halves sharing one node that only the first
    counts (a 2Z frequency grid is two Z grids end to end). A tile sums in
    local indices; its offset j0 (input halves) or k0 (output halves)
    leaves the cross term e^{i sign h_in h_out j0 k} on the outputs (or
    e^{i sign h_in h_out j k0} on the inputs). The _BLOCK floor keeps tiles
    from shrinking on short sides.

    Phases. With z_j = z_0 + j h_in and x_k = x_0 + k h_out, a term's phase
    is sign (z_0 x_0 + x_0 h_in j + z_0 h_out k + h_in h_out j k): one
    scalar (folded into scale), the two grid offsets, and the chirps. Each
    coefficient is taken in turns as a double-double (_per_turn), and each
    phase is it times an exact integer q, reduced mod 1 exactly (_phase), so
    no phase is rounded worse than a few 2^-53 turns at any grid size. The
    per-node factors are products of short tables: the chirp's three
    (_tables), with the offsets and cross terms folded into its row anchors
    and rows (_with_ramps), formed block by block at two products per node
    (_fill). The ladder's four transforms (96,865 and 193,729 frequency
    nodes against 29,156) evaluate 38,265 complex exponentials with their
    spectrum held and 46,190 with it built, where one per node and per
    chirp entry made 1,017,565.

    Spectra. Each convolution runs at length L = _fast_len(n_s + m_s - 1),
    the smallest 5-smooth length without wrap-around (at most 25% above
    n_s + m_s - 1 where a power of two can be 100% above). The kernel's FFT
    is built in one canonical orientation, the longer side as input (sign
    -1 on a tie), and kept read-only in _PLANS under that orientation's
    (n_s, h_in, m_s, h_out, sign). The reverse orientation's kernel is the
    conjugate reversal, so it multiplies by the conjugate spectrum (two
    in-place conjugations of the product); both orientations chirp their
    inputs and outputs by exp(2 pi i tau l^2), tau = sign h_in h_out /
    (4 pi), and the kernel's chirp is exp(-2 pi i tau l^2) in the canonical
    orientation: the forward and inverse transforms of a grid pair share one
    spectrum, and no transform's bytes depend on the calls before it. The
    least recently used spectra are dropped to hold at most _PLAN_ELEMS
    entries, and a longer one is never kept.

    Working memory: the FFT buffer (length L), the kernel's on a miss (its
    chirp formed in the FFT buffer first), one block of factors (at most
    2 _BLOCK complex), the output when there are several tiles, and the
    tables (about N/B + 3 sqrt(N B) entries per side, N = max(n_s, m_s)),
    plus the held spectra. Each tile is assembled in blocks of _BLOCK
    nodes in place in the FFT buffer, and a one-tile output is read from
    it, so there is no n-length temporary. Products keep their operand
    order (a *= kernel, then the sums and the terms times their factors):
    numpy's vectorized complex multiply is not bitwise commutative, and
    swapping operands moves outputs by ~1e-15."""
    n, m = f.grid.n_points, out.n_points
    n_s, m_s = n, m
    while n_s > _TILE_RATIO * max(m_s, _BLOCK):
        n_s = n_s // 2 + 1
    while m_s > _TILE_RATIO * max(n_s, _BLOCK):
        m_s = m_s // 2 + 1
    tiles = [(j0, k0) for j0 in range(0, n - 1, n_s - 1)
             for k0 in range(0, m - 1, m_s - 1)]
    tau = _per_turn(f.grid.h, out.h, 0.5 * sign)    # the chirp's turns per l^2
    neg = (-tau[0], -tau[1])
    flip = m_s > n_s or (m_s == n_s and sign > 0)
    key = ((m_s, out.h, n_s, f.grid.h, -sign) if flip
           else (n_s, f.grid.h, m_s, out.h, sign))
    n_c, m_c = key[0], key[2]           # the canonical input and output sides
    size = _fast_len(n_s + m_s - 1)
    a = np.empty(size, dtype=complex)
    chirp = _tables(neg, max(n_s, m_s))  # the inputs' and outputs' chirp
    kernel = _PLANS.pop(key, None)       # put back last: LRU order
    if kernel is None:
        # room for a spectrum that will be kept, made before b is allocated
        while size <= _PLAN_ELEMS < size + sum(map(len, _PLANS.values())):
            del _PLANS[next(iter(_PLANS))]
        b = np.empty(size, dtype=complex)
        c = a[:n_c]                      # the canonical chirp
        canonical = chirp if flip else _tables(tau, n_c)
        for l0, l1 in _blocks(n_c):
            _fill(canonical, l0, c[l0:l1])
        b[:m_c] = c[:m_c]
        b[m_c:size - n_c + 1] = 0.0
        b[size - n_c + 1:] = c[n_c - 1:0:-1]
        kernel = np.fft.fft(b, out=b)
        kernel.setflags(write=False)
        del b, c, canonical
    if size <= _PLAN_ELEMS:
        _PLANS[key] = kernel
    tau_in = _per_turn(out.x_min, f.grid.h, -sign)      # the grid offsets
    tau_out = _per_turn(f.grid.x_min, out.h, -sign)
    scale = scale * _phase(_per_turn(out.x_min, f.grid.x_min, -sign),
                           np.ones(1))[0]
    e = np.empty(min(max(n_s, m_s), 2 * _BLOCK), dtype=complex)
    y = np.zeros(m, dtype=complex) if len(tiles) > 1 else None
    for j0, k0 in tiles:
        n_t = min(n_s, n - j0)           # the tile's nodes inside the grid
        # output halves: the cross term on the inputs
        factors = _with_ramps(chirp, n_t, [(tau_in, 1, j0)]
                              + ([(neg, 2 * k0, 0)] if k0 else []), scale)
        for l0, l1 in _blocks(n_t):
            _fill(factors, l0, e[:l1 - l0])
            np.multiply(f.values[j0 + l0:j0 + l1], e[:l1 - l0], out=a[l0:l1])
        if j0:
            a[0] = 0.0                   # the shared node, counted before
        else:
            a[0] *= 0.5                  # the trapezoid weights
        if j0 + n_t == n:
            a[n_t - 1] *= 0.5
        a[n_t:] = 0.0
        a = np.fft.fft(a, out=a)
        if flip:
            np.conjugate(a, out=a)
        a *= kernel
        if flip:
            np.conjugate(a, out=a)
        a = np.fft.ifft(a, out=a)
        lo, hi = (1 if k0 else 0), min(m_s, m - k0)
        # input halves: the cross term on the outputs
        factors = _with_ramps(chirp, hi, [(tau_out, 1, k0)]
                              + ([(neg, 2 * j0, 0)] if j0 else []), 1.0)
        for l0, l1 in _blocks(hi):
            _fill(factors, l0, e[:l1 - l0])
            a[l0:l1] *= e[:l1 - l0]
        if y is None:
            y = a[:m]
        elif m_s < m:                    # output halves, the shared node
            y[k0 + lo:k0 + hi] = a[lo:hi]  # kept from the tile before
        else:
            y += a[:m]
    return GridFunction(out, y, tag)


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

    The node index is j = 32p + r (r < 32), and the phase factors as
    e^{iz(x_0 + 32hp)} e^{iz rh}: the coefficients h w_j psi_j, padded to
    rows of 32, are one _phase_sum, n/32 + 32 exponentials per z."""
    if psi.domain_tag != "time":
        raise GridMismatchError("fourier_grid_at expects a time-domain input")
    z_arr = np.asarray(z, dtype=complex).ravel()
    _require_finite(z=z_arr)
    n, h = psi.grid.n_points, psi.grid.h
    P = -(-n // 32)
    coeff = np.zeros(P * 32, dtype=complex)
    np.multiply(psi.values, _trapezoid_weights(n), out=coeff[:n])
    coeff[:n] *= h
    out = _phase_sum(z_arr, psi.grid.x_min + (32 * h) * np.arange(P),
                     h * np.arange(32), coeff.reshape(P, 32).T)
    return out.reshape(np.shape(z)) if np.ndim(z) else complex(out[0])


def inner_product_grid(f: GridFunction, g: GridFunction) -> complex:
    """Trapezoid approximation of integral f(x) conj(g(x)) dx."""
    if f.grid != g.grid or f.domain_tag != g.domain_tag:
        raise GridMismatchError("inner_product_grid requires identical grids and tags")
    w = _trapezoid_weights(f.grid.n_points)
    return complex(np.sum(w * f.values * np.conj(g.values)) * f.grid.h)


def grid_norm_sq(f: GridFunction) -> float:
    return float(np.real(inner_product_grid(f, f)))

