"""Shared quadrature, grid, and Fourier-transform machinery.

Transform convention (fixed package-wide; several factor-2 identities
depend on the signs):

    forward   f^(z) = integral f(x) e^{+izx} dx
    inverse   f(x)  = (1/2pi) integral F(z) e^{-izx} dz
    Plancherel ||f^||^2 = 2 pi ||f||^2

Frequency truncation windows and output grids are always caller-supplied;
nothing here chooses a cutoff silently. Uniform-to-uniform grid transforms
are chirp-z FFT convolutions: the trapezoid sums themselves, no interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "Grid", "GridFunction", "AliasingGuardError", "GridMismatchError",
    "panel_rule", "fourier_at", "fourier_integral", "inverse_fourier_grid",
    "fourier_grid_at", "forward_fourier_grid", "inner_product_grid",
    "grid_norm_sq", "symmetric_grid", "band_exact_grid", "write_grid_csv",
    "ALIAS_GUARD",
]

ALIAS_GUARD = math.pi / 4.0
_GL_CACHE: dict = {}


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


def panel_rule(a: float, b: float, width: float, order: int):
    """Gauss-Legendre rule of the given order on each of ceil((b-a)/width)
    equal panels of [a, b] (at least one); returns (nodes, weights), each of
    shape (n_panels, order)."""
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    nodes, weights = _GL_CACHE[order]
    n_panels = max(1, int(math.ceil((b - a) / width)))
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * nodes, half[:, None] * weights


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def fourier_integral(f: Callable[[np.ndarray], np.ndarray],
                     support: Tuple[float, float],
                     z: complex) -> complex:
    """integral_a^b f(x) e^{izx} dx by 32-point Gauss-Legendre panels.

    Panel width <= 1/(1+|z|) keeps the phase advance per panel below one
    radian, so the fixed-order rule stays at spectral accuracy for any z.
    """
    a, b = support
    if not (b > a):
        return 0.0j
    z = complex(z)
    if abs(z.imag) > 50.0:
        raise ValueError("fourier_integral: |Im z| > 50 growth guard")
    # the (b-a)/8 cap keeps edge-flat integrands (bumps) at spectral accuracy
    width = min(1.0 / (1.0 + abs(z)), (b - a) / 8.0)
    x, w = (p.ravel() for p in panel_rule(a, b, width, 32))
    vals = np.asarray(f(x), dtype=complex)
    return complex(np.sum(w * vals * np.exp(1j * z * x)))


def fourier_at(f, z: complex) -> complex:
    """Fourier transform of a compactly supported function object at z.

    Accepts anything exposing support() -> (a, b) and vectorized __call__.
    """
    return fourier_integral(f, f.support(), z)


# ----------------------------------------------------------------------
# grid transforms
# ----------------------------------------------------------------------

def _chirp_z(f: GridFunction, sign: float, scale: float, out: Grid,
             tag: str) -> GridFunction:
    """scale * sum_j w_j f_j exp(sign i z_j x_k), w the trapezoid weights, at
    every node x_k of out by Bluestein's chirp-z transform: on uniform grids
    j k dz dx = (j^2 + k^2 - (k - j)^2) dz dx / 2 makes the sum one FFT
    convolution of chirped terms, with no interpolation. The chirp phase
    tau l^2 (in turns) is reduced mod 1 exactly: l^2 is an exact float64
    integer and tau is peeled into heads of 53 - bits(l^2) bits."""
    n, m = f.grid.n_points, out.n_points
    q = np.arange(max(n, m), dtype=float) ** 2
    bits = 53 - int(q[-1]).bit_length()
    rest, turns = sign * f.grid.h * out.h / (4.0 * math.pi), np.zeros(len(q))
    while rest != 0.0 and abs(rest) * q[-1] >= 1.0:
        mant, e = math.frexp(rest)
        head = math.ldexp(round(math.ldexp(mant, bits)), e - bits)
        rest -= head
        turns += head * q - np.rint(head * q)
    turns += rest * q
    c = np.exp(-2j * math.pi * (turns - np.rint(turns)))     # conjugate chirp
    size = 1 << (n + m - 2).bit_length()      # >= n + m - 1: no wrap-around
    a = np.zeros(size, dtype=complex)
    a[:n] = (f.values * _trapezoid_weights(n) * scale
             * np.exp(1j * sign * out.x_min * f.grid.nodes()) * np.conj(c[:n]))
    b = np.concatenate([c[:m], np.zeros(size - n - m + 1), c[n - 1:0:-1]])
    a = np.fft.fft(a, out=a)
    a *= np.fft.fft(b, out=b)
    del b
    y = np.fft.ifft(a, out=a)[:m] * np.conj(c[:m])
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
    """Trapezoid transform of a time-domain grid at arbitrary z (vectorized)."""
    if psi.domain_tag != "time":
        raise GridMismatchError("fourier_grid_at expects a time-domain input")
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    coeff = psi.values * _trapezoid_weights(psi.grid.n_points) * psi.grid.h
    x = psi.grid.nodes()
    out = np.empty(len(z_arr), dtype=complex)
    for i0 in range(0, len(z_arr), 64):
        zc = z_arr[i0:i0 + 64]
        out[i0:i0 + 64] = np.exp(1j * np.multiply.outer(zc, x)) @ coeff
    return out if np.ndim(z) else complex(out[0])


def inner_product_grid(f: GridFunction, g: GridFunction) -> complex:
    """Trapezoid approximation of integral f(x) conj(g(x)) dx."""
    if f.grid != g.grid or f.domain_tag != g.domain_tag:
        raise GridMismatchError("inner_product_grid requires identical grids and tags")
    w = _trapezoid_weights(f.grid.n_points)
    return complex(np.sum(w * f.values * np.conj(g.values)) * f.grid.h)


def grid_norm_sq(f: GridFunction) -> float:
    return float(np.real(inner_product_grid(f, f)))


def write_grid_csv(f: GridFunction, path) -> None:
    """CSV export: header x,re,im; one row per node; >= 15 significant digits."""
    x = f.grid.nodes()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,re,im\n")
        for xi_, v in zip(x, f.values):
            fh.write("%.17g,%.17g,%.17g\n" % (xi_, v.real, v.imag))
