"""Shared quadrature, grid, and Fourier-transform machinery.

Transform convention (fixed package-wide; several factor-2 identities
depend on the signs):

    forward   f^(z) = integral f(x) e^{+izx} dx
    inverse   f(x)  = (1/2pi) integral F(z) e^{-izx} dz
    Plancherel ||f^||^2 = 2 pi ||f||^2

Frequency truncation windows and output grids are always caller-supplied;
nothing here chooses a cutoff silently.
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

def _phase_matrix_apply(coeff: np.ndarray, z: np.ndarray, sign: float,
                        x0: float, dx: float, n_out: int,
                        chunk: int = 16384) -> np.ndarray:
    """out[k] = sum_j coeff_j * exp(sign * i * z_j * (x0 + k dx)).

    Exact evaluation through a coarse/fine factorization of the output
    index: phase rows are built by geometric recurrences and the heavy
    inner product runs as a BLAS matmul. No FFT involved.
    """
    k2 = max(1, int(math.ceil(math.sqrt(n_out))))
    k1 = int(math.ceil(n_out / k2))
    acc = np.zeros((k1, k2), dtype=complex)
    for j0 in range(0, len(z), chunk):
        zc = z[j0:j0 + chunk]
        u = coeff[j0:j0 + chunk] * np.exp(1j * sign * zc * x0)
        r_coarse = np.exp(1j * sign * zc * (k2 * dx))
        r_fine = np.exp(1j * sign * zc * dx)
        W = np.empty((k1, len(zc)), dtype=complex)
        W[0] = u
        for i in range(1, k1):
            np.multiply(W[i - 1], r_coarse, out=W[i])
        A = np.empty((len(zc), k2), dtype=complex)
        A[:, 0] = 1.0
        for i in range(1, k2):
            np.multiply(A[:, i - 1], r_fine, out=A[:, i])
        acc += W @ A
    return acc.reshape(-1)[:n_out]


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
    coeff = (F.values * _trapezoid_weights(F.grid.n_points)
             * (F.grid.h / (2.0 * math.pi)))
    vals = _phase_matrix_apply(coeff, F.grid.nodes(), -1.0,
                               out.x_min, out.h, out.n_points)
    return GridFunction(out, vals, "time")


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
    coeff = psi.values * _trapezoid_weights(psi.grid.n_points) * psi.grid.h
    vals = _phase_matrix_apply(coeff, psi.grid.nodes(), +1.0,
                               out.x_min, out.h, out.n_points)
    return GridFunction(out, vals, "frequency")


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
