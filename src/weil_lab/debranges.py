"""Model-space machinery for E(z) = xi(1/2-iz) + xi'(1/2-iz): the orthonormal
basis F_gamma, its time-domain partners psi_gamma, the conjugate-linear
isometry K = F^-1 M_Theta J F, and the restriction isometry onto the
catalog zeros.

Large frequency grids never evaluate E directly (it underflows beyond
|z| ~ 900); everything on the real axis runs through the logarithmic
derivative L(x) = d/dz log xi(1/2-iz) (exactly real there), in terms of
which

    Theta(x)   = (1 - i L)/(1 + i L),
    F_gamma(x) = sqrt(m/pi) / ((1 + i L)(x - gamma)),

both finite and stable arbitrarily far out.
"""

from __future__ import annotations

import logging
import math
import time
from typing import Dict, Optional

import numpy as np

from . import numerics
from . import special_fn as sf
from . import zero_catalog as zc

__all__ = [
    "basis_table", "BasisFunction", "theta_prime_at_zero", "psi_gamma",
    "psi_combination", "psi_gamma_tail_bound", "K_apply",
    "restriction_isometry_check", "axis_samples",
]

_log = logging.getLogger("weil_lab")

# L(k h) per grid spacing h, |k| up to the largest half-grid swept there
_AXIS_CACHE: Dict[float, np.ndarray] = {}


def axis_samples(Z: float, spacing: float):
    """(frequency Grid on [-Z, Z], real log-derivative samples), cached.

    One sweep serves every basis function (F_gamma differs only in the
    1/(x - gamma) factor). The cache holds one read-only array per grid
    spacing h: L(k h) for |k| up to the largest half-grid swept at that h.
    symmetric_grid's h depends on the spacing alone, so every cutoff at one
    spacing shares one entry: a smaller Z is a central view, with no sweep,
    and a larger Z sweeps only its new half-grid nodes; the declared step
    (see special_fn) makes every sample equal a cold sweep's byte for byte.
    The grid is an exact lattice, so L is taken at grid.nodes() themselves.
    L is real, and L(-x) = -L(x): float64 samples.
    """
    grid = numerics.symmetric_grid(Z, spacing)
    m = grid.n_points // 2
    L = _AXIS_CACHE.get(grid.h)
    held = 0 if L is None else L.size // 2 + 1       # half-grid nodes held
    if held < m + 1:
        t0 = time.perf_counter()
        new = sf.critical_line_log_derivative(np.arange(held, m + 1) * grid.h, step=grid.h)
        full = np.empty(2 * m + 1)
        np.negative(new[::-1], out=full[:m - held + 1])
        if held:
            full[m - held + 1:m + held] = L
        full[m + held:] = new
        full.setflags(write=False)
        _AXIS_CACHE[grid.h] = L = full
        _log.debug("axis sweep at step %r: %d -> %d half-grid nodes, %d swept, "
                   "%.3f s", grid.h, held, m + 1, m + 1 - held,
                   time.perf_counter() - t0)
    c = L.size // 2
    return grid, L[c - m:c + m + 1]


def clear_axis_cache() -> None:
    _AXIS_CACHE.clear()


def theta_prime_at_zero(gammas) -> np.ndarray:
    """Theta'(gamma) at each gamma by Richardson-extrapolated central
    differences (h = 1e-4, 5e-5) from one theta_on_axis sweep over all gamma
    +- h, +- h/2, N set by the largest. -2i/m at a zero of multiplicity m."""
    h = 1e-4
    th = sf.theta_on_axis(np.add.outer([-h, h, -h / 2, h / 2], gammas))
    d_h = (th[1] - th[0]) / (2 * h)
    d_h2 = (th[3] - th[2]) / h
    return (4.0 * d_h2 - d_h) / 3.0


def basis_table(gammas, mults, x, log_deriv=None) -> np.ndarray:
    """F_gamma(x) at real x for each (gamma, m): one row per pair, with the
    real L evaluated once for all rows (or taken from log_deriv, float64).

    Within 1e-6 of its own gamma a row takes the limit
    sqrt(m/pi) Theta'(gamma)/2 (= -i/sqrt(m pi) at a multiplicity-m zero),
    from one theta_prime_at_zero sweep over the rows that have such a node.
    Within 1e-6 of another zero gamma' (|L| >~ 1e6) L carries the error
    ~1e-14 |L|^2 of theta_on_axis, i.e. gamma' moved by ~1e-14 (the axis
    sweep, on a declared lattice, sums such nodes again point by point, see
    special_fn). Then 1/(1 + iL) is off by ~1e-14, so a value there (~0) is
    off by ~1e-14 sqrt(m/pi)/|x - gamma|, far below the 1e-6 off-diagonal
    bound.
    """
    g = np.asarray(gammas, dtype=float)
    m = np.asarray(mults)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    # L as a (1, n) row: a one-row table (every psi_gamma) then forms its
    # products in place, as a 1-D evaluation would, with no broadcast copy
    L = np.reshape(sf.critical_line_log_derivative(x_arr)
                   if log_deriv is None else log_deriv, (1, -1))
    norm = np.sqrt(m / math.pi)[:, None]
    vals = np.empty((len(g), x_arr.size), dtype=complex)
    limits = []                          # (rows, columns) of the limit nodes
    # in column blocks, so the temporaries stay a few hundred kB
    for c0, c1 in numerics._blocks(x_arr.size):
        dx = x_arr[c0:c1] - g[:, None]
        near = np.abs(dx) < 1e-6
        dx_safe = np.where(near, 1.0, dx)
        # (1 + Theta)/2 = 1/(1 + iL) with L real; the quotient survives
        # L -> inf at the other catalog zeros, where 1 + Theta cancels.
        np.divide(norm, (1.0 + 1j * L[:, c0:c1]) * dx_safe, out=vals[:, c0:c1])
        rows, cols = np.nonzero(near)
        limits.append((rows, c0 + cols))
    rows, cols = (np.concatenate(a) for a in zip(*limits))
    if rows.size:
        have = np.flatnonzero(np.bincount(rows))
        vals[rows, cols] = (norm[have, 0] * theta_prime_at_zero(g[have])
                            / 2.0)[np.searchsorted(have, rows)]
    return vals


class BasisFunction:
    """F_gamma for a catalog ordinate gamma (either sign; |gamma| must equal
    one exactly, so NaN, +-inf or a moved ordinate is a ValueError): its
    (gamma, m) and its on-axis row of basis_table. Off the axis,
    F_gamma(z) = sqrt(m/pi) (1 + Theta(z)) / (2 (z - gamma)) with Theta from
    special_fn.theta_xi."""

    def __init__(self, gamma: float, zs: zc.ZeroSet):
        if abs(gamma) not in zs.ordinates:
            raise ValueError("gamma = %r is not in the catalog" % (gamma,))
        self.gamma = float(gamma)
        self.m_gamma = zs.multiplicities[zs.ordinates.index(abs(gamma))]

    def values_on_axis(self, x, log_deriv=None) -> np.ndarray:
        """Values at real x: the one-row basis_table."""
        return basis_table([self.gamma], [self.m_gamma], x, log_deriv)[0]


def psi_gamma_tail_bound(gamma: float, Z: float) -> float:
    """L2 mass of F_gamma outside [-Z, Z]: bounded by 2/(pi (Z - gamma))."""
    numerics._require_finite(gamma=gamma, Z=Z)
    if Z <= abs(gamma):
        raise ValueError("Z must exceed |gamma|")
    return 2.0 / (math.pi * (Z - abs(gamma)))


def _default_freq_spacing(x_absmax: float) -> float:
    return min(0.999 * numerics.ALIAS_GUARD / max(x_absmax, 1e-6), 0.1)


def psi_gamma(gamma: float, zs: zc.ZeroSet, Z: float, out: numerics.Grid,
              freq_spacing: Optional[float] = None) -> numerics.GridFunction:
    """Time-domain basis partner: inverse transform of F_gamma restricted to
    [-Z, Z], sampled on the caller's grid; the one-term psi_combination.

    Two truncations limit the result. Cutting F_gamma (which decays only
    like 1/|x - gamma|) to [-Z, Z] loses L2 mass bounded by
    psi_gamma_tail_bound(gamma, Z); that bound covers nothing else. The
    output window drops the mass of psi_gamma outside it, and on short
    windows that defect dominates: on [-4, 18] at Z = 500 the entry at
    gamma = 94.65 has 2 pi ||psi||^2 - 1 at 1.6 times the frequency bound,
    while on [-6, 38] the ratio stays near 0.25.

    The paper's selector witness, whose transform is 1 at gamma and 0 at
    every other catalog zero, is i sqrt(m pi) psi_gamma:
    psi_combination([gamma], [m], [1j * sqrt(m pi)], Z, out).
    """
    F = BasisFunction(gamma, zs)
    return psi_combination([F.gamma], [F.m_gamma], [1.0], Z, out, freq_spacing)


def psi_combination(gammas, mults, coeffs, Z: float, out: numerics.Grid,
                    freq_spacing: Optional[float] = None
                    ) -> numerics.GridFunction:
    """sum_k coeffs[k] psi_gamma_k on the caller's grid, by one inverse
    transform: the trapezoid transform is linear, so the frequency samples
    coeffs[k] F_gamma_k are summed first, one basis_table row at a time, in
    order and in place on the cached axis samples (each psi_gamma_k keeps
    its psi_gamma_tail_bound). The sum is made in the first row, the node
    array is freed before the GridFunction copy and the sum before the
    transform: a copy of the first row, or either array held, raises the
    peak RSS of a large psi_gamma. No terms give zero, with no sweep."""
    if Z < 500.0:
        raise ValueError("psi_gamma requires Z >= 500")
    if not len(gammas):
        return numerics.GridFunction(out, np.zeros(out.n_points), "time")
    x_absmax = max(abs(out.x_min), abs(out.x_max))
    h = freq_spacing if freq_spacing is not None else _default_freq_spacing(x_absmax)
    fgrid, L = axis_samples(Z, h)
    x = fgrid.nodes()
    total = basis_table(gammas[:1], mults[:1], x, L)[0]
    total *= coeffs[0]
    for g, m, c in zip(gammas[1:], mults[1:], coeffs[1:]):
        total += basis_table([g], [m], x, L)[0] * c
    del x
    samples = numerics.GridFunction(fgrid, total, "frequency")
    del total
    return numerics.inverse_fourier_grid(samples, out)


def K_apply(psi: numerics.GridFunction, Z: float,
            freq_spacing: Optional[float] = None,
            band_limit: Optional[float] = None) -> numerics.GridFunction:
    """K psi = F^-1 [ Theta * (F psi)^# ] on the input's grid.

    On the real axis (F psi)^# is the plain conjugate, so K is realized as
    forward transform, conjugation, multiplication by the cached Theta
    samples on [-Z, Z], inverse transform. Conjugate-linear and isometric up
    to the transform truncation errors.
    """
    x_absmax = max(abs(psi.grid.x_min), abs(psi.grid.x_max))
    h = freq_spacing if freq_spacing is not None else _default_freq_spacing(x_absmax)
    fgrid, L = axis_samples(Z, h)
    spectrum = numerics.forward_fourier_grid(psi, fgrid, band_limit=band_limit)
    theta = sf.theta_on_axis(None, log_deriv=L)
    k_spec = numerics.GridFunction(fgrid, theta * np.conj(spectrum.values),
                                   "frequency")
    return numerics.inverse_fourier_grid(k_spec, psi.grid)


def restriction_isometry_check(gamma: float, zs: zc.ZeroSet,
                               Z: float = 1500.0):
    """(lhs, rhs) for the restriction isometry at F_gamma:

    lhs = grid ||F_gamma||^2 over [-Z, Z] at spacing 0.05; rhs = sum over
    catalog zeros of |F_gamma(gamma')|^2 * pi * m' (the point mass
    2 pi/|Theta'| equals pi m at a multiplicity-m zero). Both are exactly 1.
    """
    F = BasisFunction(gamma, zs)
    fgrid, L = axis_samples(Z, 0.05)
    vals = F.values_on_axis(fgrid.nodes(), L)
    Fg = numerics.GridFunction(fgrid, vals, "frequency")
    lhs = numerics.grid_norm_sq(Fg)
    rhs = 0.0
    for term in np.abs(F.values_on_axis(zs.gammas)) ** 2 * math.pi * zs.mults:
        rhs += term
    return lhs, float(rhs)
