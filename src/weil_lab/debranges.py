"""Model-space machinery for E(z) = xi(1/2-iz) + xi'(1/2-iz): the orthonormal
basis F_gamma, its time-domain partners psi_gamma, the conjugate-linear
isometry K = F^-1 M_Theta J F, membership diagnostics for the chain
V(t) = L^2(t,inf) ^ K L^2(t,inf), and the restriction isometry onto the
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

import functools
import logging
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import numerics
from . import special_fn as sf
from . import zero_catalog as zc

__all__ = [
    "BasisFunction", "MembershipReport", "BasisBank", "theta_prime_at_zero",
    "psi_gamma", "psi_gamma_tail_bound", "K_apply", "v_membership",
    "debranges_norm", "restriction_isometry_check", "axis_samples",
    "build_basis_bank",
]

_log = logging.getLogger("weil_lab")

# cached critical-line log-derivative arrays, keyed by the frequency grid
_AXIS_CACHE: Dict[Tuple[float, int], Tuple[numerics.Grid, np.ndarray]] = {}


def axis_samples(Z: float, spacing: float):
    """(frequency Grid on [-Z, Z], log-derivative samples), cached.

    The cache is shared by every basis function: F_gamma differs only in the
    1/(x - gamma) factor, so one sweep of the expensive evaluator serves the
    whole catalog at a given resolution.
    """
    grid = numerics.symmetric_grid(Z, spacing)
    key = (round(grid.x_max, 9), grid.n_points)
    if key not in _AXIS_CACHE:
        t0 = time.perf_counter()
        x = grid.nodes()
        half = x[x >= 0.0]
        L_half = sf.critical_line_log_derivative(half)
        # L(-x) = -conj(L(x)): xi(1/2-iz) is real on the axis
        L = np.concatenate([-np.conj(L_half[:0:-1]), L_half])
        _AXIS_CACHE[key] = (grid, L)
        _log.debug("axis sweep Z=%g: %d nodes, %d on the half-grid, "
                   "step %.6g, %.3f s", Z, grid.n_points, half.size, grid.h,
                   time.perf_counter() - t0)
    return _AXIS_CACHE[key]


def clear_axis_cache() -> None:
    _AXIS_CACHE.clear()


def _lookup_zero(gamma: float, zs: zc.ZeroSet) -> Tuple[float, int]:
    arr = np.array(zs.ordinates)
    idx = int(np.argmin(np.abs(arr - abs(gamma)))) if len(arr) else -1
    if idx < 0 or abs(arr[idx] - abs(gamma)) > 1e-8:
        raise ValueError("gamma = %r is not in the catalog" % (gamma,))
    g = float(math.copysign(arr[idx], gamma))
    return g, zs.multiplicities[idx]


@functools.lru_cache(maxsize=4096)
def theta_prime_at_zero(gamma: float) -> complex:
    """Theta'(gamma) by Richardson-extrapolated central differences
    (h = 1e-4 and 5e-5). Equals -2i/m at a zero of multiplicity m.

    A pure function of gamma, computed once per gamma: every basis function
    and check at the same ordinate shares its one 4-point sweep."""
    h = 1e-4
    x = np.array([gamma - h, gamma + h, gamma - h / 2, gamma + h / 2])
    th = sf.theta_on_axis(x)
    d_h = (th[1] - th[0]) / (2 * h)
    d_h2 = (th[3] - th[2]) / h
    return complex((4.0 * d_h2 - d_h) / 3.0)


class BasisFunction:
    """F_gamma(z) = sqrt(m/pi) (1 + Theta(z)) / (2 (z - gamma)).

    Within 1e-6 of gamma the removable singularity is replaced by the limit
    sqrt(m/pi) Theta'(gamma)/2 (= -i/sqrt(m pi) at a multiplicity-m zero).
    """

    def __init__(self, gamma: float, zs: zc.ZeroSet):
        self.gamma, self.m_gamma = _lookup_zero(gamma, zs)
        self.normalization = math.sqrt(self.m_gamma / math.pi)

    def limit_value(self) -> complex:
        return self.normalization * theta_prime_at_zero(self.gamma) / 2.0

    def values_on_axis(self, x, log_deriv=None) -> np.ndarray:
        """Vectorized values at real x via the stable log-derivative form.

        Within 1e-6 of another zero gamma' (|L| >~ 1e6) L carries the error
        ~1e-14 |L|^2 of theta_on_axis, i.e. gamma' moved by ~1e-14. Then
        1/(1 + iL) is off by ~1e-14, so a value there (~0) is off by
        ~1e-14 sqrt(m/pi)/|x - gamma|, far below the 1e-6 off-diagonal bound.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        L = (sf.critical_line_log_derivative(x_arr)
             if log_deriv is None else log_deriv)
        dx = x_arr - self.gamma
        near = np.abs(dx) < 1e-6
        dx_safe = np.where(near, 1.0, dx)
        # (1 + Theta)/2 = 1/(1 + iL) with L taken exactly real (it is real on
        # the axis); the quotient survives L -> inf at the other catalog
        # zeros, where 1 + Theta cancels.
        vals = self.normalization / ((1.0 + 1j * np.real(L)) * dx_safe)
        if np.any(near):
            vals = np.where(near, self.limit_value(), vals)
        return vals

    def __call__(self, z):
        z = complex(z)
        if abs(z - self.gamma) < 1e-6:
            return self.limit_value()
        if z.imag == 0.0:
            return complex(self.values_on_axis(np.array([z.real]))[0])
        theta = sf.theta_xi(z)
        return self.normalization * (1.0 + theta) / (2.0 * (z - self.gamma))


@dataclass(frozen=True)
class MembershipReport:
    """Continuous diagnostics for psi in V(t); never a boolean verdict."""
    negative_mass: float      # L2 mass of psi below the cut
    k_residual: float         # L2 norm of (K psi) below the cut


def psi_gamma_tail_bound(gamma: float, Z: float) -> float:
    """L2 mass of F_gamma outside [-Z, Z]: bounded by 2/(pi (Z - gamma))."""
    if Z <= abs(gamma):
        raise ValueError("Z must exceed |gamma|")
    return 2.0 / (math.pi * (Z - abs(gamma)))


def _default_freq_spacing(x_absmax: float) -> float:
    return min(0.999 * numerics.ALIAS_GUARD / max(x_absmax, 1e-6), 0.1)


def psi_gamma(gamma: float, zs: zc.ZeroSet, Z: float, out: numerics.Grid,
              freq_spacing: Optional[float] = None) -> numerics.GridFunction:
    """Time-domain basis partner: inverse transform of F_gamma restricted to
    [-Z, Z], sampled on the caller's grid.

    Two truncations limit the result. Cutting F_gamma (which decays only
    like 1/|x - gamma|) to [-Z, Z] loses L2 mass bounded by
    psi_gamma_tail_bound(gamma, Z); that bound covers nothing else. The
    output window drops the mass of psi_gamma outside it, and on short
    windows that defect dominates: on [-4, 18] at Z = 500 the entry at
    gamma = 94.65 has 2 pi ||psi||^2 - 1 at 1.6 times the frequency bound,
    while on [-6, 38] the ratio stays near 0.25.
    """
    if Z < 500.0:
        raise ValueError("psi_gamma requires Z >= 500")
    x_absmax = max(abs(out.x_min), abs(out.x_max))
    h = freq_spacing if freq_spacing is not None else _default_freq_spacing(x_absmax)
    fgrid, L = axis_samples(Z, h)
    F = BasisFunction(gamma, zs)
    samples = numerics.GridFunction(fgrid, F.values_on_axis(fgrid.nodes(), L),
                                    "frequency")
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
    theta = sf.theta_on_axis(fgrid.nodes(), log_deriv=L)
    k_spec = numerics.GridFunction(fgrid, theta * np.conj(spectrum.values),
                                   "frequency")
    return numerics.inverse_fourier_grid(k_spec, psi.grid)


def _mass_below(f: numerics.GridFunction, cut: float) -> float:
    x = f.grid.nodes()
    sel = x <= cut
    if not np.any(sel):
        return 0.0
    seg = np.abs(f.values[sel]) ** 2
    if np.count_nonzero(sel) < 2:
        return 0.0
    return float(np.trapezoid(seg, x[sel]))


def v_membership(psi: numerics.GridFunction, t: float,
                 Z: float = 300.0,
                 band_limit: Optional[float] = None) -> MembershipReport:
    """Diagnostics for psi in V(t) = L^2(t,inf) ^ K L^2(t,inf).

    Reports the L2 mass of psi below t and the L2 norm of K psi below t (the
    distance from K psi to its best candidate supported on [t, inf)). Exact
    membership is undecidable from samples, so only the masses are reported.
    """
    if psi.grid.x_min > t - 1.0:
        raise ValueError("grid must cover [t - 1, ...] for the below-cut mass")
    k_psi = K_apply(psi, Z, band_limit=band_limit)
    return MembershipReport(
        negative_mass=_mass_below(psi, t),
        k_residual=math.sqrt(max(_mass_below(k_psi, t), 0.0)),
    )


def debranges_norm(F: numerics.GridFunction) -> float:
    """Norm ||F/E||_{L2} over the sampled frequency window.

    Valid while E is representable on the window (|z| up to ~900); a node at
    an (underflowed or genuinely real) zero of E raises, and the caller
    should re-grid.
    """
    if F.domain_tag != "frequency":
        raise numerics.GridMismatchError("debranges_norm expects frequency samples")
    E = sf.E_xi(F.grid.nodes())
    if np.any(np.abs(E) < 1e-300):
        raise ZeroDivisionError("E vanishes/underflows on a grid node; re-grid")
    ratio = numerics.GridFunction(F.grid, F.values / E, "frequency")
    return math.sqrt(max(numerics.grid_norm_sq(ratio), 0.0))


def restriction_isometry_check(gamma: float, zs: zc.ZeroSet,
                               Z: float = 1500.0):
    """(lhs, rhs) for the restriction isometry at F_gamma:

    lhs = grid ||F_gamma||^2 over [-Z, Z] at spacing 0.05; rhs = sum over
    catalog zeros of |F_gamma(gamma')|^2 * pi * m' (the point mass
    2 pi/|Theta'| equals pi m at a multiplicity-m zero). Both are exactly 1.
    """
    fgrid, L = axis_samples(Z, 0.05)
    F = BasisFunction(gamma, zs)
    vals = F.values_on_axis(fgrid.nodes(), L)
    Fg = numerics.GridFunction(fgrid, vals, "frequency")
    lhs = numerics.grid_norm_sq(Fg)
    gp, mp_ = (np.array(v) for v in zip(*zc.iterate_symmetric(zs)))
    rhs = 0.0
    for term in np.abs(F.values_on_axis(gp)) ** 2 * math.pi * mp_:
        rhs += term
    return lhs, float(rhs)


@dataclass
class BasisBank:
    """psi_gamma grids for the full symmetric catalog on a shared output grid."""
    out: numerics.Grid
    gammas: List[float]
    mults: List[int]
    basis: List[BasisFunction]
    psis: List[numerics.GridFunction]


def build_basis_bank(zs: zc.ZeroSet, Z: float,
                     out: numerics.Grid) -> BasisBank:
    """Inverse-transform every F_gamma (both signs of gamma) onto one grid.

    All entries share one axis sweep; the per-entry cost is a single
    inverse transform."""
    gammas: List[float] = []
    mults: List[int] = []
    basis: List[BasisFunction] = []
    psis: List[numerics.GridFunction] = []
    for g, m in zc.iterate_symmetric(zs):
        gammas.append(g)
        mults.append(m)
        basis.append(BasisFunction(g, zs))
        psis.append(psi_gamma(g, zs, Z, out))
    return BasisBank(out, gammas, mults, basis, psis)
