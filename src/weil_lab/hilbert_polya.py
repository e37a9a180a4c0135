"""Self-adjoint extensions of multiplication by z on the model space, their
eigenfunctions S_theta(z)/(z - gamma), spectral coordinates at the catalog
zeros, and the splitting psi = psi0 + psi1 with psi1 in the span of the
time-domain basis and psi0 transform-null on the catalog.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import debranges
from . import numerics
from . import weil_form as wf
from . import zero_catalog as zc
from . import special_fn as sf

__all__ = [
    "ExtensionParams", "EigenCheck", "LWDecomposition", "s_theta",
    "m_theta_apply", "eigen_residual", "spectral_coeffs", "decompose_LW",
]


def s_theta(theta: float, z: complex) -> complex:
    """S_theta(z) = (i/2) (e^{i theta} E(z) - e^{-i theta} E^#(z)).

    Real-valued for real z and any theta; at theta = pi/2 it equals
    -xi(1/2 - iz)."""
    z = complex(z)
    E = sf.E_xi(z)
    E_sharp = np.conj(sf.E_xi(np.conj(z)))
    return 0.5j * (cmath.exp(1j * theta) * E - cmath.exp(-1j * theta) * E_sharp)


@dataclass(frozen=True)
class ExtensionParams:
    """theta in [0, pi) selects the self-adjoint extension; w0 is the free
    base point of its domain parametrization (S_theta(w0) != 0 is verified
    at construction)."""
    theta: float
    w0: complex = 1j

    def __post_init__(self):
        if not (0.0 <= self.theta < math.pi):
            raise ValueError("theta must lie in [0, pi)")
        scale = abs(sf.E_xi(self.w0)) + abs(sf.E_xi(np.conj(self.w0))) + 1e-300
        if abs(s_theta(self.theta, self.w0)) < 1e-10 * scale:
            raise ValueError("S_theta(w0) = 0 (to working precision); "
                             "choose a different w0")

    def s(self, z: complex) -> complex:
        return s_theta(self.theta, z)


def m_theta_apply(p: ExtensionParams, F: Callable[[complex], complex],
                  z: complex) -> Tuple[complex, complex]:
    """(G(z), M_theta G(z)) for the domain element generated by F:

        G(z)         = (S(w0) F(z) - S(z) F(w0)) / (z - w0)
        M_theta G(z) = z G(z) + F(w0) S(z)

    F must be evaluable at arbitrary complex points (w0 is off the real
    axis); at z = w0 the removable singularity is taken by a symmetric
    difference."""
    return _m_theta(p, F, complex(z), p.s(p.w0), complex(F(p.w0)))


def _m_theta(p: ExtensionParams, F: Callable[[complex], complex], z: complex,
             s_w0: complex, f_w0: complex) -> Tuple[complex, complex]:
    """m_theta_apply with S(w0) and F(w0) supplied; S(z) is evaluated once."""
    s_z = p.s(z)
    if abs(z - p.w0) < 1e-9:
        h = 1e-6
        num = lambda u: s_w0 * complex(F(u)) - p.s(u) * f_w0
        G = (num(z + h) - num(z - h)) / (2.0 * h)
    else:
        G = (s_w0 * complex(F(z)) - s_z * f_w0) / (z - p.w0)
    MG = z * G + f_w0 * s_z
    return G, MG


@dataclass(frozen=True)
class EigenCheck:
    gamma: float
    eigenvalue: float
    residual: float
    g_scale: float
    samples: Tuple[complex, ...]

    def to_json_dict(self) -> dict:
        return {"gamma": self.gamma,
                "eigenvalue": self.eigenvalue,
                "residual": self.residual,
                "g_scale": self.g_scale,
                "samples": [[z.real, z.imag] for z in self.samples]}


def eigen_residual(p: ExtensionParams, gamma: float, samples: Sequence[complex],
                   eigenvalue: Optional[float] = None) -> EigenCheck:
    """max over samples of |M_theta G(z) - lambda G(z)| for the candidate
    eigenfunction G(z) = S(z)/(z - gamma), built from the generator

        F(z) = (S(z)/S(w0)) (gamma - w0)/(z - gamma).

    With lambda = gamma the identity M_theta G = gamma G is algebraically
    exact, so the residual measures pure roundoff; lambda = gamma + d
    instead reports |d| max|G|, which is how a non-eigenvalue is detected.
    """
    lam = gamma if eigenvalue is None else float(eigenvalue)
    s_w0 = p.s(p.w0)

    def F(z: complex) -> complex:
        z = complex(z)
        if abs(z - gamma) < 1e-12:
            raise ZeroDivisionError("sample coincides with gamma")
        return (p.s(z) / s_w0) * (gamma - p.w0) / (z - gamma)

    f_w0 = complex(F(p.w0))
    worst = 0.0
    scale = 0.0
    for z in samples:
        z = complex(z)
        if abs(z - gamma) < 1e-9 or abs(z - p.w0) < 1e-9:
            raise ValueError("sample too close to gamma or w0")
        G, MG = _m_theta(p, F, z, s_w0, f_w0)
        worst = max(worst, abs(MG - lam * G))
        scale = max(scale, abs(G))
    return EigenCheck(float(gamma), lam, worst, scale,
                      tuple(complex(z) for z in samples))


def spectral_coeffs(psi, zs: zc.ZeroSet) -> wf.SpectralCoefficients:
    """S_gamma = psihat(gamma) over the symmetric catalog iteration."""
    pairs = zc.iterate_symmetric(zs)
    g = np.array([p[0] for p in pairs], dtype=complex)
    vals = wf.transform_at(psi, g) if len(pairs) else np.array([], dtype=complex)
    return wf.SpectralCoefficients(tuple(complex(v) for v in np.atleast_1d(vals)))


@dataclass
class LWDecomposition:
    """psi = psi0 + psi1 with psi1 = sum_gamma i S_gamma sqrt(m pi) psi_gamma."""
    psi0: numerics.GridFunction
    psi1: numerics.GridFunction
    coeffs: wf.SpectralCoefficients          # S_psi at the catalog zeros
    expansion: Tuple[complex, ...]           # i S sqrt(m pi) per entry
    bank: debranges.BasisBank

    def residual_coeffs(self) -> wf.SpectralCoefficients:
        """Transforms of psi0 at the catalog zeros, evaluated through the
        expansion's defining frequency-side basis values (the grid route
        carries an aliasing floor well above these residuals)."""
        gam = np.array(self.bank.gammas)
        L = sf.critical_line_log_derivative(gam)
        out = np.array(self.coeffs.entries, dtype=complex)
        for c, B in zip(self.expansion, self.bank.basis):
            out -= c * B.values_on_axis(gam, L)
        return wf.SpectralCoefficients(tuple(complex(v) for v in out))


def decompose_LW(psi, zs: zc.ZeroSet, Z: float = 500.0,
                 out: Optional[numerics.Grid] = None,
                 bank: Optional[debranges.BasisBank] = None) -> LWDecomposition:
    """Split psi into its catalog span component and the transform-null rest.

    psi may be a TestFunction (sampled on the output grid) or a GridFunction
    living on the bank's grid. Building the basis bank dominates the cost;
    pass one in to amortize it across calls."""
    if bank is None:
        if out is None:
            out = numerics.Grid(-2.0, 18.0, 4001)
        bank = debranges.build_basis_bank(zs, Z, out)
    grid = bank.out

    if isinstance(psi, wf.TestFunction):
        psi_grid = numerics.GridFunction(grid, psi(grid.nodes()), "time")
    elif isinstance(psi, numerics.GridFunction):
        if psi.grid != grid:
            raise numerics.GridMismatchError("psi must live on the bank's grid")
        psi_grid = psi
    else:
        raise TypeError("expected TestFunction or GridFunction")

    S = spectral_coeffs(psi, zs)
    expansion = tuple(1j * s * math.sqrt(m * math.pi)
                      for s, m in zip(S.entries, bank.mults))
    vals1 = np.zeros(grid.n_points, dtype=complex)
    for c, pg in zip(expansion, bank.psis):
        vals1 += c * pg.values
    psi1 = numerics.GridFunction(grid, vals1, "time")
    psi0 = numerics.GridFunction(grid, psi_grid.values - vals1, "time")
    return LWDecomposition(psi0, psi1, S, expansion, bank)
