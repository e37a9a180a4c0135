"""Self-adjoint extensions of multiplication by z on the model space, their
eigenfunctions S_theta(z)/(z - gamma), spectral coordinates at the catalog
zeros, and the splitting psi = psi0 + psi1 with psi1 in the span of the
time-domain basis: its algebra on the catalog (residual_coeffs), which the
checks read, and its grids (decompose_LW).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import debranges
from . import numerics
from . import weil_form as wf
from . import zero_catalog as zc
from . import special_fn as sf

__all__ = [
    "ExtensionParams", "EigenCheck", "LWDecomposition", "s_theta",
    "eigen_residual", "spectral_coeffs", "residual_coeffs", "decompose_LW",
]


def s_theta(theta: float, z):
    """S_theta(z) = (i/2) (e^{i theta} E(z) - e^{-i theta} E^#(z)) at a
    scalar z (a complex) or an array of z (an array of its shape). With
    E = xi + xi' and E^# = xi - xi' at s = 1/2 - iz this is

        S_theta = -sin(theta) xi + i cos(theta) xi',

    taken from one xi call. Real-valued for real z and any theta;
    S_{pi/2} = -xi and S_0 = i xi'."""
    numerics._require_finite(theta=theta, z=z)
    v = sf.xi(0.5 - 1j * np.asarray(z, dtype=complex))
    return -math.sin(theta) * v.xi + 1j * math.cos(theta) * v.xi_prime


@dataclass(frozen=True)
class ExtensionParams:
    """theta in [0, pi) selects the self-adjoint extension; w0 = i is the
    base point of its domain parametrization. S_theta(w0) != 0 for every
    theta: at s = 1/2 - i w0 = 3/2, S_theta(i) = -sin(theta) xi(3/2)
    + i cos(theta) xi'(3/2) with xi(3/2) = 0.5087 and xi'(3/2) = 0.02347
    both positive, so |S_theta(i)| >= 0.02347."""
    theta: float
    w0 = 1j

    def __post_init__(self):
        if not (0.0 <= self.theta < math.pi):
            raise ValueError("theta must lie in [0, pi)")

    def s(self, z):
        return s_theta(self.theta, z)


@dataclass(frozen=True)
class EigenCheck:
    gamma: float
    eigenvalue: float
    residual: float
    g_scale: float
    samples: Tuple[complex, ...]


def eigen_residual(p: ExtensionParams, gamma: float, samples: Sequence[complex],
                   eigenvalue: Optional[float] = None) -> EigenCheck:
    """max over samples of |M_theta G(z) - lambda G(z)| for the candidate
    eigenfunction G(z) = S(z)/(z - gamma), built from the generator

        F(z) = (S(z)/S(w0)) (gamma - w0)/(z - gamma).

    With lambda = gamma the identity M_theta G = gamma G is algebraically
    exact, so the residual measures pure roundoff; lambda = gamma + d
    instead reports |d| max|G|, which is how a non-eigenvalue is detected.

    The arguments are checked first (finite, and no sample within 1e-9 of
    gamma or w0); then S at w0 and at every sample comes from one s_theta
    call, and G and M_theta G are formed for all samples at once: for a
    domain element generated by F, G(z) = (S(w0) F(z) - S(z) F(w0))/(z - w0)
    and M_theta G(z) = z G(z) + F(w0) S(z).
    """
    z = np.array(samples, dtype=complex).ravel()
    numerics._require_finite(gamma=gamma, eigenvalue=eigenvalue, samples=z)
    lam = gamma if eigenvalue is None else float(eigenvalue)
    if np.any(np.abs(z - gamma) < 1e-9) or np.any(np.abs(z - p.w0) < 1e-9):
        raise ValueError("sample too close to gamma or w0")
    S = p.s(np.concatenate([[p.w0], z]))
    s_w0, s_z = S[0], S[1:]
    f_w0 = (gamma - p.w0) / (p.w0 - gamma)      # F(w0), with S(w0)/S(w0) = 1
    F_z = (s_z / s_w0) * (gamma - p.w0) / (z - gamma)
    G = (s_w0 * F_z - s_z * f_w0) / (z - p.w0)
    MG = z * G + f_w0 * s_z
    return EigenCheck(float(gamma), lam,
                      float(np.max(np.abs(MG - lam * G), initial=0.0)),
                      float(np.max(np.abs(G), initial=0.0)),
                      tuple(complex(v) for v in z))


def spectral_coeffs(psi, zs: zc.ZeroSet) -> np.ndarray:
    """S_gamma = psihat(gamma), a complex array in ZeroSet.gammas order."""
    return wf.transform_at(psi, zs.gammas)


def _expansion(S: np.ndarray, zs: zc.ZeroSet) -> np.ndarray:
    """i S sqrt(m pi): psi1's weight on each psi_gamma of the catalog."""
    return 1j * S * np.sqrt(zs.mults * math.pi)


def residual_coeffs(S: np.ndarray, zs: zc.ZeroSet) -> np.ndarray:
    """S - sum_gamma i S_gamma sqrt(m pi) F_gamma at zs.gammas, from one
    F_gamma table of the catalog at itself: 0 to roundoff, as
    F_gamma(gamma') = -i delta/sqrt(m pi). A ufunc reduction, not a BLAS
    product, subtracts the rows in order, so the bits do not depend on the
    BLAS build or thread count."""
    terms = _expansion(S, zs)[:, None] * debranges.basis_table(
        zs.gammas, zs.mults, zs.gammas)
    return np.subtract.reduce(np.vstack([S, terms]), axis=0)


@dataclass
class LWDecomposition:
    """psi = psi0 + psi1 with psi1 = sum_gamma i S_gamma sqrt(m pi) psi_gamma."""
    psi0: numerics.GridFunction
    psi1: numerics.GridFunction
    coeffs: np.ndarray           # S_psi at gammas


def decompose_LW(psi, zs: zc.ZeroSet, Z: float,
                 out: numerics.Grid) -> LWDecomposition:
    """Split psi into psi1, its span over the catalog, and the rest psi0:
    coefficients S = spectral_coeffs(psi, zs), and psi1 the combination of
    psi_gamma (cut off at Z) weighted by i S sqrt(m pi), from one inverse
    transform (debranges.psi_combination). psi1 is cut off at Z, so psi0's
    transforms at the catalog are not residual_coeffs: ~1e-3 of max|S| on
    [-4, 18] at T = 50, Z = 500.
    psi: a TestFunction (sampled on out) or a GridFunction on out."""
    if isinstance(psi, numerics.GridFunction) and psi.grid != out:
        raise numerics.GridMismatchError("psi must live on the output grid")
    S = spectral_coeffs(psi, zs)              # TypeError for other inputs
    values = (psi.values if isinstance(psi, numerics.GridFunction)
              else psi(out.nodes()))
    psi1 = debranges.psi_combination(zs.gammas, zs.mults, _expansion(S, zs), Z, out)
    psi0 = numerics.GridFunction(out, values - psi1.values, "time")
    return LWDecomposition(psi0, psi1, S)
