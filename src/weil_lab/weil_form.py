"""The hermitian form over the zero catalog, the screw function it induces,
and the smooth compactly supported test functions both are evaluated on.

For a catalog Gamma (symmetric under gamma -> -gamma) the pairing is

    <psi1, psi2>_W = sum_gamma m_gamma psihat1(gamma) conj(psihat2(gamma)),

the screw function is g(t) = sum_gamma m_gamma (e^{i gamma t} - 1)/gamma^2
= -2 sum m sin^2(gamma t/2)/gamma^2, real and even, and its real symmetric
kernel G(t,s) = g(t-s) - g(t) - g(-s) + g(0) induces the quadratic form
<phi1, phi2>_G = integral G(t,s) phi1(s) conj(phi2(t)) ds dt on mean-zero
test functions. The two forms are linked by phi = psi'.

Transforms of test functions take whole arrays of z through one 32-point
Gauss-Legendre node set per call and part (numerics.fourier_integral), and
both forms are sums of those transforms over the catalog: as g(0) = 0, the
screw form's double integral is sum m/gamma^2 (phihat1(gamma) - phihat1(0))
conj(phihat2(gamma) - phihat2(0)), from one call per distinct input at the
catalog (and 0) and the tail probes. One quadrature-error model (1e-12 of
an L1 scale per transform value, carried through the weights) serves both.

Truncation of the infinite catalog is surfaced on every FormValue through a
declared tail model (sum_{gamma > T} m/gamma^2 <= log(T)/T times a sampled
decay envelope of the transforms); it is an engineering estimate, not a
theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import numerics
from . import zero_catalog as zc

__all__ = [
    "TestFunction", "FormValue", "transform_at", "weil_pairing", "screw_g",
    "screw_g_array", "screw_tail_bound", "screw_kernel", "screw_form",
    "antiderivative", "tau_norm", "random_bump", "random_combination",
    "random_mean_zero",
]

_BUMP = "bump"
_BUMP_D = "bump_derivative"
_ANTI = "antiderivative_of_bump"
_COMBO = "finite_combination"


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported test function from the bump family.

    kind 'bump' is exp(-1/(1-u^2)) with u = (x-center)/half_width;
    'bump_derivative' its exact derivative; 'finite_combination' a complex
    linear combination of parts; 'antiderivative_of_bump' the running
    integral of one mean-zero part. The constructor checks every kind.
    """
    kind: str
    center: float = 0.0
    half_width: float = 1.0
    coefficients: Tuple[complex, ...] = ()
    parts: Tuple["TestFunction", ...] = ()

    def __post_init__(self):
        if self.kind in (_BUMP, _BUMP_D):
            if not (math.isfinite(self.center) and math.isfinite(self.half_width)
                    and self.half_width > 0):
                raise ValueError("a bump needs a finite center and half_width > 0")
            object.__setattr__(self, "center", float(self.center))
            object.__setattr__(self, "half_width", float(self.half_width))
        elif self.kind == _COMBO:
            if len(self.coefficients) != len(self.parts) or not self.parts:
                raise ValueError("combination needs matching, nonempty coefficients/parts")
        elif self.kind != _ANTI:
            raise ValueError("unknown kind %r" % (self.kind,))
        elif len(self.parts) != 1:
            raise ValueError("an antiderivative takes exactly one part")
        elif not _mean_zero(self.parts[0].fourier(0.0), _transform_scale(self.parts[0])):
            raise ValueError("a part of nonzero mean has no compact antiderivative")
        object.__setattr__(self, "coefficients", tuple(map(complex, self.coefficients)))
        object.__setattr__(self, "parts", tuple(self.parts))

    # -- constructors -------------------------------------------------
    @classmethod
    def bump(cls, center: float = 0.0, half_width: float = 1.0) -> "TestFunction":
        return cls(_BUMP, center, half_width)

    @classmethod
    def combination(cls, coefficients: Sequence[complex],
                    parts: Sequence["TestFunction"]) -> "TestFunction":
        return cls(_COMBO, coefficients=coefficients, parts=parts)

    # -- geometry ------------------------------------------------------
    def support(self) -> Tuple[float, float]:
        if self.kind in (_BUMP, _BUMP_D):
            return (self.center - self.half_width, self.center + self.half_width)
        spans = [p.support() for p in self.parts]
        return (min(lo for lo, _ in spans), max(hi for _, hi in spans))

    # -- evaluation ----------------------------------------------------
    def __call__(self, x):
        out = self._eval(np.atleast_1d(np.asarray(x, dtype=float)))
        return complex(out[0]) if np.ndim(x) == 0 else out

    def _eval(self, x: np.ndarray) -> np.ndarray:
        if self.kind in (_BUMP, _BUMP_D):
            u = (x - self.center) / self.half_width
            out = np.zeros(len(x), dtype=complex)
            inside = np.abs(u) < 1.0
            ui = u[inside]
            one = 1.0 - ui * ui
            e = np.exp(-1.0 / one)
            out[inside] = (e if self.kind == _BUMP
                           else e * (-2.0 * ui / (one * one)) / self.half_width)
            return out
        if self.kind == _COMBO:
            out = np.zeros(len(x), dtype=complex)
            for c, p in zip(self.coefficients, self.parts):
                out += c * p._eval(x)
            return out
        return self._cumulative(x)

    def _cumulative(self, x: np.ndarray) -> np.ndarray:
        """Running integral of the part: whole Gauss-Legendre panels of
        width <= 1/4 up to the panel holding x, then the same rule on the
        partial panel [panel start, x]."""
        base = self.parts[0]

        def f(pts):
            return base._eval(pts.ravel()).reshape(pts.shape)

        a, b = base.support()
        nodes, weights = numerics.panel_rule(a, b, 0.25)
        n_panels = len(nodes)
        panel_ints = (f(nodes) * weights).sum(axis=1)
        cum = np.concatenate([[0.0 + 0.0j], np.cumsum(panel_ints)])
        out = np.where(x >= b, cum[-1], 0.0j)
        inside = (x > a) & (x < b)
        k = ((x[inside] - a) / (b - a) * n_panels).astype(int)
        k = np.minimum(k, n_panels - 1)
        lo = np.linspace(a, b, n_panels + 1)[k][:, None]
        span = x[inside][:, None] - lo
        u, wu = numerics.panel_rule(0.0, 1.0, 1.0)    # one panel on [0, 1]
        out[inside] = cum[k] + (f(lo + span * u) * (span * wu)).sum(axis=1)
        return out

    # -- calculus ------------------------------------------------------
    def derivative(self) -> "TestFunction":
        if self.kind == _BUMP:
            return TestFunction(_BUMP_D, self.center, self.half_width)
        if self.kind == _ANTI:
            return self.parts[0]
        if self.kind == _COMBO:
            return TestFunction.combination(self.coefficients,
                                            [p.derivative() for p in self.parts])
        raise ValueError("derivative not available for kind %r" % self.kind)

    def fourier(self, z):
        """f^(z) = integral f(x) e^{izx} dx at a scalar or an array of z
        (Gauss-Legendre panels, one node set per call and part).

        Combinations transform by linearity (each part over its own
        support), so cancellations arranged in the coefficients survive at
        quadrature precision."""
        if self.kind == _ANTI:
            base = self.parts[0]
            z_arr = np.asarray(z, dtype=complex)
            small = np.abs(z_arr) <= 1e-8
            out = np.empty(z_arr.shape, dtype=complex)
            out[~small] = base.fourier(z_arr[~small]) / (-1j * z_arr[~small])
            if np.any(small):
                # psi^(0) = -integral y phi(y) dy for mean-zero phi
                out[small] = -numerics.fourier_integral(
                    lambda y: y * base._eval(np.asarray(y, dtype=float)),
                    base.support(), 0.0)
            return complex(out) if out.ndim == 0 else out
        if self.kind == _COMBO:
            return sum(c * p.fourier(z)
                       for c, p in zip(self.coefficients, self.parts))
        return numerics.fourier_integral(self, self.support(), z)


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FormValue:
    value: complex
    tail_bound: float
    quad_error: float

    def __post_init__(self):
        if self.tail_bound < 0 or self.quad_error < 0:
            raise ValueError("error bounds must be nonnegative")


# ----------------------------------------------------------------------
# transforms of either input flavor
# ----------------------------------------------------------------------

def transform_at(psi, z):
    """psihat at (array of) z for a TestFunction or a time GridFunction."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if isinstance(psi, TestFunction):
        out = psi.fourier(z_arr)
    elif isinstance(psi, numerics.GridFunction):
        out = np.atleast_1d(numerics.fourier_grid_at(psi, z_arr))
    else:
        raise TypeError("expected TestFunction or GridFunction")
    return out if np.ndim(z) else complex(out[0])


def _sup_samples(T: float) -> np.ndarray:
    """Dyadic-window probe points on [T, 2T], both signs."""
    pts = T * 2.0 ** (np.arange(9) / 8.0)
    return np.concatenate([pts, -pts])


def _transform_scale(psi) -> float:
    """Crude L1 bound used in the quadrature-error model: for a TestFunction
    the panel rule on 8 panels (256 nodes) of its support."""
    if isinstance(psi, TestFunction):
        a, b = psi.support()
        x, w = numerics.panel_rule(a, b, (b - a) / 8.0)
        return float(np.sum(np.abs(psi._eval(x.ravel())) * w.ravel()))
    return float(np.sum(np.abs(psi.values)) * psi.grid.h)


def _tail_bound(p1, p2, zs, k: int) -> float:
    """Declared tail model 2 log(T)/T max |z|^k |psihat1(z)| |psihat2(z)| from
    transforms p1, p2 at the _sup_samples probes z (k = 2 for the weights m,
    0 for m/gamma^2); 0 on an empty catalog."""
    if not len(zs):
        return 0.0
    envelope = np.abs(_sup_samples(zs.height_T)) ** k * np.abs(p1) * np.abs(p2)
    return 2.0 * zc.tail_coefficient(zs) * float(np.max(envelope))


def _transforms(psi1, psi2, z, zs, k: int):
    """(psihat(z), _transform_scale) of each input and their _tail_bound, once
    per distinct input: one transform_at call at z and the probes (if any)."""
    n, z = len(z), np.concatenate([z, _sup_samples(zs.height_T) if len(zs) else []])
    h1, s1 = transform_at(psi1, z), _transform_scale(psi1)
    h2, s2 = (h1, s1) if psi2 is psi1 else (transform_at(psi2, z), _transform_scale(psi2))
    return (h1[:n], s1), (h2[:n], s2), _tail_bound(h1[n:], h2[n:], zs, k)


def _quad_error(w, a1, a2, e1: float, e2: float) -> float:
    """Error of sum w a1 a2 when every a1 is off by at most e1 and every a2
    by at most e2."""
    return float(np.sum(w * (np.abs(a1) * e2 + np.abs(a2) * e1 + e1 * e2)))


def weil_pairing(psi1, psi2, zs) -> FormValue:
    """sum over the symmetric catalog of m psihat1(gamma) conj(psihat2(gamma))."""
    g, m = zs.gammas, zs.mults
    if not len(g):
        return FormValue(0.0j, 0.0, 0.0)
    (f1, s1), (f2, s2), tail = _transforms(psi1, psi2, g, zs, 2)
    return FormValue(complex(np.sum(m * f1 * np.conj(f2))), tail,
                     _quad_error(m, f1, f2, 1e-12 * s1, 1e-12 * s2))


# ----------------------------------------------------------------------
# screw function and kernel
# ----------------------------------------------------------------------

def screw_g_array(t, zs) -> np.ndarray:
    """g(t) = -2 sum_gamma m sin^2(gamma t/2)/gamma^2 over the symmetric
    catalog, float64 of the shape of t (of shape (1,) for a scalar t)."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    numerics._require_finite(t=t_arr)
    g, m = zs.gammas, zs.mults
    out = np.zeros(t_arr.shape)
    for i0 in range(0, t_arr.size, 4096):
        half = np.sin(0.5 * np.multiply.outer(t_arr.flat[i0:i0 + 4096], g))
        out.flat[i0:i0 + 4096] = (half * half) @ (-2.0 * m / (g * g))
    return out


def screw_g(t: float, zs) -> float:
    return float(screw_g_array(np.array([t]), zs)[0])


def screw_tail_bound(t: float, zs) -> float:
    """Declared tail model for the truncated screw sum."""
    numerics._require_finite(t=t)
    if not len(zs):
        return 0.0
    T = zs.height_T
    return 2.0 * zc.tail_coefficient(zs) * min(1.0, abs(t) * T)


def screw_kernel(t, s, zs):
    """G(t,s) = g(t-s) - g(t) - g(-s) + g(0), broadcast over arrays t and s
    (a float for scalar t and s). g(0) = 0 exactly (sin 0 = 0) and g is even
    bit for bit, so G = g(t-s) - (g(t) + g(s)) == G(s,t) bit for bit."""
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), s)
    vals = screw_g_array(np.stack([t - s, t, s]), zs)
    G = vals[0] - (vals[1] + vals[2])
    return float(G) if G.ndim == 0 else G


def screw_form(phi1: TestFunction, phi2: TestFunction, zs) -> FormValue:
    """<phi1, phi2>_G = integral G(t,s) phi1(s) conj(phi2(t)) ds dt.

    Requires mean-zero inputs. As g(0) = 0,
    G(t,s) = sum m/gamma^2 (e^{i gamma t} - 1)(e^{-i gamma s} - 1), so the
    double integral is sum m/gamma^2 d1(gamma) conj(d2(gamma)) with
    d = phihat(gamma) - phihat(0), from one transform_at call per input at
    0, the catalog and the tail probes. Quadrature error: weil_pairing's
    model, weights m/gamma^2, twice the per-value error in each d.
    """
    gam, m = zs.gammas, zs.mults
    (h1, s1), (h2, s2), tail = _transforms(phi1, phi2, np.concatenate([[0.0], gam]), zs, 0)
    for name, h, scale in (("phi1", h1, s1), ("phi2", h2, s2)):
        if not _mean_zero(h[0], scale):
            raise ValueError("screw_form requires mean-zero %s" % name)
    w = m / (gam * gam)
    d1, d2c = h1[1:] - h1[0], np.conj(h2[1:] - h2[0])
    return FormValue(complex(np.sum(w * d1 * d2c)), tail,
                     _quad_error(w, d1, d2c, 2e-12 * s1, 2e-12 * s2))


# ----------------------------------------------------------------------
# antiderivative, tau norm
# ----------------------------------------------------------------------

def antiderivative(phi: TestFunction) -> TestFunction:
    """psi(x) = integral_{-inf}^x phi(y) dy, compactly supported: phi must
    have mean zero (ValueError otherwise). Exact inverse images are
    recognized (derivative-of-bump goes back to the bump); otherwise the
    running integral is wrapped."""
    if phi.kind == _BUMP_D:
        return TestFunction.bump(phi.center, phi.half_width)
    if phi.kind == _COMBO and all(p.kind == _BUMP_D for p in phi.parts):
        return TestFunction.combination(
            phi.coefficients, [antiderivative(p) for p in phi.parts])
    return TestFunction(_ANTI, parts=(phi,))


def _mean_zero(mean: complex, scale: float) -> bool:
    """screw_form's and antiderivative's rule: |phihat(0)| <= 1e-10 L1."""
    return abs(mean) <= 1e-10 * max(scale, 1e-30)


def tau_norm(S, zs) -> float:
    """sum m |S_gamma|^2 for S a complex array in ZeroSet.gammas order."""
    m = zs.mults
    if np.shape(S) != m.shape:
        raise ValueError("coefficients not aligned with the catalog iteration")
    return float(np.sum(m * np.abs(np.asarray(S, dtype=complex)) ** 2))


# ----------------------------------------------------------------------
# random test-function generators (deterministic under a seeded rng)
# ----------------------------------------------------------------------

def random_bump(rng) -> TestFunction:
    """Bump of half-width w uniform in [0.3, 1.5], centered uniformly so its
    support lies in [-3, 3]."""
    w = rng.uniform(0.3, 1.5)
    c = rng.uniform(-3.0 + w, 3.0 - w)
    return TestFunction.bump(c, w)


def random_combination(rng, n_parts: int = 3) -> TestFunction:
    parts = [random_bump(rng) for _ in range(n_parts)]
    coeff = rng.standard_normal(n_parts) + 1j * rng.standard_normal(n_parts)
    return TestFunction.combination(coeff, parts)


def random_mean_zero(rng, n_parts: int = 2) -> TestFunction:
    """Mean-zero combination: bumps weighted to cancel their integrals."""
    parts = [random_bump(rng) for _ in range(n_parts)]
    masses = np.array([p.fourier(0.0).real for p in parts])
    coeff = (rng.standard_normal(n_parts) + 1j * rng.standard_normal(n_parts))
    coeff = coeff - masses * (np.sum(coeff * masses) / np.sum(masses * masses))
    return TestFunction.combination(coeff, parts)
