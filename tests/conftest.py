"""Shared fixtures. The zero catalog and the expensive frequency-axis
artifacts are built once per session and reused across test modules."""

import os

import mpmath as mp
import numpy as np
import pytest

from weil_lab import debranges as db
from weil_lab import numerics as nu
from weil_lab import special_fn as sf
from weil_lab import zero_catalog as zc

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
ZERO_TABLE = os.path.join(DATA_DIR, "zeros_t110.txt")


def eigen_samples(rng, exclude, n=20):
    """n random points of [-30, 30] x [-2, 2]i, all > 0.5 from exclude."""
    out = []
    while len(out) < n:
        z = complex(rng.uniform(-30, 30), rng.uniform(-2, 2))
        if all(abs(z - e) > 0.5 for e in exclude):
            out.append(z)
    return out


def count_xi_points(monkeypatch):
    """Patch special_fn.xi to record the point count of each call."""
    sizes = []
    real_xi = sf.xi
    monkeypatch.setattr(sf, "xi", lambda s: sizes.append(np.size(s)) or real_xi(s))
    return sizes


def with_pairs(zs, edit):
    """The ZeroSet zs with edit applied to its sorted list of (gamma, m)."""
    pairs = sorted(edit(list(zip(zs.ordinates, zs.multiplicities))))
    return zc.ZeroSet(tuple(g for g, _ in pairs), tuple(m for _, m in pairs),
                      zs.height_T, zs.source)


def mp_log_derivative(x):
    """Oracle for L(x) = d/dz log xi(1/2 - iz) at real x, by mpmath at the
    caller's working precision (an mpc)."""
    s = mp.mpc(mp.mpf(1) / 2, -mp.mpf(x))
    return -1j * (1 / s + 1 / (s - 1) - mp.log(mp.pi) / 2 + mp.digamma(s / 2) / 2
                  + mp.zeta(s, derivative=1) / mp.zeta(s))


@pytest.fixture(autouse=True)
def empty_kernel_cache():
    """Empty the chirp-z kernel spectra (numerics._PLANS) after each test, so
    no test's memory or cache hits depend on the tests run before it. The
    axis cache is kept: rebuilding it would sweep Z = 5000 and 10000 again."""
    yield
    nu._PLANS.clear()


@pytest.fixture(scope="session")
def catalog():
    return zc.compute_zeros(100.0)


@pytest.fixture(scope="session")
def table_catalog():
    return zc.load_zeros(ZERO_TABLE, 100.0)


@pytest.fixture(scope="session")
def small_psi(catalog):
    """psi_gamma artifacts at Z = 500 for the light checks."""
    zs = catalog
    Z = 500.0
    grid = nu.band_exact_grid(-4.0, 30.0, 2.0 * Z)
    return {
        "Z": Z,
        "grid": grid,
        "psi1": db.psi_gamma(zs.ordinates[0], zs, Z, grid),
        "psi2": db.psi_gamma(zs.ordinates[1], zs, Z, grid),
    }


@pytest.fixture(scope="session")
def heavy_psi(catalog):
    """The acceptance-scale artifacts: psi_gamma at Z = 5000 and 10000 on a
    window long enough for the slow e^{-delta x} modes."""
    zs = catalog
    g1, g2 = zs.ordinates[0], zs.ordinates[1]
    Z1, Z2 = 5000.0, 10000.0
    grid = nu.band_exact_grid(-6.0, 38.0, 2.0 * Z2, margin=2.0 * Z2 * 0.02)
    psi1_z1 = db.psi_gamma(g1, zs, Z1, grid)
    psi2_z1 = db.psi_gamma(g2, zs, Z1, grid)
    psi1_z2 = db.psi_gamma(g1, zs, Z2, grid)
    return {"Z1": Z1, "Z2": Z2, "grid": grid,
            "psi1_z1": psi1_z1, "psi2_z1": psi2_z1, "psi1_z2": psi1_z2}


@pytest.fixture(scope="session")
def lw_grid(catalog):
    """The [-4, 18] output grid of the decomposition tests (psi1 cut off at
    Z = 500), alias-free for transforms at every catalog ordinate."""
    return nu.band_exact_grid(-4.0, 18.0, 500.0 + catalog.ordinates[-1])
