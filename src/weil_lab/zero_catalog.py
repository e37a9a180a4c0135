"""Catalogs of nontrivial-zero ordinates with multiplicities.

A ZeroSet holds the positive ordinates gamma (zeros of xi(1/2 + it) up to a
truncation height T) and, built once from them, the full symmetric family
{+-gamma} as read-only arrays, gammas (float64, ascending) and mults
(int64), which every catalog sum reads. Ordinates come either from a
published plain-text table (one decimal per line, ascending) or from a
sign-change sweep of xi along the critical line refined by Newton steps
kept inside their brackets (xi' comes with xi).
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from . import numerics as nu
from . import special_fn as sf

__all__ = [
    "ZeroSet", "CountingReport", "load_zeros", "compute_zeros", "counting_check",
    "iterate_symmetric", "tail_coefficient",
]

_log = logging.getLogger("weil_lab")

MAX_HEIGHT = 120.0
# The largest cutoff Z of a run: at the default grids each FFT buffer of the
# suites grows by ~1.8 kB per unit of Z, ~90 MB at this cap.
MAX_CUTOFF = 5.0e4
_SCAN_STEP = 0.25
_MAX_STEPS = 200


@dataclass(frozen=True)
class ZeroSet:
    """Ascending positive ordinates with multiplicities, truncated at height_T;
    gammas and mults are the symmetric catalog -gamma_n .. -gamma_1,
    gamma_1 .. gamma_n and its multiplicities, read-only arrays derived from
    the fields (not compared, hashed or shown)."""
    ordinates: Tuple[float, ...]
    multiplicities: Tuple[int, ...]
    height_T: float
    source: str   # 'table' | 'computed'
    gammas: np.ndarray = field(init=False, repr=False, compare=False)
    mults: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.ordinates, dtype=float)
        m = self.multiplicities
        if len(g) != len(m):
            raise ValueError("ordinates and multiplicities must align")
        if len(g) and not np.all(np.diff(g) > 0):
            raise ValueError("ordinates must be strictly ascending")
        if len(g) and (g[0] <= 0 or g[-1] > self.height_T + 1e-9):
            raise ValueError("ordinates must be positive and <= height_T")
        if any(int(mi) != mi or mi < 1 for mi in m):
            raise ValueError("multiplicities must be integers >= 1")
        if self.source not in ("table", "computed"):
            raise ValueError("source must be 'table' or 'computed'")
        object.__setattr__(self, "ordinates", tuple(float(x) for x in g))
        object.__setattr__(self, "multiplicities", tuple(int(x) for x in m))
        m = np.array(self.multiplicities, dtype=np.int64)
        for name, arr in (("gammas", np.concatenate([-g[::-1], g])),
                          ("mults", np.concatenate([m[::-1], m]))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.ordinates)


@dataclass(frozen=True)
class CountingReport:
    count: int
    estimate: float
    discrepancy: float
    passed: bool


def _read_table(path, T: float) -> ZeroSet:
    """The ordinates <= T of a plain-text table (one finite decimal per
    line, ascending; blank lines and lines starting with '#' are
    skipped)."""
    ordinates: List[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                val = float(line)
            except ValueError:
                val = math.nan
            if not math.isfinite(val):
                raise ValueError("malformed ordinate at line %d: %r" % (lineno, line))
            if val <= 0:
                raise ValueError("nonpositive ordinate at line %d" % lineno)
            if ordinates and val <= ordinates[-1]:
                raise ValueError("non-ascending ordinate at line %d" % lineno)
            ordinates.append(val)
    kept = [g for g in ordinates if g <= T]
    return ZeroSet(tuple(kept), tuple([1] * len(kept)), float(T), "table")


def load_zeros(path, T: float) -> ZeroSet:
    """Parse a user's ordinate table (see _read_table); warns when no
    ordinate lies below T."""
    zs = _read_table(path, T)
    if not len(zs):
        warnings.warn("zero table contains no ordinates below T = %g" % T)
    return zs


def _refine_brackets(f, a, b, fa):
    """Roots of f in the brackets [a_i, b_i] (fa = f(a_i), of the sign
    opposite to f(b_i)), refined together: (roots, steps, points evaluated).
    f maps an array t to (f(t), f'(t)) and is called once per step, on the
    brackets still open. Each bracket starts at its midpoint t; a step moves
    the end whose f has the sign of f(t) to t and forms d = f(t)/f'(t). It
    stops with t at f(t) == 0, with t - d at |d| <= 4 ulp(t) (the raw step:
    a converged t - d may land on the end just moved, outside the guard),
    and with t when no float lies strictly inside (a, b); else it goes on
    at t - d if that lies strictly inside (a, b), else (f'(t) == 0 too) at
    the midpoint. A bracket open after _MAX_STEPS steps raises RuntimeError."""
    a, b, fa = (np.array(v, dtype=float) for v in (a, b, fa))
    t, root = 0.5 * (a + b), np.full(a.shape, np.nan)
    i, steps, points = np.arange(a.size), 0, 0
    while i.size:
        if steps == _MAX_STEPS:
            raise RuntimeError("bracketed root refinement did not converge in "
                               "%d steps (%d brackets open)" % (steps, i.size))
        x = t[i]
        fx, dfx = f(x)
        steps, points = steps + 1, points + i.size
        left = (fa[i] < 0) == (fx < 0)
        a[i[left]], b[i[~left]] = x[left], x[~left]
        d = fx / np.where(dfx != 0.0, dfx, np.nan)
        newton, mid = x - d, 0.5 * (a[i] + b[i])
        root[i] = np.select([fx == 0.0, np.abs(d) <= 4.0 * np.spacing(np.abs(x)),
                             ~((a[i] < mid) & (mid < b[i]))], [x, newton, x], np.nan)
        t[i] = np.where((a[i] < newton) & (newton < b[i]), newton, mid)
        i = i[np.isnan(root[i])]
    return root, steps, points


def compute_zeros(T: float) -> ZeroSet:
    """Sign-change sweep of Z(t) = xi(1/2 + it) at t = 2, 2.25, ... < T and
    at T; a scan point where Z is exactly 0 is a root, and a bracket is
    opened only between nonzero values of opposite sign. All brackets are
    refined together (_refine_brackets, to a few ulp) on Z and
    Z'(t) = -Im xi'(1/2 + it), from one xi call per step; the scan is one
    more call of the same evaluator. Reads and writes no file. Logs one
    DEBUG record on the "weil_lab" logger, with extra= fields catalog_T,
    scan_points, brackets, refine_steps, xi_points and elapsed_s.
    """
    nu._require_finite(T=T)
    if T > MAX_HEIGHT:
        raise ValueError("compute_zeros supports T <= %g" % MAX_HEIGHT)
    t0 = time.perf_counter()
    t_grid = np.append(np.arange(2.0, T, _SCAN_STEP), T)

    def z_and_slope(t):
        v = sf.xi(0.5 + 1j * t)
        return v.xi.real, -v.xi_prime.imag
    vals = z_and_slope(t_grid)[0]
    fa, fb = vals[:-1], vals[1:]
    br = np.flatnonzero((fa != 0.0) & (fb != 0.0) & ((fa < 0) != (fb < 0)))
    refined, steps, points = _refine_brackets(z_and_slope, t_grid[br], t_grid[br + 1], fa[br])
    roots = [float(r) for r in np.sort(np.concatenate([t_grid[vals == 0.0], refined]))]
    stats = {"catalog_T": float(T), "scan_points": t_grid.size, "brackets": br.size,
             "refine_steps": steps, "xi_points": t_grid.size + points,
             "elapsed_s": time.perf_counter() - t0}
    _log.debug("catalog sweep: T %(catalog_T)g, %(scan_points)d scan points, "
               "%(brackets)d brackets, %(refine_steps)d refinement steps, "
               "%(xi_points)d xi points, %(elapsed_s).3f s", stats, extra=stats)
    roots = [r for r in roots if r <= T]
    return ZeroSet(tuple(roots), tuple([1] * len(roots)), float(T), "computed")


def counting_check(zs: ZeroSet) -> CountingReport:
    """Compare the catalog size against (T/2pi) log(T/2pi e) + 7/8."""
    if len(zs) == 0:
        raise ValueError("counting_check requires a nonempty catalog")
    T = zs.height_T
    est = (T / (2 * math.pi)) * math.log(T / (2 * math.pi * math.e)) + 7.0 / 8.0
    disc = abs(len(zs) - est)
    return CountingReport(len(zs), est, disc, disc <= 2.0)


def iterate_symmetric(zs: ZeroSet) -> List[Tuple[float, int]]:
    """The (gamma, m) pairs of zs.gammas and zs.mults, as Python numbers."""
    return list(zip(zs.gammas.tolist(), zs.mults.tolist()))


def tail_coefficient(zs: ZeroSet) -> float:
    """Conservative bound for sum_{gamma > T} m/gamma^2: log(T)/T."""
    T = max(zs.height_T, 2.0)
    return math.log(T) / T
