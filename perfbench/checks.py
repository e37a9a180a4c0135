"""Correctness checks made apart from the program under test.

Every check compares an output with an independent computation (the
published zero table, a plain trapezoid sum, an mpmath evaluation) or with
a property the method must have. None compares with a stored copy of the
program's own output. Each returns None when it passes and a one-line
message when it fails.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np


def load_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [float(line) for line in fh if line.strip()]


def catalog_matches_table(ordinates, table, T, tol=1e-6):
    ref = [g for g in table if g <= T]
    if len(ordinates) != len(ref):
        return "catalog has %d ordinates below T=%g, table %d" % (
            len(ordinates), T, len(ref))
    worst = max((abs(a - b) for a, b in zip(ordinates, ref)), default=0.0)
    if worst > tol:
        return "catalog differs from the table by %.2e > %.0e" % (worst, tol)
    return None


def at_most(what, value, bound):
    if not value <= bound:
        return "%s = %.3e exceeds %.3e" % (what, value, bound)
    return None


def at_least(what, value, bound):
    if not value >= bound:
        return "%s = %.3e is below %.3e" % (what, value, bound)
    return None


def trapezoid_inverse(values, z0, h, x):
    """(1/2pi) * trapezoid sum of values[j] e^{-i z_j x} over z_j = z0 + j h,
    at each x: a plain direct sum, with no blocking or recurrences.

    Also returns the sum of the terms' magnitudes, which bounds the size of
    the rounding error any summation order can make."""
    z = z0 + h * np.arange(len(values))
    w = np.full(len(values), h)
    w[0] = w[-1] = 0.5 * h
    wv = w * np.asarray(values)
    sums = np.array([np.sum(wv * np.exp(-1j * z * xv)) for xv in x])
    return sums / (2.0 * math.pi), float(np.sum(np.abs(wv))) / (2.0 * math.pi)


def samples_match(what, got, ref, scale, tol):
    """max |got - ref| / scale <= tol."""
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(ref)))) / scale
    return at_most(what + " mismatch", err, tol)


def mp_log_derivative(x, dps=25):
    """d/dz log xi(1/2 - iz) at real z = x, from mpmath:
    -i (xi'/xi)(s), xi'/xi = 1/s + 1/(s-1) - log(pi)/2 + psi(s/2)/2 + zeta'/zeta."""
    with mpmath.workdps(dps):
        s = mpmath.mpc(0.5, -x)
        lam = (1 / s + 1 / (s - 1) - mpmath.log(mpmath.pi) / 2
               + mpmath.digamma(s / 2) / 2
               + mpmath.zeta(s, derivative=1) / mpmath.zeta(s))
        return -1j * complex(lam)


def mp_bump_transform(center, half_width, z, dps=20):
    """integral of exp(-1/(1-u^2)) e^{izx} dx, u = (x - center)/half_width,
    by mpmath.quad over pieces short enough for the oscillation."""
    with mpmath.workdps(dps):
        c, w, zz = mpmath.mpf(center), mpmath.mpf(half_width), mpmath.mpc(z)

        def f(u):
            if abs(u) >= 1:
                return mpmath.mpf(0)
            return mpmath.exp(-1 / (1 - u * u) + 1j * zz * (c + w * u)) * w

        pieces = max(8, int(abs(z) * half_width))
        return complex(mpmath.quad(f, mpmath.linspace(-1, 1, pieces + 1)))


def report_all_pass(rows):
    if not rows:
        return "verify report has no rows"
    bad = [r.get("check_id", "?") for r in rows if r.get("pass") is not True]
    if bad:
        return "verify rows not passing: %s" % ", ".join(bad)
    return None
