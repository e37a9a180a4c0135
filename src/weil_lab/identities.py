"""Evaluators for the identities that both `weil-lab verify` and the
acceptance suite check. Each returns the value or worst-over-draws margin
that its caller compares with a bound (a margin <= 0 holds for every draw).
Parameters are what the callers choose differently: rng and sample count,
the draw, the Theta range, the psi_gamma inputs, the eigen sample sets."""

from __future__ import annotations

import math

import numpy as np

from . import debranges as db
from . import hilbert_polya as hp
from . import numerics as nu
from . import special_fn as sf
from . import weil_form as wf

# frozen 25-digit reference for xi(1/2), from an independent high-precision
# evaluation of (1/2) s (s-1) pi^(-s/2) Gamma(s/2) zeta(s)
XI_HALF_REF = 0.4971207781883141099127737


def _worst(values, floor: float) -> float:
    """max(floor, *values), but NaN if a value is NaN (max(w, nan) is w)."""
    return float(np.max(values, initial=floor))


def xi_product(s):
    """(1/2)s(s-1)pi^(-s/2)Gamma(s/2)zeta(s), with zeta at s itself where xi
    reflects Re s < 1/2 to 1 - s."""
    return (0.5 * s * (s - 1.0) * sf.zeta_pair(s)[0]
            * np.exp(-0.5 * s * math.log(math.pi) + sf.log_gamma(s / 2.0)))


def xi_theta_values(rng, theta_range: float):
    """(relative error of xi(1/2), worst relative gap between xi(s) and
    xi_product(s) at 100 random s, worst ||Theta(x)| - 1| at 100 random
    |x| <= theta_range with Theta = E^#/E from xi and xi', |Theta(0) - 1|)."""
    rel_half = abs(sf.xi(0.5).xi - XI_HALF_REF) / XI_HALF_REF
    s = np.array([complex(rng.uniform(-8, 9), rng.uniform(-110, 110))
                  for _ in range(100)])
    a, b = sf.xi(s).xi, xi_product(s)
    worst_sym = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300)))
    x = rng.uniform(-theta_range, theta_range, size=100)
    worst_mod = float(np.max(np.abs(np.abs(sf.theta_xi(x)) - 1.0)))
    return rel_half, worst_sym, worst_mod, abs(sf.theta_xi(0.0) - 1.0)


def theta_prime_at_zeros(zs) -> float:
    """Worst |Theta'(gamma) + 2i/m_gamma| over the catalog, from one sweep."""
    tp = db.theta_prime_at_zero(zs.ordinates) + 2j / np.asarray(zs.multiplicities)
    return float(np.max(np.abs(tp), initial=0.0))


def basis_value_table(zs):
    """(worst |F_gamma(gamma) + i/sqrt(m pi)|, worst |F_gamma(gamma')|)
    from one F_gamma table of the ordinates at themselves."""
    gam = np.array(zs.ordinates)
    m = np.array(zs.multiplicities)
    table = db.basis_table(gam, m, gam)
    diag = np.diagonal(table) + 1j / np.sqrt(math.pi * m)
    off = np.abs(table[~np.eye(len(gam), dtype=bool)])
    return _worst(list(map(abs, diag)), 0.0), float(np.max(off, initial=0.0))


def basis_pairing(psis, zs):
    """|<psi_1, psi_k>_W - delta_1k/pi| for the psi_gamma of the first zeros."""
    return [abs(wf.weil_pairing(psis[0], p, zs).value
                - (1.0 / math.pi if k == 0 else 0.0))
            for k, p in enumerate(psis)]


def l2_defect(psi) -> float:
    """|2 pi ||psi||^2 - 1|: zero for a normalized psi_gamma."""
    return abs(2 * math.pi * nu.grid_norm_sq(psi) - 1.0)


def grid_distance(a, b) -> float:
    """||a - b|| for time-domain functions on one grid."""
    diff = nu.GridFunction(a.grid, a.values - b.values, "time")
    return math.sqrt(max(nu.grid_norm_sq(diff), 0.0))


def k_fixes_basis(psi, Z: float) -> float:
    """||K psi - psi|| for a psi_gamma cut off at Z (K at the same band)."""
    return grid_distance(db.K_apply(psi, Z, band_limit=Z), psi)


def transform_agreement(psi, Z: float) -> float:
    """Worst gap between two routes to the transform of psi onto K's
    frequency grid, symmetric_grid(Z, the default spacing for psi's window),
    with band_limit = Z: the chirp-z grid transform (forward_fourier_grid)
    and the direct sum (fourier_grid_at) at the 17 nodes z_k,
    k = round(i (n - 1)/16) for i = 0, ..., 16 (both ends included),
    divided by sum|terms| = h sum_j w_j |psi_j|.

    The direct route rounds each phase z x (and the node x) to about
    eps |z x|, so each term is off by at most ~3 eps max|z| max|x| of its
    size (z_k itself is exact, a node of an exact lattice); the grid
    transform keeps every phase to a few 2^-53 turns, and its FFT roundoff
    is O(eps log n) of the terms. The bound in cli.CHECKS,
    4 eps MAX_CUTOFF 38 (|x| <= 38 on verify's window), covers every
    cutoff_Z the CLI accepts."""
    x_absmax = max(abs(psi.grid.x_min), abs(psi.grid.x_max))
    fgrid = nu.symmetric_grid(Z, db._default_freq_spacing(x_absmax))
    grid_route = nu.forward_fourier_grid(psi, fgrid, band_limit=Z).values
    k = np.rint(np.arange(17) * ((fgrid.n_points - 1) / 16.0)).astype(int)
    direct = nu.fourier_grid_at(psi, fgrid.x_min + k * fgrid.h)
    terms = psi.grid.h * float(np.sum(
        nu._trapezoid_weights(psi.grid.n_points) * np.abs(psi.values)))
    return float(np.max(np.abs(grid_route[k] - direct))) / terms


def gram_psd_margin(rng, n: int, zs) -> float:
    """Worst -(lowest eigenvalue + 1e-8 trace) of n screw-kernel Gram
    matrices at 8 random nodes in [-3, 3]; NaN if one has a non-finite
    entry (eigvalsh raises on it, or sorts NaN eigenvalues last)."""
    margins = []
    for _ in range(n):
        nodes = rng.uniform(-3, 3, size=8)
        M = wf.screw_kernel(nodes[:, None], nodes[None, :], zs)
        margins.append(-(np.linalg.eigvalsh(M)[0] + 1e-8 * np.trace(M).real)
                       if np.all(np.isfinite(M)) else math.nan)
    return _worst(margins, -1e30)


def screw_weil_margin(rng, n: int, zs) -> float:
    """Worst |<phi,phi>_G - <psi,psi>_W| - (declared errors + 1e-10) over n
    random mean-zero phi, psi = antiderivative(phi)."""
    margins = []
    for _ in range(n):
        phi = wf.random_mean_zero(rng)
        psi = wf.antiderivative(phi)
        sv = wf.screw_form(phi, phi, zs)
        pv = wf.weil_pairing(psi, psi, zs)
        budget = (sv.quad_error + sv.tail_bound + pv.tail_bound
                  + pv.quad_error + 1e-10)
        margins.append(abs(sv.value - pv.value) - budget)
    return _worst(margins, -1e30)


def positivity_margin(rng, n: int, zs, draw) -> float:
    """Worst -(Re <psi,psi>_W + tail + quad) over n psi = draw(rng)."""
    margins = []
    for _ in range(n):
        psi = draw(rng)
        fv = wf.weil_pairing(psi, psi, zs)
        margins.append(-(fv.value.real + fv.tail_bound + fv.quad_error))
    return _worst(margins, -1e30)


def restriction_isometry(zs):
    """(worst |lhs/rhs - 1|, worst |rhs - 1|) over the first three zeros."""
    pairs = [db.restriction_isometry_check(g, zs) for g in zs.ordinates[:3]]
    return (_worst([abs(lhs / rhs - 1.0) for lhs, rhs in pairs], 0.0),
            _worst([abs(rhs - 1.0) for _, rhs in pairs], 0.0))


def eigen_residuals(p, sample_sets, shifted):
    """Relative residuals of M_theta G = gamma G: the worst over the
    (gamma, samples) pairs, and that of the pair shifted at gamma + 0.1."""
    def rel(g, pts, ev=None):
        chk = hp.eigen_residual(p, g, pts, eigenvalue=ev)
        return chk.residual / max(chk.g_scale, 1e-300)
    worst = _worst([rel(g, pts) for g, pts in sample_sets], 0.0)
    return worst, rel(shifted[0], shifted[1], shifted[0] + 0.1)


def spectra_interlace(zs) -> int:
    """Wrong gaps of the interlacing of the spectra of M_{pi/2} and M_0.

    S_{pi/2} = -xi vanishes at the catalog zeros, and S_0 = i xi' between
    them: under RH, E is Hermite-Biehler, so the real zeros of the two
    interlace (de Branges, sections 22-23). This counts the gaps (0, gamma_1),
    (gamma_1, gamma_2), ..., (gamma_{N-1}, gamma_N) whose number of sign
    changes of Re S_0 is not 0 (the first gap) or 1 (every other one): a
    deleted zero leaves a gap with two, a spurious zero a gap with none.
    The scan takes x = k step for k = 1, 2, ... up to the first node at or
    past gamma_N, with step = min(0.05, smallest gap / 4), the gaps
    including (0, gamma_1). A sign change counts in the gap that holds the
    midpoint of its two nodes.

    At a zero of multiplicity m >= 2, xi' vanishes too. Unless |S_0| there
    is at most 1e-9 of max |S_0| over the scan nodes of the gaps beside it,
    the zero counts as one more wrong gap: xi' sums at most 0.5 T + 16 = 76
    terms (T <= 120), each good to a few ulps, so its roundoff is ~1e-13 of
    that scale, while at a simple zero |xi'| is of the order of the scale.
    One s_theta call takes the scan and those zeros."""
    g = np.asarray(zs.ordinates, dtype=float)
    if not g.size:
        return 0
    multiple = np.flatnonzero(np.asarray(zs.multiplicities) >= 2)
    step = min(0.05, float(np.min(np.diff(g, prepend=0.0))) / 4.0)
    n = math.ceil(g[-1] / step)
    if n > nu.POINT_LIMIT:
        raise ValueError("the interlacing scan needs %d points, above the "
                         "limit of %d" % (n, nu.POINT_LIMIT))
    x = step * np.arange(1, n + 1)
    S = hp.s_theta(0.0, np.concatenate([x, g[multiple]]))
    scan = S[:n]
    flips = np.flatnonzero(np.signbit(scan.real[1:]) != np.signbit(scan.real[:-1]))
    gaps = np.searchsorted(g, 0.5 * (x[flips] + x[flips + 1]))
    counts = np.bincount(gaps, minlength=g.size + 1)[:g.size]
    wrong = int(counts[0] != 0) + int(np.count_nonzero(counts[1:] != 1))
    edges = np.concatenate([[0.0], g, [math.inf]])
    for k, value in zip(multiple, S[n:]):
        beside = (x > edges[k]) & (x < edges[k + 2])
        wrong += int(abs(value) > 1e-9 * np.max(np.abs(scan[beside]), initial=0.0))
    return wrong


def decomposition_null(rng, n: int, zs, Z: float, grid, draw):
    """Worst |S_psi0(gamma)| over n psi = draw(rng) = psi0 + psi1 on the
    catalog zs (psi1 cut off at Z, on grid), and the (psi, decomposition,
    psi0 coefficients) triples."""
    out = []
    for _ in range(n):
        psi = draw(rng)
        dec = hp.decompose_LW(psi, zs, Z, grid)
        out.append((psi, dec, dec.residual_coeffs()))
    return _worst([np.max(np.abs(res)) for _, _, res in out], 0.0), out
