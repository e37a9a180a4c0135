"""Planted faults that `verify all` should detect: each entry of FAULTS
makes the catalog a run sees wrong, or one layer of the code, and the run
must fail at least one row.

A fault that no row can see yet is kept as a strict expected failure, so
the test turns into a failure of its own (XPASS) once a row catches it."""

import pytest

from weil_lab import cli
from weil_lab import debranges as db
from weil_lab import numerics as nu
from weil_lab import special_fn as sf
from weil_lab import zero_catalog as zc

T = 50.0


def _edited(edit):
    """The fault that applies edit to the catalog's (gamma, m) pairs."""
    def fault(monkeypatch):
        zs = zc.compute_zeros(T)
        pairs = sorted(edit(list(zip(zs.ordinates, zs.multiplicities))))
        return zc.ZeroSet(tuple(g for g, _ in pairs), tuple(m for _, m in pairs),
                          zs.height_T, zs.source)
    return fault


def _without(index):
    """The catalog with the ordinate at index deleted."""
    def edit(pairs):
        del pairs[index]
        return pairs
    return _edited(edit)


def _first_changed(g_shift=0.0, m=1):
    """The catalog with gamma_1 moved by g_shift and given multiplicity m."""
    return _edited(lambda pairs: [(pairs[0][0] + g_shift, m)] + pairs[1:])


def _patched(module, name, wrap):
    """The fault that replaces module.name by wrap(module.name) for the
    catalog sweep and the suites, with an axis cache of its own (the shared
    one is left as it was)."""
    def fault(monkeypatch):
        monkeypatch.setattr(db, "_AXIS_CACHE", {})
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
        return zc.compute_zeros(T)
    return fault


def _xi_prime_scaled(xi):
    def faulty(s):
        v = xi(s)
        return sf.XiValue(v.xi, v.xi_prime * (1 + 1e-6))
    return faulty


def _L_scaled(sweep):
    return lambda x, step=None: sweep(x, step=step) * (1 + 1e-8)


def _middle_sample_scaled(chirp_z):
    def faulty(*args):
        out = chirp_z(*args)
        values = out.values.copy()
        values[values.size // 2] *= 1 + 1e-6
        return nu.GridFunction(out.grid, values, out.domain_tag)
    return faulty


def _unseen(fault, reason):
    return pytest.param(fault, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=reason))


FAULTS = {
    # fails spectra_interlace: the gap (gamma_2, gamma_4) holds two S_0 zeros
    "gamma_3_deleted": _without(2),
    # fails spectra_interlace: the gap (0, gamma_2) holds one
    "gamma_1_deleted": _without(0),
    "gamma_N_deleted": _unseen(_without(-1), (
        "no S_0 zero above gamma_N is promised below T, so no row sees the "
        "last zero missing until a certified count (ROADMAP item 3) does")),
    # fails basis_diagonal and restriction_point_mass
    "gamma_1_moved_1e-6": _first_changed(g_shift=1e-6),
    # fails 8 rows, spectra_interlace among them
    "spurious_zero_at_45": _edited(lambda pairs: pairs + [(45.0, 1)]),
    # fails 8 rows, theta_prime_zeros (about 1.0) and spectra_interlace
    # among them
    "gamma_1_doubled": _first_changed(m=2),
    "xi_prime_scaled_1e-6": _unseen(_patched(sf, "xi", _xi_prime_scaled), (
        "a constant factor on xi' moves no zero of S_0 and no row reads xi' "
        "against a reference until the Cauchy-integral row of ROADMAP item 5 "
        "does")),
    "axis_L_scaled_1e-8": _unseen(_patched(
        sf, "critical_line_log_derivative", _L_scaled), (
        "theta_prime_zeros, basis_diagonal and restriction_point_mass move "
        "about 200-fold, to 2e-8 and below, under their fixed floors, until "
        "budgets from their error models (ROADMAP item 6) see it")),
    # fails transform_agreement: its middle node is the scaled sample
    "transform_middle_sample_scaled_1e-6": _patched(
        nu, "_chirp_z", _middle_sample_scaled),
}


@pytest.mark.parametrize("fault", FAULTS.values(), ids=list(FAULTS))
def test_fault_fails_a_row(fault, monkeypatch):
    cfg = cli.RunConfig(height_T=T, cutoff_Z=500.0)
    cfg.catalog = fault(monkeypatch)
    rows = [row for suite in cli._SUITE_FN.values()
            for row in cli._rows(cfg, suite(cfg))]
    assert not all(row["pass"] for row in rows)
