"""Planted faults that `verify all` should detect: each entry of FAULTS
makes the catalog a run sees wrong, or one layer of the code, and the run
must fail at least one row.

A fault that no row can see yet is kept as a strict expected failure, so
the test turns into a failure of its own (XPASS) once a row catches it."""

import dataclasses
import json
import math

import numpy as np
import pytest

from weil_lab import cli
from weil_lab import debranges as db
from weil_lab import hilbert_polya as hp
from weil_lab import numerics as nu
from weil_lab import special_fn as sf
from weil_lab import weil_form as wf
from weil_lab import zero_catalog as zc

from conftest import with_pairs

T = 50.0


def _edited(edit):
    """The fault that applies edit to the catalog's (gamma, m) pairs."""
    return lambda monkeypatch: with_pairs(zc.compute_zeros(T), edit)


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


def _g_scaled(factor):
    return lambda screw_g_array: lambda t, zs: factor * screw_g_array(t, zs)


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
    # fails gram_psd: -G is negative semidefinite
    "screw_g_negated": _patched(wf, "screw_g_array", _g_scaled(-1.0)),
    "screw_g_halved": _unseen(_patched(wf, "screw_g_array", _g_scaled(0.5)), (
        "g/2 keeps g(0) = 0, its symmetry and a PSD kernel, and no row reads "
        "the magnitude of g until the screw_explicit row of ROADMAP item 2 "
        "compares g with the explicit formula")),
}


@pytest.mark.parametrize("fault", FAULTS.values(), ids=list(FAULTS))
def test_fault_fails_a_row(fault, monkeypatch):
    cfg = cli.RunConfig(height_T=T, cutoff_Z=500.0)
    cfg.catalog = fault(monkeypatch)
    rows = [row for suite in cli._SUITE_FN.values() for row in suite(cfg)]
    assert not all(row["pass"] for row in rows)


NAN = float("nan")


def _nan_value(v):
    return dataclasses.replace(v, value=complex(NAN))


def _nan_second_diagonal(table):
    table = table.copy()
    table[1, 1] = NAN
    return table


# check id: (module, name, call, plant): module.name's call-th call returns
# plant(its result), so a NaN lands on a draw other than the first of the
# row's worst-over-draws value
NAN_DRAWS = {
    # the two basis pairings come first, then the 20 draws
    "positivity_random": (wf, "weil_pairing", 4, _nan_value),
    # (a NaN Gram matrix makes eigvalsh raise)
    "gram_psd": (np.linalg, "eigvalsh", 2, lambda ev: ev * NAN),
    "screw_equals_weil": (wf, "screw_form", 2, _nan_value),
    # one table of the ordinates at themselves: its second diagonal entry
    "basis_diagonal": (db, "basis_table", 1, _nan_second_diagonal),
    "restriction_isometry": (db, "restriction_isometry_check", 2,
                             lambda pair: (NAN, pair[1])),
    "eigen_residual": (hp, "eigen_residual", 2,
                       lambda chk: dataclasses.replace(chk, residual=NAN)),
    "decompose_null": (hp, "decompose_LW", 2,
                       lambda dec: dataclasses.replace(dec, coeffs=dec.coeffs * NAN)),
    "pairing_tau_norm": (wf, "tau_norm", 2, lambda norm: NAN),
}


@pytest.mark.parametrize("check_id", list(NAN_DRAWS))
def test_nan_at_a_later_draw_fails_its_row(check_id, monkeypatch):
    # max(worst, nan) is worst: a fold with max would pass the row
    module, name, call, plant = NAN_DRAWS[check_id]
    fn, calls = getattr(module, name), []

    def faulty(*args, **kwargs):
        calls.append(name)
        out = fn(*args, **kwargs)
        return plant(out) if len(calls) == call else out
    monkeypatch.setattr(module, name, faulty)
    cfg = cli.RunConfig(height_T=T, cutoff_Z=500.0)
    suite = next(check.suite for check in cli.CHECKS if check.id == check_id)
    row = next(r for r in cli._SUITE_FN[suite](cfg) if r["check_id"] == check_id)
    assert math.isnan(row["value"]) and not row["pass"]


def _nan_pair(G, i, j):
    G[i, j] = G[j, i] = NAN
    return G


# plant(G) for the second 8 x 8 Gram matrix of the gram_psd row. On the
# catalog's matrices eigvalsh raised LinAlgError on each NaN (a crash,
# exit 2); on the identity it sorts a NaN pair's eigenvalues last, which
# left the margin finite and passing (exit 0)
NAN_GRAMS = {
    "off_diagonal_pair": lambda G: _nan_pair(G, 0, 5),
    "diagonal": lambda G: _nan_pair(G, 3, 3),
    "pair_on_the_identity": lambda G: _nan_pair(np.eye(8, dtype=complex), 2, 3),
}


@pytest.mark.parametrize("plant", NAN_GRAMS.values(), ids=list(NAN_GRAMS))
def test_nan_gram_matrix_fails_gram_psd(plant, tmp_path, monkeypatch, capsys):
    kernel, grams = wf.screw_kernel, []

    def faulty(t, s, zs):
        G = kernel(t, s, zs)
        if np.ndim(G) == 2:                 # the other rows' calls are scalar
            grams.append(G)
            if len(grams) == 2:
                return plant(G)
        return G
    monkeypatch.setattr(wf, "screw_kernel", faulty)
    assert cli.main(["verify", "screw", "--height-T", "50", "--cutoff-Z", "500",
                     "--out", str(tmp_path)]) == 1
    assert "FAIL   gram_psd " in capsys.readouterr().out
    rows = json.loads((tmp_path / "report_screw.json").read_text())
    assert [r["check_id"] for r in rows if not r["pass"]] == ["gram_psd"]
