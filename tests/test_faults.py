"""Planted faults that `verify all` should detect: each entry of FAULTS
makes the catalog a run sees wrong, or one layer of the code, and the run
must fail exactly the rows the entry records, the fault matrix of README.

A fault that no row can see yet records why instead, and is kept as a
strict expected failure, so the test turns into a failure of its own
(XPASS) once a row catches it."""

import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from weil_lab import cli
from weil_lab import debranges as db
from weil_lab import hilbert_polya as hp
from weil_lab import numerics as nu
from weil_lab import special_fn as sf
from weil_lab import weil_form as wf
from weil_lab import zero_catalog as zc

from conftest import CLI_MAIN, python_process, with_pairs

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


# a spurious zero splits a gap in two, one of them with no S_0 zero, and
# its F_gamma enters every catalog sum and basis table
_SPURIOUS_ZERO_ROWS = {
    "basis_pairing_diagonal", "basis_pairing_cross", "theta_prime_zeros",
    "basis_diagonal", "basis_off_diagonal", "restriction_point_mass",
    "decompose_null", "spectra_interlace"}

# name: (fault, the rows it fails, or why no row fails it yet)
FAULTS = {
    # the gap (gamma_2, gamma_4) holds two S_0 zeros
    "gamma_3_deleted": (_without(2), {"spectra_interlace"}),
    # the gap (0, gamma_2) holds one
    "gamma_1_deleted": (_without(0), {"spectra_interlace"}),
    "gamma_N_deleted": (_without(-1), (
        "no S_0 zero above gamma_N is promised below T, so no row sees the "
        "last zero missing until a certified count (ROADMAP item 3) does")),
    "gamma_1_moved_1e-6": (_first_changed(g_shift=1e-6),
                           {"basis_diagonal", "restriction_point_mass"}),
    "spurious_zero_at_45": (_edited(lambda pairs: pairs + [(45.0, 1)]),
                            _SPURIOUS_ZERO_ROWS),
    # in the last gap, (gamma_9, gamma_10) = (48.005, 49.774): the scan's
    # count must reach past the second-to-last gap
    "spurious_zero_in_the_last_gap": (_edited(lambda pairs: pairs + [(49.0, 1)]),
                                      _SPURIOUS_ZERO_ROWS),
    # theta_prime_zeros reads about 1.0
    "gamma_1_doubled": (_first_changed(m=2), {
        "basis_pairing_diagonal", "theta_prime_zeros", "basis_diagonal",
        "restriction_isometry", "restriction_point_mass", "psi_norm",
        "decompose_null", "spectra_interlace"}),
    "xi_prime_scaled_1e-6": (_patched(sf, "xi", _xi_prime_scaled), (
        "a constant factor on xi' moves no zero of S_0 and no row reads xi' "
        "against a reference until the Cauchy-integral row of ROADMAP item 5 "
        "does")),
    "axis_L_scaled_1e-8": (_patched(sf, "critical_line_log_derivative", _L_scaled), (
        "theta_prime_zeros, basis_diagonal and restriction_point_mass move "
        "about 200-fold, to 2e-8 and below, under their fixed floors, until "
        "budgets from their error models (ROADMAP item 6) see it")),
    # its middle node is the scaled sample
    "transform_middle_sample_scaled_1e-6": (_patched(nu, "_chirp_z", _middle_sample_scaled),
                                            {"transform_agreement"}),
    # -G is negative semidefinite
    "screw_g_negated": (_patched(wf, "screw_g_array", _g_scaled(-1.0)), {"gram_psd"}),
    "screw_g_halved": (_patched(wf, "screw_g_array", _g_scaled(0.5)), (
        "g/2 keeps g(0) = 0, its symmetry and a PSD kernel, and no row reads "
        "the magnitude of g until the screw_explicit row of ROADMAP item 2 "
        "compares g with the explicit formula")),
}


@pytest.mark.parametrize("fault, fails", [
    pytest.param(fault, None, id=name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=fails))
    if isinstance(fails, str) else pytest.param(fault, fails, id=name)
    for name, (fault, fails) in FAULTS.items()])
def test_fault_fails_a_row(fault, fails, monkeypatch):
    cfg = cli.RunConfig(height_T=T, cutoff_Z=500.0)
    cfg.catalog = fault(monkeypatch)
    rows = [row for suite in cli._SUITE_FN.values() for row in suite(cfg)]
    failed = {row["check_id"] for row in rows if not row["pass"]}
    assert failed
    assert fails is None or failed == fails


def test_readme_counts_the_rows_that_planted_faults_fail():
    # basis_diagonal's term at each gamma is theta_prime_zeros's times
    # sqrt(m/pi)/2, so the two rows are one check
    def checks(rows):
        return {"theta_prime_zeros" if r == "basis_diagonal" else r for r in rows}
    rows = [c.id for c in cli.CHECKS]
    failing = set().union(*(f for _, f in FAULTS.values() if not isinstance(f, str)))
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        stated = re.search(r"The (\d+) rows are\s+(\d+) checks\. Planted faults fail "
                           r"(\d+) rows \((\d+) checks\), and (\d+) rows fail under\s+none",
                           fh.read()).groups()
    assert tuple(map(int, stated)) == (len(rows), len(checks(rows)), len(failing),
                                       len(checks(failing)), len(rows) - len(failing))


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
    # the row's input is S of each draw, made where the residual reads it
    "decompose_null": (hp, "spectral_coeffs", 2, lambda S: S * NAN),
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


PLANTED = ("import numpy as np\n"
           "from weil_lab import weil_form\n"
           "def planted(t, zs):\n"
           "    raise np.linalg.LinAlgError('planted')\n"
           "weil_form.screw_g_array = planted\n")


def test_a_numerical_error_is_not_a_config_error(tmp_path, capsys):
    # numpy.linalg.LinAlgError is a ValueError: raised inside a suite it
    # propagates with its traceback (exit 1 from the interpreter) and writes
    # no report, where it was once read as a config error (exit 2). Exit 2
    # stays with the inputs refused where they are read
    run = python_process(PLANTED + CLI_MAIN, ["verify", "all", "--height-T", "50",
                                              "--cutoff-Z", "500", "--out", tmp_path])
    err = run.communicate()[1]
    assert run.returncode == 1
    assert err.splitlines()[-1] == "numpy.linalg.LinAlgError: planted"
    assert "config error" not in err
    assert not list(tmp_path.glob("report_*.json"))
    table = tmp_path / "malformed.txt"
    table.write_text("14.134725141734695\nzeta\n")
    for argv, line in (
            (["export", "psi_gamma", "one", "--height-T", "20"],
             "psi_gamma index 'one' out of range: not an integer in [1, 1]"),
            (["verify", "all", "--zeros", str(table)],
             "zero table %r: malformed ordinate at line 2: 'zeta'" % str(table)),
            (["verify", "all", "--height-T", "5"], "no zero ordinates below T = 5")):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: " + line]
    assert not list(tmp_path.glob("report_*.json")) + list(tmp_path.glob("*.csv"))
