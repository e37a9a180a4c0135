"""One public surface: every name in an __all__ of weil_lab exists, and the
package's own code reaches it, or it is kept for a stated reason."""

import ast
import math
import os

import numpy as np
import pytest

import weil_lab
from weil_lab import debranges as db
from weil_lab import hilbert_polya as hp
from weil_lab import numerics as nu
from weil_lab import special_fn as sf
from weil_lab import weil_form as wf
from weil_lab import zero_catalog as zc

SRC = os.path.dirname(weil_lab.__file__)

# Exported names that no code in the package reaches, each with its reason.
KEPT = {
    "E_xi": "perfbench/tracing.py wraps it by name, so the benchmark's "
            "install would raise without it",
    "xi_on_critical_line": "perfbench/tracing.py wraps it by name, as E_xi",
    "psi_gamma_tail_bound": "the declared truncation bound of psi_gamma: "
                            "acceptance criterion 5's tolerance, and the "
                            "budget of the rows that read psi_gamma",
    "screw_tail_bound": "the declared truncation bound of screw_g, the "
                        "budget of a row on the screw function",
    "iterate_symmetric": "perfbench's basis_bank workload and its self-test "
                         "list the catalog through it",
    "decompose_LW": "the psi0 and psi1 grids for callers that want them "
                    "(README's API); no row reads them, and "
                    "perfbench/tracing.py wraps it by name",
    "LWDecomposition": "what decompose_LW returns",
}


def _exports_and_references(src_dir):
    """({(module, name): top-level definition node} of the __all__ names,
    [(module, enclosing top-level name or None, identifier)] of every name
    and attribute read in code; strings and docstrings are not code."""
    exports, refs = {}, []
    for fname in sorted(os.listdir(src_dir)):
        if not fname.endswith(".py"):
            continue
        mod = fname[:-3]
        with open(os.path.join(src_dir, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        defs, names = {}, []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        defs[t.id] = stmt
                        if t.id == "__all__":
                            names = [e.value for e in stmt.value.elts]
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.append((mod, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.append((mod, owner, node.attr))
        for name in names:
            exports[(mod, name)] = defs.get(name)
    return exports, refs


def unreached(src_dir=SRC):
    """Exported names that no code reaches, read outside their own
    definition; a read inside an unreached name's definition does not count
    either (a helper read only by an unreached function is unreached too)."""
    exports, refs = _exports_and_references(src_dir)
    dead = set()
    while True:
        reached = {ident for mod, owner, ident in refs
                   if owner != ident and (mod, owner) not in dead}
        now = {key for key in exports if key[1] not in reached}
        if now == dead:
            return {name for _, name in dead}
        dead = now


def test_every_exported_name_exists():
    exports, _ = _exports_and_references(SRC)
    missing = sorted("%s.%s" % key for key, node in exports.items() if node is None)
    assert missing == []


def test_every_exported_name_is_reached_or_kept_for_a_reason():
    names = unreached()
    assert sorted(names - set(KEPT)) == []       # used by nothing: delete it
    assert sorted(set(KEPT) - names) == []       # reached now: drop it from KEPT
    assert all(reason for reason in KEPT.values())


_TIME_GRID = nu.GridFunction(nu.Grid(-1.0, 1.0, 65), np.ones(65), "time")

# (entry, argument): call(v, catalog) passes v as that argument (within an
# array of finite values where the argument takes one)
NON_FINITE_INPUTS = {
    ("screw_g_array", "t"): lambda v, zs: wf.screw_g_array(np.array([0.5, v]), zs),
    ("screw_g", "t"): lambda v, zs: wf.screw_g(v, zs),
    ("screw_tail_bound", "t"): lambda v, zs: wf.screw_tail_bound(v, zs),
    ("psi_gamma_tail_bound", "gamma"): lambda v, zs: db.psi_gamma_tail_bound(v, 500.0),
    ("psi_gamma_tail_bound", "Z"): lambda v, zs: db.psi_gamma_tail_bound(
        zs.ordinates[0], v),
    ("fourier_integral", "z"): lambda v, zs: nu.fourier_integral(
        np.ones_like, (-1.0, 1.0), np.array([1.0, v])),
    ("transform_at", "z"): lambda v, zs: wf.transform_at(wf.TestFunction.bump(), v),
    ("fourier_grid_at", "z"): lambda v, zs: nu.fourier_grid_at(_TIME_GRID, v),
    ("compute_zeros", "T"): lambda v, zs: zc.compute_zeros(v),
    ("ZeroSet", "height_T"): lambda v, zs: zc.ZeroSet(zs.ordinates[:1], (1,), v, "table"),
    ("panel_rule", "a"): lambda v, zs: nu.panel_rule(v, 1.0, 0.25),
    ("panel_rule", "b"): lambda v, zs: nu.panel_rule(0.0, v, 0.25),
    ("panel_rule", "width"): lambda v, zs: nu.panel_rule(0.0, 1.0, v),
    ("axis_samples", "Z"): lambda v, zs: db.axis_samples(v, 0.05),
    ("psi_gamma", "Z"): lambda v, zs: db.psi_gamma(
        zs.ordinates[0], zs, v, nu.Grid(-1.0, 1.0, 5)),
    ("K_apply", "Z"): lambda v, zs: db.K_apply(_TIME_GRID, v),
    ("theta_prime_at_zero", "gammas"): lambda v, zs: db.theta_prime_at_zero(
        np.array([zs.ordinates[0], v])),
    ("restriction_isometry_check", "Z"): lambda v, zs: db.restriction_isometry_check(
        zs.ordinates[0], zs, v),
    ("symmetric_grid", "half_range"): lambda v, zs: nu.symmetric_grid(v, 0.1),
    ("symmetric_grid", "spacing"): lambda v, zs: nu.symmetric_grid(10.0, v),
    ("band_exact_grid", "x_min"): lambda v, zs: nu.band_exact_grid(v, 1.0, 10.0),
    ("band_exact_grid", "x_max"): lambda v, zs: nu.band_exact_grid(0.0, v, 10.0),
    ("band_exact_grid", "band"): lambda v, zs: nu.band_exact_grid(0.0, 1.0, v),
    ("band_exact_grid", "margin"): lambda v, zs: nu.band_exact_grid(0.0, 1.0, 10.0, v),
    ("s_theta", "theta"): lambda v, zs: hp.s_theta(v, 1.0),
    ("s_theta", "z"): lambda v, zs: hp.s_theta(0.0, np.array([1.0, v])),
    ("log_gamma", "z"): lambda v, zs: sf.log_gamma(v),
    ("digamma", "z"): lambda v, zs: sf.digamma(np.array([1.5, v])),
    # s = 1/2 + v i: xi(1/2 + inf i) raised OverflowError
    ("xi", "s"): lambda v, zs: sf.xi(complex(0.5, v)),
    ("xi_on_critical_line", "t"): lambda v, zs: sf.xi_on_critical_line(np.array([1.0, v])),
    ("zeta_pair", "s"): lambda v, zs: sf.zeta_pair(np.array([2.0, complex(0.5, v)])),
    ("theta_xi", "z"): lambda v, zs: sf.theta_xi(v),
    ("E_xi", "z"): lambda v, zs: sf.E_xi(np.array([1.0, v])),
    ("theta_on_axis", "x"): lambda v, zs: sf.theta_on_axis(np.array([1.0, v])),
    ("theta_on_axis", "log_deriv"): lambda v, zs: sf.theta_on_axis(
        None, log_deriv=np.array([0.0, v])),
    ("critical_line_log_derivative", "x"): lambda v, zs: sf.critical_line_log_derivative(
        np.array([1.0, v])),
    ("critical_line_log_derivative", "step"): lambda v, zs: sf.critical_line_log_derivative(
        np.array([0.0, 0.25]), step=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("entry, arg", list(NON_FINITE_INPUTS),
                         ids=["%s-%s" % key for key in NON_FINITE_INPUTS])
def test_entry_rejects_a_non_finite_argument(entry, arg, value, catalog):
    with pytest.raises(ValueError, match="^%s must be finite$" % arg):
        NON_FINITE_INPUTS[entry, arg](value, catalog)
