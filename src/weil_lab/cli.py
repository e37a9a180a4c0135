"""Command-line front end: verification suites, zero-cache management, and
CSV/JSON artifact export.

Suites return {check_id: value}; identities the acceptance suite also
checks come from weil_lab.identities. CHECKS gives each check's anchor and
default bound in report order, and a --tol or tol. key must name one of
them. A command that reads the catalog (every suite but 'special', zeros
compute, every export but omega) needs an ordinate below T, or exits 2.

Configuration: the keys zeros, height_T, cutoff_Z, grid, out and tol.<id>
of a --config file, then the flags of the same names over them; a key
neither gives keeps its RunConfig default. Any other file key, a
height_T that is not finite or above zero_catalog.MAX_HEIGHT, a cutoff_Z
outside [500, zero_catalog.MAX_CUTOFF], and a grid that numerics.Grid
rejects, is a config error.

Cache: WEIL_LAB_CACHE names the directory of the tables `zeros import`
stores; empty counts as unset. `verify` and `export` read the table at T only
when it is set, and else sweep; `zeros` falls back to ~/.cache/weil_lab.

Exit codes: 0 all checks pass, 1 check failure, 2 usage/config error,
3 I/O error. Reports are JSON lists of rows
{check_id, anchor, value, bound, pass}; outputs are bitwise deterministic
for a fixed configuration and zero cache.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import debranges as db
from . import hilbert_polya as hp
from . import identities as ids
from . import numerics as nu
from . import special_fn as sf
from . import weil_form as wf
from . import zero_catalog as zc

_SEED = 20240601


@dataclass
class RunConfig:
    zero_source: str = "compute"          # 'compute' or a table path
    height_T: float = 100.0
    cutoff_Z: float = 1000.0
    grid_spec: Optional[Tuple[float, float, int]] = None
    out_dir: str = "."
    cache_dir: Optional[str] = None
    tolerances: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.height_T) and self.height_T <= zc.MAX_HEIGHT):
            raise ValueError("height_T must be finite and <= %g" % zc.MAX_HEIGHT)
        if not 500.0 <= self.cutoff_Z <= zc.MAX_CUTOFF:
            raise ValueError("cutoff_Z must be in [500, %g]" % zc.MAX_CUTOFF)
        unknown = sorted(set(self.tolerances) - {c[0] for c in CHECKS})
        if unknown:
            raise ValueError("tolerance for unknown check id(s): %s"
                             % ", ".join(unknown))
        # a NaN bound fails every value, an infinite one passes it, and the
        # JSON report can hold neither
        bad = sorted(k for k, v in self.tolerances.items() if not math.isfinite(v))
        if bad:
            raise ValueError("non-finite tolerance for check id(s): %s"
                             % ", ".join(bad))

    @functools.cached_property
    def catalog(self) -> zc.ZeroSet:
        """The zero catalog, once per configuration: zero_source's table, else
        the cache's table at height_T (even an empty one), else the sweep."""
        if self.zero_source != "compute":
            return zc.load_zeros(self.zero_source, self.height_T)
        imported = (zc.read_cache(zc.cache_file(self.cache_dir, self.height_T),
                                  self.height_T) if self.cache_dir else None)
        return zc.compute_zeros(self.height_T) if imported is None else imported


def parse_grid_spec(text: str) -> Tuple[float, float, int]:
    try:
        a, b, n = text.split(":")
        spec = float(a), float(b), int(n)
    except Exception:
        raise ValueError("grid spec must look like 'xmin:xmax:n'")
    try:
        nu.Grid(*spec)
    except ValueError as exc:
        raise ValueError("grid %r: %s" % (text, exc))
    return spec


def parse_range(text: str) -> Tuple[float, float, float]:
    """Export range 'a:b:step' with finite a <= b and step > 0."""
    try:
        a, b, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise ValueError("range %r must look like 'a:b:step'" % text)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(step)
            and a <= b and step > 0):
        raise ValueError("range %r needs finite a <= b and step > 0" % text)
    return a, b, step


def _range_points(a: float, b: float, step: float) -> float:
    """floor((b - a)/step) + 1, the node count of an export range, with a ratio
    within rounding (~eps (|a| + |b|)/step) of an integer counted as that
    integer; a float, so a range too long for any machine counts as such."""
    slack = 4.0 * sys.float_info.epsilon * (abs(a) + abs(b)) / step
    return float(np.floor((b - a) / step + slack)) + 1.0


def load_config_file(path: str) -> Dict[str, str]:
    """Line-based 'key = value' configuration; '#' starts a comment."""
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("config line %d has no '=': %r" % (lineno, raw.rstrip()))
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


# (check_id, anchor, default bound) in report order. psi_norm's bound is the
# 1e-2 floor: psi_gamma_tail_bound(gamma_1, Z) < 2e-3 at Z >= 500, T <= 120.
CHECKS = (
    ("xi_half_reference", "xi(s) = (1/2)s(s-1)pi^(-s/2)Gamma(s/2)zeta(s) at s=1/2", 1e-10),
    ("xi_symmetry", "xi(s) = its defining product at 100 random s", 1e-10),
    ("theta_unimodular", "|Theta(x)| = 1 for real x", 1e-12),
    ("theta_at_zero", "Theta(0) = 1", 1e-12),
    ("omega_even", "omega(x) = omega(-x)", 1e-12),
    ("omega_transform", "omega^(z) = xi(1/2 - iz)", 1e-6),
    ("omega_decay", "omega(5) below series floor", 1e-16),
    ("basis_pairing_diagonal", "<psi_g, psi_g>_W = 1/pi", 1e-5),
    ("basis_pairing_cross", "<psi_g, psi_g'>_W = 0", 1e-5),
    ("positivity_random", "Re <psi,psi>_W >= -(tail + quad)", 0.0),
    ("hermitian_symmetry", "<a,b>_W = conj <b,a>_W", 1e-12),
    ("sesquilinearity", "<c a, b>_W = c <a,b>_W", 1e-10),
    ("screw_origin", "g(0) = 0", 1e-15),
    ("screw_conjugate", "g(-t) = conj g(t)", 1e-12),
    ("kernel_hermitian", "G(t,s) = conj G(s,t)", 1e-12),
    ("gram_psd", "Gram matrices of G_g are PSD", 0.0),
    ("screw_equals_weil", "<phi,phi>_G = <antiderivative phi, same>_W", 0.0),
    ("antiderivative_transform", "psi^(z) = phi^(z)/(-iz)", 1e-10),
    ("theta_prime_zeros", "Theta'(gamma) = -2i/m_gamma", 1e-5),
    ("basis_diagonal", "F_gamma(gamma) = -i/sqrt(m pi)", 1e-6),
    ("basis_off_diagonal", "F_gamma(gamma') = 0", 1e-6),
    ("restriction_isometry", "||F_gamma||^2 = sum |F_gamma|^2 * 2pi/|Theta'|", 1e-2),
    ("restriction_point_mass", "sum |F_gamma(gamma')|^2 pi m = 1", 1e-6),
    ("psi_norm", "2 pi ||psi_gamma||^2 = 1", 1e-2),
    ("k_fixes_basis", "K psi_gamma = psi_gamma", 5e-2),
    # 4 eps MAX_CUTOFF 38: the direct sum's phase rounding at any cutoff_Z
    ("transform_agreement", "chirp-z transform of psi_gamma = direct sum "
                            "at 17 nodes", 4.0 * sys.float_info.epsilon
                            * zc.MAX_CUTOFF * 38.0),
    ("s_pi_half", "S_{pi/2}(z) = -xi(1/2 - iz)", 1e-12),
    ("eigen_residual", "M_{pi/2} G = gamma G on the basis", 1e-7),
    ("eigen_perturbed", "shifted eigenvalue is detected", 0.0),
    ("decompose_null", "psi0 transforms vanish on the catalog", 1e-5),
    ("pairing_tau_norm", "<psi,psi>_W = sum m |psihat(gamma)|^2", 1e-10),
    ("spectra_interlace", "S_0 = i xi' changes sign once per catalog gap, "
                          "none below gamma_1", 0.0),
)


def _rows(cfg: RunConfig, values: Dict[str, float]) -> List[dict]:
    """Report rows, in CHECKS order, for the checks a suite returned values of."""
    rows = []
    for check_id, anchor, bound in CHECKS:
        if check_id in values:
            value = float(values[check_id])
            bound = float(cfg.tolerances.get(check_id, bound))
            rows.append({"check_id": check_id, "anchor": anchor, "value": value,
                         "bound": bound, "pass": value <= bound})
    return rows


# ----------------------------------------------------------------------
# suites: each returns {check_id: value}
# ----------------------------------------------------------------------

def suite_special(cfg: RunConfig) -> Dict[str, float]:
    rng = np.random.default_rng(_SEED)
    v = dict(zip(("xi_half_reference", "xi_symmetry", "theta_unimodular",
                  "theta_at_zero"), ids.xi_theta_values(rng, 110.0)))
    v["omega_even"] = abs(sf.omega_profile(0.3) - sf.omega_profile(-0.3))
    z = np.array([0.0, 1.0, 2.0])
    got = nu.fourier_integral(sf.omega_profile, (-5.0, 5.0), z)
    v["omega_transform"] = np.max(np.abs(got - sf.xi(0.5 - 1j * z).xi))
    v["omega_decay"] = abs(sf.omega_profile(5.0))
    return v


def suite_weil(cfg: RunConfig) -> Dict[str, float]:
    rng = np.random.default_rng(_SEED + 1)
    zs = cfg.catalog
    Z = cfg.cutoff_Z
    grid = nu.band_exact_grid(-8.0, 38.0, Z + zs.ordinates[-1], 50.0)
    psis = [db.psi_gamma(g, zs, Z, grid) for g in zs.ordinates[:2]]
    v = dict(zip(("basis_pairing_diagonal", "basis_pairing_cross"),
                 ids.basis_pairing(psis, zs)))
    v["positivity_random"] = ids.positivity_margin(rng, 20, zs,
                                                   wf.random_combination)
    a = wf.random_combination(rng)
    b = wf.random_combination(rng)
    ab = wf.weil_pairing(a, b, zs).value
    ba = wf.weil_pairing(b, a, zs).value
    v["hermitian_symmetry"] = abs(ab - np.conj(ba)) / max(abs(ab), 1e-30)
    c = complex(rng.standard_normal(), rng.standard_normal())
    ca = wf.TestFunction.combination([c], [a])
    lin = wf.weil_pairing(ca, b, zs).value - c * ab
    v["sesquilinearity"] = abs(lin) / max(abs(ab), 1e-30)
    return v


def suite_screw(cfg: RunConfig) -> Dict[str, float]:
    rng = np.random.default_rng(_SEED + 2)
    zs = cfg.catalog
    phi = wf.TestFunction.bump(0.2, 0.9).derivative()
    psi = wf.antiderivative(phi)
    lam = 3.0
    return {
        "screw_origin": abs(wf.screw_g(0.0, zs)),
        "screw_conjugate": abs(wf.screw_g(-1.7, zs)
                               - np.conj(wf.screw_g(1.7, zs))),
        "kernel_hermitian": abs(wf.screw_kernel(1.1, 0.4, zs)
                                - np.conj(wf.screw_kernel(0.4, 1.1, zs))),
        "gram_psd": ids.gram_psd_margin(rng, 20, zs),
        "screw_equals_weil": ids.screw_weil_margin(rng, 3, zs),
        "antiderivative_transform":
            abs(psi.fourier(lam) - phi.fourier(lam) / (-1j * lam)),
    }


def suite_debranges(cfg: RunConfig) -> Dict[str, float]:
    zs = cfg.catalog
    v = {"theta_prime_zeros": ids.theta_prime_at_zeros(zs)}
    v["basis_diagonal"], v["basis_off_diagonal"] = ids.basis_value_table(zs)
    v["restriction_isometry"], v["restriction_point_mass"] = \
        ids.restriction_isometry(zs)
    Z = cfg.cutoff_Z
    # K pushes content up to the full band [-Z, Z], so sample above the
    # 2Z Nyquist rate (psi_gamma alone only needs Z + gamma_max)
    grid = nu.band_exact_grid(-6.0, 38.0, 2.0 * Z, 200.0)
    psi = db.psi_gamma(zs.ordinates[0], zs, Z, grid)
    v["psi_norm"] = ids.l2_defect(psi)
    v["k_fixes_basis"] = ids.k_fixes_basis(psi, Z)
    v["transform_agreement"] = ids.transform_agreement(psi, Z)
    return v


def suite_hilbert_polya(cfg: RunConfig) -> Dict[str, float]:
    rng = np.random.default_rng(_SEED + 4)
    zs = cfg.catalog
    z = 3.0
    v = {"s_pi_half": abs(hp.s_theta(math.pi / 2, z) + ids.xi_product(0.5 - 1j * z))}

    p = hp.ExtensionParams(math.pi / 2)
    samples = [complex(rng.uniform(-30, 30), rng.uniform(-2, 2))
               for _ in range(12)]
    sets = [(g, [z for z in samples if abs(z - g) > 0.5])
            for g in zs.ordinates[:8]]
    v["eigen_residual"], perturbed = ids.eigen_residuals(p, sets, sets[0])
    v["eigen_perturbed"] = 1e-2 - perturbed

    grid = nu.band_exact_grid(-4.0, 18.0, 500.0 + zs.ordinates[-1], 50.0)
    v["decompose_null"], decs = ids.decomposition_null(
        rng, 2, zs, 500.0, grid, wf.random_combination)
    worst_pair = 0.0
    for psi, dec, _ in decs:
        pv = wf.weil_pairing(psi, psi, zs).value
        pv1 = wf.tau_norm(dec.coeffs, zs)
        worst_pair = max(worst_pair, abs(pv - pv1) / max(abs(pv), 1e-30))
    v["pairing_tau_norm"] = worst_pair
    v["spectra_interlace"] = ids.spectra_interlace(zs)
    return v


_SUITE_FN = {
    "special": suite_special,
    "weil": suite_weil,
    "screw": suite_screw,
    "debranges": suite_debranges,
    "hilbert_polya": suite_hilbert_polya,
}
SUITES = tuple(_SUITE_FN) + ("all",)


def _no_ordinates(zs: zc.ZeroSet, cfg: RunConfig) -> bool:
    """True, with the config error printed, when the catalog zs is empty."""
    if not len(zs):
        print("config error: no zero ordinates below T = %g" % cfg.height_T,
              file=sys.stderr)
    return not len(zs)


def run_verify(suite: str, cfg: RunConfig) -> int:
    if suite != "special" and _no_ordinates(cfg.catalog, cfg):
        return 2
    names = list(_SUITE_FN) if suite == "all" else [suite]
    all_rows: List[dict] = []
    for name in names:
        t0 = time.time()
        rows = _rows(cfg, _SUITE_FN[name](cfg))
        elapsed = time.time() - t0
        for r in rows:
            print("%-6s %-28s value=%.3e bound=%.3e" % (
                "PASS" if r["pass"] else "FAIL", r["check_id"], r["value"],
                r["bound"]))
        print("suite %s: %d checks, %.1fs" % (name, len(rows), elapsed))
        all_rows.extend(rows)
    os.makedirs(cfg.out_dir, exist_ok=True)
    report_path = os.path.join(cfg.out_dir, "report_%s.json" % suite)
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(all_rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("report: %s" % report_path)
    return 0 if all(r["pass"] for r in all_rows) else 1


# ----------------------------------------------------------------------
# zeros and export commands
# ----------------------------------------------------------------------

def run_zeros(action: str, cfg: RunConfig) -> int:
    """compute (no file), import (the table cfg.zero_source names) or list the cache."""
    cache = cfg.cache_dir
    if action == "compute":
        zs = zc.compute_zeros(cfg.height_T)
        if _no_ordinates(zs, cfg):
            return 2
        rep = zc.counting_check(zs)
        print("computed %d ordinates up to T=%g (count estimate %.2f, %s)"
              % (len(zs), cfg.height_T, rep.estimate,
                 "ok" if rep.passed else "DISCREPANT"))
        return 0
    if action == "import":
        if cfg.zero_source == "compute":
            print("config error: zeros import reads a table, given by "
                  "--zeros <path> or zeros = <path>", file=sys.stderr)
            return 2
        zs = zc.load_zeros(cfg.zero_source, cfg.height_T)
        os.makedirs(cache, exist_ok=True)
        dest = zc.cache_file(cache, cfg.height_T)
        zc.save_zeros(dest, zs)
        print("imported %d ordinates -> %s" % (len(zs), dest))
        return 0
    entries = sorted(f for f in (os.listdir(cache) if os.path.isdir(cache) else [])
                     if f.startswith("zeros_T") and f.endswith(".txt"))
    if not entries:
        print("(empty cache)")
    for f in entries:
        try:
            zs = zc.read_cache(os.path.join(cache, f))
        except ValueError as exc:
            print("%s: unreadable (%s)" % (f, exc))
            continue
        if zs is None:
            print("%s: not an imported table (ignored)" % f)
            continue
        print("%s: %d ordinates (table)" % (f, len(zs)))
    return 0


def _write_csv(path: str, x, values) -> None:
    """CSV export: header x,re,im; one row per point; 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,re,im\n")
        for x_, v in zip(x, values):
            fh.write("%.17g,%.17g,%.17g\n" % (x_, v.real, v.imag))


def _check_export_size(n: float, what: str) -> None:
    """An export range holds at most numerics.POINT_LIMIT points, the limit
    numerics.Grid sets on grids and axis sweeps; more is a usage error,
    raised before anything is allocated."""
    if n > nu.POINT_LIMIT:
        raise ValueError("%s needs %.6g points, above the export limit of %d"
                         % (what, n, nu.POINT_LIMIT))


def run_export(what: str, arg: Optional[str], cfg: RunConfig) -> int:
    """Write one CSV artifact; omega needs no catalog, so it reads none."""
    if what != "omega" and _no_ordinates(cfg.catalog, cfg):
        return 2
    if what in ("psi_gamma", "F_gamma"):
        zs = cfg.catalog
        idx = int(arg or "1")
        if not (1 <= idx <= len(zs)):
            print("%s index out of range" % what, file=sys.stderr)
            return 2
        g = zs.ordinates[idx - 1]
        if cfg.grid_spec:
            grid = nu.Grid(*cfg.grid_spec)
        elif what == "psi_gamma":
            grid = nu.band_exact_grid(-6.0, 38.0,
                                      cfg.cutoff_Z + zs.ordinates[-1], 50.0)
        else:
            grid = nu.Grid(-120.0, 120.0, 4801)
        x = grid.nodes()
        vals = (db.psi_gamma(g, zs, cfg.cutoff_Z, grid).values
                if what == "psi_gamma"
                else db.BasisFunction(g, zs).values_on_axis(x))
        name = "%s_%d.csv" % (what, idx)
    else:
        text = arg or ("0:5:0.01" if what == "screw_g" else "-5:5:0.01")
        a, b, step = parse_range(text)
        n = _range_points(a, b, step)
        _check_export_size(n, "range " + text)
        # a + k step for k < n, the last node rounded onto b if past it
        x = np.minimum(a + step * np.arange(int(n)), b)
        if what == "screw_g":
            vals = wf.screw_g_array(x, cfg.catalog)
        else:
            vals = sf.omega_profile(x).astype(complex)
        name = "%s.csv" % what

    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    _write_csv(path, x, vals)
    print("wrote %s" % path)
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key = value configuration file")
    common.add_argument("--zeros", default=argparse.SUPPRESS,
                        help="ordinate table path, or 'compute' to sweep")
    common.add_argument("--height-T", type=float, default=argparse.SUPPRESS)
    common.add_argument("--cutoff-Z", type=float, default=argparse.SUPPRESS)
    common.add_argument("--grid", default=argparse.SUPPRESS,
                        help="output grid 'xmin:xmax:n'")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory")
    common.add_argument("--tol", action="append", default=argparse.SUPPRESS,
                        metavar="ID=VALUE", help="tolerance override")

    parser = argparse.ArgumentParser(
        prog="weil-lab", parents=[common],
        description="verification suites and artifacts for the zero-catalog "
                    "hermitian form, its model-space basis, and the screw kernel")
    sub = parser.add_subparsers(dest="command")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)

    p_zeros = sub.add_parser("zeros", parents=[common],
                             help="manage the ordinate cache")
    p_zeros.add_argument("action", choices=("import", "compute", "list"))

    p_export = sub.add_parser("export", parents=[common],
                              help="emit CSV artifacts")
    p_export.add_argument("object",
                          choices=("psi_gamma", "screw_g", "omega", "F_gamma"))
    p_export.add_argument("arg", nargs="?",
                          help="index (psi_gamma, F_gamma) or range a:b:step")
    return parser


# config-file key, which is also the flag's argparse dest ->
# (RunConfig field, parser of the file's text)
_KEYS = {"zeros": ("zero_source", str), "height_T": ("height_T", float),
         "cutoff_Z": ("cutoff_Z", float), "grid": ("grid_spec", parse_grid_spec),
         "out": ("out_dir", str)}


def make_config(args: argparse.Namespace) -> RunConfig:
    """The --config file's values with the flags over them (module
    docstring); WEIL_LAB_CACHE is read here and nowhere else."""
    given = load_config_file(args.config) if "config" in args else {}
    tols = {k[4:]: float(v) for k, v in given.items() if k.startswith("tol.")}
    unknown = sorted(k for k in given if k not in _KEYS and not k.startswith("tol."))
    if unknown:
        raise ValueError("unknown config key(s): %s" % ", ".join(unknown))
    for item in getattr(args, "tol", []):
        if "=" not in item:
            raise ValueError("--tol expects ID=VALUE, got %r" % item)
        key, val = item.split("=", 1)
        tols[key.strip()] = float(val)
    given.update((k, v) for k, v in vars(args).items() if k in _KEYS)
    cache = os.environ.get("WEIL_LAB_CACHE") or (
        os.path.join(os.path.expanduser("~"), ".cache", "weil_lab")
        if args.command == "zeros" else None)
    return RunConfig(**{name: parse(given[k]) for k, (name, parse)
                        in _KEYS.items() if k in given},
                     cache_dir=cache, tolerances=tols)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    stage = "config error"
    try:
        cfg = make_config(args)
        stage = "error"
        if args.command == "verify":
            return run_verify(args.suite, cfg)
        if args.command == "zeros":
            return run_zeros(args.action, cfg)
        return run_export(args.object, args.arg, cfg)
    except ValueError as exc:
        print("%s: %s" % (stage, exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
