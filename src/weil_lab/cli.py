"""Command-line front end: verification suites, the catalog sweep, and
CSV/JSON artifact export.

One table, CHECKS, holds each check's id, suite, anchor, default bound and
evaluator in report order; the suite names, and the ids a --tol or tol. key
may name, come from it. A suite's function makes the work its checks share
and returns their rows, each valued by its evaluator from that work;
identities the acceptance suite also checks come from weil_lab.identities.
A command that reads the catalog (every suite but 'special', zeros compute,
every export but omega) needs an ordinate below T, or exits 2.

Configuration: the keys zeros, height_T, cutoff_Z, grid, out and tol.<id>
of a --config file, then the flags of the same names over them; a key
neither gives keeps its RunConfig default. Any other file key, a
height_T that is not finite or above zero_catalog.MAX_HEIGHT, a cutoff_Z
outside [500, zero_catalog.MAX_CUTOFF], and a grid that numerics.Grid
rejects, is a config error.

The catalog is the table that zeros names (a path), else the sweep
(zeros = compute, the default).

Exit codes: 0 all checks pass, 1 check failure, 2 usage/config error,
3 I/O error. Reports are strict JSON lists of rows {check_id, anchor,
value, bound, pass}, a non-finite value null and failing; outputs are
bitwise deterministic for a fixed configuration and ordinate table.
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
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

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
    tolerances: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.height_T) and self.height_T <= zc.MAX_HEIGHT):
            raise ValueError("height_T must be finite and <= %g" % zc.MAX_HEIGHT)
        if not 500.0 <= self.cutoff_Z <= zc.MAX_CUTOFF:
            raise ValueError("cutoff_Z must be in [500, %g]" % zc.MAX_CUTOFF)
        unknown = sorted(set(self.tolerances) - {c.id for c in CHECKS})
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
        the sweep."""
        if self.zero_source != "compute":
            return zc.load_zeros(self.zero_source, self.height_T)
        return zc.compute_zeros(self.height_T)


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


class Check(NamedTuple):
    id: str
    suite: str
    anchor: str
    bound: float
    evaluate: Callable[[SimpleNamespace], Optional[float]]


def _gap(value, ref) -> float:
    """|value - ref| / |ref|, with |ref| floored at 1e-30."""
    return abs(value - ref) / max(abs(ref), 1e-30)


# The check table, in report order. An evaluator values its check from the
# work its suite's function made, and returns None only where the catalog
# cannot supply the check. psi_norm's bound is the 1e-2 floor:
# psi_gamma_tail_bound(gamma_1, Z) < 2e-3 at Z >= 500, T <= 120.
CHECKS = (
    Check("xi_half_reference", "special", "xi(s) = (1/2)s(s-1)pi^(-s/2)Gamma(s/2)zeta(s) "
          "at s=1/2", 1e-10, lambda w: w.xi_theta[0]),
    Check("xi_symmetry", "special", "xi(s) = its defining product at 100 random s", 1e-10,
          lambda w: w.xi_theta[1]),
    Check("theta_unimodular", "special", "|Theta(x)| = 1 for real x", 1e-12,
          lambda w: w.xi_theta[2]),
    Check("theta_at_zero", "special", "Theta(0) = 1", 1e-12, lambda w: w.xi_theta[3]),
    Check("omega_even", "special", "omega(x) = omega(-x)", 1e-12,
          lambda w: abs(sf.omega_profile(0.3) - sf.omega_profile(-0.3))),
    Check("omega_transform", "special", "omega^(z) = xi(1/2 - iz)", 1e-6,
          lambda w, z=np.array([0.0, 1.0, 2.0]): np.max(np.abs(
              nu.fourier_integral(sf.omega_profile, (-5.0, 5.0), z) - sf.xi(0.5 - 1j * z).xi))),
    Check("omega_decay", "special", "omega(5) below series floor", 1e-16,
          lambda w: abs(sf.omega_profile(5.0))),
    Check("basis_pairing_diagonal", "weil", "<psi_g, psi_g>_W = 1/pi", 1e-5,
          lambda w: w.pairing[0]),
    # a catalog of one zero has no second psi_gamma
    Check("basis_pairing_cross", "weil", "<psi_g, psi_g'>_W = 0", 1e-5,
          lambda w: w.pairing[1] if len(w.pairing) > 1 else None),
    Check("positivity_random", "weil", "Re <psi,psi>_W >= -(tail + quad)", 0.0,
          lambda w: w.positivity),
    Check("hermitian_symmetry", "weil", "<a,b>_W = conj <b,a>_W", 1e-12,
          lambda w: _gap(np.conj(wf.weil_pairing(w.b, w.a, w.zs).value), w.ab)),
    Check("sesquilinearity", "weil", "<c a, b>_W = c <a,b>_W", 1e-10,
          lambda w: abs(wf.weil_pairing(wf.TestFunction.combination([w.c], [w.a]), w.b,
                                        w.zs).value - w.c * w.ab) / max(abs(w.ab), 1e-30)),
    Check("screw_origin", "screw", "g(0) = 0", 1e-15, lambda w: abs(wf.screw_g(0.0, w.zs))),
    Check("screw_conjugate", "screw", "g(-t) = conj g(t)", 1e-12,
          lambda w: abs(wf.screw_g(-1.7, w.zs) - np.conj(wf.screw_g(1.7, w.zs)))),
    Check("kernel_hermitian", "screw", "G(t,s) = conj G(s,t)", 1e-12,
          lambda w: abs(wf.screw_kernel(1.1, 0.4, w.zs)
                        - np.conj(wf.screw_kernel(0.4, 1.1, w.zs)))),
    Check("gram_psd", "screw", "Gram matrices of G_g are PSD", 0.0, lambda w: w.gram),
    Check("screw_equals_weil", "screw", "<phi,phi>_G = <antiderivative phi, same>_W", 0.0,
          lambda w: w.screw_weil),
    Check("antiderivative_transform", "screw", "psi^(z) = phi^(z)/(-iz)", 1e-10,
          lambda w, z=3.0: abs(w.psi.fourier(z) - w.phi.fourier(z) / (-1j * z))),
    Check("theta_prime_zeros", "debranges", "Theta'(gamma) = -2i/m_gamma", 1e-5,
          lambda w: w.theta_prime),
    Check("basis_diagonal", "debranges", "F_gamma(gamma) = -i/sqrt(m pi)", 1e-6,
          lambda w: w.basis_values[0]),
    Check("basis_off_diagonal", "debranges", "F_gamma(gamma') = 0", 1e-6,
          lambda w: w.basis_values[1]),
    Check("restriction_isometry", "debranges", "||F_gamma||^2 = sum |F_gamma|^2 * 2pi/|Theta'|",
          1e-2, lambda w: w.restriction[0]),
    Check("restriction_point_mass", "debranges", "sum |F_gamma(gamma')|^2 pi m = 1", 1e-6,
          lambda w: w.restriction[1]),
    Check("psi_norm", "debranges", "2 pi ||psi_gamma||^2 = 1", 1e-2,
          lambda w: ids.l2_defect(w.psi)),
    Check("k_fixes_basis", "debranges", "K psi_gamma = psi_gamma", 5e-2,
          lambda w: ids.k_fixes_basis(w.psi, w.Z)),
    # 4 eps MAX_CUTOFF 38: the direct sum's phase rounding at any cutoff_Z
    Check("transform_agreement", "debranges", "chirp-z transform of psi_gamma = direct sum "
          "at 17 nodes", 4.0 * sys.float_info.epsilon * zc.MAX_CUTOFF * 38.0,
          lambda w: ids.transform_agreement(w.psi, w.Z)),
    Check("s_pi_half", "hilbert_polya", "S_{pi/2}(z) = -xi(1/2 - iz)", 1e-12,
          lambda w, z=3.0: abs(hp.s_theta(math.pi / 2, z) + ids.xi_product(0.5 - 1j * z))),
    Check("eigen_residual", "hilbert_polya", "M_{pi/2} G = gamma G on the basis", 1e-7,
          lambda w: w.eigen[0]),
    Check("eigen_perturbed", "hilbert_polya", "shifted eigenvalue is detected", 0.0,
          lambda w: 1e-2 - w.eigen[1]),
    Check("decompose_null", "hilbert_polya", "psi0 transforms vanish on the catalog", 1e-5,
          lambda w: w.null),
    Check("pairing_tau_norm", "hilbert_polya", "<psi,psi>_W = sum m |psihat(gamma)|^2", 1e-10,
          lambda w: ids._worst([_gap(wf.tau_norm(dec.coeffs, w.zs),
                                     wf.weil_pairing(psi, psi, w.zs).value)
                                for psi, dec, _ in w.decs], 0.0)),
    Check("spectra_interlace", "hilbert_polya", "S_0 = i xi' changes sign once per catalog "
          "gap, none below gamma_1", 0.0, lambda w: ids.spectra_interlace(w.zs)),
)


def _evaluate(suite: str, cfg: RunConfig, **work) -> List[dict]:
    """The report rows of suite's checks, in table order, each valued by its
    evaluator from work; a check valued None has no row."""
    w = SimpleNamespace(**work)
    rows = []
    for check in CHECKS:
        value = check.evaluate(w) if check.suite == suite else None
        if value is not None:
            value, bound = float(value), float(cfg.tolerances.get(check.id, check.bound))
            rows.append({"check_id": check.id, "anchor": check.anchor, "value": value,
                         "bound": bound, "pass": math.isfinite(value) and value <= bound})
    return rows


# suites: each makes, in its rows' order, the work its checks share and
# every draw from its RNG stream, so no evaluator draws

def suite_special(cfg: RunConfig) -> List[dict]:
    rng = np.random.default_rng(_SEED)
    return _evaluate("special", cfg, xi_theta=ids.xi_theta_values(rng, 110.0))


def suite_weil(cfg: RunConfig) -> List[dict]:
    rng = np.random.default_rng(_SEED + 1)
    zs, Z = cfg.catalog, cfg.cutoff_Z
    grid = nu.band_exact_grid(-8.0, 38.0, Z + zs.ordinates[-1], 50.0)
    psis = [db.psi_gamma(g, zs, Z, grid) for g in zs.ordinates[:2]]
    pairing = ids.basis_pairing(psis, zs)
    positivity = ids.positivity_margin(rng, 20, zs, wf.random_combination)
    a, b = wf.random_combination(rng), wf.random_combination(rng)
    c = complex(rng.standard_normal(), rng.standard_normal())
    return _evaluate("weil", cfg, zs=zs, pairing=pairing, positivity=positivity,
                     a=a, b=b, c=c, ab=wf.weil_pairing(a, b, zs).value)


def suite_screw(cfg: RunConfig) -> List[dict]:
    rng = np.random.default_rng(_SEED + 2)
    zs = cfg.catalog
    phi = wf.TestFunction.bump(0.2, 0.9).derivative()
    return _evaluate("screw", cfg, zs=zs, phi=phi, psi=wf.antiderivative(phi),
                     gram=ids.gram_psd_margin(rng, 20, zs),
                     screw_weil=ids.screw_weil_margin(rng, 3, zs))


def suite_debranges(cfg: RunConfig) -> List[dict]:
    zs, Z = cfg.catalog, cfg.cutoff_Z
    # K pushes content up to the full band [-Z, Z], so sample above the
    # 2Z Nyquist rate (psi_gamma alone only needs Z + gamma_max)
    grid = nu.band_exact_grid(-6.0, 38.0, 2.0 * Z, 200.0)
    return _evaluate("debranges", cfg, Z=Z, theta_prime=ids.theta_prime_at_zeros(zs),
                     basis_values=ids.basis_value_table(zs),
                     restriction=ids.restriction_isometry(zs),
                     psi=db.psi_gamma(zs.ordinates[0], zs, Z, grid))


def suite_hilbert_polya(cfg: RunConfig) -> List[dict]:
    rng = np.random.default_rng(_SEED + 4)
    zs = cfg.catalog
    samples = [complex(rng.uniform(-30, 30), rng.uniform(-2, 2)) for _ in range(12)]
    sets = [(g, [z for z in samples if abs(z - g) > 0.5]) for g in zs.ordinates[:8]]
    eigen = ids.eigen_residuals(hp.ExtensionParams(math.pi / 2), sets, sets[0])
    grid = nu.band_exact_grid(-4.0, 18.0, 500.0 + zs.ordinates[-1], 50.0)
    null, decs = ids.decomposition_null(rng, 2, zs, 500.0, grid, wf.random_combination)
    return _evaluate("hilbert_polya", cfg, zs=zs, eigen=eigen, null=null, decs=decs)


# suite name -> suite function, in table order
_SUITE_FN = {check.suite: globals()["suite_" + check.suite] for check in CHECKS}
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
        rows = _SUITE_FN[name](cfg)
        elapsed = time.time() - t0
        for r in rows:
            print("%-6s %-28s value=%.3e bound=%.3e" % (
                "PASS" if r["pass"] else "FAIL", r["check_id"], r["value"], r["bound"]))
        print("suite %s: %d checks, %.1fs" % (name, len(rows), elapsed))
        all_rows.extend(rows)
    os.makedirs(cfg.out_dir, exist_ok=True)
    report_path = os.path.join(cfg.out_dir, "report_%s.json" % suite)
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump([r if math.isfinite(r["value"]) else dict(r, value=None)
                   for r in all_rows], fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("report: %s" % report_path)
    return 0 if all(r["pass"] for r in all_rows) else 1


# ----------------------------------------------------------------------
# zeros and export commands
# ----------------------------------------------------------------------

def run_zeros(cfg: RunConfig) -> int:
    """zeros compute: sweep to height_T and check the count; writes no file.
    A table (zeros = PATH) is a ValueError: the command always sweeps."""
    if cfg.zero_source != "compute":
        raise ValueError("zeros compute always sweeps and reads no table, "
                         "but zeros names %r" % cfg.zero_source)
    zs = zc.compute_zeros(cfg.height_T)
    if _no_ordinates(zs, cfg):
        return 2
    rep = zc.counting_check(zs)
    print("computed %d ordinates up to T=%g (count estimate %.2f, %s)"
          % (len(zs), cfg.height_T, rep.estimate, "ok" if rep.passed else "DISCREPANT"))
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
                             help="sweep the zero catalog and check its count")
    p_zeros.add_argument("action", choices=("compute",))

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
    docstring)."""
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
    return RunConfig(**{name: parse(given[k]) for k, (name, parse)
                        in _KEYS.items() if k in given}, tolerances=tols)


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
            return run_zeros(cfg)
        return run_export(args.object, args.arg, cfg)
    except ValueError as exc:
        print("%s: %s" % (stage, exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
