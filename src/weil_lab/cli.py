"""Command-line front end: verification suites, zero-cache management, and
CSV/JSON artifact export.

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
from . import numerics as nu
from . import special_fn as sf
from . import weil_form as wf
from . import zero_catalog as zc

SUITES = ("special", "weil", "debranges", "screw", "hilbert_polya", "all")
_SEED = 20240601

# frozen 25-digit reference for xi(1/2), from an independent high-precision
# evaluation of (1/2) s (s-1) pi^(-s/2) Gamma(s/2) zeta(s)
XI_HALF_REF = 0.4971207781883141099127737


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
        if self.height_T > zc.MAX_HEIGHT:
            raise ValueError("height_T must be <= %g" % zc.MAX_HEIGHT)
        if self.cutoff_Z < 500.0:
            raise ValueError("cutoff_Z must be >= 500")

    def tol(self, check_id: str, default: float) -> float:
        return float(self.tolerances.get(check_id, default))

    @functools.cached_property
    def catalog(self) -> zc.ZeroSet:
        """The zero catalog, computed or loaded once per configuration."""
        if self.zero_source == "compute":
            return zc.compute_zeros(self.height_T, cache_dir=self.cache_dir)
        return zc.load_zeros(self.zero_source, self.height_T)


def parse_grid_spec(text: str) -> Tuple[float, float, int]:
    try:
        a, b, n = text.split(":")
        return float(a), float(b), int(n)
    except Exception:
        raise ValueError("grid spec must look like 'xmin:xmax:n'")


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


@dataclass
class CheckRow:
    check_id: str
    anchor: str
    value: float
    bound: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {"check_id": self.check_id, "anchor": self.anchor,
                "value": self.value, "bound": self.bound, "pass": self.passed}


def _row(check_id: str, anchor: str, value: float, bound: float) -> CheckRow:
    value = float(value)
    bound = float(bound)
    return CheckRow(check_id, anchor, value, bound, value <= bound)


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def suite_special(cfg: RunConfig) -> List[CheckRow]:
    rng = np.random.default_rng(_SEED)
    rows = []

    v = sf.xi(0.5)
    rows.append(_row("xi_half_reference",
                     "xi(s) = (1/2)s(s-1)pi^(-s/2)Gamma(s/2)zeta(s) at s=1/2",
                     abs(v.xi - XI_HALF_REF) / XI_HALF_REF,
                     cfg.tol("xi_half_reference", 1e-10)))

    worst = 0.0
    for _ in range(100):
        s = complex(rng.uniform(-8, 9), rng.uniform(-110, 110))
        a = sf.xi(s).xi
        b = sf.xi(1.0 - s).xi
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    rows.append(_row("xi_symmetry", "xi(s) = xi(1-s)", worst,
                     cfg.tol("xi_symmetry", 1e-10)))

    x = rng.uniform(-110, 110, size=100)
    worst = float(np.max(np.abs(np.abs(sf.theta_on_axis(x)) - 1.0)))
    rows.append(_row("theta_unimodular", "|Theta(x)| = 1 for real x", worst,
                     cfg.tol("theta_unimodular", 1e-12)))

    rows.append(_row("theta_at_zero", "Theta(0) = 1",
                     abs(sf.theta_xi(0.0) - 1.0),
                     cfg.tol("theta_at_zero", 1e-12)))

    rows.append(_row("omega_even", "omega(x) = omega(-x)",
                     abs(sf.omega_profile(0.3) - sf.omega_profile(-0.3)),
                     cfg.tol("omega_even", 1e-12)))

    worst = 0.0
    for z in (0.0, 1.0, 2.0):
        got = nu.fourier_integral(
            lambda u: np.array([sf.omega_profile(t) for t in np.atleast_1d(u)]),
            (-5.0, 5.0), z)
        ref = sf.xi(0.5 - 1j * z).xi
        worst = max(worst, abs(got - ref))
    rows.append(_row("omega_transform", "omega^(z) = xi(1/2 - iz)", worst,
                     cfg.tol("omega_transform", 1e-6)))

    rows.append(_row("omega_decay", "omega(5) below series floor",
                     abs(sf.omega_profile(5.0)), cfg.tol("omega_decay", 1e-16)))
    return rows


def suite_weil(cfg: RunConfig) -> List[CheckRow]:
    rng = np.random.default_rng(_SEED + 1)
    zs = cfg.catalog
    rows = []
    gmax = zs.ordinates[-1] if len(zs) else 50.0

    if len(zs):
        g1 = zs.ordinates[0]
        Z = max(cfg.cutoff_Z, 500.0)
        grid = nu.band_exact_grid(-8.0, 38.0, Z + gmax, 50.0)
        p1 = db.psi_gamma(g1, zs, Z, grid)
        fv = wf.weil_pairing(p1, p1, zs)
        rows.append(_row("basis_pairing_diagonal",
                         "<psi_g, psi_g>_W = 1/pi",
                         abs(fv.value - 1.0 / math.pi),
                         cfg.tol("basis_pairing_diagonal", 1e-5)))
        if len(zs) > 1:
            p2 = db.psi_gamma(zs.ordinates[1], zs, Z, grid)
            fv12 = wf.weil_pairing(p1, p2, zs)
            rows.append(_row("basis_pairing_cross",
                             "<psi_g, psi_g'>_W = 0",
                             abs(fv12.value),
                             cfg.tol("basis_pairing_cross", 1e-5)))

    worst = -1e30
    for _ in range(20):
        psi = wf.random_combination(rng)
        fv = wf.weil_pairing(psi, psi, zs)
        margin = fv.value.real + fv.tail_bound + fv.quad_error
        worst = max(worst, -margin)
    rows.append(_row("positivity_random",
                     "Re <psi,psi>_W >= -(tail + quad)", worst,
                     cfg.tol("positivity_random", 0.0)))

    a = wf.random_combination(rng)
    b = wf.random_combination(rng)
    ab = wf.weil_pairing(a, b, zs).value
    ba = wf.weil_pairing(b, a, zs).value
    rows.append(_row("hermitian_symmetry",
                     "<a,b>_W = conj <b,a>_W",
                     abs(ab - np.conj(ba)) / max(abs(ab), 1e-30),
                     cfg.tol("hermitian_symmetry", 1e-12)))

    c = complex(rng.standard_normal(), rng.standard_normal())
    ca = wf.TestFunction.combination([c], [a])
    lin = wf.weil_pairing(ca, b, zs).value - c * ab
    rows.append(_row("sesquilinearity",
                     "<c a, b>_W = c <a,b>_W",
                     abs(lin) / max(abs(ab), 1e-30),
                     cfg.tol("sesquilinearity", 1e-10)))
    return rows


def suite_screw(cfg: RunConfig) -> List[CheckRow]:
    rng = np.random.default_rng(_SEED + 2)
    zs = cfg.catalog
    rows = []

    rows.append(_row("screw_origin", "g(0) = 0", abs(wf.screw_g(0.0, zs)),
                     cfg.tol("screw_origin", 1e-15)))
    rows.append(_row("screw_conjugate", "g(-t) = conj g(t)",
                     abs(wf.screw_g(-1.7, zs) - np.conj(wf.screw_g(1.7, zs))),
                     cfg.tol("screw_conjugate", 1e-12)))
    rows.append(_row("kernel_hermitian", "G(t,s) = conj G(s,t)",
                     abs(wf.screw_kernel(1.1, 0.4, zs)
                         - np.conj(wf.screw_kernel(0.4, 1.1, zs))),
                     cfg.tol("kernel_hermitian", 1e-12)))

    worst = -1e30
    for _ in range(20):
        nodes = rng.uniform(-3, 3, size=8)
        M = np.empty((8, 8), dtype=complex)
        for i in range(8):
            for j in range(8):
                M[i, j] = wf.screw_kernel(nodes[i], nodes[j], zs)
        ev = np.linalg.eigvalsh(M)
        worst = max(worst, -(ev[0] + 1e-8 * np.trace(M).real))
    rows.append(_row("gram_psd",
                     "Gram matrices of G_g are PSD", worst,
                     cfg.tol("gram_psd", 0.0)))

    worst = 0.0
    for _ in range(3):
        phi = wf.random_mean_zero(rng)
        psi = wf.antiderivative(phi)
        sv = wf.screw_form(phi, phi, zs)
        pv = wf.weil_pairing(psi, psi, zs)
        gap = abs(sv.value - pv.value)
        budget = sv.quad_error + sv.tail_bound + pv.tail_bound + pv.quad_error + 1e-10
        worst = max(worst, gap - budget)
    rows.append(_row("screw_equals_weil",
                     "<phi,phi>_G = <antiderivative phi, same>_W", worst,
                     cfg.tol("screw_equals_weil", 0.0)))

    phi = wf.TestFunction.bump(0.2, 0.9).derivative()
    psi = wf.antiderivative(phi)
    lam = 3.0
    rows.append(_row("antiderivative_transform",
                     "psi^(z) = phi^(z)/(-iz)",
                     abs(psi.fourier(lam) - phi.fourier(lam) / (-1j * lam)),
                     cfg.tol("antiderivative_transform", 1e-10)))
    return rows


def suite_debranges(cfg: RunConfig) -> List[CheckRow]:
    zs = cfg.catalog
    rows = []
    worst = 0.0
    for g in zs.ordinates:
        worst = max(worst, abs(db.theta_prime_at_zero(g) + 2j))
    rows.append(_row("theta_prime_zeros", "Theta'(gamma) = -2i/m_gamma",
                     worst, cfg.tol("theta_prime_zeros", 1e-5)))

    gam = np.array(zs.ordinates)
    worst_diag = worst_off = 0.0
    for g in zs.ordinates:
        F = db.BasisFunction(g, zs)
        vals = F.values_on_axis(gam)
        i = int(np.argmin(np.abs(gam - g)))
        worst_diag = max(worst_diag,
                         abs(vals[i] + 1j / math.sqrt(math.pi * F.m_gamma)))
        off = np.abs(np.delete(vals, i))
        if len(off):
            worst_off = max(worst_off, float(off.max()))
    rows.append(_row("basis_diagonal", "F_gamma(gamma) = -i/sqrt(m pi)",
                     worst_diag, cfg.tol("basis_diagonal", 1e-6)))
    rows.append(_row("basis_off_diagonal", "F_gamma(gamma') = 0",
                     worst_off, cfg.tol("basis_off_diagonal", 1e-6)))

    worst_ratio = worst_rhs = 0.0
    for g in zs.ordinates[:3]:
        lhs, rhs = db.restriction_isometry_check(g, zs)
        worst_ratio = max(worst_ratio, abs(lhs / rhs - 1.0))
        worst_rhs = max(worst_rhs, abs(rhs - 1.0))
    rows.append(_row("restriction_isometry",
                     "||F_gamma||^2 = sum |F_gamma|^2 * 2pi/|Theta'|",
                     worst_ratio, cfg.tol("restriction_isometry", 1e-2)))
    rows.append(_row("restriction_point_mass",
                     "sum |F_gamma(gamma')|^2 pi m = 1",
                     worst_rhs, cfg.tol("restriction_point_mass", 1e-6)))

    if len(zs):
        g1 = zs.ordinates[0]
        Z = max(cfg.cutoff_Z, 500.0)
        # K pushes content up to the full band [-Z, Z], so sample above the
        # 2Z Nyquist rate (psi_gamma alone only needs Z + gamma_max)
        grid = nu.band_exact_grid(-6.0, 38.0, 2.0 * Z, 200.0)
        psi = db.psi_gamma(g1, zs, Z, grid)
        defect = abs(2 * math.pi * nu.grid_norm_sq(psi) - 1.0)
        rows.append(_row("psi_norm", "2 pi ||psi_gamma||^2 = 1", defect,
                         cfg.tol("psi_norm",
                                 max(db.psi_gamma_tail_bound(g1, Z), 1e-2))))
        k_psi = db.K_apply(psi, Z, band_limit=Z)
        diff = nu.GridFunction(grid, k_psi.values - psi.values, "time")
        rows.append(_row("k_fixes_basis", "K psi_gamma = psi_gamma",
                         math.sqrt(max(nu.grid_norm_sq(diff), 0.0)),
                         cfg.tol("k_fixes_basis", 5e-2)))
    return rows


def suite_hilbert_polya(cfg: RunConfig) -> List[CheckRow]:
    rng = np.random.default_rng(_SEED + 4)
    zs = cfg.catalog
    rows = []

    z = 3.0
    rows.append(_row("s_pi_half", "S_{pi/2}(z) = -xi(1/2 - iz)",
                     abs(hp.s_theta(math.pi / 2, z) + sf.xi(0.5 - 1j * z).xi),
                     cfg.tol("s_pi_half", 1e-12)))

    p = hp.ExtensionParams(math.pi / 2)
    worst = 0.0
    samples = [complex(rng.uniform(-30, 30), rng.uniform(-2, 2))
               for _ in range(12)]
    for g in zs.ordinates[:8]:
        pts = [z for z in samples if abs(z - g) > 0.5]
        chk = hp.eigen_residual(p, g, pts)
        worst = max(worst, chk.residual / max(chk.g_scale, 1e-300))
    rows.append(_row("eigen_residual", "M_{pi/2} G = gamma G on the basis",
                     worst, cfg.tol("eigen_residual", 1e-7)))

    g1 = zs.ordinates[0]
    pts = [z for z in samples if abs(z - g1) > 0.5]
    chk = hp.eigen_residual(p, g1, pts, eigenvalue=g1 + 0.1)
    rows.append(_row("eigen_perturbed",
                     "shifted eigenvalue is detected",
                     1e-2 - chk.residual / max(chk.g_scale, 1e-300),
                     cfg.tol("eigen_perturbed", 0.0)))

    bank = db.build_basis_bank(zs, 500.0,
                               nu.band_exact_grid(-4.0, 18.0,
                                                  500.0 + zs.ordinates[-1], 50.0))
    worst_coeff = 0.0
    worst_pair = 0.0
    for _ in range(2):
        psi = wf.random_combination(rng)
        dec = hp.decompose_LW(psi, zs, bank=bank)
        res = dec.residual_coeffs()
        worst_coeff = max(worst_coeff, float(np.max(np.abs(res.entries))))
        pv = wf.weil_pairing(psi, psi, zs).value
        pv1 = wf.tau_norm(dec.coeffs, zs)
        worst_pair = max(worst_pair, abs(pv - pv1) / max(abs(pv), 1e-30))
    rows.append(_row("decompose_null", "psi0 transforms vanish on the catalog",
                     worst_coeff, cfg.tol("decompose_null", 1e-5)))
    rows.append(_row("pairing_tau_norm",
                     "<psi,psi>_W = sum m |psihat(gamma)|^2",
                     worst_pair, cfg.tol("pairing_tau_norm", 1e-10)))
    return rows


_SUITE_FN = {
    "special": suite_special,
    "weil": suite_weil,
    "screw": suite_screw,
    "debranges": suite_debranges,
    "hilbert_polya": suite_hilbert_polya,
}


def run_verify(suite: str, cfg: RunConfig) -> int:
    names = list(_SUITE_FN) if suite == "all" else [suite]
    all_rows: List[CheckRow] = []
    for name in names:
        t0 = time.time()
        rows = _SUITE_FN[name](cfg)
        elapsed = time.time() - t0
        for r in rows:
            print("%-6s %-28s value=%.3e bound=%.3e"
                  % ("PASS" if r.passed else "FAIL", r.check_id, r.value, r.bound))
        print("suite %s: %d checks, %.1fs" % (name, len(rows), elapsed))
        all_rows.extend(rows)
    os.makedirs(cfg.out_dir, exist_ok=True)
    report_path = os.path.join(cfg.out_dir, "report_%s.json" % suite)
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump([r.to_json_dict() for r in all_rows], fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print("report: %s" % report_path)
    return 0 if all(r.passed for r in all_rows) else 1


# ----------------------------------------------------------------------
# zeros and export commands
# ----------------------------------------------------------------------

def _cache_dir(cfg: RunConfig) -> str:
    if cfg.cache_dir:
        return cfg.cache_dir
    return os.environ.get("WEIL_LAB_CACHE",
                          os.path.join(os.path.expanduser("~"), ".cache",
                                       "weil_lab"))


def run_zeros(action: str, cfg: RunConfig, table: Optional[str]) -> int:
    cache = _cache_dir(cfg)
    if action == "compute":
        zs = zc.compute_zeros(cfg.height_T, cache_dir=cache)
        rep = zc.counting_check(zs)
        print("computed %d ordinates up to T=%g (count estimate %.2f, %s)"
              % (len(zs), cfg.height_T, rep.estimate,
                 "ok" if rep.passed else "DISCREPANT"))
        return 0
    if action == "import":
        if not table:
            print("zeros import requires --zeros <path>", file=sys.stderr)
            return 2
        zs = zc.load_zeros(table, cfg.height_T)
        os.makedirs(cache, exist_ok=True)
        dest = os.path.join(cache, "zeros_T%s.txt" % ("%g" % cfg.height_T))
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            for g in zs.ordinates:
                fh.write("%.9f\n" % g)
        print("imported %d ordinates -> %s" % (len(zs), dest))
        return 0
    if action == "list":
        if not os.path.isdir(cache):
            print("(empty cache)")
            return 0
        entries = sorted(f for f in os.listdir(cache)
                         if f.startswith("zeros_T") and f.endswith(".txt"))
        if not entries:
            print("(empty cache)")
        for f in entries:
            with open(os.path.join(cache, f), "r", encoding="utf-8") as fh:
                n = sum(1 for line in fh if line.strip())
            print("%s: %d ordinates" % (f, n))
        return 0
    print("unknown zeros action %r" % action, file=sys.stderr)
    return 2


def run_export(what: str, arg: Optional[str], cfg: RunConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    zs = cfg.catalog

    def out_path(name: str) -> str:
        return os.path.join(cfg.out_dir, name)

    if what == "psi_gamma":
        idx = int(arg or "1")
        if not (1 <= idx <= len(zs)):
            print("psi_gamma index out of range", file=sys.stderr)
            return 2
        g = zs.ordinates[idx - 1]
        if cfg.grid_spec:
            grid = nu.Grid(*cfg.grid_spec)
        else:
            grid = nu.band_exact_grid(-6.0, 38.0,
                                      cfg.cutoff_Z + zs.ordinates[-1], 50.0)
        psi = db.psi_gamma(g, zs, cfg.cutoff_Z, grid)
        path = out_path("psi_gamma_%d.csv" % idx)
        nu.write_grid_csv(psi, path)
        print("wrote %s" % path)
        return 0

    if what in ("screw_g", "omega"):
        spec = arg or ("0:5:0.01" if what == "screw_g" else "-5:5:0.01")
        try:
            a, b, step = (float(v) for v in spec.split(":"))
        except Exception:
            print("range must look like 'a:b:step'", file=sys.stderr)
            return 2
        xs = np.arange(a, b + step / 2, step)
        if what == "screw_g":
            vals = wf.screw_g_array(xs, zs)
        else:
            vals = np.array([sf.omega_profile(x) for x in xs], dtype=complex)
        path = out_path("%s.csv" % what)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,re,im\n")
            for x, v in zip(xs, vals):
                fh.write("%.17g,%.17g,%.17g\n" % (x, v.real, v.imag))
        print("wrote %s" % path)
        return 0

    if what == "F_gamma":
        idx = int(arg or "1")
        if not (1 <= idx <= len(zs)):
            print("F_gamma index out of range", file=sys.stderr)
            return 2
        g = zs.ordinates[idx - 1]
        if cfg.grid_spec:
            grid = nu.Grid(*cfg.grid_spec)
        else:
            grid = nu.Grid(-120.0, 120.0, 4801)
        F = db.BasisFunction(g, zs)
        gf = nu.GridFunction(grid, F.values_on_axis(grid.nodes()), "frequency")
        path = out_path("F_gamma_%d.csv" % idx)
        nu.write_grid_csv(gf, path)
        print("wrote %s" % path)
        return 0

    print("unknown export object %r" % what, file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key = value configuration file")
    common.add_argument("--zeros", default=argparse.SUPPRESS,
                        help="ordinate table path (else computed)")
    common.add_argument("--compute-zeros", action="store_true",
                        default=argparse.SUPPRESS,
                        help="force computing ordinates instead of a table")
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


def make_config(args: argparse.Namespace) -> RunConfig:
    get = lambda name, default=None: getattr(args, name, default)
    file_vals: Dict[str, str] = {}
    if get("config"):
        file_vals = load_config_file(get("config"))

    def pick(flag_val, key: str, default, cast):
        if flag_val is not None:
            return cast(flag_val)
        if key in file_vals:
            return cast(file_vals[key])
        return default

    zero_source = "compute"
    if not get("compute_zeros", False):
        if get("zeros"):
            zero_source = get("zeros")
        elif "zeros" in file_vals and file_vals["zeros"] != "compute":
            zero_source = file_vals["zeros"]

    tols: Dict[str, float] = {}
    for key, val in file_vals.items():
        if key.startswith("tol."):
            tols[key[4:]] = float(val)
    for item in get("tol", []) or []:
        if "=" not in item:
            raise ValueError("--tol expects ID=VALUE, got %r" % item)
        key, val = item.split("=", 1)
        tols[key.strip()] = float(val)

    grid_text = get("grid") or file_vals.get("grid")
    return RunConfig(
        zero_source=zero_source,
        height_T=pick(get("height_T"), "height_T", 100.0, float),
        cutoff_Z=pick(get("cutoff_Z"), "cutoff_Z", 1000.0, float),
        grid_spec=parse_grid_spec(grid_text) if grid_text else None,
        out_dir=pick(get("out"), "out", ".", str),
        cache_dir=os.environ.get("WEIL_LAB_CACHE"),
        tolerances=tols,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = make_config(args)
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3
    try:
        if args.command == "verify":
            return run_verify(args.suite, cfg)
        if args.command == "zeros":
            cfg.cache_dir = cfg.cache_dir or _cache_dir(cfg)
            return run_zeros(args.action, cfg, getattr(args, "zeros", None))
        if args.command == "export":
            return run_export(args.object, args.arg, cfg)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
