"""The four workloads. Each makes its inputs from a seeded generator, times
only the calls into weil_lab, and checks every output outside the timed
span (see checks.py).

A run is a fixed, seeded list of operations: ``rounds(seconds)`` whole
rounds, where a round's nominal cost on the reference machine (2-core VM,
one BLAS thread) is ``round_s``. The amount of work is therefore set by
``--seconds`` and never by how fast a run happens to go.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from weil_lab import debranges as db
from weil_lab import hilbert_polya as hp
from weil_lab import numerics as nu
from weil_lab import weil_form as wf
from weil_lab import zero_catalog as zc

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def band_grid(x_min, x_max, band, margin):
    """Uniform grid sampled above the Nyquist rate of a band-limited build
    (the acceptance fixtures' grid rule)."""
    tau = 2.0 * math.pi / (band + margin) * 0.98
    return nu.Grid(x_min, x_max, int(math.ceil((x_max - x_min) / tau)) + 1)


def freq_spacing(x_absmax):
    """The frequency spacing psi_gamma and K_apply choose by default for an
    output window reaching |x| = x_absmax; passed explicitly so the checks
    can read the same cached axis samples back."""
    return min(0.999 * nu.ALIAS_GUARD / x_absmax, 0.1)


class Workload:
    name = ""
    round_s = 1.0
    tracer = None     # the run's Tracer when traced, for work in other processes

    def rounds(self, seconds):
        return max(1, int(seconds / self.round_s))

    def setup(self, zs):
        self.zs = zs

    def round_inputs(self, rng):
        raise NotImplementedError

    def prepare(self, inp):
        """Untimed, before each operation."""

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        """Failure messages for one operation's output (empty: correct)."""
        raise NotImplementedError

    def finish(self, inp):
        """Untimed, after each operation, whether or not it failed."""


# Oracle tolerances leave room for transforms and sweeps that round
# differently (an FFT-based grid transform, a Riemann-Siegel sweep) while a
# wrong weight, phase or sign still fails by many orders of magnitude.
PSI_TOL = 1e-8        # relative to the sum of the trapezoid terms' sizes
L_TOL = 1e-8          # relative to |L(x)|
BUMP_TOL = 1e-9       # relative to the bump's integral


def _direct_psi_check(what, psi, gamma, zs, Z, h, x_idx):
    """psi_gamma samples against a plain trapezoid sum over the same
    frequency samples of F_gamma."""
    fgrid, L = db.axis_samples(Z, h)
    F = db.BasisFunction(gamma, zs).values_on_axis(fgrid.nodes(), L)
    x = psi.grid.nodes()[x_idx]
    ref, scale = checks.trapezoid_inverse(F, fgrid.x_min, fgrid.h, x)
    return checks.samples_match(what, psi.values[x_idx], ref, scale, PSI_TOL)


class CutoffLadder(Workload):
    """psi_gamma1 at Z and 2Z on one [-6, 38] grid, then K psi at Z; every
    operation starts with an empty axis cache."""
    name = "cutoff_ladder"
    round_s = 9.0
    Z = 1000.0

    def setup(self, zs):
        super().setup(zs)
        self.g1 = zs.ordinates[0]
        self.grid = band_grid(-6.0, 38.0, 4.0 * self.Z, 0.08 * self.Z)
        self.h = freq_spacing(38.0)
        self.n_freq2 = nu.symmetric_grid(2.0 * self.Z, self.h).n_points

    def round_inputs(self, rng):
        m = self.n_freq2 // 2
        return [{
            "x_idx": rng.choice(self.grid.n_points, 3, replace=False),
            # two axis nodes with x in [Z, 2Z]
            "L_idx": m + rng.integers(m // 2, m + 1, size=2),
        }]

    def prepare(self, inp):
        db.clear_axis_cache()

    def run(self, inp):
        Z, h = self.Z, self.h
        p1 = db.psi_gamma(self.g1, self.zs, Z, self.grid, freq_spacing=h)
        p2 = db.psi_gamma(self.g1, self.zs, 2.0 * Z, self.grid, freq_spacing=h)
        k = db.K_apply(p1, Z, freq_spacing=h, band_limit=Z)
        return p1, p2, k

    def check(self, inp, out):
        p1, p2, k = out
        Z, h, g1, zs = self.Z, self.h, self.g1, self.zs
        d1 = abs(2.0 * math.pi * nu.grid_norm_sq(p1) - 1.0)
        d2 = abs(2.0 * math.pi * nu.grid_norm_sq(p2) - 1.0)
        kdiff = nu.GridFunction(self.grid, k.values - p1.values, "time")
        pairing = wf.weil_pairing(p1, p1, zs).value
        _, L2 = db.axis_samples(2.0 * Z, h)
        x2 = nu.symmetric_grid(2.0 * Z, h).nodes()[inp["L_idx"]]
        ref_L = [checks.mp_log_derivative(x) for x in x2]
        return [m for m in (
            checks.at_most("defect at Z", d1, 2.0 / (math.pi * (Z - g1))),
            checks.at_most("defect at 2Z", d2, 2.0 / (math.pi * (2.0 * Z - g1))),
            checks.at_least("defect shrink on doubling Z", d1 / max(d2, 1e-300), 1.8),
            checks.at_most("||K psi - psi||", math.sqrt(max(nu.grid_norm_sq(kdiff), 0.0)), 5e-2),
            checks.at_most("|<psi,psi>_W - 1/pi|", abs(pairing - 1.0 / math.pi), 1e-5),
            _direct_psi_check("psi at Z", p1, g1, zs, Z, h, inp["x_idx"]),
            _direct_psi_check("psi at 2Z", p2, g1, zs, 2.0 * Z, h, inp["x_idx"]),
            checks.samples_match("L(x) vs mpmath", L2[inp["L_idx"]], ref_L,
                                 float(np.max(np.abs(ref_L))), L_TOL),
        ) if m]


class BasisBank(Workload):
    """psi_gamma for the 58 symmetric entries on the [-4, 18] bank grid; the
    Z = 500 axis sweep is part of setup, so every operation hits the cache."""
    name = "basis_bank"
    round_s = 1.8
    Z = 500.0

    def setup(self, zs):
        super().setup(zs)
        self.grid = band_grid(-4.0, 18.0, self.Z + zs.ordinates[-1], 150.0)
        self.h = freq_spacing(18.0)
        self.entries = [g for g, _ in zc.iterate_symmetric(zs)]
        db.clear_axis_cache()
        db.axis_samples(self.Z, self.h)

    def round_inputs(self, rng):
        return [{"gamma": self.entries[i],
                 "x_idx": rng.choice(self.grid.n_points, 2, replace=False)}
                for i in rng.permutation(len(self.entries))]

    def run(self, inp):
        return db.psi_gamma(inp["gamma"], self.zs, self.Z, self.grid,
                            freq_spacing=self.h)

    def check(self, inp, out):
        m = _direct_psi_check("psi_gamma", out, inp["gamma"], self.zs,
                              self.Z, self.h, inp["x_idx"])
        return [m] if m else []


class FormQueries(Workload):
    """One operation is one batch of the same make-up: Weil pairings of a
    bump and of a three-bump combination (criterion 8), a screw form
    against its paired antiderivative (criterion 7), eight 8-node screw
    Gram matrices (criterion 7) and one eigen residual at a catalog zero
    (criterion 10). Widths are fixed so batches are the same size."""
    name = "form_queries"
    round_s = 0.6
    MP_EVERY = 16     # ops whose bump transform is checked against mpmath

    def setup(self, zs):
        super().setup(zs)
        self.ext = hp.ExtensionParams(math.pi / 2)
        self.n_ops = 0

    def round_inputs(self, rng):
        bump = wf.TestFunction.bump(rng.uniform(-2.0, 2.0), 1.0)
        widths = (0.4, 0.7, 1.0)
        combo = wf.TestFunction.combination(
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
            [wf.TestFunction.bump(rng.uniform(-3.0 + w, 3.0 - w), w) for w in widths])
        a = complex(rng.standard_normal(), rng.standard_normal())
        c = rng.uniform(-2.5, 0.5)
        # equal widths carry equal mass, so (a, -a) is mean-zero
        phi = wf.TestFunction.combination(
            [a, -a], [wf.TestFunction.bump(c, 0.5), wf.TestFunction.bump(c + 1.0, 0.5)])
        gamma = self.zs.ordinates[rng.integers(len(self.zs))]
        samples = []
        while len(samples) < 20:
            z = complex(rng.uniform(-30, 30), rng.uniform(-2, 2))
            if abs(z - gamma) > 0.5 and abs(z - self.ext.w0) > 0.5:
                samples.append(z)
        mp_gamma = None
        if self.n_ops % self.MP_EVERY == 0:
            mp_gamma = self.zs.ordinates[rng.integers(len(self.zs))]
        self.n_ops += 1
        return [{"bump": bump, "combo": combo, "phi": phi,
                 "gram_nodes": rng.uniform(-3.0, 3.0, size=(8, 8)),
                 "gamma": gamma, "samples": samples, "mp_gamma": mp_gamma}]

    def run(self, inp):
        zs = self.zs
        out = {"bump": wf.weil_pairing(inp["bump"], inp["bump"], zs),
               "combo": wf.weil_pairing(inp["combo"], inp["combo"], zs)}
        psi = wf.antiderivative(inp["phi"])
        out["screw"] = wf.screw_form(inp["phi"], inp["phi"], zs)
        out["anti"] = wf.weil_pairing(psi, psi, zs)
        grams = []
        for nodes in inp["gram_nodes"]:
            g_diff = wf.screw_g_array(np.subtract.outer(nodes, nodes).ravel(), zs)
            M = (g_diff.reshape(8, 8) - wf.screw_g_array(nodes, zs)[:, None]
                 - wf.screw_g_array(-nodes, zs)[None, :])
            grams.append((np.linalg.eigvalsh(M)[0], np.trace(M).real))
        out["grams"] = grams
        out["eigen"] = hp.eigen_residual(self.ext, inp["gamma"], inp["samples"])
        return out

    def check(self, inp, out):
        sv, pv = out["screw"], out["anti"]
        budget = sv.quad_error + sv.tail_bound + pv.tail_bound + pv.quad_error + 1e-10
        eig = out["eigen"]
        msgs = [
            checks.at_least("bump positivity margin",
                            out["bump"].value.real + out["bump"].tail_bound
                            + out["bump"].quad_error, 0.0),
            checks.at_least("combination positivity margin",
                            out["combo"].value.real + out["combo"].tail_bound
                            + out["combo"].quad_error, 0.0),
            checks.at_most("|screw form - paired antiderivative|",
                           abs(sv.value - pv.value), budget),
            checks.at_least("Gram margin",
                            min(lo + 1e-8 * tr for lo, tr in out["grams"]), 0.0),
            checks.at_most("eigen residual", eig.residual / max(eig.g_scale, 1e-300), 1e-7),
        ]
        if inp["mp_gamma"] is not None:
            b, g = inp["bump"], inp["mp_gamma"]
            msgs.append(checks.samples_match(
                "bump transform vs mpmath", b.fourier(g),
                checks.mp_bump_transform(b.center, b.half_width, g),
                checks.mp_bump_transform(b.center, b.half_width, 0.0).real, BUMP_TOL))
        return [m for m in msgs if m]


class VerifyAll(Workload):
    """`weil-lab verify all --height-T 50 --cutoff-Z 500`, one fresh process
    per operation, with no ordinate cache.

    At its defaults (T = 100, Z = 1000) one command takes 13-16 s, so a run
    holds three and their median is one command timed on a host whose speed
    swings by tens of percent within a minute. At T = 50, Z = 500 (the
    smallest cutoff the command accepts) it takes 5-6 s and goes through the
    same suites and layers, so the median is taken over nine commands."""
    name = "verify_all"
    round_s = 5.5
    ARGS = ["--height-T", "50", "--cutoff-Z", "500"]

    def setup(self, zs):
        super().setup(zs)
        self.env = dict(os.environ)
        self.env.pop("WEIL_LAB_CACHE", None)
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        os.makedirs(RESULTS, exist_ok=True)

    def round_inputs(self, rng):
        return [{}]

    def prepare(self, inp):
        inp["out"] = tempfile.mkdtemp(prefix="verify_", dir=RESULTS)
        inp["trace"] = os.path.join(inp["out"], "trace.json")

    def run(self, inp):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "weil_lab.cli"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), inp["trace"]]
        cmd += ["verify", "all", "--out", inp["out"]] + self.ARGS
        return subprocess.run(cmd, env=self.env, cwd=inp["out"], capture_output=True,
                              text=True, timeout=170).returncode

    def check(self, inp, code):
        if self.tracer is not None:
            with open(inp["trace"], encoding="utf-8") as fh:
                child = json.load(fh)
            self.tracer.merge(child["spans"], child["counts"])
        if code != 0:
            return ["verify all exited with %d" % code]
        with open(os.path.join(inp["out"], "report_all.json"), encoding="utf-8") as fh:
            msg = checks.report_all_pass(json.load(fh))
        return [msg] if msg else []

    def finish(self, inp):
        shutil.rmtree(inp["out"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (CutoffLadder, BasisBank, FormQueries, VerifyAll)}
