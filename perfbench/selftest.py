"""Fast self-test of the benchmark itself, at tiny sizes:

    python3 perfbench/selftest.py

Covers the self-time arithmetic on nested spans, the wrapping of layer
functions, attempted/failed counting, and each correctness check rejecting
a perturbed value.
"""

import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from weil_lab import cli  # noqa: E402
from weil_lab import debranges as db  # noqa: E402
from weil_lab import numerics as nu  # noqa: E402
from weil_lab import special_fn as sf  # noqa: E402
from weil_lab import weil_form as wf  # noqa: E402
from weil_lab import zero_catalog as zc  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["a", 0.0, 10.0, -1],
            ["b", 1.0, 4.0, 0],
            ["c", 2.0, 3.0, 1],
            ["d", 5.0, 9.0, 0],
            ["e", 9.0, 9.5, 0],
            ["f", 20.0, 21.0, -1],
        ]
        got = tracing.self_times(spans)
        want = [10.0 - (3.0 + 4.0 + 0.5), 2.0, 1.0, 4.0, 0.5, 1.0]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w)

    def test_layer_metrics_sum_self_and_total(self):
        spans = [
            ["cli.suite_weil", 0.0, 5.0, -1],
            ["weil_form.weil_pairing", 1.0, 3.0, 0],
            ["numerics.fourier_integral", 1.5, 2.0, 1],
            ["weil_form.weil_pairing", 3.5, 4.0, 0],
        ]
        m = tracing.layer_metrics(spans, {"numerics.fourier_integral_calls": 1})
        self.assertAlmostEqual(m["weil_form.weil_pairing_s"]["value"], 2.0)
        self.assertAlmostEqual(m["numerics.fourier_integral_s"]["value"], 0.5)
        self.assertAlmostEqual(m["cli.suite_weil_s"]["value"], 5.0)
        self.assertEqual(m["numerics.fourier_integral_calls"]["value"], 1)
        self.assertEqual(m["cli.suite_screw_s"]["value"], 0.0)

    def test_per_layer_names_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [(n, u, b) for n, u, b, _ in tracing.PER_LAYER])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.NAMES))


class Wrapping(unittest.TestCase):
    def test_install_records_counts_and_restores(self):
        orig = sf.critical_line_log_derivative
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            self.assertIs(cli._SUITE_FN["weil"], cli.suite_weil)
            self.assertTrue(hasattr(cli._SUITE_FN["weil"], "__wrapped__"))
            tracer.enabled = True
            db.clear_axis_cache()
            db.axis_samples(50.0, 0.5)
            db.axis_samples(50.0, 0.5)
            sf.theta_on_axis(np.array([10.0, 20.0, 30.0]))   # inner call is caught
            F = nu.GridFunction(nu.Grid(-1.0, 1.0, 5), np.ones(5), "frequency")
            nu.inverse_fourier_grid(F=F, out=nu.Grid(0.0, 1.0, 3))   # keywords too
            tracer.enabled = False
            sf.critical_line_log_derivative(np.array([1.0]))  # not recorded
        finally:
            restore()
            db.clear_axis_cache()
        self.assertIs(sf.critical_line_log_derivative, orig)
        self.assertFalse(hasattr(cli._SUITE_FN["weil"], "__wrapped__"))
        self.assertEqual(tracer.counts["debranges.axis_cache_misses"], 1)
        self.assertEqual(tracer.counts["debranges.axis_cache_hits"], 1)
        self.assertEqual(tracer.counts["special_fn.axis_sweep_points"], 101 + 3)
        self.assertEqual(tracer.counts["numerics.grid_transform_terms"], 5 * 3)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names.count(tracing.SWEEP), 2)
        sweep_parent = tracer.spans[names.index(tracing.SWEEP)][3]
        self.assertEqual(tracer.spans[sweep_parent][0], "debranges.axis_samples")


class _Fake(workloads.Workload):
    """Op i raises when i % 4 == 1, is rejected by its check when i % 4 == 2,
    and its check raises when i % 4 == 3."""

    def __init__(self):
        self.finished = 0

    def run(self, inp):
        if inp % 4 == 1:
            raise RuntimeError("boom")
        return inp

    def check(self, inp, out):
        if out % 4 == 3:
            raise KeyError("missing output")
        return ["wrong"] if out % 4 == 2 else []

    def finish(self, inp):
        self.finished += 1


class Counting(unittest.TestCase):
    def test_attempted_and_failed(self):
        fake = _Fake()
        with open(os.devnull, "w") as null:
            err, sys.stderr = sys.stderr, null
            try:
                times, failed, wrong = run.run_ops(fake, list(range(12)), tracing.Tracer())
            finally:
                sys.stderr = err
        self.assertEqual((len(times), failed, wrong, fake.finished), (12, 9, 6, 12))

    def test_rounds_are_whole(self):
        bank = workloads.BasisBank()
        self.assertEqual(bank.rounds(1), 1)
        self.assertEqual(bank.rounds(25), int(25 / bank.round_s))


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.table = checks.load_table(os.path.join(HERE, "data", "zeros_t110.txt"))

    def test_catalog_vs_table(self):
        good = [g for g in self.table if g <= 100.0]
        self.assertIsNone(checks.catalog_matches_table(good, self.table, 100.0))
        bad = list(good)
        bad[5] += 2e-6
        self.assertIsNotNone(checks.catalog_matches_table(bad, self.table, 100.0))
        self.assertIsNotNone(checks.catalog_matches_table(good[:-1], self.table, 100.0))

    def test_bounds(self):
        self.assertIsNone(checks.at_most("x", 1.0, 1.0))
        self.assertIsNotNone(checks.at_most("x", 1.0 + 1e-12, 1.0))
        self.assertIsNotNone(checks.at_most("x", float("nan"), 1.0))
        self.assertIsNone(checks.at_least("x", 0.0, 0.0))
        self.assertIsNotNone(checks.at_least("x", -1e-15, 0.0))

    def test_trapezoid_sum_against_grid_transform(self):
        fgrid = nu.symmetric_grid(40.0, 0.05)
        vals = np.exp(-0.01 * fgrid.nodes() ** 2) * (1.0 + 0.3j * np.sin(fgrid.nodes()))
        out = nu.Grid(-3.0, 7.0, 101)
        psi = nu.inverse_fourier_grid(nu.GridFunction(fgrid, vals, "frequency"), out)
        idx = np.array([3, 50, 97])
        ref, scale = checks.trapezoid_inverse(vals, fgrid.x_min, fgrid.h, out.nodes()[idx])
        tol = workloads.PSI_TOL
        self.assertIsNone(checks.samples_match("psi", psi.values[idx], ref, scale, tol))
        bumped = psi.values[idx].copy()
        bumped[1] += 1e-6 * scale
        self.assertIsNotNone(checks.samples_match("psi", bumped, ref, scale, tol))

    def test_log_derivative_against_mpmath(self):
        x = np.array([30.5, 611.25])
        ref = [checks.mp_log_derivative(v) for v in x]
        got = sf.critical_line_log_derivative(x)
        scale = float(np.max(np.abs(ref)))
        self.assertIsNone(checks.samples_match("L", got, ref, scale, workloads.L_TOL))
        self.assertIsNotNone(checks.samples_match("L", got * (1 + 1e-6), ref, scale,
                                                  workloads.L_TOL))

    def test_bump_transform_against_mpmath(self):
        b = wf.TestFunction.bump(0.4, 0.7)
        g = self.table[0]
        ref = checks.mp_bump_transform(b.center, b.half_width, g)
        mass = checks.mp_bump_transform(b.center, b.half_width, 0.0).real
        self.assertAlmostEqual(mass, b.fourier(0.0).real, places=12)
        tol = workloads.BUMP_TOL
        self.assertIsNone(checks.samples_match("bump", b.fourier(g), ref, mass, tol))
        self.assertIsNotNone(checks.samples_match("bump", b.fourier(g) + 1e-7 * mass,
                                                  ref, mass, tol))

    def test_report_rows(self):
        rows = [{"check_id": "a", "pass": True}, {"check_id": "b", "pass": True}]
        self.assertIsNone(checks.report_all_pass(rows))
        self.assertIsNotNone(checks.report_all_pass([]))
        rows[1]["pass"] = False
        self.assertIn("b", checks.report_all_pass(rows))


class WorkloadChecks(unittest.TestCase):
    """Workload-level checks on real outputs, then on perturbed copies."""

    @classmethod
    def setUpClass(cls):
        cls.zs = zc.load_zeros(os.path.join(HERE, "data", "zeros_t110.txt"), 100.0)

    def test_basis_bank_entry(self):
        bank = workloads.BasisBank()
        bank.setup(self.zs)
        try:
            inp = bank.round_inputs(np.random.default_rng(0))[0]
            out = bank.run(inp)
            self.assertEqual(bank.check(inp, out), [])
            vals = out.values.copy()
            vals[inp["x_idx"][0]] *= 1.0 + 1e-5
            self.assertEqual(len(bank.check(inp, nu.GridFunction(out.grid, vals, "time"))), 1)
        finally:
            db.clear_axis_cache()

    def test_form_batch(self):
        forms = workloads.FormQueries()
        forms.setup(self.zs)
        inp = forms.round_inputs(np.random.default_rng(0))[0]
        inp["mp_gamma"] = None
        out = forms.run(inp)
        self.assertEqual(forms.check(inp, out), [])
        e = out["eigen"]
        out["eigen"] = type(e)(e.gamma, e.eigenvalue, 1e-6 * e.g_scale, e.g_scale, e.samples)
        out["grams"] = [(-1e-3, 1.0)] + out["grams"][1:]
        self.assertEqual(len(forms.check(inp, out)), 2)

    def test_verify_report(self):
        v = workloads.VerifyAll()
        with tempfile.TemporaryDirectory() as d:
            inp = {"out": d}
            with open(os.path.join(d, "report_all.json"), "w", encoding="utf-8") as fh:
                json.dump([{"check_id": "psi_norm", "pass": False}], fh)
            self.assertEqual(len(v.check(inp, 0)), 1)
            self.assertEqual(len(v.check(inp, 1)), 1)
            with open(os.path.join(d, "report_all.json"), "w", encoding="utf-8") as fh:
                json.dump([{"check_id": "psi_norm", "pass": True}], fh)
            self.assertEqual(v.check(inp, 0), [])


if __name__ == "__main__":
    unittest.main()
