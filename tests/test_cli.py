import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from weil_lab import cli
from weil_lab import debranges as db
from weil_lab import identities as ids
from weil_lab import numerics as nu
from weil_lab import special_fn as sf
from weil_lab import zero_catalog as zc

from conftest import ZERO_TABLE


def test_help_without_command():
    assert cli.main([]) == 2


def test_unknown_suite_is_usage_error(capsys):
    # zeros has one action, compute
    for argv in (["verify", "bogus"], ["zeros", "import"], ["zeros", "list"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "invalid choice: %r" % argv[1] in capsys.readouterr().err


def test_parse_grid_spec():
    assert cli.parse_grid_spec("-1:2:31") == (-1.0, 2.0, 31)
    with pytest.raises(ValueError):
        cli.parse_grid_spec("1,2,3")


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("height_T = 60   # comment\n\ncutoff_Z = 700\n"
                 "tol.xi_half_reference = 1e-3\n")
    vals = cli.load_config_file(p)
    assert vals == {"height_T": "60", "cutoff_Z": "700",
                    "tol.xi_half_reference": "1e-3"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        cli.load_config_file(bad)


def test_config_flag_overrides_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("height_T = 60\ncutoff_Z = 700\nzeros = %s\n" % ZERO_TABLE)
    parser = cli.build_parser()
    args = parser.parse_args(["verify", "special", "--config", str(p),
                              "--height-T", "80"])
    cfg = cli.make_config(args)
    assert cfg.height_T == 80.0       # flag wins
    assert cfg.cutoff_Z == 700.0      # file value survives
    assert cfg.zero_source == ZERO_TABLE
    assert cfg.catalog == zc.load_zeros(ZERO_TABLE, 80.0)     # the file's table
    forced = cli.make_config(parser.parse_args(
        ["verify", "special", "--config", str(p), "--zeros", "compute"]))
    assert forced.zero_source == "compute"    # --zeros compute overrides the file


def test_height_guard_is_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("tol.psi_norm_ = 1\n")
    misspelled = tmp_path / "misspelled.cfg"
    misspelled.write_text("heightT = 60\n")
    inf_tol = tmp_path / "inf_tol.cfg"
    inf_tol.write_text("tol.xi_half_reference = inf\n")
    for argv, named in [
            (["verify", "special", "--height-T", "200"], "height_T"),
            # non-finite T and Z, which no later bound test would catch
            (["verify", "debranges", "--height-T", "20", "--cutoff-Z", "inf"],
             "cutoff_Z"),
            (["verify", "debranges", "--height-T", "20", "--cutoff-Z", "nan"],
             "cutoff_Z"),
            (["verify", "special", "--height-T", "nan"], "height_T"),
            # a cutoff whose grids no machine holds (352 TiB at Z = 1e12)
            (["verify", "weil", "--height-T", "20", "--cutoff-Z", "1e12"],
             "cutoff_Z"),
            # a file key that names no setting
            (["verify", "special", "--config", str(misspelled)], "heightT"),
            # tolerance ids that name no check, from a flag or the file
            (["verify", "special", "--tol", "xi_halfreference=1e-30"],
             "xi_halfreference"),
            (["verify", "special", "--config", str(cfg_file)], "psi_norm_"),
            # a tolerance flag without its value
            (["verify", "special", "--tol", "xi_half_reference"], "ID=VALUE"),
            # non-finite tolerances, which the JSON report cannot hold
            (["verify", "special", "--tol", "xi_half_reference=nan"],
             "xi_half_reference"),
            (["verify", "special", "--config", str(inf_tol)], "xi_half_reference"),
            # no ordinate below T = 10 for a catalog suite
            (["verify", "hilbert_polya", "--height-T", "10"], "T = 10"),
            (["verify", "all", "--height-T", "10"], "T = 10"),
            # and for an export that reads the catalog
            (["export", "screw_g", "0:1:0.5", "--height-T", "10"], "T = 10"),
            (["export", "psi_gamma", "1", "--height-T", "10"], "T = 10"),
            (["export", "F_gamma", "1", "--height-T", "10"], "T = 10")]:
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err
    assert not list(tmp_path.glob("report_*.json"))
    assert not list(tmp_path.glob("*.csv"))
    # the cap admits the acceptance cutoff of the heavy_psi fixture
    assert cli.RunConfig(cutoff_Z=10000.0).cutoff_Z == 10000.0


def test_verify_special_passes_and_writes_report(tmp_path):
    # the special suite needs no catalog (none lies below T = 10), and a
    # tolerance id of another suite is accepted
    rc = cli.main(["verify", "special", "--out", str(tmp_path),
                   "--height-T", "10", "--tol", "gram_psd=1e-3"])
    assert rc == 0
    rows = json.load(open(tmp_path / "report_special.json"))
    assert {"check_id", "anchor", "value", "bound", "pass"} == set(rows[0])
    assert all(r["pass"] for r in rows)


def test_verify_exit_one_on_check_failure(tmp_path):
    rc = cli.main(["verify", "special", "--out", str(tmp_path),
                   "--tol", "xi_half_reference=1e-30"])
    assert rc == 1
    rows = json.load(open(tmp_path / "report_special.json"))
    failed = [r for r in rows if not r["pass"]]
    assert [r["check_id"] for r in failed] == ["xi_half_reference"]


def test_nan_row_is_null_and_failing_in_a_strict_report(tmp_path, monkeypatch, capsys):
    # the printed line keeps the NaN; the report holds null, which a strict
    # reader takes, and the row fails
    monkeypatch.setattr(ids, "positivity_margin", lambda *args: math.nan)
    rc = cli.main(["verify", "weil", "--height-T", "50", "--cutoff-Z", "500",
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "FAIL   positivity_random            value=nan" in capsys.readouterr().out

    def reject(name):
        raise ValueError("%s is not JSON" % name)
    with open(tmp_path / "report_weil.json", encoding="utf-8") as fh:
        rows = {r["check_id"]: r for r in json.load(fh, parse_constant=reject)}
    assert rows["positivity_random"]["value"] is None
    assert rows["positivity_random"]["pass"] is False
    assert all(r["pass"] for k, r in rows.items() if k != "positivity_random")


def test_xi_half_reference_reads_a_relative_error(monkeypatch):
    # against a reference 1e-6 below xi(1/2), |xi(1/2) - ref|/ref is
    # 1e-6/(1 - 1e-6); a product with ref would read ~2.5e-7
    monkeypatch.setattr(ids, "XI_HALF_REF", sf.xi(0.5).xi * (1.0 - 1e-6))
    rel = ids.xi_theta_values(np.random.default_rng(cli._SEED), 110.0)[0]
    assert rel == pytest.approx(1e-6 / (1.0 - 1e-6), rel=1e-9)


def test_special_suite_draws_span_their_domains(monkeypatch):
    # xi_symmetry's 100 s lie in [-8, 9] x [-110, 110]i and
    # theta_unimodular's 100 x in [-110, 110]: at the suite's seed both
    # reach across their domains, and no x repeats
    calls = {"xi": [], "theta_xi": []}
    for name, real in ((name, getattr(sf, name)) for name in calls):
        monkeypatch.setattr(sf, name, lambda v, real=real, name=name:
                            calls[name].append(v) or real(v))
    cli.suite_special(cli.RunConfig())
    # the first 100-point xi call is the draw; theta_xi's own comes after
    s = next(v for v in calls["xi"] if np.size(v) == 100)
    (x,) = [v for v in calls["theta_xi"] if np.size(v) == 100]
    assert s.real.min() < -7 and s.real.max() > 8 and np.abs(s.imag).max() > 100
    assert len(set(x)) == 100 and x.min() < -99 and x.max() > 99


def test_zeros_compute_without_ordinates_names_T(tmp_path, monkeypatch, capsys):
    # a T below gamma_1 is a config error that names T; else zeros compute
    # prints one line. It and an export create no file but the export's
    # CSV, in the working directory or the home directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path))
    assert cli.main(["zeros", "compute", "--height-T", "5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "T = 5" in err
    # gamma_1 = 14.1347 lies after the last multiple of 1/4 below T = 14.2
    assert cli.main(["zeros", "compute", "--height-T", "14.2"]) == 0
    assert "computed 1 ordinates up to T=14.2" in capsys.readouterr().out
    for T, line in (("30", "computed 3 ordinates up to T=30 (count estimate 3.56, ok)"),
                    ("100", "computed 29 ordinates up to T=100 (count estimate 29.00, ok)")):
        assert cli.main(["zeros", "compute", "--height-T", T]) == 0
        assert capsys.readouterr().out.splitlines() == [line]
    # a table, by flag or config file, is an error that names it, not a sweep
    (tmp_path / "run.cfg").write_text("zeros = no_such_table.txt\n")
    for given in (["--zeros", "no_such_table.txt"], ["--config", "run.cfg"]):
        assert cli.main(["zeros", "compute", "--height-T", "30"] + given) == 2
        out, err = capsys.readouterr()
        assert out == "" and "always sweeps" in err and "'no_such_table.txt'" in err
    assert cli.main(["export", "screw_g", "--height-T", "20", "--out", "out"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["out", "run.cfg"]
    assert os.listdir(tmp_path / "out") == ["screw_g.csv"]


def test_table_from_an_earlier_zeros_import_loads_through_zeros(tmp_path):
    # earlier versions stored an imported table as a '# source=table' header
    # and one %.17g ordinate per line; the header is a comment line, so the
    # file reads through --zeros as the bare table's catalog, bit for bit
    table = zc.load_zeros(ZERO_TABLE, 30.0)
    stored = tmp_path / "zeros_T30.txt"
    stored.write_text("# source=table\n" + "".join("%.17g\n" % g for g in table.ordinates))
    parse = cli.build_parser().parse_args
    for path in (ZERO_TABLE, str(stored)):
        zs = cli.make_config(parse(["verify", "all", "--zeros", path,
                                    "--height-T", "30"])).catalog
        assert zs == table and zs.source == "table" and len(zs) == 3


def test_export_screw_g_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.main(["export", "screw_g", "0:5:0.01", "--out", str(out1),
                     "--height-T", "40"]) == 0
    assert cli.main(["export", "screw_g", "0:5:0.01", "--out", str(out2),
                     "--height-T", "40"]) == 0
    b1 = (out1 / "screw_g.csv").read_bytes()
    assert b1 == (out2 / "screw_g.csv").read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 502            # 501 rows for [0, 5] step 0.01


def _export_psi_gamma_subprocess(out_dir, blas_threads, cutoff):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))]
        + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run([sys.executable, "-m", "weil_lab.cli", "export", "psi_gamma",
                    "1", "--height-T", "50", "--cutoff-Z", str(cutoff),
                    "--out", str(out_dir)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return (out_dir / "psi_gamma_1.csv").read_bytes()


def test_export_bitwise_at_fixed_blas_threads(tmp_path):
    # the documented guarantee: equal bytes for a fixed configuration and
    # table, whatever the BLAS thread count. The axis sweep spans 3 chunks
    # of its shared phase tables at Z = 500 and 12 at Z = 2000
    for Z in (500, 2000):
        one_a = _export_psi_gamma_subprocess(tmp_path / f"a{Z}", 1, Z)
        one_b = _export_psi_gamma_subprocess(tmp_path / f"b{Z}", 1, Z)
        two = _export_psi_gamma_subprocess(tmp_path / f"c{Z}", 2, Z)
        assert one_a == one_b
        assert one_a == two


def test_export_omega_range(tmp_path, monkeypatch):

    def no_catalog(*args, **kwargs):
        raise AssertionError("export omega computed a catalog")
    # omega uses no catalog, so it computes none; global
    # flags go before the subcommand so the leading-dash range can sit
    # behind the "--" separator
    monkeypatch.setattr(zc, "compute_zeros", no_catalog)
    assert cli.main(["--out", str(tmp_path), "--height-T", "10",
                     "export", "omega", "--", "-2:2:0.5"]) == 0
    lines = (tmp_path / "omega.csv").read_text().splitlines()
    assert len(lines) == 10
    mid = [float(v) for v in lines[5].split(",")]     # x = 0.5 row
    assert mid[2] == 0.0                              # omega is real


def test_export_range_writes_no_node_past_b(tmp_path):
    # floor((b - a)/step) + 1 rows at x = a + k step, none past b: at
    # -5:5:0.001 a node past 5 would leave omega_profile's validated range
    for text, n in (("-5:5:0.001", 10001), ("-1:1:0.3", 7), ("-5:5:0.006", 1667),
                    ("0:5:0.01", 501), ("-2:2:0.5", 9), ("0.1:0.3:0.1", 3),
                    ("1:1:0.5", 1)):
        assert cli.main(["--out", str(tmp_path), "export", "omega", "--", text]) == 0
        a, b, step = cli.parse_range(text)
        x = np.loadtxt(tmp_path / "omega.csv", delimiter=",", skiprows=1,
                       ndmin=2)[:, 0]
        assert len(x) == n and x[0] == a and np.all(x <= b)
        assert np.max(np.abs(np.diff(x) - step), initial=0.0) <= 1e-12


def test_export_psi_gamma_norm(tmp_path):
    assert cli.main(["export", "psi_gamma", "1", "--out", str(tmp_path),
                     "--cutoff-Z", "500"]) == 0
    rows = np.loadtxt(tmp_path / "psi_gamma_1.csv", delimiter=",", skiprows=1)
    x, re, im = rows[:, 0], rows[:, 1], rows[:, 2]
    norm_sq = np.trapezoid(re * re + im * im, x)
    assert abs(2 * math.pi * norm_sq - 1.0) <= 1e-2


def test_verify_weil_with_single_zero_catalog(tmp_path, monkeypatch, capsys):
    # T = 15 leaves one catalog zero; the suite stays self-consistent with
    # wider tail bounds. Then a --zeros table at T = 50 is the catalog, read
    # once, as a table, and passes every row; a --zeros path that names no
    # file is an i/o error
    loaded, load = [], zc.load_zeros
    monkeypatch.setattr(zc, "load_zeros", lambda *args: loaded.append(load(*args)) or loaded[-1])
    weil = [c.id for c in cli.CHECKS if c.suite == "weil"]
    # basis_pairing_cross needs a second zero; every other row is there
    for argv, ids in ((["--height-T", "15"], [i for i in weil if i != "basis_pairing_cross"]),
                      (["--zeros", ZERO_TABLE, "--height-T", "50"], weil)):
        rc = cli.main(["verify", "weil", "--cutoff-Z", "500", "--out", str(tmp_path)] + argv)
        assert rc == 0
        rows = json.load(open(tmp_path / "report_weil.json"))
        assert [r["check_id"] for r in rows] == ids
    assert [zs.source for zs in loaded] == ["table"]
    capsys.readouterr()
    assert cli.main(["verify", "weil", "--zeros", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path)]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_export_f_gamma_with_grid_spec(tmp_path):
    # with a --grid, and without one (4,801 nodes on [-120, 120])
    for grid, n_lines in ((["--grid=-40:40:801"], 802), ([], 4802)):
        assert cli.main(["export", "F_gamma", "1", "--out", str(tmp_path),
                         "--height-T", "20"] + grid) == 0
        lines = (tmp_path / "F_gamma_1.csv").read_text().splitlines()
        assert len(lines) == n_lines
        # |F_gamma| peaks at the ordinate itself
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
        peak_x = max(rows, key=lambda r: r[1] ** 2 + r[2] ** 2)[0]
        assert abs(abs(peak_x) - 14.1347) < 1.0   # |F| plateaus around the ordinate


def test_verify_all_writes_combined_report(tmp_path, monkeypatch):
    calls = []
    real = zc.compute_zeros
    monkeypatch.setattr(zc, "compute_zeros",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    rc = cli.main(["verify", "all", "--out", str(tmp_path),
                   "--height-T", "40", "--cutoff-Z", "500"])
    assert rc == 0
    assert len(calls) == 1        # one catalog serves every suite
    assert os.listdir(tmp_path) == ["report_all.json"]    # and writes no other file
    rows = json.load(open(tmp_path / "report_all.json"))
    ids = {r["check_id"] for r in rows}
    assert {"xi_half_reference", "basis_pairing_diagonal", "gram_psd",
            "theta_prime_zeros", "eigen_residual"} <= ids
    assert all(r["pass"] for r in rows)


def test_verify_reports_each_table_check_once_in_table_order(tmp_path):
    # rows come from the check table, so a suite cannot drop one: verify all
    # reports every id once, in table order, and verify <suite> its slice
    small = ["--height-T", "50", "--cutoff-Z", "500"]
    assert cli.main(["verify", "all", "--out", str(tmp_path / "all")] + small) == 0
    rows = json.loads((tmp_path / "all" / "report_all.json").read_text())
    assert [r["check_id"] for r in rows] == [c.id for c in cli.CHECKS]
    assert len(rows) == 32
    assert cli.SUITES == ("special", "weil", "screw", "debranges", "hilbert_polya", "all")
    for suite in cli.SUITES[:-1]:
        assert cli.main(["verify", suite, "--out", str(tmp_path / suite)] + small) == 0
        report = tmp_path / suite / ("report_%s.json" % suite)
        assert json.loads(report.read_text()) == [
            r for r, c in zip(rows, cli.CHECKS) if c.suite == suite]


def test_verify_all_sweeps_theta_prime_once_per_table(tmp_path, monkeypatch):
    # Theta'(gamma) is one sweep per basis_table call with limit nodes, plus
    # one for the theta_prime_zeros row, at every run: the T = 50 run makes
    # the same sweeps after a run at the defaults, so no cache holds Theta'
    # and no loop sweeps one ordinate at a time, and its report is the same
    monkeypatch.setattr(db, "_AXIS_CACHE", {})
    nu._PLANS.clear()
    sweeps = []
    real = sf.theta_on_axis

    def counted(x, log_deriv=None):
        if sys._getframe(1).f_code.co_name == "theta_prime_at_zero":
            sweeps[-1].append(np.size(x))
        return real(x, log_deriv)
    monkeypatch.setattr(sf, "theta_on_axis", counted)
    small = ["--height-T", "50", "--cutoff-Z", "500"]
    for run, argv in (("cold", small), ("defaults", []), ("warm", small)):
        sweeps.append([])
        assert cli.main(["verify", "all", "--out", str(tmp_path / run)] + argv) == 0
    assert sweeps[0] == sweeps[2] == [40, 40, 4, 4, 4, 80, 80]
    assert ((tmp_path / "cold" / "report_all.json").read_bytes()
            == (tmp_path / "warm" / "report_all.json").read_bytes())


def test_export_bad_range_is_usage_error(tmp_path, capsys):
    for what, arg in (("screw_g", "zzz"), ("psi_gamma", "99"),
                      ("F_gamma", "0")):
        assert cli.main(["export", what, arg, "--out", str(tmp_path),
                         "--height-T", "20", "--cutoff-Z", "500"]) == 2
    # a zero or negative step, b < a, a non-finite value: no CSV, exit 2
    for what, arg in (("omega", "0:5:0"), ("screw_g", "0:5:0"),
                      ("omega", "5:0:1"), ("omega", "0:1:-0.5"),
                      ("omega", "0:nan:1"), ("omega", "inf:inf:0.5"),
                      ("omega", "0:1:inf")):
        capsys.readouterr()
        assert cli.main(["export", what, arg, "--out", str(tmp_path),
                         "--height-T", "20", "--cutoff-Z", "500"]) == 2
        assert repr(arg) in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_oversized_export_is_usage_error(tmp_path, capsys):
    # each export's first allocation would exceed 2^47 bytes: numpy died in
    # an _ArrayMemoryError with exit 1, the code of a failed check. The
    # limit, numerics.POINT_LIMIT, is verify's sweep for |x| <= 38 at
    # cutoff_Z = MAX_CUTOFF; numerics.Grid rejects the grid and the axis
    # sweep (on [-Z, Z] at the default cutoff_Z, its last node m h just
    # past Z), the export the ranges
    out = tmp_path / "out"
    assert nu.symmetric_grid(zc.MAX_CUTOFF, db._default_freq_spacing(38.0)
                             ).n_points == nu.POINT_LIMIT == 4843155
    for argv, named in (
            (["omega", "0:5:1e-15"], "range 0:5:1e-15"),
            (["screw_g", "0:5:1e-15"], "range 0:5:1e-15"),
            (["F_gamma", "--grid=-1:1:1000000000000000"],
             "grid '-1:1:1000000000000000'"),
            (["psi_gamma", "--grid=-1e12:1e12:5"],
             "points on [-1000.0000000000001, 1000.0000000000001]")):
        capsys.readouterr()
        assert cli.main(["export"] + argv + ["--out", str(out),
                                             "--height-T", "20"]) == 2
        err = capsys.readouterr().err
        assert named in err and "limit of 4843155" in err
    assert not out.exists()


def test_export_non_finite_grid_is_usage_error(tmp_path, capsys):
    for spec in ("-inf:1:5", "-inf:inf:5", "0:nan:5"):
        capsys.readouterr()
        assert cli.main(["export", "psi_gamma", "1", "--height-T", "20",
                         "--grid=" + spec, "--out", str(tmp_path)]) == 2
        assert repr(spec) in capsys.readouterr().err


def test_verify_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (12-20 ms and 1.1 MB per process); the
    # verify suites iterate over distinct values without it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))]
        + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys\n"
            "from weil_lab import cli\n"
            "assert cli.main(['verify', 'special', '--out', sys.argv[1]]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          check=True, capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "False"
