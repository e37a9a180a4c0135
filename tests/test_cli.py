import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from weil_lab import cli
from weil_lab import debranges as db
from weil_lab import numerics as nu
from weil_lab import special_fn as sf
from weil_lab import zero_catalog as zc

from conftest import ZERO_TABLE


def run(argv, env_cache=None, monkeypatch=None):
    if env_cache is not None:
        monkeypatch.setenv("WEIL_LAB_CACHE", str(env_cache))
    return cli.main(argv)


def test_help_without_command():
    assert cli.main([]) == 2


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus"])
    assert exc.value.code == 2


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
    forced = cli.make_config(parser.parse_args(
        ["verify", "special", "--config", str(p), "--zeros", "compute"]))
    assert forced.zero_source == "compute"    # --zeros compute overrides the file


def test_height_guard_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
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


def test_zeros_import_compute_list(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv("WEIL_LAB_CACHE", str(cache))
    assert cli.main(["zeros", "list"]) == 0
    assert "(empty cache)" in capsys.readouterr().out
    assert not cache.exists()

    assert cli.main(["zeros", "import", "--zeros", ZERO_TABLE,
                     "--height-T", "30"]) == 0
    assert "imported 3 ordinates" in capsys.readouterr().out
    # zeros compute sweeps and writes nothing, over an imported table at
    # its T too
    sweeps = []
    real = zc.compute_zeros
    monkeypatch.setattr(zc, "compute_zeros", lambda T: sweeps.append(T) or real(T))
    for T, n in (("20", 1), ("30", 3)):
        assert cli.main(["zeros", "compute", "--height-T", T]) == 0
        assert "computed %d ordinates up to T=%s" % (n, T) in capsys.readouterr().out
    assert sweeps == [20.0, 30.0]
    assert os.listdir(cache) == ["zeros_T30.txt"]

    assert cli.main(["zeros", "list"]) == 0
    assert capsys.readouterr().out.splitlines() == ["zeros_T30.txt: 3 ordinates (table)"]


def test_zeros_list_labels_stale_cache_files(tmp_path, monkeypatch, capsys):
    # a file without the table header (none, or a computed file's header
    # from an earlier version) is listed as ignored, not as a catalog, and
    # a run at its T sweeps and leaves it as it was
    cache = tmp_path / "cache"
    monkeypatch.setenv("WEIL_LAB_CACHE", str(cache))
    assert cli.main(["zeros", "import", "--zeros", ZERO_TABLE,
                     "--height-T", "20"]) == 0
    zs = zc.compute_zeros(50.0)
    body = "".join("%.17g\n" % g for g in zs.ordinates)
    (cache / "zeros_T30.txt").write_text("14.134725\n21.022040\n25.010858\n")
    (cache / "zeros_T40.txt").write_text("# source=computed\n" + body)
    (cache / "zeros_T50.txt").write_text("# source=computed refiner=guarded-newton\n"
                                         + body)
    blobs = {f: (cache / f).read_bytes() for f in os.listdir(cache)}
    capsys.readouterr()
    assert cli.main(["zeros", "list"]) == 0
    listing = capsys.readouterr().out.splitlines()
    assert listing == [
        "zeros_T20.txt: 1 ordinates (table)",
        "zeros_T30.txt: not an imported table (ignored)",
        "zeros_T40.txt: not an imported table (ignored)",
        "zeros_T50.txt: not an imported table (ignored)"]
    for T in (30.0, 40.0, 50.0):
        args = cli.build_parser().parse_args(["verify", "all", "--height-T", str(T)])
        assert cli.make_config(args).catalog.source == "computed"
    assert {f: (cache / f).read_bytes() for f in os.listdir(cache)} == blobs


def test_cache_write_that_fails_partway_leaves_no_catalog(tmp_path, monkeypatch,
                                                         capsys):
    # the disk fills at the 29th write of zeros import, after the header and
    # 27 of the table's 29 ordinates below T = 100: the import exits 3, and
    # zeros list shows no cut-short file, neither after the failure nor
    # after a second import
    cache = tmp_path / "cache"
    monkeypatch.setenv("WEIL_LAB_CACHE", str(cache))
    argv = ["zeros", "import", "--zeros", ZERO_TABLE, "--height-T", "100"]

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            self.writes += 1
            if self.writes == 29:
                raise OSError(28, "No space left on device")
            return self.fh.write(text)

    def full_disk_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return FullDisk(fh) if "w" in mode else fh

    monkeypatch.setattr(zc, "open", full_disk_open, raising=False)
    assert cli.main(argv) == 3
    assert "No space" in capsys.readouterr().err
    monkeypatch.delattr(zc, "open")
    assert cli.main(["zeros", "list"]) == 0
    assert capsys.readouterr().out.splitlines() == ["(empty cache)"]
    assert os.listdir(cache) == []
    assert cli.main(argv) == 0
    assert cli.main(["zeros", "list"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "zeros_T100.txt: 29 ordinates (table)")
    assert os.listdir(cache) == ["zeros_T100.txt"]
    assert (zc.read_cache(cache / "zeros_T100.txt", 100.0)
            == zc.load_zeros(ZERO_TABLE, 100.0))


def test_zeros_list_counts_ordinates_as_the_catalog_reads_them(tmp_path, monkeypatch,
                                                               capsys):
    # an indented comment is no ordinate, and a file the catalog cannot
    # read is named so, not counted
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("WEIL_LAB_CACHE", str(cache))
    (cache / "zeros_T30.txt").write_text(
        "# source=table\n14.134725\n  # note\n21.022040\n25.010858\n")
    (cache / "zeros_T40.txt").write_text("# source=table\n14.134725\n21.02x\n")
    zs = cli.RunConfig(height_T=30.0, cache_dir=str(cache)).catalog
    assert zs.source == "table" and len(zs) == 3
    assert cli.main(["zeros", "list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "zeros_T30.txt: 3 ordinates (table)",
        "zeros_T40.txt: unreadable (malformed ordinate at line 3: '21.02x')"]


def test_zeros_compute_without_ordinates_names_T(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
    assert cli.main(["zeros", "compute", "--height-T", "5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "T = 5" in err
    # gamma_1 = 14.1347 lies after the last multiple of 1/4 below T = 14.2
    assert cli.main(["zeros", "compute", "--height-T", "14.2"]) == 0
    assert "computed 1 ordinates up to T=14.2" in capsys.readouterr().out


def test_empty_cache_variable_counts_as_unset(tmp_path, monkeypatch, capsys):
    # WEIL_LAB_CACHE= behaves as if unset: export and zeros compute write
    # nothing, zeros falls back to ~/.cache/weil_lab, and export does not
    # read the table imported there
    monkeypatch.setenv("WEIL_LAB_CACHE", "")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["export", "screw_g", "--height-T", "20",
                     "--out", str(tmp_path / "out")]) == 0
    assert cli.main(["zeros", "compute", "--height-T", "20"]) == 0
    assert not (tmp_path / "home").exists()
    assert cli.main(["zeros", "import", "--zeros", ZERO_TABLE,
                     "--height-T", "20"]) == 0
    assert cli.main(["zeros", "list"]) == 0
    assert "zeros_T20.txt: 1 ordinates (table)" in capsys.readouterr().out
    assert (tmp_path / "home" / ".cache" / "weil_lab" / "zeros_T20.txt").exists()
    args = cli.build_parser().parse_args(["export", "screw_g", "--height-T", "20"])
    assert cli.make_config(args).catalog.source == "computed"


def test_imported_table_keeps_its_source(tmp_path, monkeypatch):
    # the table imported at T is the catalog of a later verify or export at
    # T, also with --zeros compute; another T sweeps
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
    assert cli.main(["zeros", "import", "--zeros", ZERO_TABLE,
                     "--height-T", "30"]) == 0
    parse = cli.build_parser().parse_args
    for argv in (["verify", "all", "--height-T", "30"],
                 ["export", "psi_gamma", "--height-T", "30", "--zeros", "compute"]):
        zs = cli.make_config(parse(argv)).catalog
        assert zs == zc.load_zeros(ZERO_TABLE, 30.0) and zs.source == "table"
    zs = cli.make_config(parse(["verify", "all", "--height-T", "29"])).catalog
    assert zs.source == "computed" and len(zs) == 3


def test_missing_cache_directory_stays_missing(tmp_path, monkeypatch):
    # with WEIL_LAB_CACHE naming a missing directory, export and zeros
    # compute create nothing, and write the bytes of a run without it
    cache = tmp_path / "cache"
    commands = (["export", "screw_g", "0:2:0.05", "--height-T", "30"],
                ["export", "F_gamma", "2", "--height-T", "30", "--grid=-40:40:401"],
                ["export", "omega"],
                ["zeros", "compute", "--height-T", "30"])
    for env in ("unset", "set"):
        if env == "set":
            monkeypatch.setenv("WEIL_LAB_CACHE", str(cache))
        else:
            monkeypatch.delenv("WEIL_LAB_CACHE", raising=False)
        for argv in commands:
            assert cli.main(argv + ["--out", str(tmp_path / env)]) == 0
    assert not cache.exists()
    for name in ("screw_g.csv", "F_gamma_2.csv", "omega.csv"):
        assert ((tmp_path / "set" / name).read_bytes()
                == (tmp_path / "unset" / name).read_bytes())


def test_zeros_import_reads_the_config_files_table(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("zeros = %s\nheight_T = 30\n" % ZERO_TABLE)
    assert cli.main(["zeros", "import", "--config", str(cfg)]) == 0
    assert "imported 3 ordinates" in capsys.readouterr().out
    assert (tmp_path / "cache" / "zeros_T30.txt").exists()


def test_zeros_import_of_compute_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["zeros", "import", "--zeros", "compute"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


def test_zeros_import_missing_table_is_io_error(tmp_path, monkeypatch):
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
    rc = cli.main(["zeros", "import", "--zeros", str(tmp_path / "nope.txt"),
                   "--height-T", "30"])
    assert rc == 3


def test_export_screw_g_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
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
    env = {k: v for k, v in os.environ.items() if k != "WEIL_LAB_CACHE"}
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
    # cache, whatever the BLAS thread count. The axis sweep spans 3 chunks
    # of its shared phase tables at Z = 500 and 12 at Z = 2000
    for Z in (500, 2000):
        one_a = _export_psi_gamma_subprocess(tmp_path / f"a{Z}", 1, Z)
        one_b = _export_psi_gamma_subprocess(tmp_path / f"b{Z}", 1, Z)
        two = _export_psi_gamma_subprocess(tmp_path / f"c{Z}", 2, Z)
        assert one_a == one_b
        assert one_a == two


def test_export_omega_range(tmp_path, monkeypatch):
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))

    def no_catalog(*args, **kwargs):
        raise AssertionError("export omega computed a catalog")
    # omega uses no catalog, so it neither computes nor caches one; global
    # flags go before the subcommand so the leading-dash range can sit
    # behind the "--" separator
    monkeypatch.setattr(zc, "compute_zeros", no_catalog)
    assert cli.main(["--out", str(tmp_path), "--height-T", "10",
                     "export", "omega", "--", "-2:2:0.5"]) == 0
    assert not (tmp_path / "cache").exists()
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


def test_export_psi_gamma_norm(tmp_path, monkeypatch):
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
    assert cli.main(["export", "psi_gamma", "1", "--out", str(tmp_path),
                     "--cutoff-Z", "500"]) == 0
    rows = np.loadtxt(tmp_path / "psi_gamma_1.csv", delimiter=",", skiprows=1)
    x, re, im = rows[:, 0], rows[:, 1], rows[:, 2]
    norm_sq = np.trapezoid(re * re + im * im, x)
    assert abs(2 * math.pi * norm_sq - 1.0) <= 1e-2


def test_verify_weil_with_single_zero_catalog(tmp_path, monkeypatch):
    # T = 15 leaves one catalog zero; the suite stays self-consistent with
    # wider tail bounds. Then a --zeros table at T = 50 is the catalog, read
    # once, as a table, and passes every row
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
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


def test_export_f_gamma_with_grid_spec(tmp_path, monkeypatch):
    # with a --grid, and without one (4,801 nodes on [-120, 120])
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
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
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
    calls = []
    real = zc.compute_zeros
    monkeypatch.setattr(zc, "compute_zeros",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    rc = cli.main(["verify", "all", "--out", str(tmp_path),
                   "--height-T", "40", "--cutoff-Z", "500"])
    assert rc == 0
    assert len(calls) == 1        # one catalog serves every suite
    assert not (tmp_path / "cache").exists()      # and none is cached
    rows = json.load(open(tmp_path / "report_all.json"))
    ids = {r["check_id"] for r in rows}
    assert {"xi_half_reference", "basis_pairing_diagonal", "gram_psd",
            "theta_prime_zeros", "eigen_residual"} <= ids
    assert all(r["pass"] for r in rows)


def test_verify_reports_each_table_check_once_in_table_order(tmp_path, monkeypatch):
    # rows come from the check table, so a suite cannot drop one: verify all
    # reports every id once, in table order, and verify <suite> its slice
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
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
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
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


def test_export_bad_range_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
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


def test_oversized_export_is_usage_error(tmp_path, monkeypatch, capsys):
    # each export's first allocation would exceed 2^47 bytes: numpy died in
    # an _ArrayMemoryError with exit 1, the code of a failed check. The
    # limit, numerics.POINT_LIMIT, is verify's sweep for |x| <= 38 at
    # cutoff_Z = MAX_CUTOFF; numerics.Grid rejects the grid and the axis
    # sweep (on [-Z, Z] at the default cutoff_Z, its last node m h just
    # past Z), the export the ranges
    monkeypatch.setenv("WEIL_LAB_CACHE", str(tmp_path / "cache"))
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
    env = {k: v for k, v in os.environ.items() if k != "WEIL_LAB_CACHE"}
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
