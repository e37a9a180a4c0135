import logging
import math

import mpmath as mp
import numpy as np
import pytest

from weil_lab import special_fn as sf
from weil_lab import zero_catalog as zc

from conftest import ZERO_TABLE

# first two ordinates, frozen from a high-precision root-finding oracle
G1 = 14.134725141734694
G2 = 21.022039638771555
G3 = 25.010857580145688


def test_load_zeros_basic(tmp_path):
    p = tmp_path / "zeros.txt"
    # an indented comment is no ordinate
    p.write_text("14.134725142\n  # note\n21.022039639\n25.010857580\n")
    zs = zc.load_zeros(p, 25.0)
    assert len(zs) == 2
    assert zs.source == "table"
    assert zs.multiplicities == (1, 1)
    assert abs(zs.ordinates[0] - G1) < 1e-8
    assert abs(zs.ordinates[1] - G2) < 1e-8


def test_load_zeros_empty_below_T(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("14.134725142\n")
    with pytest.warns(UserWarning):
        zs = zc.load_zeros(p, 10.0)
    assert len(zs) == 0


def test_load_zeros_rejects_descending(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("21.0\n14.1\n")
    with pytest.raises(ValueError, match="line 2"):
        zc.load_zeros(p, 100.0)


def test_load_zeros_rejects_a_repeated_ordinate(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("14.134725\n14.134725\n21.022040\n")
    with pytest.raises(ValueError, match="non-ascending ordinate at line 2"):
        zc.load_zeros(p, 100.0)


def test_load_zeros_reports_malformed_line(tmp_path):
    # non-finite values too: a nan line would be dropped below T and would
    # skip the next line's ascending check
    p = tmp_path / "zeros.txt"
    for bad in ("not-a-number", "nan", "inf", "-inf"):
        p.write_text("14.1\n%s\n21.0\n" % bad)
        with pytest.raises(ValueError, match="malformed ordinate at line 2"):
            zc.load_zeros(p, 100.0)


def test_compute_zeros_first_ordinate():
    zs = zc.compute_zeros(15.0)
    assert len(zs) == 1
    assert abs(zs.ordinates[0] - G1) < 1e-8


def test_compute_zeros_empty_below_first():
    assert len(zc.compute_zeros(10.0)) == 0


def test_compute_zeros_height_guard():
    with pytest.raises(ValueError):
        zc.compute_zeros(150.0)


def test_compute_zeros_t100_matches_published_table(catalog, table_catalog):
    assert len(catalog) == 29
    assert len(table_catalog) == 29
    diffs = np.abs(np.array(catalog.ordinates) - np.array(table_catalog.ordinates))
    assert diffs.max() < 1e-6


def test_computed_ordinates_are_roots(catalog):
    for g in catalog.ordinates:
        v = sf.xi(complex(0.5, g))
        assert abs(v.xi) <= 1e-8 * max(1.0, abs(v.xi_prime))


def _newton_root(f, a, b, fa):
    """Oracle: the one-bracket guarded Newton iteration that the batched
    refiner follows step for step; f returns (f, f') at a float."""
    t = 0.5 * (a + b)
    for _ in range(200):
        fx, dfx = f(t)
        if (fa < 0) == (fx < 0):
            a = t
        else:
            b = t
        d = fx / dfx if dfx != 0.0 else math.nan
        mid = 0.5 * (a + b)
        if fx == 0.0:
            return t
        if abs(d) <= 4.0 * math.ulp(t):
            return t - d
        if not a < mid < b:
            return t
        t = t - d if a < t - d < b else mid
    raise RuntimeError("no convergence")


def _synthetic(x):
    # (f, f') with brackets [1, 2]: an exact hit at the first point; [3, 3.4]:
    # a simple root; [5, 5.5]: a triple root (Newton converges linearly);
    # [7, 8]: a jump with f' = 0, bisected down to adjacent floats; [9, 10]:
    # a steep line
    x = np.asarray(x, dtype=float)
    d = x - 5.123
    pieces = [x < 2.5, x < 4.0, x < 6.0, x < 8.5]
    f = np.select(pieces, [x - 1.5, (x - math.pi) * (1.0 + x * x), d * d * d,
                           np.where(x > 7.3, 2.0, -1.0)], 1e3 * (x - 9.0001))
    df = np.select(pieces, [1.0, 1.0 + x * x + 2.0 * x * (x - math.pi), 3.0 * d * d,
                            0.0], 1e3)
    return f, df


def _per_bracket(f, a, b):
    """Oracle roots and f-call counts, one bracket at a time."""
    roots, calls = [], []
    for ai, bi in zip(a, b):
        n = [0]

        def f1(x):
            n[0] += 1
            v, dv = f(np.array([x]))
            return float(v[0]), float(dv[0])
        roots.append(_newton_root(f1, ai, bi, f1(ai)[0]))
        calls.append(n[0] - 1)
    return np.array(roots), calls


@pytest.mark.parametrize("slope_error", [1e-11, 0.0])
def test_refine_brackets_matches_scalar_oracle(slope_error):
    # f' is used only to steer: a slope off by a relative 1e-11 (more than
    # the rounding in Z'(t) = -Im xi') ends at the same roots as the exact one
    def f(x):
        v, dv = _synthetic(x)
        return v, dv * (1.0 + slope_error)
    a = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    b = a + np.array([1.0, 0.4, 0.5, 1.0, 1.0])
    ref, calls = _per_bracket(f, a, b)
    assert calls[0] == 1 and len(set(calls)) >= 4
    roots, steps, points = zc._refine_brackets(f, a, b, f(a)[0])
    assert np.array_equal(roots, ref)
    assert steps == max(calls) < 200 and points == sum(calls)
    assert roots[0] == 1.5                                       # exact hit
    assert abs(roots[1] - math.pi) <= 4 * math.ulp(math.pi)       # simple root
    assert abs(roots[2] - 5.123) <= 1e-13                         # triple root
    assert roots[3] in (7.3, np.nextafter(7.3, 8.0))              # jump
    assert abs(roots[4] - 9.0001) <= 4 * math.ulp(9.0001)


@pytest.mark.parametrize("f, df, a, b, root", [
    (lambda x: np.exp(x) - 2.0, np.exp, -5.0, 5.0, math.log(2.0)),
    (lambda x: x ** 3 - 1e-3, lambda x: 3.0 * x * x, -1.0, 2.0, 0.1),
    (lambda x: np.arctan(x - 4.0), lambda x: 1.0 / (1.0 + (x - 4.0) ** 2),
     -5.0, 5.0, 4.0),
], ids=["exp", "cube", "atan"])
def test_refine_brackets_two_sided_convergence(f, df, a, b, root):
    # a plain secant converges from one side on exp and cube (2.15 and 0.86
    # from the root after 200 steps); Newton from the midpoint overshoots
    # exp's root once, and atan's first step (to 22.5) leaves [-5, 5], so
    # the midpoint is taken instead
    roots, steps, points = zc._refine_brackets(lambda t: (f(t), df(t)),
                                               [a], [b], [f(a)])
    assert abs(roots[0] - root) <= 4 * math.ulp(root)
    assert steps == points <= 12


def test_refine_brackets_raises_at_step_cap():
    # a jump at 0 with f' = 0: from [-1, 1] every step is a midpoint, and
    # reaching adjacent floats at 0 takes ~1,075 halvings (through the
    # subnormals), so 200 steps run out
    f = lambda x: (np.where(x < 0.0, -1.0, 1.0), np.zeros_like(x))
    with pytest.raises(RuntimeError):
        zc._refine_brackets(f, [-1.0], [1.0], [-1.0])


def _roots_poly(sign, *roots):
    """t -> (sign * prod(t - r), its derivative) at an array t."""
    def f(t):
        terms = [np.asarray(t, dtype=float) - r for r in roots]
        df = sum(np.prod(terms[:i] + terms[i + 1:], axis=0)
                 for i in range(len(terms)))
        return sign * np.prod(terms, axis=0), sign * df
    return f


def test_compute_zeros_grid_point_zero_with_brackets(monkeypatch):
    # xi replaced by polynomials: a scan-point zero is reported once and
    # exactly, the roots inside scan brackets as the per-bracket loop finds
    cases = [
        # the scan point 3.0 approached from above
        (_roots_poly(-1.0, 3.0, 5.1, 8.37), 10.0, [3.0, 5.1, 8.37]),
        # the scan point 3.0 approached from below
        (_roots_poly(-1.0, 3.0, 5.1), 6.0, [3.0, 5.1]),
        # a zero at the last scan point
        (_roots_poly(1.0, 5.1, 6.0), 6.0, [5.1, 6.0]),
    ]
    for poly, T, roots in cases:
        # the scan and the refinement read xi at s = 1/2 + it, whose
        # Z'(t) = -Im xi'(s)
        monkeypatch.setattr(sf, "xi", lambda s, poly=poly: sf.XiValue(
            poly(s.imag)[0] + 0j, -1j * poly(s.imag)[1]))
        zs = zc.compute_zeros(T)
        t_grid = np.arange(2.0, T + 0.25, 0.25)
        vals = poly(t_grid)[0]
        br = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        refined, _ = _per_bracket(poly, t_grid[br], t_grid[br + 1])
        assert zs.ordinates == tuple(np.sort(np.concatenate([t_grid[vals == 0.0], refined])))
        assert len(zs) == len(roots)
        assert np.max(np.abs(np.array(zs.ordinates) - roots)) <= 1e-9
        assert {3.0, 6.0} & set(roots) <= set(zs.ordinates)


def _z_and_slope(t):
    v = sf.xi(complex(0.5, t))
    return v.xi.real, -v.xi_prime.imag


def test_compute_zeros_t110_against_table_and_per_bracket_route():
    zs = zc.compute_zeros(110.0)
    table = zc.load_zeros(ZERO_TABLE, 110.0)
    assert len(zs) == len(table) == 33
    assert np.max(np.abs(np.array(zs.ordinates) - table.ordinates)) <= 1e-11
    t_grid = np.arange(2.0, 110.25, 0.25)
    vals = sf.xi(0.5 + 1j * t_grid).xi.real
    ref = [_newton_root(_z_and_slope, t_grid[i], t_grid[i + 1], vals[i])
           for i in range(len(t_grid) - 1) if (vals[i] < 0) != (vals[i + 1] < 0)]
    assert np.max(np.abs(np.array(zs.ordinates) - ref)) <= 1e-13


def test_compute_zeros_scans_and_refines_through_xi(monkeypatch):
    def refuse(t):
        raise AssertionError("the catalog sweep evaluates xi only through xi")
    monkeypatch.setattr(sf, "xi_on_critical_line", refuse)
    assert len(zc.compute_zeros(50.0)) == 10


def test_compute_zeros_t100_against_mpmath(catalog):
    # every ordinate to a few ulp (1 ulp = 1.4e-14 at 100)
    with mp.workdps(30):
        ref = [float(mp.zetazero(k).imag) for k in range(1, 30)]
    assert len(catalog) == 29
    assert np.max(np.abs(np.array(catalog.ordinates) - ref)) <= 1e-13


def test_compute_zeros_t100_refines_in_few_steps(caplog):
    with caplog.at_level(logging.DEBUG, logger="weil_lab"):
        zc.compute_zeros(100.0)
    (r,) = [r for r in caplog.records if r.name == "weil_lab"]
    assert (r.scan_points, r.brackets) == (393, 29)
    assert r.refine_steps <= 8


@pytest.mark.parametrize("T, n", [(14.2, 1), (21.1, 2), (25.05, 3)])
def test_compute_zeros_finds_a_zero_after_the_last_grid_point(T, n):
    # T itself is the last scan point: gamma_n lies between the last
    # multiple of 1/4 and T
    zs = zc.compute_zeros(T)
    assert len(zs) == n
    assert abs(zs.ordinates[-1] - (G1, G2, G3)[n - 1]) <= 1e-13


def test_compute_zeros_logs_one_debug_record(monkeypatch, caplog):
    # the sweep and its one record, and no file: compute_zeros opens none
    def no_file(*args, **kwargs):
        raise AssertionError("compute_zeros opened a file")
    monkeypatch.setattr(zc, "open", no_file, raising=False)
    with caplog.at_level(logging.DEBUG, logger="weil_lab"):
        zc.compute_zeros(30.0)
    records = [r for r in caplog.records if r.name == "weil_lab"]
    assert len(records) == 1
    r = records[0]
    assert r.levelno == logging.DEBUG and r.getMessage().startswith("catalog sweep")
    assert (r.catalog_T, r.scan_points, r.brackets) == (30.0, 113, 3)
    assert 1 <= r.refine_steps <= 200
    assert r.scan_points + 3 <= r.xi_points <= r.scan_points + 3 * r.refine_steps
    assert r.elapsed_s >= 0.0


def test_counting_check_t100(catalog):
    rep = zc.counting_check(catalog)
    assert rep.passed
    assert abs(rep.estimate - 29.0) < 1.0


def test_counting_check_flags_truncated_set(catalog):
    truncated = zc.ZeroSet(catalog.ordinates[:20], catalog.multiplicities[:20],
                           100.0, "table")
    rep = zc.counting_check(truncated)
    assert not rep.passed


def test_counting_check_t50():
    zs = zc.compute_zeros(50.0)
    rep = zc.counting_check(zs)
    assert rep.passed
    assert abs(len(zs) - rep.estimate) <= 2.0


def test_counting_check_empty_raises():
    zs = zc.ZeroSet((), (), 10.0, "table")
    with pytest.raises(ValueError):
        zc.counting_check(zs)


def test_iterate_symmetric_doubles():
    zs = zc.ZeroSet((14.0, 21.0), (1, 2), 25.0, "table")
    pairs = zc.iterate_symmetric(zs)
    assert pairs == [(-21.0, 2), (-14.0, 1), (14.0, 1), (21.0, 2)]
    # the arrays every catalog sum reads: read-only, outside ==, hash and repr
    assert zs.gammas.tolist() == [-21.0, -14.0, 14.0, 21.0] and zs.gammas.dtype == np.float64
    assert zs.mults.tolist() == [2, 1, 1, 2] and zs.mults.dtype == np.int64
    for arr in (zs.gammas, zs.mults):
        with pytest.raises(ValueError):
            arr[0] = 0
    twin = zc.ZeroSet((14.0, 21.0), (1, 2), 25.0, "table")
    assert twin == zs and hash(twin) == hash(zs) and "gammas" not in repr(zs)
    with pytest.raises(AttributeError):
        zc.iterate_symmetric(pairs)          # a ZeroSet only


def test_iterate_symmetric_empty():
    zs = zc.ZeroSet((), (), 5.0, "table")
    assert zc.iterate_symmetric(zs) == [] and zs.gammas.size == zs.mults.size == 0


def test_iterate_symmetric_evenness_sum(catalog):
    sym = sum(m / g ** 2 for g, m in zc.iterate_symmetric(catalog))
    pos = sum(m / g ** 2 for g, m in
              zip(catalog.ordinates, catalog.multiplicities))
    assert abs(sym - 2.0 * pos) < 1e-15


def test_zeroset_validation():
    with pytest.raises(ValueError):
        zc.ZeroSet((2.0, 1.0), (1, 1), 10.0, "table")       # not ascending
    with pytest.raises(ValueError):
        zc.ZeroSet((1.0,), (0,), 10.0, "table")             # bad multiplicity
    with pytest.raises(ValueError):
        zc.ZeroSet((11.0,), (1,), 10.0, "table")            # above height
    with pytest.raises(ValueError):
        zc.ZeroSet((1.0,), (1,), 10.0, "guess")             # bad source


def test_zeroset_immutable(catalog):
    with pytest.raises(Exception):
        catalog.height_T = 50.0


def test_tail_coefficient(catalog):
    assert zc.tail_coefficient(catalog) == pytest.approx(math.log(100.0) / 100.0)
