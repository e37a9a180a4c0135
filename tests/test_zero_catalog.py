import math
import os

import numpy as np
import pytest

from weil_lab import special_fn as sf
from weil_lab import zero_catalog as zc

# first two ordinates, frozen from a high-precision root-finding oracle
G1 = 14.134725141734694
G2 = 21.022039638771555


def test_load_zeros_basic(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("14.134725142\n21.022039639\n25.010857580\n")
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


def test_load_zeros_reports_malformed_line(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("14.1\nnot-a-number\n")
    with pytest.raises(ValueError, match="line 2"):
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


def test_iterate_symmetric_empty():
    assert zc.iterate_symmetric(zc.ZeroSet((), (), 5.0, "table")) == []


def test_iterate_symmetric_evenness_sum(catalog):
    sym = sum(m / g ** 2 for g, m in zc.iterate_symmetric(catalog))
    pos = sum(m / g ** 2 for g, m in
              zip(catalog.ordinates, catalog.multiplicities))
    assert abs(sym - 2.0 * pos) < 1e-15


def test_iterate_symmetric_passthrough_pairs():
    pairs = [(complex(3, 0.5), 1), (complex(3, -0.5), 1)]
    assert zc.iterate_symmetric(pairs) == pairs


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


def test_cache_roundtrip_and_byte_stability(tmp_path):
    cache = str(tmp_path / "cache")
    zs1 = zc.compute_zeros(20.0, cache_dir=cache)
    path = os.path.join(cache, "zeros_T20.txt")
    blob1 = open(path, "rb").read()
    zs2 = zc.compute_zeros(20.0, cache_dir=cache)   # served from cache
    assert open(path, "rb").read() == blob1
    assert zs2.source == "computed"
    assert abs(zs1.ordinates[0] - zs2.ordinates[0]) < 1e-9


def test_cache_header_names_the_source(tmp_path):
    cache = str(tmp_path / "cache")
    zc.compute_zeros(20.0, cache_dir=cache)
    path = os.path.join(cache, "zeros_T20.txt")
    assert open(path).readline() == "# source=computed\n"
    table = zc.ZeroSet((G1,), (1,), 20.0, "table")
    zc.save_zeros(path, table)
    assert zc.compute_zeros(20.0, cache_dir=cache).source == "table"


def test_cache_without_header_is_recomputed(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "zeros_T20.txt").write_text("14.0\n")
    zs = zc.compute_zeros(20.0, cache_dir=str(cache))
    assert zs.source == "computed"
    assert abs(zs.ordinates[0] - G1) < 1e-8
    header = (cache / "zeros_T20.txt").read_text().splitlines()[0]
    assert header == "# source=computed"


def test_tail_coefficient(catalog):
    assert zc.tail_coefficient(catalog) == pytest.approx(math.log(100.0) / 100.0)
