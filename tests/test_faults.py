"""Planted faults that `verify all` should detect: each entry of FAULTS
makes the catalog a run sees wrong, and the run must fail at least one row.

A fault that no row can see yet is kept as a strict expected failure, so
the test turns into a failure of its own (XPASS) once a row catches it."""

import pytest

from weil_lab import cli
from weil_lab import zero_catalog as zc


def _edited(edit):
    """The fault that applies edit to the catalog's (gamma, m) pairs."""
    def fault(zs):
        pairs = sorted(edit(list(zip(zs.ordinates, zs.multiplicities))))
        return zc.ZeroSet(tuple(g for g, _ in pairs), tuple(m for _, m in pairs),
                          zs.height_T, zs.source)
    return fault


def _without(index):
    """The catalog with the ordinate at index deleted."""
    def edit(pairs):
        del pairs[index]
        return pairs
    return _edited(edit)


def _first_changed(g_shift=0.0, m=1):
    """The catalog with gamma_1 moved by g_shift and given multiplicity m."""
    return _edited(lambda pairs: [(pairs[0][0] + g_shift, m)] + pairs[1:])


# with every sum over the catalog weighted >= 0, and F_gamma vanishing at a
# missing zero whether or not it is listed, no row sees a deleted zero
_DELETED = ("no row sees a deleted zero until an explicit-formula row "
            "(ROADMAP item 2) or a certified count (item 3) does")
_DELETED_7_3 = ("no row sees a deleted zero until the interlacing row "
                "(ROADMAP item 7) or a certified count (item 3) does")


def _unseen(fault, reason):
    return pytest.param(fault, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=reason))


FAULTS = {
    "gamma_3_deleted": _unseen(_without(2), _DELETED),
    "gamma_1_deleted": _unseen(_without(0), _DELETED_7_3),
    "gamma_N_deleted": _unseen(_without(-1), _DELETED_7_3),
    # fails basis_diagonal and restriction_point_mass at T = 50, Z = 500
    "gamma_1_moved_1e-6": _first_changed(g_shift=1e-6),
    # fails 7 rows
    "spurious_zero_at_45": _edited(lambda pairs: pairs + [(45.0, 1)]),
    # fails 6 rows
    "gamma_1_doubled": _first_changed(m=2),
}


@pytest.mark.parametrize("fault", FAULTS.values(), ids=list(FAULTS))
def test_fault_fails_a_row(fault):
    cfg = cli.RunConfig(height_T=50.0, cutoff_Z=500.0)
    cfg.catalog = fault(zc.compute_zeros(50.0))
    rows = [row for suite in cli._SUITE_FN.values()
            for row in cli._rows(cfg, suite(cfg))]
    assert not all(row["pass"] for row in rows)
