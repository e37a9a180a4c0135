"""Planted faults that `verify all` should detect: each entry of FAULTS
makes the catalog a run sees wrong, and the run must fail at least one row.

A fault that no row can see yet is kept as a strict expected failure, so
the test turns into a failure of its own (XPASS) once a row catches it."""

import pytest

from weil_lab import cli
from weil_lab import zero_catalog as zc


def _without(index):
    """The catalog with the ordinate at index deleted."""
    def fault(zs):
        keep = [k for k in range(len(zs)) if k != index]
        return zc.ZeroSet(tuple(zs.ordinates[k] for k in keep),
                          tuple(zs.multiplicities[k] for k in keep),
                          zs.height_T, zs.source)
    return fault


FAULTS = {
    # every sum over the catalog has weights >= 0, and F_gamma vanishes at
    # the missing zero whether or not it is listed, so no row sees it
    "gamma_3_deleted": pytest.param(_without(2), marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="no row sees a deleted zero until an explicit-"
        "formula row (ROADMAP item 2) or a certified count (item 3) does")),
}


@pytest.mark.parametrize("fault", FAULTS.values(), ids=list(FAULTS))
def test_fault_fails_a_row(fault):
    cfg = cli.RunConfig(height_T=50.0, cutoff_Z=500.0)
    cfg.catalog = fault(zc.compute_zeros(50.0))
    rows = [row for suite in cli._SUITE_FN.values()
            for row in cli._rows(cfg, suite(cfg))]
    assert not all(row["pass"] for row in rows)
