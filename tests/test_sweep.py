"""Opt-in sweep: seeded s across every registered identity's strip.

Run with ``pytest -m sweep`` (deselected by default; about 20 s on two
vCPUs). Each identity takes 40 seeded s, half of them real, with Re s at
least 0.02 inside its strip and |Im s| <= 6, at its default tolerance,
1e-12 and 1e-13. It pins where the quadrature declares an integrand
singular: never on an integrable identity, on every sample of
``digamma_corollary``, whose integrand -1/(1 - x) has a pole at x = 1.
"""

import random

import pytest

from mellinkit import harness

pytestmark = pytest.mark.sweep

N_S = 40
IM_MAX = 6.0


def sweep_grid(case, tol) -> list:
    """The seeded s of one (identity, tolerance) pair."""
    rng = random.Random(f"{case.id}:{tol}")
    lo, hi = case.strip.lo + harness.EDGE_MARGIN, case.strip.hi - harness.EDGE_MARGIN
    grid = []
    for i in range(N_S):
        re = rng.uniform(lo, hi)
        grid.append(complex(re, rng.uniform(-IM_MAX, IM_MAX)) if i % 2 else re)
    return grid


@pytest.mark.parametrize("tol", [None, 1e-12, 1e-13])
@pytest.mark.parametrize("cid", [row[0] for row in harness.list_identities()])
def test_only_the_pole_is_singular(cid, tol):
    case = harness.get_case(cid)
    tol = case.default_tol if tol is None else tol
    rep = harness.verify(cid, s_grid=sweep_grid(case, tol), tol=tol)
    singular = [smp.s for smp in rep.samples
                if (smp.error or "").startswith("SingularIntegrandError:")]
    if cid == "digamma_corollary":
        assert len(singular) == N_S
    else:
        assert singular == []
