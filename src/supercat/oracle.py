"""Brute-force verifiers for the closed-form and exact-optimization paths.

These scanners know nothing about interval formulas or breakpoint algebra:
they evaluate catalyst membership and joint-transfer feasibility on a grid of
step catalysis.SCAN_RESOLUTION and bisect the verdict boundaries to
catalysis.REFINE_TOL.  They exist to certify the fast paths, not to replace
them, and do not scale beyond small main systems.
"""

from __future__ import annotations

from .catalysis import (SCAN_RESOLUTION, CatalyticPair, CatalystInterval, _affine_grid,
                        _require_dim4_nontrivial, _require_loan, _scan, _scan_two_level,
                        probe_two_level)
from .schmidt import SchmidtVector, binary_entropy, entropy
from .supercatalysis import GRID_METHOD, GainResult


def grid_catalyst_interval(pair: CatalyticPair) -> CatalystInterval:
    """Scan two-level catalysts over x in [0.5, 1] and refine the boundaries.

    Raises EmptyCatalystSet when no scanned point is a catalyst (intervals
    narrower than the resolution are invisible to this oracle).
    """
    _require_dim4_nontrivial(pair)
    return CatalystInterval(*_scan_two_level(pair), True)


def grid_gmax_rank2(pair: CatalyticPair, c: SchmidtVector) -> GainResult:
    """Scan returned states (y, 1-y) over [1/2, c1] for the best feasible gain.

    Feasibility need not be monotone in y, so every grid point is inspected;
    the scan keeps the smallest feasible y (the most entangled feasible
    returned state) and bisects the feasibility boundary just below it.

    Only two-level returned states are scanned, so where returned_rank_bound
    is 3 or more the optimum may have more levels and no oracle applies.
    """
    c, target = _require_loan(pair, c)
    c1 = float(c[0])

    def feasible(y: float) -> bool:
        return pair.joint_feasible(target, probe_two_level(y, pair.policy))

    steps = max(1, int(round((c1 - 0.5) / SCAN_RESOLUTION)))
    found = _scan(feasible, _affine_grid(0.5, c1, steps + 1))
    if found is None or found[0] >= c1 - pair.policy.tol_strict:
        return GainResult(0.0, c, GRID_METHOD)
    y_star = found[0]
    g = (binary_entropy(y_star) - entropy(c)) / pair.entropy_drop
    return GainResult(min(max(g, 0.0), 1.0), probe_two_level(y_star, pair.policy),
                      GRID_METHOD)
