"""Brute-force verifiers for the closed-form and exact-optimization paths.

These scanners know nothing about interval formulas or breakpoint algebra:
they evaluate catalyst membership and joint-transfer feasibility on a grid of
step SCAN_RESOLUTION and bisect the verdict boundaries to REFINE_TOL.  This
module owns every grid scan over two-level vectors.  They exist to certify
the fast paths, not to replace them, and do not scale beyond small systems.
"""

from __future__ import annotations

from .catalysis import (REFINE_TOL, CatalyticPair, CatalystInterval, _affine_grid,
                        _require_dim4_nontrivial, _require_loan, is_catalyst, probe_two_level)
from .errors import EmptyCatalystSet
from .schmidt import SchmidtVector, binary_entropy, entropy
from .supercatalysis import GRID_METHOD, GainResult

#: Grid step of every scan over two-level vectors (x, 1-x).
SCAN_RESOLUTION = 1e-3


def _bisect(predicate, x_false: float, x_true: float) -> float:
    """Boundary of a verdict change, located to REFINE_TOL, on the True side."""
    while abs(x_true - x_false) > REFINE_TOL:
        mid = 0.5 * (x_false + x_true)
        x_false, x_true = (x_false, mid) if predicate(mid) else (mid, x_true)
    return x_true


def _scan(member, xs):
    """(first, last) passing points of the grid xs, or None if none passes; each
    is bisected against its failing neighbour unless it ends the grid."""
    verdicts = [member(x) for x in xs]
    if True not in verdicts:
        return None
    first = verdicts.index(True)
    last = len(xs) - 1 - verdicts[::-1].index(True)
    lo = xs[first] if first == 0 else _bisect(member, xs[first - 1], xs[first])
    hi = xs[last] if last == len(xs) - 1 else _bisect(member, xs[last + 1], xs[last])
    return lo, hi


def grid_catalyst_interval(pair: CatalyticPair) -> CatalystInterval:
    """Scan two-level catalysts over x in [0.5, 1] and refine the boundaries.

    Reports a hull: x_min and x_max are the first and last scanned members,
    each bisected against its failing neighbour, and a gap between them
    counts as inside.  Raises EmptyCatalystSet when no scanned point is a
    catalyst (sets narrower than the resolution are invisible to this oracle).
    """
    _require_dim4_nontrivial(pair)
    steps = int(round(0.5 / SCAN_RESOLUTION))
    found = _scan(lambda x: is_catalyst(pair, probe_two_level(x, pair.policy)),
                  [min(0.5 + i * SCAN_RESOLUTION, 1.0) for i in range(steps + 1)])
    if found is None:
        raise EmptyCatalystSet("no two-level catalyst found at this resolution")
    return CatalystInterval(*found, True)


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
