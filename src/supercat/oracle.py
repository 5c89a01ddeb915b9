"""Brute-force verifiers for the closed-form and exact-optimization paths.

These scanners know nothing about interval formulas or breakpoint algebra:
on a grid of step SCAN_RESOLUTION they probe catalyst membership or joint
feasibility up to the first member and down from the end to the last, and
bisect both boundaries to REFINE_TOL.  This module owns every grid scan over
two-level vectors, to certify the fast paths; none scales past small systems.
"""

from __future__ import annotations

from functools import cache

from .catalysis import (REFINE_TOL, CatalyticPair, CatalystInterval, _affine_grid,
                        _require_dim4_nontrivial, _require_loan, is_catalyst, probe_two_level)
from .errors import EmptyCatalystSet
from .schmidt import EXACT_POLICY, FLOAT_POLICY, SchmidtVector, binary_entropy, entropy
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
    """(first, last) passing points of xs, or None if none passes, each bisected
    against its failing neighbour unless it ends xs; no point between is probed."""
    first = next((i for i in range(len(xs)) if member(xs[i])), None)
    if first is None:
        return None
    last = next((i for i in range(len(xs) - 1, first, -1) if member(xs[i])), first)
    lo = xs[first] if first == 0 else _bisect(member, xs[first - 1], xs[first])
    hi = xs[last] if last == len(xs) - 1 else _bisect(member, xs[last + 1], xs[last])
    return lo, hi


@cache
def _interval_grid(exact: bool) -> tuple:
    """(xs, probes): grid_catalyst_interval's grid and each point's probe_two_level
    vector by x, built once per arithmetic on first use; callers only read it."""
    xs = tuple(min(0.5 + i * SCAN_RESOLUTION, 1.0) for i in range(1 + round(0.5 / SCAN_RESOLUTION)))
    return xs, {x: probe_two_level(x, EXACT_POLICY if exact else FLOAT_POLICY) for x in xs}


def grid_catalyst_interval(pair: CatalyticPair) -> CatalystInterval:
    """Scan two-level catalysts over x in [0.5, 1] and refine the boundaries.

    Reports a hull: the first and last scanned members, each bisected against
    its failing neighbour; the points between are not probed.  Grid points
    reuse _interval_grid's vectors.  Raises EmptyCatalystSet when no grid
    point is a catalyst, as for a set narrower than the resolution.
    """
    _require_dim4_nontrivial(pair)
    xs, probes = _interval_grid(pair.policy.exact)
    found = _scan(lambda x: is_catalyst(pair, probes.get(x) or probe_two_level(x, pair.policy)),
                  xs)
    if found is None:
        raise EmptyCatalystSet("no two-level catalyst found at this resolution")
    return CatalystInterval(*found, True)


def grid_gmax_rank2(pair: CatalyticPair, c: SchmidtVector) -> GainResult:
    """Scan returned states (y, 1-y) over [1/2, c1] for the best feasible gain.

    Feasibility need not be monotone in y, so every point below the first
    member is inspected; the smallest feasible y (the most entangled feasible
    returned state) is kept and the boundary just below it bisected.

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
