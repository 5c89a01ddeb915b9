"""Brute-force verifiers for the closed-form and exact-optimization paths.

These scanners know nothing about interval formulas or breakpoint algebra:
they evaluate catalyst membership and joint-transfer feasibility point by
point and bisect verdict boundaries.  They exist to certify the fast paths,
not to replace them, and do not scale beyond small main systems.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalysis import (CatalyticPair, CatalystInterval, _bisect, _require_loan, is_catalyst,
                        probe_two_level)
from .errors import EmptyCatalystSet, PreconditionViolated
from .schmidt import SchmidtVector, binary_entropy, entropy, kron, majorizes
from .supercatalysis import GRID_METHOD, GainResult


@dataclass(frozen=True)
class GridSpec:
    """Scan resolution and boundary refinement target."""

    resolution: float = 1e-3
    refinement_tol: float = 1e-9

    def __post_init__(self):
        if not 0 < self.refinement_tol <= self.resolution:
            raise ValueError("need 0 < refinement_tol <= resolution")


def grid_catalyst_interval(pair: CatalyticPair, spec: GridSpec = GridSpec()) -> CatalystInterval:
    """Scan two-level catalysts over x in [0.5, 1] and refine the boundaries.

    Raises EmptyCatalystSet when no scanned point is a catalyst (intervals
    narrower than the resolution are invisible to this oracle).
    """
    if not pair.nontrivial:
        raise PreconditionViolated("pair is convertible without a catalyst")
    if not pair.dim4:
        raise PreconditionViolated("oracle covers Schmidt ranks up to 4 only")

    def member(x: float) -> bool:
        return is_catalyst(pair, probe_two_level(x, pair.policy))

    steps = int(round(0.5 / spec.resolution))
    xs = [min(0.5 + i * spec.resolution, 1.0) for i in range(steps + 1)]
    verdicts = [member(x) for x in xs]
    if not any(verdicts):
        raise EmptyCatalystSet("no two-level catalyst found at this resolution")
    first = verdicts.index(True)
    last = len(xs) - 1 - verdicts[::-1].index(True)

    lo = xs[first] if first == 0 else _bisect(member, xs[first - 1], xs[first], spec.refinement_tol)
    hi = xs[last] if last == len(xs) - 1 else _bisect(member, xs[last + 1], xs[last],
                                                      spec.refinement_tol)
    return CatalystInterval(lo, hi, True)


def grid_gmax_rank2(pair: CatalyticPair, c: SchmidtVector,
                    spec: GridSpec = GridSpec()) -> GainResult:
    """Scan returned states (y, 1-y) over [1/2, c1] for the best feasible gain.

    Feasibility need not be monotone in y, so every grid point is inspected;
    the scan keeps the smallest feasible y (the most entangled feasible
    returned state) and bisects the feasibility boundary just below it.
    """
    _require_loan(pair, c)
    target = kron(pair.a, c)
    c1 = float(c[0])

    def feasible(y: float) -> bool:
        return majorizes(kron(pair.b, probe_two_level(y, pair.policy)), target, pair.policy)

    span = c1 - 0.5
    steps = max(1, int(round(span / spec.resolution)))
    ys = [0.5 + span * i / steps for i in range(steps + 1)]
    flags = [feasible(y) for y in ys]
    if not any(flags):
        return GainResult(0.0, c, GRID_METHOD)
    first = flags.index(True)
    y_star = ys[first]
    if first > 0:
        y_star = _bisect(feasible, ys[first - 1], ys[first], spec.refinement_tol)
    if y_star >= c1 - pair.policy.tol_strict:
        return GainResult(0.0, c, GRID_METHOD)
    g = (binary_entropy(y_star) - entropy(c)) / pair.entropy_drop
    return GainResult(min(max(g, 0.0), 1.0), probe_two_level(y_star, pair.policy),
                      GRID_METHOD)
