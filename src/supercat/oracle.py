"""Brute-force verifiers for the closed-form and exact-optimization paths.

These scanners know nothing about interval formulas or breakpoint algebra:
on a grid of step SCAN_RESOLUTION, each finds the first point that passes
catalyst membership (by _walk from each end: it need not be monotone in x) or
joint feasibility (by binary search: it is monotone in y), and _first bisects
the boundary before it to REFINE_TOL.  This module owns every grid scan over
two-level vectors, to certify the fast paths; none scales past small systems.

A probe pays only for its joint test, which CatalyticPair decides with one
body per question in both arithmetics: the membership test _member on the
interval grid's tabled forms (q, C), and joint_feasible on a plain pair
(y, 1 - y) in the gain scan.  This module holds no comparison of its own.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache

from .catalysis import (CatalyticPair, CatalystInterval, _affine_grid, _require_dim4_nontrivial,
                        _require_loan, probe_two_level)
from .errors import EmptyCatalystSet
from .schmidt import (EXACT_POLICY, FLOAT_POLICY, SchmidtVector, _coerce, _member_form,
                      binary_entropy)
from .supercatalysis import GRID_METHOD, GainResult, _gain_value

#: Grid step of every scan over two-level vectors (x, 1-x).
SCAN_RESOLUTION = 1e-3
#: Width below which a bisected boundary counts as located.
REFINE_TOL = 1e-9


def _first(member, xs, i):
    """The boundary at xs[i], the first point of xs that passes member, as
    its caller found it: xs[i] bisected to REFINE_TOL against the failing
    xs[i - 1], or xs[0] if i == 0; None if i == len(xs), no point passing.
    Only bisection midpoints are probed, none of them on the grid."""
    if i == len(xs):
        return None
    x_false, x_true = xs[i - 1 if i else 0], xs[i]
    while abs(x_true - x_false) > REFINE_TOL:
        mid = 0.5 * (x_false + x_true)
        x_false, x_true = (x_false, mid) if member(mid) else (mid, x_true)
    return x_true


def _walk(member, xs):
    """Index of the first point of xs that passes member, or len(xs), found
    by probing each point in turn up to it: the interval oracle's search,
    as catalyst membership need not be monotone in x."""
    return next((i for i, x in enumerate(xs) if member(x)), len(xs))


@cache
def _interval_grid(exact: bool) -> tuple:
    """(xs, forms): grid_catalyst_interval's grid and the _member_form (q, C)
    of each point's probe_two_level vector by x, in one shape for both
    arithmetics: (1, the vector) in float mode, its integers in exact mode.
    Built once per arithmetic on first use; callers only read it."""
    policy = EXACT_POLICY if exact else FLOAT_POLICY
    xs = tuple(min(0.5 + i * SCAN_RESOLUTION, 1.0) for i in range(1 + round(0.5 / SCAN_RESOLUTION)))
    return xs, {x: _member_form(probe_two_level(x, policy), exact) for x in xs}


def grid_catalyst_interval(pair: CatalyticPair) -> CatalystInterval:
    """Scan two-level catalysts over x in [0.5, 1] and refine the boundaries.

    Reports a hull: from each end of the grid, _walk to the first member,
    which _first bisects against its failing neighbour; the points
    between are not probed.  Grid points reuse _interval_grid's forms, and a
    bisection midpoint builds its own from probe_two_level.  Raises
    EmptyCatalystSet when no grid point is a catalyst, as for a set narrower
    than the resolution.
    """
    _require_dim4_nontrivial(pair)
    policy = pair.policy
    xs, forms = _interval_grid(policy.exact)

    def member(x: float) -> bool:
        return pair._member(forms.get(x) or _member_form(probe_two_level(x, policy), policy.exact))

    lo = _first(member, xs, _walk(member, xs))
    if lo is None:
        raise EmptyCatalystSet("no two-level catalyst found at this resolution")
    return CatalystInterval(lo, _first(member, xs[::-1], _walk(member, xs[::-1])))


def grid_gmax_rank2(pair: CatalyticPair, c: SchmidtVector) -> GainResult:
    """Scan returned states (y, 1-y) over [1/2, c1] for the best feasible gain.

    Feasibility is monotone in y: for 1/2 <= y <= y', (y', 1-y') majorizes
    (y, 1-y), and tensoring with b keeps majorization, so the feasible y form
    an interval [y*, c1].  The scan's soundness rests on that argument, which
    tests/test_oracle.py::test_gain_verdicts_are_monotone_in_y checks along
    this grid: a binary search finds the first feasible grid point and _first
    bisects the boundary just below it; y* gives the most entangled feasible
    returned state.

    Only two-level returned states are scanned, so where returned_rank_bound
    is 3 or more the optimum may have more levels and no oracle applies.
    """
    c, target, _, ent_c = _require_loan(pair, c)
    c1 = float(c[0])

    def feasible(y: float) -> bool:
        y = _coerce(y, pair.policy)  # the rule of probe_two_level
        return pair.joint_feasible(target, (y, 1 - y))

    steps = max(1, int(round((c1 - 0.5) / SCAN_RESOLUTION)))
    ys = _affine_grid(0.5, c1, steps + 1)
    y_star = _first(feasible, ys, bisect_left(ys, True, key=feasible))
    if y_star is None or y_star >= c1 - pair.policy.tol_strict:
        return GainResult(0.0, c, GRID_METHOD)
    return GainResult(_gain_value(pair, binary_entropy(y_star), ent_c),
                      probe_two_level(y_star, pair.policy), GRID_METHOD)
