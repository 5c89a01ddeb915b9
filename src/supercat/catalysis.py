"""Catalyst membership, the two-level algebra and the rank-2 interval.

A catalyst for an LOCC-blocked transformation a -> b is an auxiliary vector c
with b (x) c majorizing a (x) c.  The two-level catalysts (x, 1-x) of any
pair are a union of closed pieces in x, solved exactly here; at main
dimension at most 4 they are one interval with the paper's closed form.  At
every dimension the ends of the set are the least and most entangled
two-level catalysts, and the low end gives the exact E_2.  The pair's
breakpoint tables are read only here: by the two-level set, by the best
two-level returned state y* of a two-level loan (_min_feasible_y) and by the
linear pieces of y*(x) (_y_star_pieces), from which supercatalysis computes
gains.  In float mode all three count a constraint as sloped only when its
slope exceeds tol_eq, and give a constant one tol_eq slack.  Above rank 2
the maximal catalyst entropy E_r has a certified ceiling, which every gain
bound reads.  Grid scans of two-level vectors live in oracle.

The one rank >= 3 search is the returned-state grid of supercatalysis.  Its
candidates do not depend on the pair: it builds its table once per process
per (rank, grid steps, arithmetic), on first use, sorted by decreasing
entropy, and stops at its first member.  The result is that of the full
scan: the highest-entropy member, ties going to the candidate listed first.
The search starts at the first row at or below _entropy_ceiling(pair, r),
found by bisection: prefix 2r of the joint test alone caps the entropy of
every catalyst of rank <= r (and so of every feasible returned state), up
to tol_strict for float slack and rounding in either arithmetic, so every
row above it would fail its test.  It skips a row that
CatalyticPair.joint_lead fails on its two leading coefficients before it
builds the row's vector; no skipped row could pass its full test.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple, Optional

from .errors import EmptyCatalystSet, NotACatalyst, PreconditionViolated, ZeroDenominator
from .schmidt import (FLOAT_POLICY, ComparisonPolicy, Real, SchmidtVector, _coerce,
                      _coerce_vector, _constants, _frozen, _member_form, _pad_to_match,
                      binary_entropy, entropy, nielsen_convertible, prefix_sums, schmidt_rank)


class CatalyticPair:
    """An ordered pair of main-system vectors, zero-padded to equal dimension.

    Both vectors are converted into the policy's arithmetic by _coerce_vector,
    as is every vector a question about the pair is asked of.  The per-pair
    facts every question about the pair needs are computed once and cached:
    nontrivial records whether the bare transformation a -> b is blocked,
    dim4 whether both Schmidt ranks are at most 4 (the closed form's domain),
    _two_level the exact set of two-level catalysts at any rank, and
    _two_level_ends its two ends, which the extreme catalysts and E_2 read.

    The pair owns the joint-transfer test a (x) c -> b (x) d that every
    catalyst and gain question reduces to (joint_target, joint_feasible),
    and the membership test d = c of a loan (_member), which is_catalyst
    and the interval oracle share.  joint_lead makes the
    joint test's first two prefix sums, and majorizes' first, on a returned
    state's two leading coefficients alone, so the returned-state grid can
    reject most rows before it builds them.  Every joint question, joint_lead
    included, is one body for both arithmetics, over the cached _sides
    (A, B, tol) and a vector's _member_form (q, C): prefix sums of the sorted
    products, those of a (x) c built once per loan, compared with tol slack.
    Float mode reads the coefficients themselves with q = D = 1 and
    tol = tol_eq, so each verdict equals majorizes(kron(b, d), kron(a, c))
    bit for bit.  Exact mode reads integers over the lcm D of a's and b's
    denominators and the lcm q of the vector's, with tol = 0.  A loan's
    membership takes its form as given, so a caller that tables forms builds
    each once.

    A pair is an immutable value, equal and hashed by (a, b, policy): assigning
    an attribute raises AttributeError, and the cached facts go to its __dict__.
    """

    def __init__(self, a: SchmidtVector, b: SchmidtVector, policy: ComparisonPolicy = FLOAT_POLICY):
        a, b = _pad_to_match(_coerce_vector(a, policy), _coerce_vector(b, policy))
        vars(self).update(a=a, b=b, policy=policy)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.a, self.b, self.policy) == (other.a, other.b, other.policy)

    def __hash__(self):
        return hash((self.a, self.b, self.policy))

    def __repr__(self):
        return f"CatalyticPair(a={self.a!r}, b={self.b!r}, policy={self.policy!r})"

    __setattr__ = __delattr__ = _frozen

    @cached_property
    def nontrivial(self) -> bool:
        return not nielsen_convertible(self.a, self.b, self.policy)

    @cached_property
    def entropy_drop(self) -> float:
        return entropy(self.a) - entropy(self.b)

    @cached_property
    def rank_a(self) -> int:
        return schmidt_rank(self.a, self.policy)

    @cached_property
    def rank_b(self) -> int:
        return schmidt_rank(self.b, self.policy)

    @cached_property
    def dim4(self) -> bool:
        return self.rank_a <= 4 and self.rank_b <= 4

    @cached_property
    def _interval(self) -> CatalystInterval:
        return _closed_form_interval(self)

    @cached_property
    def _two_level(self) -> tuple:
        return _two_level_pieces(self)

    @cached_property
    def _two_level_ends(self) -> Optional[tuple]:
        """(x_min, x_max) of the two-level catalysts, or None if there are
        none: the closed form at rank <= 4, else the ends of _two_level."""
        if self.dim4:
            return tuple(self._interval) if self._interval.nonempty else None
        return (self._two_level[0][0], self._two_level[-1][1]) if self._two_level else None

    @cached_property
    def _sides(self) -> tuple:
        """(A, B, tol): a and b as every joint test reads them, and its slack:
        the coefficients and tol_eq in float mode, the integers A_i = a_i D and
        B_i = b_i D over the lcm D of their denominators and 0 in exact mode."""
        exact = self.policy.exact
        _, ints = _member_form(self.a + self.b, exact)
        n = len(self.a)
        return tuple(ints[:n]), tuple(ints[n:]), 0 if exact else self.policy.tol_eq

    @cached_property
    def _segments(self) -> tuple:
        """_breakpoint_segments of B, in y: the joint test's side b (x) (y, 1-y)."""
        return _breakpoint_segments(self._sides[1], self.policy.exact)

    @cached_property
    def _segments_a(self) -> tuple:
        """_breakpoint_segments of A, in x: the targets a (x) (x, 1-x) of the two-level loans."""
        return _breakpoint_segments(self._sides[0], self.policy.exact)

    def joint_target(self, c: SchmidtVector) -> tuple:
        """The side a (x) c of the joint test for the loan c, built once per loan.

        Returns (q, sums, c, C), where (q, C) = _member_form(c) and sums are
        the prefix sums of the sorted products A_i C_j, all over the
        denominator D q (q = D = 1 in float mode, where C is c).
        """
        q, ints = _member_form(c, self.policy.exact)
        return q, tuple(accumulate(_sorted_products(self._sides[0], ints))), c, ints

    def joint_feasible(self, target, d: SchmidtVector) -> bool:
        """Does b (x) d majorize a (x) c, for target = joint_target(c)?

        d is any sequence in the pair's arithmetic, such as a plain pair
        (y, 1 - y), in any order, with no negative entry; the loan's own C is
        reused when d is c.  Exact mode reads any other d as integers D over
        its own denominator, and when that differs from c's multiplies each
        side by the other's; float mode reads d itself.  Each prefix sum of
        the sorted products B_i D_j is compared with the target's as
        accumulate yields it, up to the first that fails.  Past a shorter
        b (x) d its last prefix sum repeats, as zero padding gives inside
        majorizes, and a shorter target needs none, as the sums of b (x) d
        only grow.  Float verdicts equal majorizes(kron(b, d), kron(a, c))
        bit for bit.
        """
        q, sums_a, c, ints = target
        _, scaled_b, tol = self._sides
        if d is not c:
            ints = d
            if self.policy.exact:  # d over its own denominator, cross-multiplied if not q
                qd, ints = _member_form(d, True)
                if qd != q:
                    sums_a = [s * qd for s in sums_a]
                    scaled_b = [x * q for x in scaled_b]
        products = _sorted_products(scaled_b, ints)
        for t, s in zip(sums_a, accumulate(products)):
            if t > s + tol:
                return False
        return len(sums_a) <= len(products) or all(t <= s + tol for t in sums_a[len(products):])

    def joint_lead(self, target):
        """A test lead(d1, d2) on the two largest coefficients of a
        non-increasing d, False only where joint_feasible(target, d) or
        majorizes(c, d) is, for target = joint_target(c) of a sorted loan c,
        whose largest coefficient c_1 it reads from the target.

        It fails d on the first two prefix sums of joint_feasible and on the
        first partial sum of majorizes, each made as its owner makes it: the
        largest product of b (x) d is B_1 d_1 and, as products of
        non-negatives round monotonically, the second is
        max(B_2 d_1, B_1 d_2), so every float comparison is the owner's bit
        for bit.  In exact mode the target's sums T_k are over D q and B over
        D, so B is scaled by q; with tol = 0 every comparison is exact.
        The pair must be blocked, so of dimension at least 2.
        """
        q, sums_a, c = target[:3]
        scaled_b, tol = self._sides[1:]
        t1, t2 = sums_a[:2]
        b1, b2 = scaled_b[0] * q, scaled_b[1] * q
        top = c[0] + tol

        def lead(d1, d2) -> bool:
            p1 = b1 * d1
            return not (t1 > p1 + tol or t2 > p1 + max(b2 * d1, b1 * d2) + tol) and d1 <= top

        return lead

    def _member(self, form) -> bool:
        """Is the loan c a catalyst, for form = _member_form(c)?

        c must be in the pair's arithmetic and order.  This is the membership
        test of is_catalyst and the interval oracle's grid:
        the products A_i C_j and B_i C_j share the denominator D q and are
        equally many, so their sorted prefix sums, those of b (x) c plus tol,
        are compared as accumulate yields them, up to the first that fails,
        with nothing stored or padded.
        """
        scaled_a, scaled_b, tol = self._sides
        ints = form[1]
        sums_b = accumulate(_sorted_products(scaled_b, ints))
        if tol:  # an exact sum plus 0 would only cost
            sums_b = map(tol.__add__, sums_b)
        return all(map(operator.le, accumulate(_sorted_products(scaled_a, ints)), sums_b))


def _sorted_products(u, v) -> list:
    """All products u_i v_j in decreasing order, built v-major so that each
    run over a non-increasing u comes already sorted."""
    products = [x * y for y in v for x in u]
    products.sort(reverse=True)
    return products


def _breakpoint_segments(b_coeffs, exact: bool) -> tuple:
    """The 2n products of b (x) (y, 1-y) as piecewise-linear functions of y.

    The cuts are 1/2, the sorted distinct breakpoints b_j / (b_i + b_j) in
    (1/2, 1) where two products can tie, and 1.  Between consecutive cuts the
    sorted order of the products is fixed, so every prefix sum is linear in
    y there.  Returns one (lo, hi, sums) per segment, where sums lists the
    sum of the k largest products, k = 1..2n, as (const, slope): the sum is
    const + slope y.  The order is taken at the segment's midpoint, strictly
    between two cuts, so no tie between products of different coefficients
    can enter it.  In exact mode b_coeffs are the integers B_i = b_i D, so the
    cuts are Fractions and the cumulative coefficients integers over D.
    """
    if exact:
        zero, half, one, ratio = 0, Fraction(1, 2), 1, Fraction
    else:
        zero, half, one, ratio = 0.0, 0.5, 1.0, operator.truediv
    cuts = set()
    for bi in b_coeffs:
        for bj in b_coeffs:
            den = bi + bj
            if den > 0:
                y = ratio(bj, den)
                if half < y < one:
                    cuts.add(y)
    cuts = (half, *sorted(cuts), one)
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        # exact mode ranks the products b_i y and b_i (1-y) scaled by y's denominator
        w_y, w_1 = (mid.numerator, mid.denominator - mid.numerator) if exact else (mid, one - mid)
        terms = [(bi * w_y, bi, zero) for bi in b_coeffs]
        terms += [(bi * w_1, zero, bi) for bi in b_coeffs]
        terms.sort(key=lambda t: t[0], reverse=True)
        coef_y = coef_const = zero
        sums = []
        for _, dy, dc in terms:
            coef_y += dy
            coef_const += dc
            sums.append((coef_const, coef_y - coef_const))
        segments.append((lo, hi, tuple(sums)))
    return tuple(segments)


def _two_level_pieces(pair: CatalyticPair) -> tuple:
    """The closed pieces (lo, hi) of the x where (x, 1-x) is a catalyst, lowest first.

    Between the merged cuts of a and b (the pair's _segments_a and _segments),
    prefix k of b (x) c minus that of a (x) c is const + slope x: each piece
    solves these constraints, exactly on the pair's integers in exact mode,
    and in float mode as _min_feasible_y does; pieces at most tol_eq apart
    are merged.
    """
    tol, ratio = pair._sides[2], (Fraction if pair.policy.exact else operator.truediv)
    segs_a, segs_b, pieces, i, j = pair._segments_a, pair._segments, [], 0, 0
    while i < len(segs_a) and j < len(segs_b):
        (lo_a, hi_a, sums_a), (lo_b, hi_b, sums_b) = segs_a[i], segs_b[j]
        lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
        i, j = i + (hi_a == hi), j + (hi_b == hi)
        for (const_a, slope_a), (const_b, slope_b) in zip(sums_a, sums_b):
            const, slope = const_b - const_a, slope_b - slope_a
            if slope > tol:
                lo = max(lo, ratio(-const, slope))
            elif slope < -tol:
                hi = min(hi, ratio(-const, slope))
            elif const + slope * (lo + hi) / 2 < -tol:
                break
        else:
            if lo <= hi + tol:
                if pieces and lo - pieces[-1][1] <= tol:  # touches the last piece
                    lo = pieces.pop()[0]
                pieces.append((lo, max(lo, hi)))
    return tuple(pieces)


def _min_feasible_y(pair: CatalyticPair, target) -> Optional[Real]:
    """Smallest y in [1/2, c1] with every prefix sum of b (x) (y, 1-y) at
    least the corresponding one of a (x) c, for target = pair.joint_target(c).

    Between consecutive breakpoints (y values where b_i * y == b_j * (1-y))
    the sorted order of the 2n products is constant, so each prefix sum is a
    linear function of y.  Its slope is never negative: for y >= 1/2 every
    b_i (1-y) among the k largest products has its partner b_i y there too.
    So every constraint only bounds y from below, and the feasible y form
    the single interval [y*, c1].  The pair caches the breakpoints and each
    segment's prefix sums; segments are visited left to right, the last one
    clipped at c1 (read from the target), and the first segment with a
    feasible point yields y*.

    In float mode, constraints that are constant in y are compared with
    tol_eq slack so exact ties survive rounding; sloped constraints are
    solved without slack, since slack would shift the optimum and let the
    reported gain creep past its upper bound.  Exact mode solves the same
    constraints on the pair's integers (_min_feasible_y_scaled).
    """
    if pair.policy.exact:
        return _min_feasible_y_scaled(pair, target)
    sums_a, c1, tol = target[1], target[2][0], pair.policy.tol_eq

    for seg_lo, seg_hi, sums in pair._segments:
        if not seg_lo < c1:
            break
        if not seg_hi < c1:
            seg_hi = c1
        mid = (seg_lo + seg_hi) / 2
        y = seg_lo
        for k, (coef_const, slope) in enumerate(sums):
            if slope > tol:
                bound = (sums_a[k] - coef_const) / slope
                if bound > y:
                    y = bound
                    if y > seg_hi:
                        break
            elif coef_const + slope * mid < sums_a[k] - tol:
                # constraint is (numerically) constant on the segment
                break
        else:
            return y
    return None


def _min_feasible_y_scaled(pair: CatalyticPair, target: tuple) -> Optional[Fraction]:
    """_min_feasible_y in exact mode, on integers.

    target is (q, T, c, C) with T_k over D q, and the segment coefficients are
    integers over D, so constraint k reads (coef_const + slope * y) q >= T_k.
    A slope is 0 or positive, and with slope 0 the constraint is the constant
    coef_const q >= T_k.  Every y is kept as a numerator and denominator and
    compared by cross-multiplying; only y* itself becomes a Fraction.
    """
    q, sums_a, c = target[:3]
    hn, hd = c[0].numerator, c[0].denominator
    for seg_lo, seg_hi, sums in pair._segments:
        yn, yd = seg_lo.numerator, seg_lo.denominator
        if not yn * hd < hn * yd:
            break
        un, ud = seg_hi.numerator, seg_hi.denominator
        if not un * hd < hn * ud:
            un, ud = hn, hd
        for k, (coef_const, slope) in enumerate(sums):
            if slope > 0:
                bn, bd = sums_a[k] - coef_const * q, slope * q
                if bn * yd > yn * bd:
                    yn, yd = bn, bd
                    if yn * ud > un * yd:
                        break
            elif coef_const * q < sums_a[k]:
                break
        else:
            return Fraction(yn, yd)
    return None


def _y_star_pieces(pair: CatalyticPair, x_lo: Real, x_hi: Real) -> list:
    """The linear pieces (x0, x1, alpha, beta) of y*(x) = alpha x + beta on [x_lo, x_hi].

    y*(x) is _min_feasible_y's answer for the loan (x, 1-x): the smallest y
    with every prefix sum of b (x) (y, 1-y) at least that of a (x) (x, 1-x).
    Within one x-segment of the pair's _segments_a (the targets are linear
    in x) and one y-segment of its _segments (the sums are linear in y), the
    constraint on y is either sloped, y >= (T_k(x) - const_k) / slope_k, or
    constant in y, const_k >= T_k(x), which bounds x from above.  So in such
    a cell y* is the upper envelope of at most 2n + 1 lines, the segment's
    lower end included, and it holds while the constant constraints do and
    y* stays below the segment's upper end.  The targets grow with x as the
    sums grow with y, so y* never decreases: the walk visits the y-segments
    in order and never goes back.  Exact mode computes every piece end as a
    Fraction.  In float mode the envelope's active line is the steepest of
    those within tol_eq of the top.
    """
    tol, ratio = pair._sides[2], (Fraction if pair.policy.exact else operator.truediv)
    segs_b, j, pieces = pair._segments, 0, []
    for lo_a, hi_a, sums_a in pair._segments_a:
        if hi_a < x_lo:
            continue
        if lo_a > x_hi:
            break
        x0, x1 = max(lo_a, x_lo), min(hi_a, x_hi)
        while j < len(segs_b):
            x0, leaves = _cell_pieces(pieces, x0, x1, sums_a, segs_b[j], tol, ratio)
            if not leaves:
                break
            j += 1
    return pieces


def _cell_pieces(pieces: list, x0: Real, x1: Real, sums_a: tuple, seg_b: tuple, tol,
                 ratio) -> tuple:
    """Append the pieces of y* in one cell, from x0 toward x1, to pieces.

    Returns (x, leaves): the x where the walk stopped, and whether y* leaves
    the cell's y-segment there (at once if it does not hold at x0) rather
    than reaching x1 inside it.
    """
    lo_b, hi_b, sums_b = seg_b
    lines, x_end = [(0, lo_b)], x1
    for (const_a, slope_a), (const_b, slope_b) in zip(sums_a, sums_b):
        if slope_b > tol:
            lines.append((ratio(slope_a, slope_b), ratio(const_a - const_b, slope_b)))
        elif const_a + slope_a * x0 > const_b + tol:
            return x0, True
        elif slope_a > 0:
            x_end = min(x_end, ratio(const_b + tol - const_a, slope_a))
    while True:
        values = [al * x0 + be for al, be in lines]
        top = max(values)
        if top > hi_b:
            return x0, True
        al, be, y0 = max((al, be, v) for (al, be), v in zip(lines, values) if v >= top - tol)
        x_next, overtaken = max(x_end, x0), False
        if al > 0:
            x_next = min(x_next, x0 + (hi_b - y0) / al)
        for (am, _), vm in zip(lines, values):
            if am > al:
                x = x0 + (y0 - vm) / (am - al)  # where line m overtakes the active one
                if x0 < x < x_next:
                    x_next, overtaken = x, True
        if pieces and pieces[-1][1] == x0 and pieces[-1][2:] == (al, be):
            x0 = pieces.pop()[0]  # the same line across a cell boundary: no kink
        pieces.append((x0, x_next, al, be))
        if x_next == x1:
            return x1, False
        if not overtaken:  # a constant constraint or the segment's upper end stops the cell
            return x_next, True
        x0 = x_next


class CatalystInterval(NamedTuple):
    """The x-range [x_min, x_max] of two-level catalysts (x, 1-x), empty if x_min > x_max."""

    x_min: Real
    x_max: Real

    @property
    def nonempty(self) -> bool:
        return self.x_min <= self.x_max

    @property
    def width(self) -> float:
        return float(self.x_max) - float(self.x_min) if self.nonempty else 0.0

    def to_json_value(self) -> dict:
        return {"x_min": float(self.x_min), "x_max": float(self.x_max),
                "nonempty": self.nonempty}


def is_catalyst(pair: CatalyticPair, c: SchmidtVector) -> bool:
    """Membership of c, in the pair's arithmetic, in the catalyst set of the pair."""
    c = _coerce_vector(c, pair.policy)
    return pair._member(_member_form(c, pair.policy.exact))


def _require_loan(pair: CatalyticPair, c: SchmidtVector) -> tuple:
    """Preconditions of every gain computation for the borrowed state c.

    Returns the loan as every gain path reads it: (c, target, rank_cap, ent_c),
    c in the pair's arithmetic, its joint target, returned_rank_bound and entropy.
    """
    _require_blocked(pair)  # a separable loan catalyzes only a pair that needs none
    c = _coerce_vector(c, pair.policy)
    target, ent_c = _require_member(pair, c)
    _require_entropy_drop(pair)
    return c, target, returned_rank_bound(pair, c), ent_c


def _require_member(pair: CatalyticPair, c: SchmidtVector) -> tuple:
    """(target, ent_c) of a catalyst c in the pair's arithmetic: _require_loan's per-loan part."""
    target = pair.joint_target(c)
    if not pair.joint_feasible(target, c):
        raise NotACatalyst("the borrowed state is not a catalyst for this pair")
    return target, entropy(c)


def _require_entropy_drop(pair: CatalyticPair) -> float:
    """The pair's entropy drop, the denominator of every gain, if it is
    above tol_strict."""
    if pair.entropy_drop <= pair.policy.tol_strict:
        raise ZeroDenominator(f"entropy drop {pair.entropy_drop} too small")
    return pair.entropy_drop


def _require_blocked(pair: CatalyticPair):
    if not pair.nontrivial:
        raise PreconditionViolated("the transformation already succeeds without a catalyst")


def _require_dim4_nontrivial(pair: CatalyticPair):
    _require_blocked(pair)
    if not pair.dim4:
        raise PreconditionViolated("both Schmidt ranks must be at most 4")


def _require_interval(pair: CatalyticPair) -> CatalystInterval:
    """The pair's two-level catalyst interval, which must be nonempty."""
    interval = rank2_catalyst_interval(pair)
    if not interval.nonempty:
        raise EmptyCatalystSet("no two-level catalyst exists for this pair")
    return interval


def necessary_conditions_4d(pair: CatalyticPair) -> bool:
    """Necessary partial-sum conditions for a rank <= 4 pair to admit a catalyst.

    f_1(a) <= f_1(b), f_2(a) > f_2(b) strictly, f_3(a) <= f_3(b).
    """
    _require_dim4_nontrivial(pair)
    fa, fb = prefix_sums(pair.a.padded(4)), prefix_sums(pair.b.padded(4))
    p = pair.policy
    return p.leq(fa[0], fb[0]) and p.strictly_greater(fa[1], fb[1]) and p.leq(fa[2], fb[2])


def rank2_catalyst_interval(pair: CatalyticPair) -> CatalystInterval:
    """Closed-form interval of two-level catalysts for rank <= 4 pairs.

    x_min is the larger of (a1+a2-b1)/(b2+b3) and 1-(a4-b4)/(b3-a3); x_max the
    smallest of b1/(a1+a2), (b1-a1)/(a2-b2) and 1-b4/(a3+a4).  The necessary
    conditions keep b2+b3 and b3-a3 positive, and a term whose denominator
    a2-b2 or a3+a4 is not positive is vacuous, except when float slack admits
    a3+a4 ~ 0 < b4: the set is then empty.  Computed once per pair and cached.
    """
    return pair._interval


def _closed_form_interval(pair: CatalyticPair) -> CatalystInterval:
    _, half, one = _constants(pair.policy.exact)
    if not necessary_conditions_4d(pair):
        return CatalystInterval(one, half)

    a1, a2, a3, a4 = pair.a.padded(4)[:4]
    b1, b2, b3, b4 = pair.b.padded(4)[:4]
    p = pair.policy

    # the necessary conditions give b2 + b3 >= 1 - f2(b) > 1 - f2(a) >= 0 and
    # b3 - a3 = (f2(a) - f2(b)) - (f3(a) - f3(b)) > tol_strict - tol_eq > tol_eq
    lower = [(a1 + a2 - b1) / (b2 + b3), 1 - (a4 - b4) / (b3 - a3)]
    upper = [b1 / (a1 + a2)]
    if p.positive(a2 - b2):  # else vacuous: the necessary conditions give a1 <= b1
        upper.append((b1 - a1) / (a2 - b2))
    if p.positive(a3 + a4):
        upper.append(1 - b4 / (a3 + a4))
    elif p.positive(b4):  # float only: f3(a) <= f3(b) holds by tol_eq slack
        return CatalystInterval(one, half)
    x_min = max(max(lower), half)
    x_max = min(min(upper), one)
    return CatalystInterval(x_min, x_max)


def probe_two_level(x: Real, policy: ComparisonPolicy) -> SchmidtVector:
    """The two-level vector (x, 1-x) in the policy's arithmetic.

    x is read by schmidt._coerce, the rule of make_schmidt: in exact mode a
    float means its shortest decimal, so 0.6 is 3/5.  The vector sums to
    exactly 1 and membership verdicts carry no rounding noise.
    """
    x = _coerce(x, policy)
    return SchmidtVector((x, 1 - x))


def _affine_grid(lo: Real, hi: Real, n: int):
    """n evenly spaced points from lo to hi, both included."""
    span = hi - lo
    return [lo + span * i / (n - 1) for i in range(n)]


def _require_two_level_ends(pair: CatalyticPair) -> tuple:
    """(x_min, x_max) of the blocked pair's two-level catalysts, which must exist."""
    _require_blocked(pair)
    if pair._two_level_ends is None:
        raise EmptyCatalystSet("no two-level catalyst exists for this pair")
    return pair._two_level_ends


def least_entangled_rank2_catalyst(pair: CatalyticPair) -> SchmidtVector:
    """The two-level catalyst with the least entanglement, (x_max, 1-x_max),
    at every main dimension: the high end of the two-level set."""
    return probe_two_level(_require_two_level_ends(pair)[1], pair.policy)


def most_entangled_rank2_catalyst(pair: CatalyticPair) -> SchmidtVector:
    """The two-level catalyst with the most entanglement, (x_min, 1-x_min),
    at every main dimension: the low end of the two-level set, whose binary
    entropy is the exact E_2 (_entropy_ceiling(pair, 2))."""
    return probe_two_level(_require_two_level_ends(pair)[0], pair.policy)


def returned_rank_bound(pair: CatalyticPair, c: SchmidtVector) -> int:
    """Largest Schmidt rank any returned state can have when c is borrowed.

    Schmidt rank is multiplicative under composition and cannot grow under
    LOCC, so floor(SR(a) * SR(c) / SR(b)) bounds the returned state's rank.
    """
    return (pair.rank_a * schmidt_rank(c, pair.policy)) // pair.rank_b


def _ordered_simplex_grid(r: int, steps: int):
    """Integer compositions k1 >= k2 >= ... >= kr >= 0 with sum = steps."""

    def rec(remaining, cap, parts):
        if len(parts) == r - 1:
            if remaining <= cap:
                yield parts + (remaining,)
            return
        lo = -(-remaining // (r - len(parts)))  # ceil: keep room for descending tail
        for k in range(min(cap, remaining), lo - 1, -1):
            yield from rec(remaining - k, k, parts + (k,))

    yield from rec(steps, steps, ())


@lru_cache(maxsize=8)
def _order_ideals(rows: int, r: int) -> tuple:
    """The order ideals of size 2r of the rows x r grid, as their r column
    heights: the partitions of 2r into at most r parts, none above rows,
    zero-padded to r parts.  Built on first use."""
    return tuple(parts for parts in _ordered_simplex_grid(r, 2 * r) if parts[0] <= rows)


def _entropy_ceiling(pair: CatalyticPair, r: int) -> float:
    """A certified upper bound, in bits, on the entropy of every catalyst of
    Schmidt rank <= r of the blocked pair: the entropy every gain bound reads.

    At r = 2 it is E_2 itself, exact, where a two-level catalyst exists:
    the binary entropy of the low end of its set (_two_level_ends).
    Elsewhere it comes from prefix 2r of the joint test.  For a sorted catalyst c of r entries, prefix 2r of a (x) c is at
    least t = a_1 + a_2, the sum of a_1 c_j and a_2 c_j.  Prefix 2r of b (x) c
    is the largest sum of w_j c_j over the order ideals of size 2r of the grid
    of b's non-zero rows and c's r columns, where w_j sums b over column j of
    the ideal.  So some ideal has sum_j w_j c_j >= t, and then by the Gibbs
    inequality H(c) <= log2 sum_j 2^(mu w_j) - mu t for every mu >= 0.  A few
    Newton steps on mu, each clamped at 0, give each ideal's value with no
    root bracket: log2 r where the uniform state reaches t, and -inf for an
    ideal with w_1 < t.  The ceiling is the largest over the ideals, with t
    lowered and the result raised by tol_strict, which covers the tol_eq
    slack of the float tests and the rounding of either arithmetic.

    The bound holds for a feasible returned state d of rank <= r too: d -> c
    makes c's prefix r at least d's, which is 1, so prefix 2r of a (x) c is
    at least t, and b (x) d majorizes a (x) c.
    """
    if r == 2 and pair._two_level_ends:
        return binary_entropy(pair._two_level_ends[0])
    tol = ComparisonPolicy.tol_strict
    t = float(pair.a[0]) + float(pair.a[1]) - tol
    heads = (0.0, *accumulate(x for x in map(float, pair.b) if x > 0))
    ln_r = math.log(r)
    ceiling = -math.inf
    for heights in _order_ideals(len(heads) - 1, r):
        top = heads[heights[0]]
        slack = top - t  # the derivative of the bound in mu, mu -> infinity
        if slack < 0:
            continue
        gaps = [top - heads[h] for h in heights]
        if sum(gaps) <= r * slack:  # the uniform state reaches t
            return math.log2(r) + tol
        # the bound in nats is mu slack + ln sum_j exp(-mu gap_j)
        mu, bound, weights = 0.0, ln_r, [1.0] * r
        for _ in range(3):
            z = sum(weights)
            mean = sum(map(operator.mul, gaps, weights)) / z
            var = sum(g * g * e for g, e in zip(gaps, weights)) / z - mean * mean
            if var <= 0:
                break
            mu = max(mu - (slack - mean) / var, 0.0)
            weights = [math.exp(-mu * g) for g in gaps]
            bound = min(bound, mu * slack + math.log(sum(weights)))
        ceiling = max(ceiling, bound / math.log(2))
    return ceiling + tol


@lru_cache(maxsize=8)
def _candidate_table(r: int, steps: int, exact: bool) -> tuple:
    """The pair-independent candidates of the rank-r returned-state grid,
    the ordered simplex grid of the given steps, by decreasing entropy.

    Returns (entropies, coefficients): the entropies in an array('d'),
    sorted stably so that equal entropies keep the grid's order, and each
    candidate's r coefficients flat in the same order, in an array('d') in
    float mode and a tuple of Fractions in exact mode.  Built on first use
    and shared, so callers only read it; the process keeps the eight tables
    used last, so a large-rank search does not pin its table for the
    process's life.  Packed, the float tables of caps 3 and 4 take about
    0.2 MB; held as SchmidtVectors they would take about 0.9 MB more.
    """
    if exact:
        rows = [tuple(Fraction(k, steps) for k in parts)
                for parts in _ordered_simplex_grid(r, steps)]
    else:
        rows = [tuple(k / steps for k in parts) for parts in _ordered_simplex_grid(r, steps)]
    ents = [entropy(v) for v in rows]
    order = sorted(range(len(rows)), key=ents.__getitem__, reverse=True)
    coefs = (x for i in order for x in rows[i])
    return array("d", [ents[i] for i in order]), (tuple(coefs) if exact else array("d", coefs))


def _best_candidate(r: int, steps: int, policy: ComparisonPolicy, floor: float, ceiling: float,
                    member, lead):
    """(entropy, vector) of the first candidate of _candidate_table(r, steps)
    in (floor, ceiling] that passes member, or None.

    The table is sorted by decreasing entropy, so this is the highest-entropy
    member above floor, ties going to the candidate listed first: exactly
    what a full scan in grid order keeping only strict improvements returns.
    ceiling is _entropy_ceiling(pair, r), above which no candidate passes
    member, so the scan starts at the first entry at or below it, found by
    bisection, and the result is the same.  Each vector is built only when
    it is tested.  lead is a test lead(d1, d2) on a row's two leading
    coefficients that is False only where member is
    (CatalyticPair.joint_lead); a row it fails is skipped before it is
    sliced, so the result is the same.
    """
    ents, coefs = _candidate_table(r, steps, policy.exact)
    for i in range(bisect_left(ents, -ceiling, key=operator.neg), len(ents)):
        ent = ents[i]
        if ent <= floor:
            break
        if not lead(coefs[i * r], coefs[i * r + 1]):
            continue
        v = SchmidtVector(coefs[i * r:i * r + r])
        if member(v):
            return ent, v
    return None
