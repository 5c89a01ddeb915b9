"""Catalyst membership, the two-level catalyst set and the rank-2 interval.

A catalyst for an LOCC-blocked transformation a -> b is an auxiliary vector c
with b (x) c majorizing a (x) c.  The two-level catalysts (x, 1-x) of any
pair are a union of closed pieces in x, solved exactly here; at main
dimension at most 4 they are one interval with the paper's closed form, its
endpoints the least and most entangled two-level catalysts.  For higher
catalyst ranks only search-based lower bounds on the maximal catalyst
entropy are available.  Grid scans of two-level vectors live in oracle.

The candidates of the rank >= 3 searches (E_r here, the returned-state grid
in supercatalysis) do not depend on the pair.  Each search builds its table
once per process per (rank, grid steps, arithmetic), on first use, sorted by
decreasing entropy, and stops at its first member.  The result is that of
the full scan: the highest-entropy member, ties going to the candidate
listed first.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate

from .errors import EmptyCatalystSet, NotACatalyst, PreconditionViolated
from .schmidt import (EXACT_POLICY, FLOAT_POLICY, ComparisonPolicy, Real, SchmidtVector,
                      _coerce, _coerce_vector, _constants, binary_entropy, entropy,
                      nielsen_convertible, prefix_sums, schmidt_rank)

#: Width below which a bisected or refined boundary counts as located.
REFINE_TOL = 1e-9
#: Effort of the rank >= 3 catalyst-entropy search: steps of the ordered
#: simplex grid, then seeded random samples.
SIMPLEX_STEPS = 60
RANDOM_SAMPLES = 2000
SEARCH_SEED = 0


@dataclass(frozen=True)
class CatalyticPair:
    """An ordered pair of main-system vectors, zero-padded to equal dimension.

    Both vectors are converted into the policy's arithmetic by _coerce_vector,
    as is every vector a question about the pair is asked of.  The per-pair
    facts every question about the pair needs are computed once and cached:
    nontrivial records whether the bare transformation a -> b is blocked,
    dim4 whether both Schmidt ranks are at most 4 (the closed form's domain),
    and _two_level the exact set of two-level catalysts at any rank.

    The pair owns the joint-transfer test a (x) c -> b (x) d that every
    catalyst and gain question reduces to (joint_target, joint_feasible).
    Both arithmetics decide it on prefix sums of the sorted products, those
    of a (x) c built once per loan.  Float mode multiplies the coefficients
    themselves, and each verdict equals majorizes(kron(b, d), kron(a, c))
    bit for bit.  Exact mode works on integers: a and b are cached as
    A_i = a_i D and B_i = b_i D over the lcm D of their denominators, and a
    loan or returned state as integers over the lcm of its own denominators.
    """

    a: SchmidtVector
    b: SchmidtVector
    policy: ComparisonPolicy = FLOAT_POLICY

    def __post_init__(self):
        a, b = _coerce_vector(self.a, self.policy), _coerce_vector(self.b, self.policy)
        n = max(len(a), len(b))
        object.__setattr__(self, "a", a.padded(n))
        object.__setattr__(self, "b", b.padded(n))

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
    def _lowest_two_level(self):
        """(entropy, vector) of the lowest two-level catalyst or None; closed form at rank <= 4."""
        if self.dim4:
            x = self._interval.x_min if self._interval.nonempty else None
        else:
            x = self._two_level[0][0] if self._two_level else None
        return None if x is None else (binary_entropy(x), probe_two_level(x, self.policy))

    @cached_property
    def _b_top(self) -> Real:
        return max(self.b)

    @cached_property
    def _scaled(self) -> tuple:
        """Exact mode: (A, B), a and b as integers over their common denominator D."""
        d = math.lcm(*(x.denominator for x in self.a + self.b))
        return (tuple(x.numerator * (d // x.denominator) for x in self.a),
                tuple(x.numerator * (d // x.denominator) for x in self.b))

    @cached_property
    def _segments(self) -> tuple:
        if self.policy.exact:
            return _breakpoint_segments(self._scaled[1], True)
        return _breakpoint_segments(self.b, False)

    def joint_target(self, c: SchmidtVector):
        """The side a (x) c of the joint test for the loan c, built once per loan.

        Float mode: the prefix sums of the sorted products a_i c_j, which are
        prefix_sums(kron(a, c)).  Exact mode: (q, sums, c, C), where q is the
        lcm of c's denominators, C_j = c_j q, and sums are the prefix sums of
        the sorted integer products A_i C_j, all over the denominator D q.
        """
        if not self.policy.exact:
            return _product_prefix_sums(self.a, c)
        q, ints = _scaled_vector(c)
        return q, _product_prefix_sums(self._scaled[0], ints), c, ints

    def joint_feasible(self, target, d: SchmidtVector) -> bool:
        """Does b (x) d majorize a (x) c, for target = joint_target(c)?

        d must be in the pair's arithmetic, in any order, with no negative
        entry.  The target's prefix sums are compared with those of the
        sorted products b_i d_j; past a shorter b (x) d its last prefix sum
        repeats, as zero padding gives inside majorizes, and a shorter target
        needs none, as the sums of b (x) d only grow.  Float mode allows
        tol_eq slack, tests k = 1 on max(b) max(d) before sorting anything,
        then compares each prefix sum as accumulate yields it and stops at the
        first that fails.  Exact mode compares integers B_i D_j, reusing the
        loan's own when d is the loan.  Both sides share the denominator D q
        when d's is q; otherwise each is multiplied by the other's.
        """
        if not self.policy.exact:
            tol = self.policy.tol_eq
            if target[0] > self._b_top * max(d) + tol:
                return False
            products = [x * y for x in self.b for y in d]
            products.sort(reverse=True)
            for t, s in zip(target, accumulate(products)):
                if t > s + tol:
                    return False
            return all(t <= s + tol for t in target[len(products):])
        q, sums_a, c, ints = target
        qd, ints = (q, ints) if d is c else _scaled_vector(d)
        sums_b = _product_prefix_sums(self._scaled[1], ints)
        if qd != q:
            sums_a = [s * qd for s in sums_a]
            sums_b = [s * q for s in sums_b]
        sums_b += sums_b[-1:] * (len(sums_a) - len(sums_b))  # no-op when not shorter
        return all(map(operator.le, sums_a, sums_b))


def _product_prefix_sums(u, v) -> tuple:
    """Prefix sums of all products u_i v_j, sorted in decreasing order."""
    products = [x * y for x in u for y in v]
    products.sort(reverse=True)
    return tuple(accumulate(products))


def _scaled_vector(v: SchmidtVector) -> tuple:
    """(q, integers): an exact vector as integers over the lcm q of its denominators."""
    q = math.lcm(*(x.denominator for x in v))
    return q, [x.numerator * (q // x.denominator) for x in v]


def _breakpoint_segments(b_coeffs, exact: bool) -> tuple:
    """The 2n products of b (x) (y, 1-y) as piecewise-linear functions of y.

    The cuts are 1/2, the sorted distinct breakpoints b_j / (b_i + b_j) in
    (1/2, 1) where two products can tie, and 1.  Between consecutive cuts the
    sorted order of the products is fixed, so every prefix sum is linear in
    y there.  Returns one (lo, hi, sums) per segment, where sums lists the
    cumulative (y-coefficient, constant, slope) of the k largest products,
    k = 1..2n.  The order is taken at the segment's midpoint, strictly
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
        terms = [(bi * mid, bi, zero) for bi in b_coeffs]
        terms += [(bi * (one - mid), zero, bi) for bi in b_coeffs]
        terms.sort(key=lambda t: t[0], reverse=True)
        coef_y = coef_const = zero
        sums = []
        for _, dy, dc in terms:
            coef_y += dy
            coef_const += dc
            sums.append((coef_y, coef_const, coef_y - coef_const))
        segments.append((lo, hi, tuple(sums)))
    return tuple(segments)


def _two_level_pieces(pair: CatalyticPair) -> tuple:
    """The closed pieces (lo, hi) of the x where (x, 1-x) is a catalyst, lowest first.

    Between the merged cuts of a and b (_breakpoint_segments), prefix k of
    b (x) c minus that of a (x) c is const + slope x: each piece solves these
    constraints, exactly on the pair's integers in exact mode, and in float
    mode as _min_feasible_y does; pieces at most tol_eq apart are merged.
    """
    exact = pair.policy.exact
    tol, ratio = (0, Fraction) if exact else (pair.policy.tol_eq, operator.truediv)
    segs_a = _breakpoint_segments(pair._scaled[0] if exact else pair.a, exact)
    segs_b, pieces, i, j = pair._segments, [], 0, 0
    while i < len(segs_a) and j < len(segs_b):
        (lo_a, hi_a, sums_a), (lo_b, hi_b, sums_b) = segs_a[i], segs_b[j]
        lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
        i, j = i + (hi_a == hi), j + (hi_b == hi)
        for (_, const_a, slope_a), (_, const_b, slope_b) in zip(sums_a, sums_b):
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


@dataclass(frozen=True)
class CatalystInterval:
    """The x-range [x_min, x_max] of two-level catalysts (x, 1-x)."""

    x_min: Real
    x_max: Real
    nonempty: bool

    @property
    def width(self) -> float:
        return float(self.x_max) - float(self.x_min) if self.nonempty else 0.0

    def to_json_value(self) -> dict:
        return {"x_min": float(self.x_min), "x_max": float(self.x_max),
                "nonempty": self.nonempty}


def is_catalyst(pair: CatalyticPair, c: SchmidtVector) -> bool:
    """Membership of c, in the pair's arithmetic, in the catalyst set of the pair."""
    c = _coerce_vector(c, pair.policy)
    return pair.joint_feasible(pair.joint_target(c), c)


def _require_loan(pair: CatalyticPair, c: SchmidtVector) -> tuple:
    """Preconditions of every gain computation for the borrowed state c.

    Returns c in the pair's arithmetic and its joint target
    (CatalyticPair.joint_target), which every gain computation needs again.
    """
    _require_blocked(pair)  # a separable loan catalyzes only a pair that needs none
    c = _coerce_vector(c, pair.policy)
    target = pair.joint_target(c)
    if not pair.joint_feasible(target, c):
        raise NotACatalyst("the borrowed state is not a catalyst for this pair")
    if pair.entropy_drop <= pair.policy.tol_strict:
        raise PreconditionViolated("main transformation has no entropy drop")
    return c, target


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
    a, b = pair.a.padded(4), pair.b.padded(4)
    fa, fb = prefix_sums(a), prefix_sums(b)
    p = pair.policy
    return p.leq(fa[0], fb[0]) and p.strictly_greater(fa[1], fb[1]) and p.leq(fa[2], fb[2])


def rank2_catalyst_interval(pair: CatalyticPair) -> CatalystInterval:
    """Closed-form interval of two-level catalysts for rank <= 4 pairs.

    x_min is the larger of (a1+a2-b1)/(b2+b3) and 1-(a4-b4)/(b3-a3); x_max the
    smallest of b1/(a1+a2), (b1-a1)/(a2-b2) and 1-b4/(a3+a4).  A denominator
    can only vanish at the tolerance boundary of the necessary conditions; the
    corresponding constraint then degenerates to a sign condition (skip the
    term, or declare the set empty), which the grid oracle cross-validates.
    The interval is computed once per pair and cached on it.
    """
    return pair._interval


def _closed_form_interval(pair: CatalyticPair) -> CatalystInterval:
    _, half, one = _constants(pair.policy.exact)
    if not necessary_conditions_4d(pair):
        return CatalystInterval(one, half, False)

    a, b = pair.a.padded(4), pair.b.padded(4)
    a1, a2, a3, a4 = a[:4]
    b1, b2, b3, b4 = b[:4]
    p = pair.policy
    empty = False

    # b2 + b3 >= b3 + b4 = 1 - f2(b) > 0, since the necessary conditions give f2(a) > f2(b)
    lower = [(a1 + a2 - b1) / (b2 + b3)]
    den = b3 - a3
    if p.positive(den):
        lower.append(1 - (a4 - b4) / den)
    elif p.leq(b4, a4):
        pass  # constraint vacuous
    else:
        empty = True

    upper = [b1 / (a1 + a2)]
    den = a2 - b2
    if p.positive(den):  # else vacuous: the necessary conditions give a1 <= b1
        upper.append((b1 - a1) / den)
    den = a3 + a4
    if p.positive(den):
        upper.append(1 - b4 / den)
    elif not p.positive(b4):
        pass  # both states have rank <= 2 in the tail: no constraint
    else:
        empty = True

    x_min = max(max(lower), half)
    x_max = min(min(upper), one)
    if empty:
        return CatalystInterval(one, half, False)
    return CatalystInterval(x_min, x_max, x_min <= x_max)


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


def least_entangled_rank2_catalyst(pair: CatalyticPair) -> SchmidtVector:
    """The two-level catalyst with the least entanglement: (x_max, 1-x_max)."""
    return probe_two_level(_require_interval(pair).x_max, pair.policy)


def most_entangled_rank2_catalyst(pair: CatalyticPair) -> SchmidtVector:
    """The two-level catalyst with the most entanglement: (x_min, 1-x_min)."""
    return probe_two_level(_require_interval(pair).x_min, pair.policy)


def returned_rank_bound(pair: CatalyticPair, c: SchmidtVector) -> int:
    """Largest Schmidt rank any returned state can have when c is borrowed.

    Schmidt rank is multiplicative under composition and cannot grow under
    LOCC, so floor(SR(a) * SR(c) / SR(b)) bounds the returned state's rank.
    """
    return (pair.rank_a * schmidt_rank(c, pair.policy)) // pair.rank_b


@dataclass(frozen=True)
class CatalystEntropySearch:
    """Maximal catalyst entropy of bounded rank, with its certificate.

    exact is True for rank 2, where the value is the binary entropy of the
    lowest two-level catalyst at every main dimension; for rank >= 3 the
    value is a search-based lower bound on the true maximum.
    """

    value: float
    certificate: SchmidtVector
    exact: bool


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


def max_catalyst_entropy(pair: CatalyticPair, r: int) -> CatalystEntropySearch:
    """Largest entanglement entropy over catalysts of Schmidt rank <= r.

    For r = 2 the answer is exact for pairs of every rank: the binary entropy
    of the lowest two-level catalyst x_min, cached on the pair
    (_lowest_two_level).  For larger
    ranks the catalyst set has no known characterization, so the value is a
    deterministic grid-plus-random lower bound, flagged approximate: the most
    entropic catalyst among the two-level one at x_min, the ordered simplex
    grid and RANDOM_SAMPLES seeded points, found by _best_candidate.
    """
    if r < 1:
        raise PreconditionViolated("catalyst rank bound must be at least 1")
    _require_blocked(pair)
    if r == 1:
        # a separable catalyst changes nothing, so none exists for a
        # nontrivial pair
        raise EmptyCatalystSet("separable states never catalyze a blocked transformation")

    best_val, best_cert = pair._lowest_two_level or (-1.0, None)  # a member at every r >= 2
    if r == 2:
        if best_cert is None:
            raise EmptyCatalystSet("no two-level catalyst exists for this pair")
        return CatalystEntropySearch(best_val, best_cert, True)

    found = _best_candidate(r, SIMPLEX_STEPS, RANDOM_SAMPLES, pair.policy, best_val,
                            lambda v: is_catalyst(pair, v))
    if found is not None:
        best_val, best_cert = found
    if best_cert is None:
        raise EmptyCatalystSet(f"no catalyst of rank <= {r} found within the search budget")
    return CatalystEntropySearch(best_val, best_cert, False)


@lru_cache(maxsize=8)
def _candidate_table(r: int, steps: int, samples: int, exact: bool) -> tuple:
    """The pair-independent candidates of a rank-r search, by decreasing entropy.

    The candidates are the ordered simplex grid of the given steps, then
    samples seeded random points (RANDOM_SAMPLES for E_r, none for the
    returned-state grid).  Returns (entropies, coefficients): the entropies
    in an array('d'), sorted stably so that equal entropies keep the list
    order, and each candidate's r coefficients flat in the same order, in an
    array('d') in float mode and a tuple of Fractions in exact mode.  Built
    on first use and shared, so callers only read it; the process keeps the
    eight tables used last (the four of caps 3 and 4 in each arithmetic),
    so a large-rank search does not pin its table for the process's life.
    Packed, the four float tables of ranks 3 and 4 take about 0.4 MB; held
    as SchmidtVectors they would take about 2.2 MB more.
    """
    if exact:
        rows = [tuple(Fraction(k, steps) for k in parts)
                for parts in _ordered_simplex_grid(r, steps)]
    else:
        rows = [tuple(k / steps for k in parts) for parts in _ordered_simplex_grid(r, steps)]
    rng = random.Random(SEARCH_SEED)
    for _ in range(samples):
        raw = sorted((rng.random() for _ in range(r)), reverse=True)
        if exact:
            raw = [_coerce(x, EXACT_POLICY) for x in raw]
        total = sum(raw)
        rows.append(tuple(x / total for x in raw))
    ents = [entropy(v) for v in rows]
    order = sorted(range(len(rows)), key=ents.__getitem__, reverse=True)
    coefs = (x for i in order for x in rows[i])
    return array("d", [ents[i] for i in order]), (tuple(coefs) if exact else array("d", coefs))


def _best_candidate(r: int, steps: int, samples: int, policy: ComparisonPolicy, floor: float,
                    member):
    """(entropy, vector) of the first candidate of _candidate_table(r, steps,
    samples) above floor that passes member, or None.

    The table is sorted by decreasing entropy, so this is the highest-entropy
    member above floor, ties going to the candidate listed first: exactly
    what a full scan in list order keeping only strict improvements returns.
    Each vector is built only when it is tested.
    """
    ents, coefs = _candidate_table(r, steps, samples, policy.exact)
    for i, ent in enumerate(ents):
        if ent <= floor:
            break
        v = SchmidtVector(coefs[i * r:i * r + r])
        if member(v):
            return ent, v
    return None
