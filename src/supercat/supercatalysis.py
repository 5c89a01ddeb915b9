"""Supercatalytic gain: computation, optimization, bounds and constructions.

A supercatalytic transformation borrows an auxiliary state c, performs the
otherwise impossible main-system transformation a -> b, and returns a state d
that is strictly better than c under every entanglement measure (d -> c by
LOCC, d != c).  The gain measures which fraction of the main system's entropy
drop is recovered in the auxiliary system:

    gain = (E(d) - E(c)) / (E(a) - E(b)),   always in [0, 1].

For a fixed borrowed two-level state the best returned two-level state is
found exactly: the prefix sums of b (x) (y, 1-y) are piecewise linear and
nondecreasing in y with breakpoints where two product coefficients tie, so
the feasible y form a single interval [y*, c1] and the optimum is its left
end y*, the feasible point closest to 1/2 (catalysis._min_feasible_y solves
it on the pair's breakpoint tables).  Higher returned ranks fall back to a
simplex grid search and are flagged approximate.  The grid does not depend
on the pair: it is built once per process per (rank, steps, arithmetic) and
scanned in decreasing entropy, stopping at the first feasible state, which
is the state the full scan picks.  The scan starts below
catalysis._entropy_ceiling at the cap: a feasible returned state is itself a
catalyst of rank <= cap (a (x) d -> a (x) c -> b (x) d), so prefix 2r of the
joint test caps its entropy and no row above the ceiling is feasible.  A row
whose two leading coefficients already fail the joint test or d -> c is
skipped before its vector is built (CatalyticPair.joint_lead).  A hill-climb
then starts from the state found.

Over the loans (x, 1-x) of a sweep, that optimum y*(x) is itself piecewise
linear and nondecreasing in x, on the cells of a's breakpoint segments in x
and b's in y (catalysis._y_star_pieces).  The sweep maximum is found exactly
from those pieces: on each, the gain peaks at a piece end or at a stationary
point, and each candidate that could beat the sampled maximum is certified
by the solve (about one per sweep).  A sweep walks the pieces, checks the
pair and fetches the returned-rank cap (2) and its catalysis._entropy_ceiling
once; each sample pays only for its membership test
(catalysis._require_member), y* and bound.  An exact sample reads y* off the
pieces; a float one solves it, as the walk's float y* can differ by 4e-15.
That ceiling, the exact E_2 at cap 2 and certified above it, caps every gain
bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .catalysis import (CatalyticPair, CatalystInterval, _affine_grid, _best_candidate,
                        _entropy_ceiling, _min_feasible_y, _require_dim4_nontrivial,
                        _require_entropy_drop, _require_loan, _require_member,
                        _require_two_level, _y_star_at, _y_star_pieces, is_catalyst,
                        probe_two_level, rank2_catalyst_interval, returned_rank_bound)
from .errors import InvalidConfiguration, InvalidEpsilon, NotACatalyst, PreconditionViolated
from .schmidt import (FLOAT_POLICY, ComparisonPolicy, Real, SchmidtVector, _coerce,
                      _coerce_vector, _constants, _pad_to_match, binary_entropy, entropy, kron,
                      majorizes, make_schmidt, nielsen_convertible, prefix_sums, schmidt_rank)

EXACT_METHOD = "exact-piecewise-linear"
GRID_METHOD = "grid-approximate"


class GainResult(NamedTuple):
    """A gain value together with the returned state that certifies it."""

    gain: float
    returned_state: SchmidtVector
    method: str


class SweepPoint(NamedTuple):
    """One borrowed state of a sweep: parameter, the loan (x, 1-x) in the
    pair's arithmetic, its entropy, the gain and its bound."""

    x: float
    c: SchmidtVector
    entropy_c: float
    gmax: float
    bound: float


class SweepResult(NamedTuple):
    """A full sweep over the two-level catalyst range.

    argmax_c is the loan (argmax_x, 1 - argmax_x) in the pair's arithmetic,
    and argmax_kind says why the maximum is there: "endpoint", "kink" (a
    piece end of y*(x) inside the range) or "stationary".
    """

    points: tuple
    tilde_gmax: float
    argmax_x: float
    argmax_c: SchmidtVector
    argmax_kind: str
    interval: CatalystInterval
    envelope_bound: float

    @property
    def gmax_at_x_min(self) -> float:
        return self.points[0].gmax

    @property
    def gmax_at_x_max(self) -> float:
        return self.points[-1].gmax

    def interior_optimum(self) -> bool:
        """Does some interior borrowed state beat both interval endpoints by tol_strict?"""
        return all(self.tilde_gmax > g + ComparisonPolicy.tol_strict
                   for g in (self.gmax_at_x_min, self.gmax_at_x_max))


class SupercatalysisVerdict(NamedTuple):
    """Per-condition report for a candidate supercatalytic quadruple."""

    base_blocked: bool
    states_differ: bool
    joint_feasible: bool
    returned_reaches_borrowed: bool
    borrowed_is_catalyst: bool
    returned_is_catalyst: bool

    @property
    def ok(self) -> bool:
        return (self.base_blocked and self.states_differ and self.joint_feasible
                and self.returned_reaches_borrowed)

    @property
    def consistency_error(self) -> bool:
        # both states must be catalysts whenever the four defining conditions
        # hold; anything else signals an internal problem
        return self.ok and not (self.borrowed_is_catalyst and self.returned_is_catalyst)


def _sorted_equal(u: SchmidtVector, v: SchmidtVector, policy: ComparisonPolicy) -> bool:
    return all(policy.eq(x, y) for x, y in zip(*_pad_to_match(u, v)))


def gain(a: SchmidtVector, b: SchmidtVector, c: SchmidtVector, d: SchmidtVector,
         policy: ComparisonPolicy = FLOAT_POLICY) -> float:
    """Entanglement gain of the configuration (a, b, borrowed c, returned d).

    The quadruple must be a valid configuration: a cannot reach b unaided,
    a (x) c reaches b (x) d, and d reaches c.  Returning d = c is allowed and
    yields 0 (plain catalysis).  When the joint vectors coincide up to
    reordering the transformation is a local unitary and the gain is exactly
    1; this shortcut keeps the trivial-swap construction exact in float mode.
    All four vectors are taken in the policy's arithmetic.
    """
    return _verdict_gain(*_assess(a, b, c, d, policy))


def check_supercatalytic(a: SchmidtVector, b: SchmidtVector, c: SchmidtVector,
                         d: SchmidtVector,
                         policy: ComparisonPolicy = FLOAT_POLICY) -> SupercatalysisVerdict:
    """Evaluate each defining condition of supercatalysis separately, with
    all four vectors in the policy's arithmetic."""
    return _assess(a, b, c, d, policy)[3]


def _assess(a: SchmidtVector, b: SchmidtVector, c: SchmidtVector, d: SchmidtVector,
            policy: ComparisonPolicy) -> tuple:
    """(pair, c, d, verdict) for the quadruple, c and d in the policy's
    arithmetic: one pair, one joint target for c and one of each test, which
    gain, check_supercatalytic and verify_epsilon_family share."""
    pair = CatalyticPair(a, b, policy)
    c, d = _coerce_vector(c, policy), _coerce_vector(d, policy)
    target = pair.joint_target(c)
    return pair, c, d, SupercatalysisVerdict(
        base_blocked=pair.nontrivial,
        states_differ=not _sorted_equal(c, d, policy),
        joint_feasible=pair.joint_feasible(target, d),
        returned_reaches_borrowed=nielsen_convertible(d, c, policy),
        borrowed_is_catalyst=pair.joint_feasible(target, c),
        returned_is_catalyst=is_catalyst(pair, d),
    )


def _verdict_gain(pair: CatalyticPair, c: SchmidtVector, d: SchmidtVector,
                  verdict: SupercatalysisVerdict) -> float:
    """gain of the quadruple _assess returned (pair, c, d, verdict) for."""
    failures = [message for holds, message in (
        (verdict.base_blocked, "main transformation needs no catalyst"),
        (verdict.joint_feasible, "joint transformation a(x)c -> b(x)d is infeasible"),
        (verdict.returned_reaches_borrowed, "returned state cannot reach borrowed state"),
    ) if not holds]
    if failures:
        raise InvalidConfiguration(failures)
    _require_entropy_drop(pair)
    if not verdict.states_differ:
        return 0.0
    if _sorted_equal(kron(pair.a, c), kron(pair.b, d), pair.policy):
        return 1.0
    return _gain_value(pair, entropy(d), entropy(c))


def _gain_value(pair: CatalyticPair, ent_d: float, ent_c: float) -> float:
    """Every reported gain: (ent_d - ent_c) / (E(a) - E(b)), clamped to [0, 1]."""
    return min(max((ent_d - ent_c) / pair.entropy_drop, 0.0), 1.0)


def _two_level_gain(pair: CatalyticPair, c1: Real, y, ent_c: float) -> Optional[float]:
    """The gain of returning (y, 1-y) on a two-level loan of largest coefficient
    c1 and entropy ent_c, y being its y* or None; None, gain 0 with d = c,
    unless y lies strictly below c1.  Every two-level gain takes this rule."""
    if y is None or not pair.policy.strictly_greater(c1, y):
        return None
    return _gain_value(pair, binary_entropy(y), ent_c)


def _exact_rank2_gain(pair: CatalyticPair, c: SchmidtVector, target, ent_c: float) -> GainResult:
    """Exact best gain when the returned state is forced to two levels;
    target is pair.joint_target(c) and ent_c is entropy(c)."""
    y = _min_feasible_y(pair, target)
    g = _two_level_gain(pair, c[0], y, ent_c)
    if g is None:
        return GainResult(0.0, c, EXACT_METHOD)
    return GainResult(g, probe_two_level(y, pair.policy), EXACT_METHOD)


def _ordered_descending(t) -> bool:
    return all(t[i] >= t[i + 1] for i in range(len(t) - 1)) and t[-1] >= 0


def _grid_rank_gain(pair: CatalyticPair, c: SchmidtVector, target, rank_cap: int,
                    ent_c: float, ceiling: float) -> GainResult:
    """Approximate best gain over returned states of rank <= rank_cap;
    target is pair.joint_target(c), ent_c is entropy(c) and ceiling is
    catalysis._entropy_ceiling(pair, rank_cap).

    The most entropic of c, the exact rank-2 optimum for a two-level c, and
    the feasible states of the simplex grid (catalysis._best_candidate)
    seeds a hill-climb.  A grid row d is feasible when b (x) d majorizes
    a (x) c and c majorizes d.  Such a d is a catalyst of rank <= rank_cap,
    so the scan starts at the first row at or below the ceiling, and skips,
    unbuilt, each row that fails the joint test's first two prefix sums or
    d1 <= c1, as the full test makes them (CatalyticPair.joint_lead); the rows
    passed over fail their full test too, so the result is the full scan's.
    """
    policy = pair.policy

    def feasible(v: SchmidtVector) -> bool:
        return pair.joint_feasible(target, v) and majorizes(c, v, policy)

    best_ent, best_d = ent_c, c
    if schmidt_rank(c, policy) <= 2:
        seed = _exact_rank2_gain(pair, c, target, ent_c)
        ent = entropy(seed.returned_state)
        if ent > best_ent:
            best_ent, best_d = ent, seed.returned_state

    grid_steps = {3: 200, 4: 60, 5: 24}.get(rank_cap, 12)
    found = _best_candidate(rank_cap, grid_steps, policy, best_ent, ceiling, feasible,
                            pair.joint_lead(target))
    if found is not None:
        best_ent, best_d = found

    # local hill-climb around the best candidate with shrinking moves
    zero, _, one = _constants(policy.exact)
    cur = best_d.padded(rank_cap)[:rank_cap]
    step = one / grid_steps
    while step > 1e-7:
        improved = False
        for i in range(rank_cap):
            for j in range(rank_cap):
                if i == j:
                    continue
                cand = list(cur)
                cand[i] += step
                cand[j] -= step
                cand.sort(reverse=True)
                if cand[-1] < zero:
                    continue
                v = SchmidtVector(cand)
                ent = entropy(v)
                if ent > best_ent and feasible(v):
                    best_ent, best_d, cur = ent, v, tuple(cand)
                    improved = True
        if not improved:
            step /= 2
    if best_ent <= ent_c + policy.tol_eq:
        return GainResult(0.0, c, GRID_METHOD)
    return GainResult(_gain_value(pair, best_ent, ent_c), best_d, GRID_METHOD)


def gmax_given_c(pair: CatalyticPair, c: SchmidtVector) -> GainResult:
    """Best achievable gain for the pair when c is the borrowed state.

    Maximizes the entropy of the returned state d subject to the joint
    transformation being feasible, d reaching c by LOCC, and the returned
    Schmidt rank staying within its multiplicativity bound.  Two-level
    returned states are optimized exactly; higher rank caps use a grid
    search.  When no returned state beats c the result is plain catalysis:
    gain 0 with d = c.
    """
    c, target, rank_cap, ent_c = _require_loan(pair, c)
    if rank_cap <= 2:
        return _exact_rank2_gain(pair, c, target, ent_c)
    return _grid_rank_gain(pair, c, target, rank_cap, ent_c, _entropy_ceiling(pair, rank_cap))


def bound_gmax(pair: CatalyticPair, c: SchmidtVector) -> float:
    """Certified upper bound on the gain for borrowed state c, in [gain, 1].

    A returned state d is a catalyst (a (x) d -> a (x) c -> b (x) d) of rank
    at most the multiplicativity bound, so its entropy cannot exceed
    catalysis._entropy_ceiling at that rank: the exact E_2 at rank cap 2, a
    certified bound on E_r above it.  The value is _solve_loan's.
    """
    return _solve_loan(pair, c)[1]


def _solve_loan(pair: CatalyticPair, c: SchmidtVector) -> tuple:
    """(gmax_given_c result, bound) for the loan c, checked once, with one
    entropy ceiling of the loan's cap for the grid search and the bound.  The
    bound, which bound_gmax and gain-sweep --c report, is the gain of a
    returned state at that ceiling, clamped as every gain is, and floored at
    the gain."""
    c, target, rank_cap, ent_c = _require_loan(pair, c)
    ceiling = _entropy_ceiling(pair, rank_cap)
    result = (_exact_rank2_gain(pair, c, target, ent_c) if rank_cap <= 2
              else _grid_rank_gain(pair, c, target, rank_cap, ent_c, ceiling))
    return result, max(_gain_value(pair, ceiling, ent_c), result.gain)


def _gain_bound(pair: CatalyticPair, ceiling: float, ent_c: float) -> float:
    """A sweep point's raw bound: the gain of a returned state at the entropy
    ceiling of the cap, at least the loan's own entropy, neither clamped to 1
    nor floored at the gain."""
    return (max(ceiling, ent_c) - ent_c) / pair.entropy_drop


def _stationary_points(x0: float, x1: float, al: float, be: float):
    """The local maxima strictly inside (x0, x1) of h(al x + be) - h(x), h the
    binary entropy, each located by float bisection on the derivative
    al h'(y) - h'(x), with h'(t) = log2((1 - t) / t).

    The second derivative has the sign of y (1 - y) - al^2 x (1 - x), which is
    linear in x, so the derivative is monotone on each side of that zero and
    changes sign from + to - at most once there.
    """
    def slope(x):
        y = min(al * x + be, x)  # y* <= x on catalysts; the min keeps rounding off y = 1
        return al * math.log2((1 - y) / y) - math.log2((1 - x) / x)

    cuts = [x0, x1]
    k = al * (1 - 2 * be - al)
    if k and x0 < -be * (1 - be) / k < x1:
        cuts.insert(1, -be * (1 - be) / k)
    for lo, hi in zip(cuts, cuts[1:]):
        if slope(lo) > 0 > slope(hi):
            mid = (lo + hi) / 2
            while lo < mid < hi:
                lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
                mid = (lo + hi) / 2
            yield lo


def _sweep_candidates(pair: CatalyticPair, pieces: list, x_lo: Real, x_hi: Real) -> dict:
    """x -> (closed-form gain, kind) of the loans where the gain can peak on [x_lo, x_hi].

    On each piece y* = alpha x + beta of pieces, _y_star_pieces(pair, x_lo,
    x_hi), the gain is (h(y*) - h(x)) / drop, smooth in x, so its maximum
    over the piece is at a piece end ("endpoint" at x_lo or x_hi, "kink"
    elsewhere) or at a stationary point inside ("stationary", a float).  The
    gain is _two_level_gain's: 0 where y* does not lie strictly below x.
    """
    cands = {}
    for x0, x1, al, be in pieces:
        found = [(x, al * x + be, "endpoint" if x in (x_lo, x_hi) else "kink") for x in (x0, x1)]
        fal, fbe = float(al), float(be)
        found += [(x, fal * x + fbe, "stationary")
                  for x in _stationary_points(float(x0), float(x1), fal, fbe)]
        for x, y, kind in found:
            g = _two_level_gain(pair, x, y, binary_entropy(x)) or 0.0
            if x not in cands or g > cands[x][0]:
                cands[x] = g, kind
    return cands


def tilde_gmax_sweep(pair: CatalyticPair, n_points: int = 200) -> SweepResult:
    """Sweep the whole two-level catalyst range and maximize the gain.

    Samples n_points values of x uniformly over [x_min, x_max] (endpoints
    included) and computes the exact best gain and its raw upper bound
    (_gain_bound) at each, with the pair's checks, returned-rank cap and
    entropy ceiling made once.  An exact sample reads its y* from the pieces
    of y*(x) (_y_star_pieces), a float one solves it (_min_feasible_y).  The
    maximum over the whole range comes from the same pieces
    (_sweep_candidates): the candidates are ranked by their closed-form gain
    and each one that could beat the best value so far is certified by the
    samples' membership test and the solve, again where it is also a sample
    (rarely: no memo is kept).  So tilde_gmax is the best certified or
    sampled gain; in exact mode its argmax is a rational kink or endpoint, or
    a float stationary point that one exact solve re-checks.  argmax_kind
    says which; "sample" would mean a sampled point beat every candidate,
    which only rounding can cause.  The envelope value (bound at the least
    entangled catalyst) is the matching upper bound when it is attained.
    """
    if n_points < 2:
        raise PreconditionViolated("a sweep needs at least two points")
    _require_dim4_nontrivial(pair)
    interval, policy, drop = _require_two_level(pair), pair.policy, _require_entropy_drop(pair)
    xs = _affine_grid(interval.x_min, interval.x_max, n_points)
    loans = [probe_two_level(x, policy) for x in xs]
    # each loan has rank 2 (x_max < 1 - b2) and cap 2, so y* gives its gain:
    # f2(a) > f2(b) + tol_strict leaves b 1e-9 past its top two levels, so
    # rank_b >= 3, and rank_a <= 4 gives floor(2 rank_a / rank_b) <= 2
    ceiling = _entropy_ceiling(pair, returned_rank_bound(pair, loans[-1]))
    pieces = _y_star_pieces(pair, xs[0], xs[-1])
    points = []
    for x, c in zip(xs, loans):
        target, ent_c = _require_member(pair, c)
        if policy.exact:
            y = _y_star_at(pieces, x)
        else:  # the walk's float y* can differ from the solve's; the CSVs pin the solve's
            y = _min_feasible_y(pair, target)
        gmax = _two_level_gain(pair, c[0], y, ent_c)
        points.append(SweepPoint(float(x), c, binary_entropy(x), 0.0 if gmax is None else gmax,
                                 _gain_bound(pair, ceiling, ent_c)))

    i_best = max(range(n_points), key=lambda i: points[i].gmax)
    best_x, best_v = xs[i_best], points[i_best].gmax

    cands = _sweep_candidates(pair, pieces, xs[0], xs[-1])
    for x, (predicted, _) in sorted(cands.items(), key=lambda kv: kv[1][0], reverse=True):
        if predicted <= best_v:
            break
        c = probe_two_level(x, policy)
        target, ent_c = _require_member(pair, c)
        g = _exact_rank2_gain(pair, c, target, ent_c).gain
        if g > best_v:
            best_v, best_x = g, x

    envelope = (binary_entropy(interval.x_min) - binary_entropy(interval.x_max)) / drop
    return SweepResult(points=tuple(points), tilde_gmax=best_v, argmax_x=float(best_x),
                       argmax_c=probe_two_level(best_x, policy),
                       argmax_kind=cands[best_x][1] if best_x in cands else "sample",
                       interval=interval, envelope_bound=envelope)


def rank_reduce_returned(d: SchmidtVector, c: SchmidtVector,
                         policy: ComparisonPolicy = FLOAT_POLICY) -> SchmidtVector:
    """Collapse a returned state of rank >= 3 to rank 3, preserving the chain.

    For a two-level target c the replacement (c1, (1-c1)/2 + alpha,
    (1-c1)/2 - alpha) with alpha = max(0, d1 + d2 - c1/2 - 1/2) satisfies
    both d -> d' and d' -> c.  d and c are taken in the policy's arithmetic.
    """
    d, c = _coerce_vector(d, policy), _coerce_vector(c, policy)
    if schmidt_rank(d, policy) < 3:
        raise PreconditionViolated("returned state must have rank at least 3")
    if schmidt_rank(c, policy) != 2:
        raise PreconditionViolated("target state must have rank exactly 2")
    if not nielsen_convertible(d, c, policy):
        raise PreconditionViolated("returned state does not reach the target")
    zero, half, one = _constants(policy.exact)
    c1 = c[0]
    alpha = d[0] + d[1] - c1 / 2 - half
    if alpha < zero:
        alpha = zero
    tail = (one - c1) / 2
    return SchmidtVector((c1, tail + alpha, tail - alpha))


def trivial_swap_construction(pair: CatalyticPair, c: SchmidtVector):
    """Borrow c composed with b, return c composed with a: gain exactly 1.

    The joint input a (x) (c (x) b) and joint output b (x) (c (x) a) carry the
    same coefficient multiset, so the protocol is a local register swap; the
    returned state reaches the borrowed one precisely because c is a
    catalyst.  c is taken in the pair's arithmetic.
    """
    c = _coerce_vector(c, pair.policy)
    if not is_catalyst(pair, c):
        raise NotACatalyst("the auxiliary state is not a catalyst for this pair")
    borrowed = kron(c, pair.b)
    returned = kron(c, pair.a)
    return borrowed, returned


class EpsilonFamily(NamedTuple):
    """Four-vector family tracing supercatalytic gain arbitrarily close to 1."""

    eps: Real
    a: SchmidtVector
    b: SchmidtVector
    c: SchmidtVector
    d: SchmidtVector


class EpsilonFamilyReport(NamedTuple):
    """Verifier output for one family member."""

    eps: float
    base_blocked: bool
    f2_strictly_greater: bool
    joint_feasible: bool
    returned_reaches_borrowed: bool
    states_differ: bool
    gain: float
    x_min: float
    x_max: float
    predicted_x_min: float
    predicted_x_max: float

    @property
    def ok(self) -> bool:
        return (self.base_blocked and self.f2_strictly_greater and self.joint_feasible
                and self.returned_reaches_borrowed and self.states_differ)

    def to_json_value(self) -> dict:
        return {**self._asdict(), "ok": self.ok}


def _exact_sqrt(x: Fraction) -> Fraction:
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise InvalidEpsilon(f"sqrt({x}) is irrational; use float mode for this epsilon")
    return Fraction(rn, rd)


def epsilon_family(eps: Real, policy: ComparisonPolicy = FLOAT_POLICY) -> EpsilonFamily:
    """Construct the near-maximal-gain family at parameter eps > 0.

    The main pair keeps one half-weight level while eps controls how close
    the output state is to separable; the borrowed state is the least
    entangled two-level catalyst and the returned state approaches maximal
    entanglement at rate sqrt(eps).  Validity of all four vectors is checked,
    not assumed: for eps too large some vector leaves the ordered simplex.
    eps is read by schmidt._coerce, so a non-finite eps raises NotNormalized.
    """
    e = _coerce(eps, policy, "epsilon")
    _, half, one = _constants(policy.exact)
    if e <= 0:
        raise InvalidEpsilon("epsilon must be positive")
    root = _exact_sqrt(e) if policy.exact else math.sqrt(e)

    raw = {
        "a": (half, half - e, e / 2, e / 2),
        "b": (one - 2 * e - e * e, e + e * e / 2, e - e * e / 2, e * e),
        "c": ((one - 2 * e - e * e) / (one - e), (e + e * e) / (one - e)),
        "d": (half + root, half - root),
    }
    for name, entries in raw.items():
        if not _ordered_descending(entries):
            raise InvalidEpsilon(f"vector {name} leaves the ordered simplex at eps={float(e)}")
    vecs = {name: make_schmidt(entries, policy) for name, entries in raw.items()}
    return EpsilonFamily(e, vecs["a"], vecs["b"], vecs["c"], vecs["d"])


def verify_epsilon_family(family: EpsilonFamily,
                          policy: ComparisonPolicy = FLOAT_POLICY) -> EpsilonFamilyReport:
    """Check every supercatalysis condition for a family member and report;
    a member that float slack unblocks gets the empty interval [1, 1/2]."""
    pair, c, d, verdict = _assess(family.a, family.b, family.c, family.d, policy)
    fa, fb = prefix_sums(pair.a), prefix_sums(pair.b)
    g = _verdict_gain(pair, c, d, verdict) if verdict.ok else 0.0
    interval = (rank2_catalyst_interval(pair) if verdict.base_blocked
                else CatalystInterval(1.0, 0.5))
    e = family.eps
    return EpsilonFamilyReport(
        eps=float(e),
        base_blocked=verdict.base_blocked,
        f2_strictly_greater=policy.strictly_greater(fa[1], fb[1]),
        joint_feasible=verdict.joint_feasible,
        returned_reaches_borrowed=verdict.returned_reaches_borrowed,
        states_differ=verdict.states_differ,
        gain=g,
        x_min=float(interval.x_min),
        x_max=float(interval.x_max),
        predicted_x_min=float((1 + e) / 2),
        predicted_x_max=float((1 - 2 * e - e * e) / (1 - e)),
    )
