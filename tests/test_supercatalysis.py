"""Gain computation, exact optimization, bounds, sweeps, constructions."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import supercat.catalysis
import supercat.schmidt
import supercat.supercatalysis
from supercat import (CatalyticPair, EXACT_POLICY, FLOAT_POLICY, SchmidtVector,
                      binary_entropy, bound_gmax, check_supercatalytic, entropy, epsilon_family,
                      gain, gmax_given_c, grid_gmax_rank2, is_catalyst, kron,
                      least_entangled_rank2_catalyst, majorizes, make_schmidt,
                      most_entangled_rank2_catalyst, nielsen_convertible, prefix_sums,
                      rank2_catalyst_interval, rank_reduce_returned, returned_rank_bound,
                      schmidt_rank, tilde_gmax_sweep, trivial_swap_construction,
                      verify_epsilon_family)
from supercat.catalysis import (_affine_grid, _entropy_ceiling, _min_feasible_y,
                                _ordered_simplex_grid, _y_star_pieces, probe_two_level)
from supercat.cli import main
from supercat.errors import (EmptyCatalystSet, InvalidConfiguration, InvalidEpsilon,
                             NotACatalyst, NotNormalized, PreconditionViolated, ZeroDenominator)
from supercat.examples import example_pair
from supercat.schmidt import NORM_TOL, _coerce, _constants
from supercat.supercatalysis import (GRID_METHOD, GainResult, _exact_rank2_gain, _gain_bound,
                                     _gain_value, _solve_loan, _stationary_points)

from conftest import (random_catalyst, random_nontrivial_pair, random_rational_sorted_simplex,
                      random_sorted_simplex, reference_max_catalyst_entropy)
from test_golden import HIGH_CAP_LOANS, SINGLE_POINT_PAIR

TIGHT_GAIN = 0.07442316637776933  # first bundled pair: (h(0.6)-h(0.625))/(E(a)-E(b))
#: Benchmark loan r046 of the seed-0 loan-highrank pool, as (a, b, c): the
#: E_3 search bounded its gain by 0.1377, below the gain 0.1468.
LOAN_R046 = ("0.400901850182073,0.38232000472224104,0.13065773583367868,0.08612040926200726",
             "0.5003256815093553,0.2749199213517377,0.200482784385545,0.024271612753361982",
             "0.4467899133208806,0.2931263178786323,0.2600837688004871")


def vec(*xs):
    return make_schmidt(xs)


@pytest.fixture(scope="module")
def pairs():
    return {name: example_pair(name) for name in "1234"}


def count_joint_calls(monkeypatch) -> Counter:
    """Calls of CatalyticPair.joint_target and joint_feasible, through which
    every joint check goes in both arithmetics, except a membership test
    (CatalyticPair._member)."""
    counts = Counter()
    for name in ("joint_target", "joint_feasible"):
        original = getattr(CatalyticPair, name)

        def counted(self, *args, _name=name, _fn=original):
            counts[_name] += 1
            return _fn(self, *args)

        monkeypatch.setattr(CatalyticPair, name, counted)
    return counts


@pytest.fixture(scope="module")
def exact_pairs():
    return {name: example_pair(name, EXACT_POLICY) for name in "1234"}


class TestGain:
    def test_returning_the_borrowed_state_is_zero(self, pairs):
        c = vec(0.6, 0.4)
        assert gain(pairs["1"].a, pairs["1"].b, c, c) == 0.0

    def test_swap_configuration_is_one(self, pairs):
        pair = pairs["1"]
        c = vec(0.6, 0.4)
        borrowed, returned = trivial_swap_construction(pair, c)
        assert gain(pair.a, pair.b, borrowed, returned) == 1.0

    def test_tight_configuration_value(self, pairs):
        pair = pairs["1"]
        got = gain(pair.a, pair.b, vec(0.625, 0.375), vec(0.6, 0.4))
        assert got == pytest.approx(TIGHT_GAIN, abs=1e-10)

    def test_convertible_pair_rejected(self):
        a, b = vec(0.25, 0.25, 0.25, 0.25), vec(0.5, 0.25, 0.25, 0)
        c = vec(0.6, 0.4)
        with pytest.raises(InvalidConfiguration, match="no catalyst"):
            gain(a, b, c, c)

    def test_infeasible_joint_rejected(self, pairs):
        pair = pairs["1"]
        with pytest.raises(InvalidConfiguration, match="infeasible"):
            gain(pair.a, pair.b, vec(0.6, 0.4), vec(0.55, 0.45))

    def test_returned_must_reach_borrowed(self, pairs):
        pair = pairs["1"]
        # joint transfer holds but the returned state is weaker than the loan
        with pytest.raises(InvalidConfiguration, match="cannot reach"):
            gain(pair.a, pair.b, vec(0.6, 0.4), vec(0.65, 0.35))

    def test_zero_denominator_guard(self, pairs):
        a, b = pairs["1"].a, pairs["1"].b
        t = 1e-10
        a_mix = make_schmidt([(1 - t) * bb + t * aa for aa, bb in zip(a, b)])
        assert not nielsen_convertible(a_mix, b)
        assert entropy(a_mix) - entropy(b) < 1e-9
        c = vec(0.6, 0.4)
        with pytest.raises(ZeroDenominator):
            gain(a_mix, b, c, c)

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_zero_denominator_at_every_loan_entry(self, policy, capsys):
        # the mixed pair above, written out: gain, every function that takes
        # a loan and gain-sweep --c raise or print one error, gain's
        a_text, b_text = "0.49999999999,0.250000000015,0.249999999985,1e-11", "0.5,0.25,0.25,0"
        a, b = (make_schmidt(text.split(","), policy) for text in (a_text, b_text))
        c = make_schmidt(["0.6", "0.4"], policy)
        with pytest.raises(ZeroDenominator) as caught:
            gain(a, b, c, c, policy)
        message = str(caught.value)
        assert message == f"entropy drop {entropy(a) - entropy(b)} too small"
        for fn in (gmax_given_c, bound_gmax, grid_gmax_rank2):
            with pytest.raises(ZeroDenominator) as caught:
                fn(CatalyticPair(a, b, policy), c)
            assert str(caught.value) == message, fn
        argv = ["gain-sweep", "--a", a_text, "--b", b_text, "--c", "0.6,0.4"]
        assert main(argv + ["--exact"] * policy.exact) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestCheckSupercatalytic:
    def test_family_member_passes_all(self):
        fam = epsilon_family(1e-3)
        verdict = check_supercatalytic(fam.a, fam.b, fam.c, fam.d)
        assert verdict.ok
        assert verdict.borrowed_is_catalyst and verdict.returned_is_catalyst
        assert not verdict.consistency_error

    def test_equal_states_fail_difference(self, pairs):
        pair = pairs["1"]
        c = most_entangled_rank2_catalyst(pair)
        verdict = check_supercatalytic(pair.a, pair.b, c, c)
        assert not verdict.states_differ
        assert not verdict.ok

    def test_no_improvement_on_most_entangled_loan(self, pairs):
        # any strictly more entangled two-level return breaks the joint transfer
        pair = pairs["1"]
        c = vec(0.6, 0.4)
        for y in (0.51, 0.55, 0.59, 0.5999):
            verdict = check_supercatalytic(pair.a, pair.b, c, vec(y, 1 - y))
            assert not verdict.joint_feasible


class TestGmaxGivenC:
    def test_least_entangled_loan_attains_bound(self, pairs):
        pair = pairs["1"]
        result = gmax_given_c(pair, vec(0.625, 0.375))
        assert result.method == "exact-piecewise-linear"
        assert result.gain == pytest.approx(TIGHT_GAIN, abs=1e-10)
        assert result.returned_state[0] == pytest.approx(0.6, abs=1e-9)

    def test_most_entangled_loan_yields_zero(self, pairs):
        for name in "1234":
            c = most_entangled_rank2_catalyst(pairs[name])
            result = gmax_given_c(pairs[name], c)
            assert result.gain == 0.0, name
            assert result.returned_state == c

    def test_least_entangled_loan_fails_on_fourth_pair(self, pairs):
        c = least_entangled_rank2_catalyst(pairs["4"])
        assert gmax_given_c(pairs["4"], c).gain == 0.0

    def test_exact_mode_tight_value(self, exact_pairs):
        pair = exact_pairs["1"]
        c = SchmidtVector((Fraction(5, 8), Fraction(3, 8)))
        result = gmax_given_c(pair, c)
        assert result.returned_state == (Fraction(3, 5), Fraction(2, 5))
        bound = (binary_entropy(Fraction(3, 5)) - entropy(c)) / pair.entropy_drop
        assert result.gain == pytest.approx(bound, abs=1e-15)

    def test_not_a_catalyst(self, pairs):
        with pytest.raises(NotACatalyst):
            gmax_given_c(pairs["1"], vec(0.9, 0.1))

    def test_result_certifies_itself(self, rng):
        for _ in range(15):
            pair = random_nontrivial_pair(rng, min_width=1e-3)
            interval = rank2_catalyst_interval(pair)
            x = interval.x_min + 0.7 * (interval.x_max - interval.x_min)
            c = SchmidtVector((x, 1 - x))
            result = gmax_given_c(pair, c)
            d = result.returned_state
            assert majorizes(kron(pair.b, d), kron(pair.a, c), pair.policy)
            assert nielsen_convertible(d, c, pair.policy)
            assert 0.0 <= result.gain <= 1.0

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_loan_on_pair_needing_no_catalyst_rejected(self, policy):
        # a separable loan is a catalyst only of a pair that needs none; the
        # exact solve then indexed past the n joint prefix sums of a (x) c
        pair = CatalyticPair(make_schmidt((0.5, 0.3, 0.2), policy),
                             make_schmidt((0.6, 0.3, 0.1), policy), policy)
        loan = make_schmidt((1,), policy)
        assert not pair.nontrivial and is_catalyst(pair, loan)
        for fn in (gmax_given_c, bound_gmax):
            with pytest.raises(PreconditionViolated, match="already succeeds without a catalyst"):
                fn(pair, loan)

    def test_rank2_seed_lifts_the_cap3_search(self):
        # the grid and hill-climb alone reach 0.04130127; the exact rank-2
        # optimum they start from is 0.04130135
        pair = CatalyticPair(vec(0.5, 0.35, 0.05, 0.05, 0.05), vec(0.6, 0.2, 0.2))
        c = vec(0.646, 0.354)
        assert returned_rank_bound(pair, c) == 3
        seed = _exact_rank2_gain(pair, c, pair.joint_target(c), entropy(c))
        assert gmax_given_c(pair, c).gain >= seed.gain > 0.0413013


def reference_grid_rank_gain(pair, c, rank_cap, target):
    """The returned-state search at rank cap >= 3 with the full linear grid
    scan: c, then the exact rank-2 optimum for a two-level c, then every grid
    state in list order, each kept when strictly more entropic and feasible;
    then the hill-climb from the best.  Reference for the search that scans
    the grid in decreasing entropy and stops at the first feasible state."""
    policy = pair.policy
    ent_c = entropy(c)

    def feasible(v):
        return pair.joint_feasible(target, v) and majorizes(c, v, policy)

    best_ent, best_d = ent_c, c
    if schmidt_rank(c, policy) <= 2:
        seed = _exact_rank2_gain(pair, c, target, ent_c)
        ent = entropy(seed.returned_state)
        if ent > best_ent:
            best_ent, best_d = ent, seed.returned_state

    grid_steps = {3: 200, 4: 60, 5: 24}.get(rank_cap, 12)
    for parts in _ordered_simplex_grid(rank_cap, grid_steps):
        if policy.exact:
            v = SchmidtVector(Fraction(k, grid_steps) for k in parts)
        else:
            v = SchmidtVector(k / grid_steps for k in parts)
        ent = entropy(v)
        if ent > best_ent and feasible(v):
            best_ent, best_d = ent, v

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
    if best_ent <= ent_c + 1e-12:
        return GainResult(0.0, c, GRID_METHOD)
    g = (best_ent - ent_c) / pair.entropy_drop
    return GainResult(min(max(g, 0.0), 1.0), best_d, GRID_METHOD)


class TestGridRankGain:
    """At returned-rank cap >= 3 the grid is scanned in decreasing entropy up
    to its first feasible state; every result must equal the full scan's."""

    def test_matches_linear_scan(self, pairs):
        # the bundled outputs have rank 3, so a rank-3 loan has cap 4 there;
        # the random pairs have ranks 4 and 4, so cap 3
        rng = random.Random(6051)
        cases = [pairs[name] for name in "1234" for _ in range(15)]
        cases += [random_nontrivial_pair(rng, min_width=0.02) for _ in range(60)]
        caps = Counter()
        for pair in cases:
            c = random_catalyst(rng, pair)
            cap = returned_rank_bound(pair, c)
            want = reference_grid_rank_gain(pair, c, cap, pair.joint_target(c))
            assert gmax_given_c(pair, c) == want, (pair, c)
            caps[cap, want.gain > 0] += 1
        assert all(caps[cap, True] >= 20 for cap in (3, 4))

    def test_two_level_loans_match_linear_scan(self):
        # ranks 5 and 3: a two-level loan has cap 3, and the exact rank-2
        # optimum is the floor of the grid scan
        pair = CatalyticPair(vec(0.5, 0.35, 0.05, 0.05, 0.05), vec(0.6, 0.2, 0.2))
        for x in (0.63, 0.64, 0.646, 0.65, 0.66):
            c = probe_two_level(x, pair.policy)
            assert is_catalyst(pair, c) and returned_rank_bound(pair, c) == 3
            want = reference_grid_rank_gain(pair, c, 3, pair.joint_target(c))
            assert gmax_given_c(pair, c) == want, c

    def test_exact_loans_match_linear_scan(self, exact_pairs):
        # 1/2,3/10,1/5 on bundled pairs 1 and 4 (cap 4), then random rational
        # rank-3 loans over denominators 20, 60 and 1000 on the bundled pairs
        # (cap 4) and on random rank-4 pairs (cap 3)
        rng = random.Random(6053)
        loan = make_schmidt(("1/2", "3/10", "1/5"), EXACT_POLICY)
        cases = [(exact_pairs[name], loan) for name in "14"]
        cases += [(exact_pairs[name], None) for name in "1234"]
        cases += [(random_nontrivial_pair(rng, EXACT_POLICY), None) for _ in range(20)]
        caps = Counter()
        for pair, c in cases:
            c = c or random_catalyst(rng, pair)
            assert is_catalyst(pair, c)
            cap = returned_rank_bound(pair, c)
            want = reference_grid_rank_gain(pair, c, cap, pair.joint_target(c))
            got = gmax_given_c(pair, c)
            assert got == want and got.returned_state.exact, (pair, c)
            caps[cap, want.gain > 0] += 1
        assert caps[3, True] >= 10 and caps[4, True] >= 5, caps

    def test_grid_rejects_rows_on_their_leading_coefficients(self, monkeypatch):
        # a cap-3 loan: the grid scan ran 1,935 joint tests before it skipped
        # the rows that CatalyticPair.joint_lead rejects, and 282 after, with
        # the same result
        pair = CatalyticPair(vec(0.55, 0.27, 0.13, 0.05), vec(0.62, 0.19, 0.17, 0.02))
        c = vec(0.65, 0.3, 0.05)
        assert returned_rank_bound(pair, c) == 3
        counts = count_joint_calls(monkeypatch)
        result = gmax_given_c(pair, c)
        assert counts == Counter(joint_target=1, joint_feasible=282)
        assert result == GainResult(0.4482289311147481, vec(0.59, 0.355, 0.055), GRID_METHOD)

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_entropy_ceiling_cuts_the_searches_of_the_golden_loans(self, policy, monkeypatch):
        """bound_gmax on the golden cap-3, cap-3 two-level and cap-4 loans:
        the E_r search ran 124, 619 and 177 membership tests in both
        arithmetics before it started below catalysis._entropy_ceiling, 5, 1
        and 1 after, and none since the bound reads the ceiling itself; the
        returned-state grid, whose lead test already rejects the rows above
        the ceiling, keeps its 282, 420 and 235 joint tests."""
        counts = count_joint_calls(monkeypatch)
        member = CatalyticPair._member

        def counted(self, form):
            counts["_member"] += 1
            return member(self, form)

        monkeypatch.setattr(CatalyticPair, "_member", counted)
        want = {"cap3": (0, 282), "cap3-two-level": (0, 420), "cap4": (0, 235)}
        for name, (a, b, c) in HIGH_CAP_LOANS.items():
            pair = CatalyticPair(*(make_schmidt(t.split(","), policy) for t in (a, b)), policy)
            counts.clear()
            bound_gmax(pair, make_schmidt(c.split(","), policy))
            assert counts == Counter(joint_target=1, joint_feasible=want[name][1],
                                     _member=want[name][0]), name

    def test_no_returned_state_beats_the_loan(self):
        # a loan that is its own best returned state at cap 3: the search and
        # the hill-climb find nothing more entropic, so the gain is 0 with d = c
        pair = CatalyticPair(vec(0.40219782251745784, 0.3899667676648765, 0.10417854384910674,
                                 0.10365686596855894),
                             vec(0.583852141561288, 0.19931416572953276, 0.1899541143327429,
                                 0.026879578376436397))
        c = vec(0.4762733459472656, 0.41372665405273434, 0.11)
        assert (pair.rank_a, pair.rank_b, returned_rank_bound(pair, c)) == (4, 4, 3)
        result = gmax_given_c(pair, c)
        assert result == GainResult(0.0, c, "grid-approximate")
        assert reference_grid_rank_gain(pair, c, 3, pair.joint_target(c)) == result


class TestLoanArithmetic:
    """A vector asked about an exact pair is taken in the pair's arithmetic."""

    def test_float_loan_is_catalyst_of_exact_pair(self, exact_pairs):
        assert is_catalyst(exact_pairs["1"], vec(0.6, 0.4))

    def test_float_loan_gives_exact_returned_state(self, exact_pairs):
        result = gmax_given_c(exact_pairs["1"], vec(0.625, 0.375))
        assert result.returned_state == (Fraction(3, 5), Fraction(2, 5))

    def test_float_quadruple_checked_exactly(self, pairs):
        a, b = pairs["1"].a, pairs["1"].b
        verdict = check_supercatalytic(a, b, vec(0.625, 0.375), vec(0.6, 0.4), EXACT_POLICY)
        assert verdict.ok and not verdict.consistency_error


#: Catalyst loans of the bundled pairs, the last of rank 3 (returned-rank cap 4).
COERCED_LOANS = (("1", "0.625,0.375"), ("2", "0.6,0.4"), ("4", "0.65,0.35"),
                 ("1", "1/2,3/10,1/5"))


class TestLoanCoercion:
    """A loan is taken as given only if it holds SchmidtVector's invariant in
    the pair's arithmetic; any other vector goes through make_schmidt."""

    @given(st.sampled_from(COERCED_LOANS), st.booleans(), st.permutations(range(3)),
           st.sampled_from(("1", "2", "1/2", "1.0000000001", "0.9999999999", "1.000001")),
           st.sampled_from((None, 0, 1)))
    @example(COERCED_LOANS[0], False, (0, 1, 2), "2", None)  # gained 0.0, bound 4.75
    @example(COERCED_LOANS[1], True, (0, 1, 2), "1", 1)  # raised AttributeError
    @example(COERCED_LOANS[0], False, (1, 0, 2), "1.0000000001", None)  # kept, gained 0.0
    @example(COERCED_LOANS[3], True, (2, 0, 1), "0.9999999999", 0)
    @settings(max_examples=120)
    def test_scaled_mixed_or_permuted_loan(self, loan, exact, order, scale, other_type):
        """Scaled, mixed-type and permuted loans give the normalized loan's
        gain and bound, or NotNormalized when the scale is past NORM_TOL;
        never another exception or a bound above 1.  A float total within
        NORM_TOL but not 1 up to rounding is renormalized, not kept."""
        policy = EXACT_POLICY if exact else FLOAT_POLICY
        pair, c = example_pair(loan[0], policy), make_schmidt(loan[1].split(","), policy)
        entries = [x * _coerce(scale, policy) for x in c]
        if other_type is not None:  # one entry in the other arithmetic
            entries[other_type] = (float if exact else Fraction)(entries[other_type])
        v = SchmidtVector([entries[i] for i in order if i < len(entries)])
        want = gmax_given_c(pair, c), bound_gmax(pair, c)
        try:
            got = gmax_given_c(pair, v), bound_gmax(pair, v)
        except NotNormalized:
            assert abs(Fraction(scale) - 1) > NORM_TOL
            return
        assert abs(Fraction(scale) - 1) <= NORM_TOL
        assert got[1] <= 1.0 and math.isclose(got[1], want[1], abs_tol=1e-9)
        assert math.isclose(got[0].gain, want[0].gain, abs_tol=1e-9)
        if exact:
            assert got[0].returned_state == want[0].returned_state


class TestBoundGmax:
    def test_zero_at_most_entangled(self, pairs):
        for name in "1234":
            c = most_entangled_rank2_catalyst(pairs[name])
            assert bound_gmax(pairs[name], c) == pytest.approx(0.0, abs=1e-12)

    def test_attained_on_first_pair(self, pairs):
        pair = pairs["1"]
        c = vec(0.625, 0.375)
        assert bound_gmax(pair, c) == pytest.approx(TIGHT_GAIN, abs=1e-12)
        assert gmax_given_c(pair, c).gain == pytest.approx(bound_gmax(pair, c), abs=1e-12)

    def test_not_tight_on_fourth_pair(self, pairs):
        pair = pairs["4"]
        c = least_entangled_rank2_catalyst(pair)
        bound = bound_gmax(pair, c)
        expected = (binary_entropy(0.6) - binary_entropy(2 / 3)) / pair.entropy_drop
        assert bound == pytest.approx(expected, abs=1e-12)
        assert bound > 0.4
        assert gmax_given_c(pair, c).gain == 0.0

    def test_cap4_bound_clamped_to_one(self, pairs):
        # returned-rank cap 4: the value from the entropy ceiling (2.19)
        # exceeds the trivial bound 1, so the clamp of every gain applies
        pair, c = pairs["1"], vec(0.5, 0.3, 0.2)
        assert returned_rank_bound(pair, c) == 4
        assert _gain_bound(pair, _entropy_ceiling(pair, 4), entropy(c)) > 2.18
        result, bound = _solve_loan(pair, c)
        assert result.gain < bound == bound_gmax(pair, c) == 1.0

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_unfloored_bound_never_below_gain_at_caps_3_and_4(self, policy):
        """The bound from the entropy ceiling, before _solve_loan floors it at
        the gain, is at least the gain, so the floor never acts.  The bound
        from the search-based E_3 sat below the gain on 35 of the 400
        benchmark loans at seeds 0 and 1; the first of them leads the cases,
        and the reference search still bounds its gain too low."""
        rng = random.Random(6061)
        pair = CatalyticPair(*(make_schmidt(t.split(","), policy) for t in LOAN_R046[:2]), policy)
        cases = [(pair, make_schmidt(LOAN_R046[2].split(","), policy))]
        cases += [(example_pair(name, policy), None) for name in "1234" for _ in range(15)]
        cases += [(random_nontrivial_pair(rng, policy, min_width=0.02), None) for _ in range(60)]
        caps = Counter()
        for pair, c in cases:
            c = c or random_catalyst(rng, pair)
            cap = returned_rank_bound(pair, c)
            result, bound = _solve_loan(pair, c)
            unfloored = _gain_value(pair, _entropy_ceiling(pair, cap), entropy(c))
            assert unfloored == bound >= result.gain, (pair, c)
            caps[cap] += 1
        assert caps[3] >= 50 and caps[4] >= 50, caps
        pair, c = cases[0]
        search = (reference_max_catalyst_entropy(pair, 3)[0] - entropy(c)) / pair.entropy_drop
        assert search < gmax_given_c(pair, c).gain - 0.009

    def test_bound_never_below_gain_at_caps_3_and_4(self, pairs):
        # the loan c and the returned state d are catalysts of rank <= cap,
        # but E_r came from the search alone and sat below E(d) on some loans
        rng = random.Random(6061)
        cases = [pairs[name] for name in "1234" for _ in range(15)]
        cases += [random_nontrivial_pair(rng, min_width=0.02) for _ in range(60)]
        caps = Counter()
        for pair in cases:
            c = random_catalyst(rng, pair)
            gain = gmax_given_c(pair, c).gain
            assert bound_gmax(pair, c) >= gain, (pair, c)
            caps[returned_rank_bound(pair, c)] += 1
        assert caps[3] >= 50 and caps[4] >= 50

    def test_loan_without_search_member_keeps_its_gain(self):
        # no rank-3 reference candidate is a catalyst, though the loan is
        pair = CatalyticPair(vec(0.519773417811575, 0.39161841841918565, 0.07540497933614343,
                                 0.013203184433095871),
                             vec(0.6018524912999029, 0.30884880361589706, 0.08577879216933693,
                                 0.003519912914863088))
        c = vec(0.5591722900586402, 0.289844528287162, 0.15098318165419777)
        assert returned_rank_bound(pair, c) == 3
        assert reference_max_catalyst_entropy(pair, 3) is None
        result, bound = _solve_loan(pair, c)
        assert result.gain == pytest.approx(0.0416, abs=1e-4)
        assert result == gmax_given_c(pair, c)
        assert bound == bound_gmax(pair, c) == pytest.approx(0.2838, abs=1e-4)

    def test_rank2_bound_clamped_to_one(self):
        # small entropy drop: the rank-2 value from the exact E_2 is loose and
        # above 1, and the loan bound takes the clamp of every gain
        pair = CatalyticPair(vec(0.65, 0.19, 0.11, 0.05), vec(0.68, 0.15, 0.13, 0.04))
        c = vec(0.75, 0.25)
        expected = (binary_entropy(4 / 7) - binary_entropy(0.75)) / pair.entropy_drop
        assert _entropy_ceiling(pair, 2) == binary_entropy(rank2_catalyst_interval(pair).x_min)
        raw = _gain_bound(pair, _entropy_ceiling(pair, 2), entropy(c))
        assert raw == pytest.approx(expected, abs=1e-12) and raw > 2.5
        assert _solve_loan(pair, c)[1] == bound_gmax(pair, c) == 1.0

    def test_one_loan_check_per_call(self, pairs, monkeypatch):
        # bound_gmax used to check the loan itself and again in gmax_given_c
        pair, c = pairs["3"], vec(0.6, 0.4)
        assert returned_rank_bound(pair, c) == 2
        bound_gmax(pair, c)  # per-pair facts are computed once, not per loan
        counts = count_joint_calls(monkeypatch)
        bound_gmax(pair, c)
        assert counts == {"joint_target": 1, "joint_feasible": 1}

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_one_entropy_ceiling_per_loan_solve(self, policy, monkeypatch):
        """_solve_loan reads one _entropy_ceiling at caps 3 and 4, which the
        grid search and the bound share; gmax_given_c reads one there and
        none at cap 2."""
        calls = []
        ceiling = supercat.supercatalysis._entropy_ceiling

        def counted(pair, r):
            calls.append(r)
            return ceiling(pair, r)

        monkeypatch.setattr(supercat.supercatalysis, "_entropy_ceiling", counted)
        for name, cap in (("cap3", 3), ("cap3-two-level", 3), ("cap4", 4)):
            a, b, c = (make_schmidt(t.split(","), policy) for t in HIGH_CAP_LOANS[name])
            pair = CatalyticPair(a, b, policy)
            assert returned_rank_bound(pair, c) == cap
            for solve in (_solve_loan, gmax_given_c):
                calls.clear()
                solve(pair, c)
                assert calls == [cap], (name, solve)
        calls.clear()
        gmax_given_c(example_pair("3", policy), make_schmidt(("0.6", "0.4"), policy))
        assert calls == []


def reference_min_feasible_y(b_coeffs, targets, lo, hi, policy):
    """The breakpoint solve rebuilt from scratch on every call: cuts from b,
    and the sorted products at each segment's midpoint.  Reference for the
    solve on the pair's cached segments, with the same arithmetic."""
    if lo > hi:
        return None
    exact = policy.exact
    zero, _, one = _constants(exact)
    slack = zero if exact else policy.tol_eq
    slope_tol = zero if exact else policy.tol_eq

    cuts = {lo, hi}
    for bi in b_coeffs:
        for bj in b_coeffs:
            den = bi + bj
            if den > 0:
                y = bj / den
                if lo < y < hi:
                    cuts.add(y)
    points = sorted(cuts)

    n_constraints = 2 * len(b_coeffs)
    for seg_lo, seg_hi in zip(points, points[1:]):
        mid = (seg_lo + seg_hi) / 2
        terms = [(bi * mid, bi, zero) for bi in b_coeffs]
        terms += [(bi * (one - mid), zero, bi) for bi in b_coeffs]
        terms.sort(key=lambda t: t[0], reverse=True)

        cur_lo, cur_hi = seg_lo, seg_hi
        ok = True
        coef_y = zero
        coef_const = zero
        for k in range(n_constraints):
            coef_y += terms[k][1]
            coef_const += terms[k][2]
            slope = coef_y - coef_const
            if slope > slope_tol:
                bound = (targets[k] - coef_const) / slope
                if bound > cur_lo:
                    cur_lo = bound
            elif slope < -slope_tol:
                bound = (targets[k] - coef_const) / slope
                if bound < cur_hi:
                    cur_hi = bound
            else:
                if coef_y * mid + coef_const * (one - mid) < targets[k] - slack:
                    ok = False
                    break
            if cur_lo > cur_hi:
                ok = False
                break
        if ok and cur_lo <= cur_hi:
            return cur_lo
    return None


class TestMinFeasibleY:
    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_cached_segments_match_reference(self, policy):
        rng = random.Random(4417)
        half = _constants(policy.exact)[1]
        clipped = 0
        for _ in range(100):
            pair = random_nontrivial_pair(rng, policy)
            b = pair.b
            interval = rank2_catalyst_interval(pair)
            # both endpoints and 20 interior points, then every breakpoint
            # of b as c1, where the last segment is clipped exactly at a cut
            loans = _affine_grid(interval.x_min, interval.x_max, 22)
            loans += sorted({bj / (bi + bj) for bi in b for bj in b
                             if bi + bj > 0 and half < bj / (bi + bj) < 1})
            for x in loans:
                c = probe_two_level(x, policy)
                targets = prefix_sums(kron(pair.a, c))[:2 * len(pair.b)]
                want = reference_min_feasible_y(b, targets, half, c[0], policy)
                assert _min_feasible_y(pair, pair.joint_target(c)) == want, (pair, x)
                clipped += any(c[0] == hi for _, hi, _ in pair._segments)
        assert clipped > 0

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_cached_slopes_never_negative(self, policy):
        # random catalysable pairs, then arbitrary b of rank 2 to 6, half of
        # them with entries on a coarse grid, so ties and zeros occur
        rng = random.Random(2718)
        floor = 0 if policy.exact else -policy.tol_eq
        vectors = [random_nontrivial_pair(rng, policy).b for _ in range(50)]
        for _ in range(300):
            raw = random_rational_sorted_simplex(rng, rng.randrange(2, 7), denom=12)
            vectors.append(make_schmidt(raw if policy.exact else map(float, raw), policy))
            vectors.append(make_schmidt(random_sorted_simplex(rng, rng.randrange(2, 7)), policy))
        for b in vectors:
            for _, _, sums in CatalyticPair(b, b, policy)._segments:
                assert min(slope for _, slope in sums) >= floor, b

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_segments_hold_const_slope_columns(self, policy):
        # entry k of a segment is the sum of the k largest products of
        # v (x) (y, 1-y) as const + slope y, for v = b (_segments) and
        # v = a (_segments_a); exact mode's are integers over the lcm D
        rng = random.Random(1618)
        for _ in range(40):
            pair = random_nontrivial_pair(rng, policy)
            scale = (math.lcm(*(x.denominator for x in pair.a + pair.b))
                     if policy.exact else 1)
            for v, segments in ((pair.b, pair._segments), (pair.a, pair._segments_a)):
                for lo, hi, sums in segments:
                    assert all(len(entry) == 2 for entry in sums), sums
                    y = (lo + hi) / 2
                    want = prefix_sums(kron(v, probe_two_level(y, policy)))
                    got = [(const + slope * y) / scale for const, slope in sums]
                    if policy.exact:
                        assert got == list(want), (pair, y)
                    else:
                        assert got == pytest.approx(want, abs=1e-12), (pair, y)


class TestSweep:
    def test_first_pair_miserly_optimal_and_tight(self, pairs):
        sweep = tilde_gmax_sweep(pairs["1"], n_points=101)
        assert sweep.tilde_gmax == pytest.approx(TIGHT_GAIN, abs=1e-9)
        assert sweep.tilde_gmax == pytest.approx(sweep.envelope_bound, abs=1e-9)
        assert sweep.argmax_x == pytest.approx(0.625, abs=1e-6)
        assert sweep.gmax_at_x_min == 0.0
        assert not sweep.interior_optimum()

    def test_second_pair_miserly_optimal_below_quarter(self, pairs):
        sweep = tilde_gmax_sweep(pairs["2"], n_points=101)
        assert 0.0 < sweep.tilde_gmax < 0.25
        assert sweep.tilde_gmax == pytest.approx(sweep.gmax_at_x_max, abs=1e-12)
        assert sweep.tilde_gmax == pytest.approx(0.231034, abs=1e-4)
        assert sweep.envelope_bound > sweep.tilde_gmax + 1e-3  # bound not attained
        assert not sweep.interior_optimum()

    def test_third_pair_interior_strictly_better(self, pairs):
        sweep = tilde_gmax_sweep(pairs["3"], n_points=101)
        assert sweep.interior_optimum()
        assert sweep.tilde_gmax > sweep.gmax_at_x_max + 3e-3
        assert sweep.tilde_gmax == pytest.approx(0.093890, abs=2e-4)
        assert sweep.argmax_x == pytest.approx(0.61842, abs=1e-3)

    def test_fourth_pair_intermediate_strategy(self, pairs):
        sweep = tilde_gmax_sweep(pairs["4"], n_points=101)
        assert sweep.gmax_at_x_min == 0.0
        assert sweep.gmax_at_x_max == 0.0
        assert sweep.interior_optimum()
        assert sweep.tilde_gmax == pytest.approx(0.103805, abs=2e-4)
        assert sweep.argmax_x == pytest.approx(0.642857, abs=1e-3)

    def test_bound_dominates_everywhere(self, pairs):
        for pair in pairs.values():
            sweep = tilde_gmax_sweep(pair, n_points=51)
            for p in sweep.points:
                assert p.gmax <= p.bound + 1e-12

    def test_bound_attained_across_range_when_attained_at_least_entangled(self, pairs):
        # once the miserly strategy attains the bound, converting any more
        # entangled loan down to the least entangled one attains it as well
        sweep = tilde_gmax_sweep(pairs["1"], n_points=51)
        assert sweep.gmax_at_x_max == pytest.approx(sweep.points[-1].bound, abs=1e-12)
        for p in sweep.points:
            assert p.gmax == pytest.approx(p.bound, abs=1e-9), p.x

    def test_points_cover_interval(self, pairs):
        sweep = tilde_gmax_sweep(pairs["1"], n_points=11)
        assert sweep.points[0].x == pytest.approx(0.6, abs=1e-9)
        assert sweep.points[-1].x == pytest.approx(0.625, abs=1e-9)
        assert len(sweep.points) == 11

    def test_empty_interval_raises(self):
        pair = CatalyticPair(vec(0.6, 0.4, 0, 0), vec(0.7, 0.25, 0.05, 0))
        with pytest.raises(EmptyCatalystSet):
            tilde_gmax_sweep(pair, n_points=11)

    def test_single_point_rejected(self, pairs):
        with pytest.raises(PreconditionViolated):
            tilde_gmax_sweep(pairs["1"], 1)

    def test_each_x_evaluated_once_with_one_loan_check(self, monkeypatch):
        counts = count_joint_calls(monkeypatch)
        evaluated = []
        # each sample's loan check is _require_member, each certified candidate's gmax_given_c
        for name in ("_require_member", "gmax_given_c"):
            original = getattr(supercat.supercatalysis, name)

            def solve(pair, c, _fn=original):
                evaluated.append(c[0])
                return _fn(pair, c)

            monkeypatch.setattr(supercat.supercatalysis, name, solve)
        pair = example_pair("3")
        rank2_catalyst_interval(pair)  # per-pair facts are computed once, not per x
        counts.clear()

        tilde_gmax_sweep(pair, n_points=200)
        distinct = len(set(evaluated))
        assert len(evaluated) == distinct
        assert distinct <= 201  # the samples and one certified kink, 47/76
        assert counts["joint_target"] == distinct
        assert counts["joint_feasible"] == distinct

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_pair_work_once_per_sweep(self, monkeypatch, policy):
        """The cap, the entropy ceiling and the entropy-drop check run once
        per sweep, not per sample nor per certified candidate, which takes
        the samples' path, not gmax_given_c."""
        counted = ("returned_rank_bound", "_entropy_ceiling", "_require_entropy_drop")
        counts = Counter()
        for module in (supercat.catalysis, supercat.supercatalysis):
            for name in counted + ("gmax_given_c",):
                if hasattr(module, name):
                    def wrapped(*args, _name=name, _fn=getattr(module, name)):
                        counts[_name] += 1
                        return _fn(*args)

                    monkeypatch.setattr(module, name, wrapped)
        rng = random.Random(27)
        pairs = [example_pair(name, policy) for name in "1234"]
        pairs += [random_nontrivial_pair(rng, policy, min_width=1e-4) for _ in range(4)]
        for pair in pairs:
            counts.clear()
            sweep = tilde_gmax_sweep(pair, n_points=200)
            assert len(sweep.points) == 200
            assert counts == Counter(dict.fromkeys(counted, 1)), (pair, counts)

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_points_equal_single_loan_solves(self, policy):
        """Each sweep point's gain is, bit for bit, that of _solve_loan on its
        loan, and its raw bound, clamped to 1 and floored at the gain, is
        _solve_loan's bound: the sweep's once-per-pair checks, cap and
        entropy ceiling, and in exact mode its y* read from the pieces of
        y*(x), change no value.  Every loan has returned-rank cap 2, which the
        sweep's y* relies on.  In exact mode the pairs include one whose
        two-level catalysts are the single point 3/5, so the pieces have zero
        width; in float mode its interval reads empty."""
        rng = random.Random(28)
        pairs = [example_pair(name, policy) for name in "1234"]
        pairs += [random_nontrivial_pair(rng, policy) for _ in range(100)]
        if policy.exact:
            pairs.append(CatalyticPair(*(make_schmidt(t.split(","), policy)
                                         for t in SINGLE_POINT_PAIR), policy))
        for pair in pairs:
            for p in tilde_gmax_sweep(pair, n_points=30).points:
                result, bound = _solve_loan(pair, p.c)
                assert (p.gmax, min(max(p.bound, p.gmax), 1.0)) == (result.gain, bound), (pair, p.x)
                assert returned_rank_bound(pair, p.c) == 2, (pair, p.x)

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_every_sample_is_tested_for_membership(self, policy):
        """A two-level set widened past x_max, as a wrong closed form would
        give, makes the sweep raise NotACatalyst at the first sample outside it."""
        pair = example_pair("1", policy)
        interval = rank2_catalyst_interval(pair)
        widen = Fraction(1, 100) if policy.exact else 0.01
        vars(pair)["_two_level"] = ((interval.x_min, interval.x_max + widen),)
        with pytest.raises(NotACatalyst, match="^the borrowed state is not a catalyst"):
            tilde_gmax_sweep(pair, n_points=30)

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_loan_error_precedence(self, policy, capsys):
        """A loan that is not a catalyst raises NotACatalyst before the entropy
        drop is read; a catalyst loan on a pair whose drop is at most
        tol_strict raises ZeroDenominator; a pair needing no catalyst raises
        PreconditionViolated first.  The functions and the CLI agree."""
        not_member = "the borrowed state is not a catalyst for this pair"
        tiny_a, tiny_b = "0.49999999999,0.250000000015,0.249999999985,1e-11", "0.5,0.25,0.25,0"
        tiny = CatalyticPair(*(make_schmidt(t.split(","), policy) for t in (tiny_a, tiny_b)),
                             policy)
        tiny_drop = f"entropy drop {tiny.entropy_drop} too small"
        cases = [("0.4,0.4,0.1,0.1", "0.5,0.25,0.25,0", "0.9,0.1", NotACatalyst, not_member),
                 (tiny_a, tiny_b, "0.9,0.1", NotACatalyst, not_member),
                 (tiny_a, tiny_b, "0.6,0.4", ZeroDenominator, tiny_drop),
                 ("0.4,0.4,0.1,0.1", "0.5,0.3,0.2,0", "0.9,0.1", PreconditionViolated,
                  "the transformation already succeeds without a catalyst")]
        for a, b, c, error, message in cases:
            pair = CatalyticPair(make_schmidt(a.split(","), policy),
                                 make_schmidt(b.split(","), policy), policy)
            for fn in (gmax_given_c, bound_gmax):
                with pytest.raises(error) as caught:
                    fn(pair, make_schmidt(c.split(","), policy))
                assert str(caught.value) == message, (fn, a, c)
            argv = ["gain-sweep", "--a", a, "--b", b, "--c", c] + ["--exact"] * policy.exact
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


def zoom_sweep_maximum(pair, n_points):
    """The sweep maximum as the 40-round zoom around the best sample found
    it, before the walk over the pieces of y*(x) replaced it."""
    interval = rank2_catalyst_interval(pair)
    memo = {}

    def value(x):
        if x not in memo:
            memo[x] = gmax_given_c(pair, probe_two_level(x, pair.policy)).gain
        return memo[x]

    xs = _affine_grid(interval.x_min, interval.x_max, n_points)
    i = max(range(n_points), key=lambda k: value(xs[k]))
    best = value(xs[i])
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, n_points - 1)]
    for _ in range(40):
        if float(hi - lo) <= 1e-9:
            break
        grid = _affine_grid(lo, hi, 9)
        j = max(range(9), key=lambda k: value(grid[k]))
        best = max(best, value(grid[j]))
        lo, hi = grid[max(0, j - 1)], grid[min(8, j + 1)]
    return best


class TestSweepMaximum:
    """The sweep maximum comes from the linear pieces of y*(x), not from samples."""

    @pytest.mark.parametrize("name,argmax,kind", [
        ("1", Fraction(5, 8), "endpoint"), ("2", Fraction(25, 38), "endpoint"),
        ("3", Fraction(47, 76), "kink"), ("4", Fraction(9, 14), "kink")])
    def test_bundled_argmax_exact(self, exact_pairs, pairs, name, argmax, kind):
        sweep = tilde_gmax_sweep(exact_pairs[name], n_points=50)
        assert sweep.argmax_c == SchmidtVector((argmax, 1 - argmax))
        assert sweep.argmax_kind == kind
        assert sweep.tilde_gmax == gmax_given_c(exact_pairs[name], sweep.argmax_c).gain
        float_sweep = tilde_gmax_sweep(pairs[name], n_points=200)
        assert float_sweep.argmax_kind == kind
        assert float_sweep.argmax_x == pytest.approx(float(argmax), abs=1e-14)

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_never_below_zoom_nor_samples(self, policy):
        rng = random.Random(13)
        kinds = Counter()
        for _ in range(110):
            pair = random_nontrivial_pair(rng, policy, min_width=1e-4)
            sweep = tilde_gmax_sweep(pair, n_points=25)
            kinds[sweep.argmax_kind] += 1
            # at a flat stationary peak the best of the zoom's many nearby
            # evaluations can beat one evaluation by rounding, a few ulps
            # of the entropies over the entropy drop
            assert sweep.tilde_gmax >= zoom_sweep_maximum(pair, 25) - 1e-12
            assert sweep.tilde_gmax >= max(p.gmax for p in sweep.points)
            assert sweep.tilde_gmax <= sweep.envelope_bound + 1e-9
            assert sweep.tilde_gmax == gmax_given_c(pair, sweep.argmax_c).gain
            assert sweep.argmax_c[0] == pytest.approx(sweep.argmax_x, abs=1e-15)
        assert set(kinds) == {"endpoint", "kink", "stationary"}, kinds

    def test_stationary_peak_between_rising_ends(self):
        # the gain h(al x + be) - h(x) rises at both ends of this piece, so one
        # bisection over [x0, x1] sees no sign change of its slope; the split
        # at the zero of the second derivative finds the peak inside
        x0, x1 = 0.7718734771339038, 0.9961355495435174
        al, be = 1.3355906865082887, -0.34781833678925067

        def slope(x):
            y = al * x + be
            return al * math.log2((1 - y) / y) - math.log2((1 - x) / x)

        assert slope(x0) > 0 and slope(x1) > 0
        n = 20000
        xs = [x0 + (x1 - x0) * i / n for i in range(n + 1)]
        gains = [binary_entropy(al * x + be) - binary_entropy(x) for x in xs]
        peaks = [xs[i] for i in range(1, n) if gains[i - 1] < gains[i] >= gains[i + 1]]
        assert peaks == [pytest.approx(0.84486, abs=1e-5)]
        got = list(_stationary_points(x0, x1, al, be))
        assert got == [pytest.approx(peaks[0], abs=(x1 - x0) / n)]

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_pieces_match_min_feasible_y(self, policy):
        rng = random.Random(14)
        for _ in range(40):
            pair = random_nontrivial_pair(rng, policy, min_width=1e-4)
            interval = rank2_catalyst_interval(pair)
            pieces = _y_star_pieces(pair, interval.x_min, interval.x_max)
            assert pieces[0][0] == interval.x_min and pieces[-1][1] == interval.x_max
            for (_, end, _, _), (start, _, _, _) in zip(pieces, pieces[1:]):
                assert end == start
            for x0, x1, al, be in pieces:
                for x in (x0, (x0 + x1) / 2, x1):
                    c = probe_two_level(x, policy)
                    y = _min_feasible_y(pair, pair.joint_target(c))
                    if policy.exact:
                        assert al * x + be == y
                    else:  # None: rounding put y* just above x, a zero-gain point
                        assert al * x + be == pytest.approx(c[0] if y is None else y, abs=1e-9)

    def test_most_entangled_loan_gains_nothing_on_random_pairs(self):
        # criterion 6 beyond the bundled pairs: y*(x_min) = x_min exactly, so
        # these pairs have a catalyst with zero gain (not fully supercatalyzable)
        rng = random.Random(15)
        for _ in range(100):
            pair = random_nontrivial_pair(rng, EXACT_POLICY)
            x_min = rank2_catalyst_interval(pair).x_min
            x0, _, al, be = _y_star_pieces(pair, x_min, x_min)[0]
            assert x0 == x_min and al * x_min + be == x_min
            assert gmax_given_c(pair, most_entangled_rank2_catalyst(pair)).gain == 0.0


class TestFloatExactAgreement:
    def test_sweeps_agree_on_random_pairs(self):
        """A rational pair swept in exact mode and its float copy swept in
        float mode report the same sweep, point by point, to 1e-12."""
        rng = random.Random(16)
        for _ in range(100):
            pair = random_nontrivial_pair(rng, EXACT_POLICY, min_width=1e-4)
            copy = CatalyticPair(make_schmidt([float(v) for v in pair.a], FLOAT_POLICY),
                                 make_schmidt([float(v) for v in pair.b], FLOAT_POLICY))
            exact, flt = tilde_gmax_sweep(pair, n_points=30), tilde_gmax_sweep(copy, n_points=30)
            for p, q in zip(exact.points, flt.points, strict=True):
                assert p.gmax == pytest.approx(q.gmax, rel=0, abs=1e-12), (pair, p.x)
                assert abs(p.bound - q.bound) <= 1e-12 * max(1.0, abs(p.bound)), (pair, p.x)
            for end, float_end in zip(exact.interval, flt.interval):
                assert float(end) == pytest.approx(float_end, rel=0, abs=1e-12), pair
            assert exact.tilde_gmax == pytest.approx(flt.tilde_gmax, rel=0, abs=1e-12), pair
            assert exact.argmax_kind == flt.argmax_kind, pair


class TestRankReduceReturned:
    def test_zero_alpha(self):
        d, c = vec(0.4, 0.3, 0.2, 0.1), vec(0.6, 0.4)
        got = rank_reduce_returned(d, c)
        assert got == pytest.approx((0.6, 0.2, 0.2), abs=1e-15)
        assert nielsen_convertible(d, got) and nielsen_convertible(got, c)

    def test_positive_alpha(self):
        d = make_schmidt(("0.5", "0.4", "0.05", "0.05"), EXACT_POLICY)
        c = make_schmidt(("0.6", "0.4"), EXACT_POLICY)
        got = rank_reduce_returned(d, c, EXACT_POLICY)
        assert got == (Fraction(3, 5), Fraction(3, 10), Fraction(1, 10))
        assert nielsen_convertible(d, got, EXACT_POLICY)
        assert nielsen_convertible(got, c, EXACT_POLICY)

    @pytest.mark.parametrize("d,c", [
        (vec(0.4, 0.3, 0.2, 0.1), make_schmidt(("0.6", "0.4"), EXACT_POLICY)),
        (make_schmidt(("0.4", "0.3", "0.2", "0.1"), EXACT_POLICY), vec(0.6, 0.4)),
    ], ids=["float-d", "float-c"])
    def test_mixed_arithmetic_stays_exact(self, d, c):
        got = rank_reduce_returned(d, c, EXACT_POLICY)
        assert all(isinstance(x, Fraction) for x in got)
        assert got == (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))

    def test_symmetric_tail_when_alpha_clamps(self):
        d, c = vec(0.3, 0.3, 0.2, 0.2), vec(0.7, 0.3)
        got = rank_reduce_returned(d, c)
        assert got[1] == pytest.approx(got[2], abs=1e-15)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            rank_reduce_returned(vec(0.6, 0.4), vec(0.7, 0.3))
        with pytest.raises(PreconditionViolated):
            rank_reduce_returned(vec(0.4, 0.3, 0.3), vec(1.0, 0.0))
        with pytest.raises(PreconditionViolated):
            rank_reduce_returned(vec(0.8, 0.1, 0.1), vec(0.7, 0.3))

    def test_random_chains_exact(self, rng):
        for _ in range(100):
            dim = rng.choice([3, 4, 5])
            d = make_schmidt(random_rational_sorted_simplex(rng, dim), EXACT_POLICY)
            if d[-1] == 0 or d[0] > Fraction(97, 100):
                continue
            c1 = d[0] + (1 - d[0]) * Fraction(rng.randrange(1, 100), 100)
            c = SchmidtVector((c1, 1 - c1))
            got = rank_reduce_returned(d, c, EXACT_POLICY)
            assert majorizes(got, d, EXACT_POLICY)
            assert majorizes(c, got, EXACT_POLICY)


class TestTrivialSwap:
    def test_multiset_equality_exact(self, exact_pairs):
        pair = exact_pairs["1"]
        c = SchmidtVector((Fraction(3, 5), Fraction(2, 5)))
        borrowed, returned = trivial_swap_construction(pair, c)
        lhs = kron(pair.a, borrowed)
        rhs = kron(pair.b, returned)
        assert lhs == rhs

    def test_verdict_and_gain(self, pairs):
        pair = pairs["1"]
        c = vec(0.6, 0.4)
        borrowed, returned = trivial_swap_construction(pair, c)
        verdict = check_supercatalytic(pair.a, pair.b, borrowed, returned)
        assert verdict.ok and not verdict.consistency_error
        assert gain(pair.a, pair.b, borrowed, returned) == 1.0

    def test_requires_catalyst(self, pairs):
        with pytest.raises(NotACatalyst):
            trivial_swap_construction(pairs["1"], vec(0.9, 0.1))


class TestEpsilonFamily:
    def test_gains_increase_toward_one(self):
        gains = []
        for eps in (1e-2, 1e-3, 1e-4):
            report = verify_epsilon_family(epsilon_family(eps))
            assert report.ok, eps
            gains.append(report.gain)
        assert gains[0] < gains[1] < gains[2] < 1.0
        assert gains[2] > 0.99

    def test_frozen_gain_values(self):
        expected = {1e-2: 0.9684152243906305, 1e-3: 0.9970800156781326,
                    1e-4: 0.999711023190101}
        for eps, want in expected.items():
            report = verify_epsilon_family(epsilon_family(eps))
            assert report.gain == pytest.approx(want, abs=1e-9)

    def test_interval_matches_predictions(self):
        for eps in (1e-2, 1e-3, 1e-4):
            report = verify_epsilon_family(epsilon_family(eps))
            assert abs(report.x_min - report.predicted_x_min) < 1e-10
            assert abs(report.x_max - report.predicted_x_max) < 1e-10

    def test_large_epsilon_invalid(self):
        with pytest.raises(InvalidEpsilon):
            epsilon_family(0.3)

    def test_nonpositive_epsilon_invalid(self):
        with pytest.raises(InvalidEpsilon):
            epsilon_family(0.0)
        with pytest.raises(InvalidEpsilon):
            epsilon_family(-1e-3)
        with pytest.raises(InvalidEpsilon):
            epsilon_family(Fraction(-1, 100), EXACT_POLICY)

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    @pytest.mark.parametrize("eps", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_epsilon_not_normalized(self, eps, policy):
        with pytest.raises(NotNormalized):
            epsilon_family(eps, policy)

    def test_exact_construction_with_rational_root(self):
        fam = epsilon_family(Fraction(1, 10000), EXACT_POLICY)
        assert fam.d == (Fraction(51, 100), Fraction(49, 100))
        report = verify_epsilon_family(fam, EXACT_POLICY)
        assert report.ok
        assert fam.c[0] == rank2_catalyst_interval(
            CatalyticPair(fam.a, fam.b, EXACT_POLICY)).x_max

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_each_condition_checked_once(self, policy, monkeypatch):
        # the report built three pairs (its own, check_supercatalytic's and
        # gain's), made five majorizes calls and ran a (x) c -> b (x) d twice
        fam = epsilon_family(Fraction(1, 100), policy)
        counts = count_joint_calls(monkeypatch)
        for cls, name in ((CatalyticPair, "__init__"), (CatalyticPair, "_member"),
                          (supercat.schmidt, "majorizes")):
            original = getattr(cls, name)

            def counted(*args, _name=name, _fn=original):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(cls, name, counted)
        report = verify_epsilon_family(fam, policy)
        assert report.ok
        # a (x) c -> b (x) d and c's membership on the one joint target, d's
        # membership, then a -> b and d -> c
        assert counts == {"__init__": 1, "joint_target": 1, "joint_feasible": 2,
                          "_member": 1, "majorizes": 2}

    def test_exact_construction_rejects_irrational_root(self):
        with pytest.raises(InvalidEpsilon):
            epsilon_family(Fraction(1, 1000), EXACT_POLICY)

    def test_borrowed_is_least_entangled_catalyst(self):
        fam = epsilon_family(1e-3)
        pair = CatalyticPair(fam.a, fam.b)
        least = least_entangled_rank2_catalyst(pair)
        assert fam.c == pytest.approx(least, abs=1e-12)


class TestGainRangeProperty:
    def test_gain_in_unit_interval_on_valid_configurations(self, rng, pairs):
        # swap configurations, family members, and exact-path optima
        for name in "1234":
            pair = pairs[name]
            c = most_entangled_rank2_catalyst(pair)
            borrowed, returned = trivial_swap_construction(pair, c)
            assert 0.0 <= gain(pair.a, pair.b, borrowed, returned) <= 1.0
        for eps in (1e-2, 1e-4):
            fam = epsilon_family(eps)
            assert 0.0 <= gain(fam.a, fam.b, fam.c, fam.d) <= 1.0
        for _ in range(10):
            pair = random_nontrivial_pair(rng, min_width=1e-3)
            interval = rank2_catalyst_interval(pair)
            x = interval.x_min + 0.8 * (interval.x_max - interval.x_min)
            c = SchmidtVector((x, 1 - x))
            result = gmax_given_c(pair, c)
            if result.gain > 0:
                assert 0.0 <= gain(pair.a, pair.b, c, result.returned_state) <= 1.0


# EpsilonFamilyReport.to_json_value() at eps = 1/100, as dataclasses.asdict built it
EPSILON_REPORT_JSON = {
    "float": {"eps": 0.01, "base_blocked": True, "f2_strictly_greater": True,
              "joint_feasible": True, "returned_reaches_borrowed": True, "states_differ": True,
              "gain": 0.9684152243906305, "x_min": 0.5049999999999999,
              "x_max": 0.9897979797979798, "predicted_x_min": 0.505,
              "predicted_x_max": 0.9897979797979798, "ok": True},
    "exact": {"eps": 0.01, "base_blocked": True, "f2_strictly_greater": True,
              "joint_feasible": True, "returned_reaches_borrowed": True, "states_differ": True,
              "gain": 0.9684152243906305, "x_min": 0.505, "x_max": 0.9897979797979798,
              "predicted_x_min": 0.505, "predicted_x_max": 0.9897979797979798, "ok": True},
}


@pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
class TestRecordsAreNamedTuples:
    """Every result record is an immutable named tuple."""

    @staticmethod
    def records(policy):
        pair = example_pair("1", policy)
        c = probe_two_level("0.61", policy)
        sweep = tilde_gmax_sweep(pair, n_points=3)
        fam = epsilon_family(Fraction(1, 100), policy)
        return [rank2_catalyst_interval(pair), gmax_given_c(pair, c), sweep.points[1], sweep,
                check_supercatalytic(fam.a, fam.b, fam.c, fam.d, policy), fam,
                verify_epsilon_family(fam, policy)]

    def test_fields_are_read_only_and_replace_keeps_the_type(self, policy):
        records = self.records(policy)
        assert [type(r).__name__ for r in records] == [
            "CatalystInterval", "GainResult", "SweepPoint",
            "SweepResult", "SupercatalysisVerdict", "EpsilonFamily", "EpsilonFamilyReport"]
        for record in records:
            first = record._fields[0]
            with pytest.raises(AttributeError):
                setattr(record, first, record[0])
            assert not hasattr(record, "__dict__")
            same = record._replace(**{first: record[0]})
            assert type(same) is type(record) and same == record
            assert record == tuple(record) and tuple(record._asdict()) == record._fields

    def test_epsilon_report_json_unchanged(self, policy):
        report = verify_epsilon_family(epsilon_family(Fraction(1, 100), policy), policy)
        value = report.to_json_value()
        assert value == EPSILON_REPORT_JSON[policy.mode]
        assert list(value) == list(EPSILON_REPORT_JSON[policy.mode])
        assert all(type(value[k]) is type(v) for k, v in EPSILON_REPORT_JSON[policy.mode].items())
