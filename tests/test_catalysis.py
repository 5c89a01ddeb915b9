"""Catalyst membership, the closed-form interval, extreme catalysts, E_r."""

import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import supercat
from supercat import (CatalyticPair, EXACT_POLICY, FLOAT_POLICY, SchmidtVector, binary_entropy,
                      bound_gmax, entropy, gmax_given_c, is_catalyst, kron,
                      least_entangled_rank2_catalyst, majorizes, make_schmidt,
                      max_catalyst_entropy, most_entangled_rank2_catalyst,
                      necessary_conditions_4d, nielsen_convertible, rank2_catalyst_interval,
                      returned_rank_bound, tilde_gmax_sweep)
from supercat.catalysis import (RANDOM_SAMPLES, REFINE_TOL, SEARCH_SEED, SIMPLEX_STEPS,
                                _candidate_table, _ordered_simplex_grid, probe_two_level)
from supercat.errors import EmptyCatalystSet, NotNormalized, PreconditionViolated
from supercat.examples import EXAMPLE_PAIRS, example_pair
from supercat.oracle import SCAN_RESOLUTION
from supercat.schmidt import _coerce

from conftest import (random_blocked_pair_with_empty_interval, random_nontrivial_pair,
                      random_rational_sorted_simplex, random_sorted_simplex)


def vec(*xs):
    return make_schmidt(xs)


@pytest.fixture(scope="module")
def pairs():
    return {name: example_pair(name) for name in "1234"}


@pytest.fixture(scope="module")
def exact_pairs():
    return {name: example_pair(name, EXACT_POLICY) for name in "1234"}


class TestIsCatalyst:
    def test_known_catalyst(self, pairs):
        assert is_catalyst(pairs["1"], vec(0.6, 0.4))

    def test_maximally_entangled_never(self, pairs):
        assert not is_catalyst(pairs["1"], vec(0.5, 0.5))

    def test_separable_catalyst_equals_bare_convertibility(self, pairs):
        pair = pairs["1"]
        assert is_catalyst(pair, vec(1.0)) == nielsen_convertible(pair.a, pair.b)
        convertible = CatalyticPair(vec(0.25, 0.25, 0.25, 0.25), vec(0.5, 0.25, 0.25, 0))
        assert is_catalyst(convertible, vec(1.0))

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_empty_vector_not_normalized(self, policy):
        # a float pair kept an empty vector as given: is_catalyst called it a
        # catalyst and gmax_given_c raised IndexError
        pair = example_pair("1", policy)
        for question in (is_catalyst, gmax_given_c):
            with pytest.raises(NotNormalized, match="empty"):
                question(pair, SchmidtVector(()))


class TestProbeTwoLevel:
    def test_exact_probe_reads_float_as_shortest_decimal(self):
        assert probe_two_level(0.6, EXACT_POLICY) == make_schmidt((0.6, 0.4), EXACT_POLICY)
        assert probe_two_level(0.6, EXACT_POLICY) == (Fraction(3, 5), Fraction(2, 5))

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_not_normalized(self, x, policy):
        with pytest.raises(NotNormalized, match="non-finite"):
            probe_two_level(x, policy)

    def test_float_probe_keeps_the_float(self):
        x = 0.6180339887498949
        assert probe_two_level(x, FLOAT_POLICY) == (x, 1 - x)
        assert probe_two_level("1/2", FLOAT_POLICY) == (0.5, 0.5)


class TestNecessaryConditions:
    def test_blocked_catalytic_pair(self, pairs):
        assert necessary_conditions_4d(pairs["1"])

    def test_perturbed_pair(self, pairs):
        assert necessary_conditions_4d(pairs["4"])

    def test_convertible_pair_rejected(self):
        # the rank-3 state reaches the 1-ebit state outright, no catalyst needed
        pair = CatalyticPair(vec(0.5, 0.25, 0.25, 0), vec(0.5, 0.5, 0, 0))
        with pytest.raises(PreconditionViolated):
            necessary_conditions_4d(pair)

    def test_blocked_but_catalysis_free_pair_still_passes(self):
        # necessary conditions may hold even when no catalyst exists
        pair = CatalyticPair(vec(0.5, 0.5, 0, 0), vec(0.5, 0.25, 0.25, 0))
        assert pair.nontrivial
        assert necessary_conditions_4d(pair)


class TestRank2Interval:
    def test_first_pair_float(self, pairs):
        interval = rank2_catalyst_interval(pairs["1"])
        assert interval.nonempty
        assert interval.x_min == pytest.approx(0.6, abs=1e-12)
        assert interval.x_max == pytest.approx(0.625, abs=1e-12)

    def test_first_pair_exact(self, exact_pairs):
        interval = rank2_catalyst_interval(exact_pairs["1"])
        assert (interval.x_min, interval.x_max) == (Fraction(3, 5), Fraction(5, 8))

    def test_fourth_pair_exact(self, exact_pairs):
        interval = rank2_catalyst_interval(exact_pairs["4"])
        assert (interval.x_min, interval.x_max) == (Fraction(3, 5), Fraction(2, 3))

    def test_all_exact_intervals(self, exact_pairs):
        expected = {
            "1": (Fraction(3, 5), Fraction(5, 8)),
            "2": (Fraction(13, 25), Fraction(25, 38)),
            "3": (Fraction(29, 50), Fraction(50, 79)),
            "4": (Fraction(3, 5), Fraction(2, 3)),
        }
        for name, (lo, hi) in expected.items():
            interval = rank2_catalyst_interval(exact_pairs[name])
            assert (interval.x_min, interval.x_max) == (lo, hi), name

    def test_float_vectors_coerced_under_exact_policy(self):
        pair = CatalyticPair(vec(0.4, 0.4, 0.1, 0.1), vec(0.5, 0.25, 0.25, 0), EXACT_POLICY)
        interval = rank2_catalyst_interval(pair)
        assert (interval.x_min, interval.x_max) == (Fraction(3, 5), Fraction(5, 8))

    def test_float_built_pairs_match_exact_pairs(self, exact_pairs):
        for name, (raw_a, raw_b) in EXAMPLE_PAIRS.items():
            pair = CatalyticPair(make_schmidt(raw_a), make_schmidt(raw_b), EXACT_POLICY)
            want = exact_pairs[name]
            assert rank2_catalyst_interval(pair) == rank2_catalyst_interval(want), name
            assert tilde_gmax_sweep(pair, n_points=11) == tilde_gmax_sweep(want, n_points=11), \
                name

    def test_family_pair_symbolic(self):
        # the near-maximal-gain family has x_min = (1+e)/2, x_max = (1-2e-e^2)/(1-e)
        for eps in (Fraction(1, 100), Fraction(1, 1000)):
            a = make_schmidt((Fraction(1, 2), Fraction(1, 2) - eps, eps / 2, eps / 2),
                             EXACT_POLICY)
            b = make_schmidt((1 - 2 * eps - eps * eps, eps + eps * eps / 2,
                              eps - eps * eps / 2, eps * eps), EXACT_POLICY)
            interval = rank2_catalyst_interval(CatalyticPair(a, b, EXACT_POLICY))
            assert interval.x_min == (1 + eps) / 2
            assert interval.x_max == (1 - 2 * eps - eps * eps) / (1 - eps)

    def test_convertible_pair_rejected(self):
        pair = CatalyticPair(vec(0.25, 0.25, 0.25, 0.25), vec(0.5, 0.25, 0.25, 0))
        with pytest.raises(PreconditionViolated):
            rank2_catalyst_interval(pair)

    def test_empty_interval_rank2_input(self):
        # blocked, passes the necessary conditions, but no two-level catalyst
        pair = CatalyticPair(vec(0.6, 0.4, 0, 0), vec(0.7, 0.25, 0.05, 0))
        assert pair.nontrivial and necessary_conditions_4d(pair)
        interval = rank2_catalyst_interval(pair)
        assert not interval.nonempty
        for i in range(501):  # grid cross-check that the set really is empty
            x = 0.5 + i * 1e-3
            assert not is_catalyst(pair, probe_two_level(min(x, 1.0), pair.policy))

    def test_membership_matches_interval_on_grid(self, pairs):
        for name, pair in pairs.items():
            interval = rank2_catalyst_interval(pair)
            for i in range(0, 501, 2):
                x = min(0.5 + i * 1e-3, 1.0)
                inside = interval.x_min - 1e-3 <= x <= interval.x_max + 1e-3
                member = is_catalyst(pair, probe_two_level(x, pair.policy))
                if member:
                    assert inside, (name, x)
                elif interval.x_min + 1e-3 <= x <= interval.x_max - 1e-3:
                    pytest.fail(f"non-member strictly inside interval: {name} {x}")

    def test_endpoints_are_members_exactly(self, exact_pairs):
        for pair in exact_pairs.values():
            interval = rank2_catalyst_interval(pair)
            for x in (interval.x_min, interval.x_max):
                assert is_catalyst(pair, SchmidtVector((x, 1 - x)))


class TestExtremeCatalysts:
    def test_least_entangled(self, pairs, exact_pairs):
        assert least_entangled_rank2_catalyst(pairs["1"]) == \
            pytest.approx((0.625, 0.375), abs=1e-12)
        assert least_entangled_rank2_catalyst(exact_pairs["4"]) == \
            (Fraction(2, 3), Fraction(1, 3))

    def test_most_entangled(self, pairs, exact_pairs):
        assert most_entangled_rank2_catalyst(pairs["1"]) == \
            pytest.approx((0.6, 0.4), abs=1e-12)
        assert most_entangled_rank2_catalyst(exact_pairs["4"]) == \
            (Fraction(3, 5), Fraction(2, 5))

    def test_empty_set_raises(self):
        pair = CatalyticPair(vec(0.6, 0.4, 0, 0), vec(0.7, 0.25, 0.05, 0))
        with pytest.raises(EmptyCatalystSet):
            least_entangled_rank2_catalyst(pair)
        with pytest.raises(EmptyCatalystSet):
            most_entangled_rank2_catalyst(pair)

    def test_entropy_ordering_on_interval(self, pairs):
        pair = pairs["2"]
        interval = rank2_catalyst_interval(pair)
        e_most = entropy(most_entangled_rank2_catalyst(pair))
        e_least = entropy(least_entangled_rank2_catalyst(pair))
        for t in (0.1, 0.5, 0.9):
            x = interval.x_min + t * (interval.x_max - interval.x_min)
            e_mid = binary_entropy(x)
            assert e_least - 1e-12 <= e_mid <= e_most + 1e-12


def reference_joint(pair, c, d=None):
    """The joint test as kron and majorizes in the pair's arithmetic: does
    b (x) d majorize a (x) c, with d = c for membership?  Reference for the
    pair's prefix-sum test, on integers in exact mode and floats otherwise."""
    return majorizes(kron(pair.b, c if d is None else d), kron(pair.a, c), pair.policy)


def _toward(end: float) -> list:
    """The float midpoints a bisection visits when it closes in on end from
    one scan step either side: 17-digit decimals once read exactly."""
    lo, hi, mids = end - SCAN_RESOLUTION, end + SCAN_RESOLUTION, []
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        if mid < end:
            lo = mid
        else:
            hi = mid
    return mids


class TestScaledMembership:
    """Exact membership and joint checks run on the pair's integers; every
    verdict must equal majorization of the Fraction products."""

    def test_membership_matches_fraction_reference(self):
        rng = random.Random(6011)
        verdicts = Counter()
        for _ in range(100):
            pair = random_nontrivial_pair(rng, EXACT_POLICY)
            interval = rank2_catalyst_interval(pair)
            xs = [min(0.5 + i * SCAN_RESOLUTION, 1.0) for i in range(0, 501, 20)]
            xs += _toward(float(interval.x_min)) + _toward(float(interval.x_max))
            loans = [probe_two_level(x, EXACT_POLICY) for x in xs]
            ends = [probe_two_level(x, EXACT_POLICY) for x in (interval.x_min, interval.x_max)]
            loans += ends
            loans += [make_schmidt(random_rational_sorted_simplex(rng, 3), EXACT_POLICY),
                      make_schmidt(random_sorted_simplex(rng, 3), EXACT_POLICY)]
            for c in loans:
                got = is_catalyst(pair, c)
                assert got == reference_joint(pair, c), (pair, c)
                verdicts[got] += 1
            assert all(is_catalyst(pair, c) for c in ends)
        assert verdicts[True] > 1000 and verdicts[False] > 1000

    def test_joint_check_across_denominators(self):
        # a returned state d with other denominators than the loan c takes
        # the cross-multiplied branch of the comparison
        rng = random.Random(6012)
        verdicts = Counter()
        for _ in range(100):
            pair = random_nontrivial_pair(rng, EXACT_POLICY)
            interval = rank2_catalyst_interval(pair)
            c = probe_two_level(interval.x_max, EXACT_POLICY)
            target = pair.joint_target(c)
            c1 = float(c[0])
            returned = [probe_two_level(0.5 + (c1 - 0.5) * rng.random(), EXACT_POLICY)
                        for _ in range(6)]
            returned += [make_schmidt(random_sorted_simplex(rng, 3), EXACT_POLICY), c]
            for d in returned:
                got = pair.joint_feasible(target, d)
                assert got == reference_joint(pair, c, d), (pair, c, d)
                verdicts[got] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_joint_check_with_rank3_loan(self, exact_pairs):
        # returned states of rank 2 to 4, on simplex grids of several
        # denominators, against the rank-3 loan of the rank >= 3 searches
        pair = exact_pairs["1"]
        c = make_schmidt(("1/2", "3/10", "1/5"), EXACT_POLICY)
        target = pair.joint_target(c)
        verdicts = Counter()
        for r in (2, 3, 4):
            for steps in (7, 11, 23):
                for parts in _ordered_simplex_grid(r, steps):
                    d = SchmidtVector(Fraction(k, steps) for k in parts)
                    got = pair.joint_feasible(target, d)
                    assert got == reference_joint(pair, c, d), d
                    verdicts[got] += 1
        assert verdicts[True] > 10 and verdicts[False] > 100


class TestFloatMembership:
    """Float membership and joint checks run on the pair's cached prefix sums;
    every verdict must equal majorization of the float products bit for bit."""

    def test_membership_matches_kron_reference(self):
        rng = random.Random(6021)
        verdicts = Counter()
        for _ in range(100):
            pair = random_nontrivial_pair(rng)
            interval = rank2_catalyst_interval(pair)
            xs = [min(0.5 + i * SCAN_RESOLUTION, 1.0) for i in range(0, 501, 20)]
            xs += _toward(interval.x_min) + _toward(interval.x_max)
            xs += [interval.x_min, interval.x_max]
            loans = [probe_two_level(x, pair.policy) for x in xs]
            loans += [make_schmidt(random_sorted_simplex(rng, 3)) for _ in range(2)]
            for c in loans:
                got = is_catalyst(pair, c)
                assert got == reference_joint(pair, c), (pair, c)
                verdicts[got] += 1
        assert verdicts[True] > 1000 and verdicts[False] > 1000

    def test_joint_check_pads_either_side(self):
        # a rank-3 loan against returned states of rank 2 to 4, so the
        # b (x) d side is shorter than, as long as, or longer than the
        # target; each vector also appears scaled just off the simplex, where
        # repeating the shorter side's last prefix sum differs from padding
        # it with 0 or 1
        rng = random.Random(6022)
        verdicts = Counter()

        def off_simplex(v):
            return SchmidtVector(x * (1 - 1e-9) for x in v)

        for _ in range(100):
            pair = random_nontrivial_pair(rng)
            c = make_schmidt(random_sorted_simplex(rng, 3))
            for loan in (c, off_simplex(c)):
                target = pair.joint_target(loan)
                for r in (2, 3, 4):
                    for parts in _ordered_simplex_grid(r, 7):
                        d = SchmidtVector(k / 7 for k in parts)
                        for v in (d, off_simplex(d)):
                            got = pair.joint_feasible(target, v)
                            assert got == reference_joint(pair, loan, v), (pair, loan, v)
                            verdicts[len(v), got] += 1
        assert all(verdicts[r, True] > 10 and verdicts[r, False] > 10 for r in (2, 3, 4))


class TestJointKernelProperties:
    """CatalyticPair.joint_target/joint_feasible and is_catalyst against kron
    and majorizes in both arithmetics: loans of rank 2 and 3 against
    returned states of rank 1 to 4, so the two sides differ in length,
    returned states and pair vectors hand-built unsorted, so the float k = 1
    test cannot rely on their order, and float returned states whose largest
    product sits within an ulp of that test's threshold."""

    @staticmethod
    def _simplex(rng, r, policy):
        if r == 1:
            return make_schmidt((1,), policy)
        if policy.exact:
            denom = rng.choice((7, 60, 1000))
            return make_schmidt(random_rational_sorted_simplex(rng, r, denom), policy)
        return make_schmidt(random_sorted_simplex(rng, r), policy)

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_kernel_matches_kron_reference(self, policy):
        rng = random.Random(6031)
        verdicts = Counter()
        for _ in range(200):
            pair = random_nontrivial_pair(rng, policy)
            twin = CatalyticPair(SchmidtVector(reversed(pair.a)),
                                 SchmidtVector(reversed(pair.b)), policy)
            interval = rank2_catalyst_interval(pair)
            inside = interval.x_min + (interval.x_max - interval.x_min) * Fraction(
                rng.randrange(11), 10)
            loans = [probe_two_level(inside, policy),
                     probe_two_level(0.5 + rng.random() / 2, policy),
                     self._simplex(rng, 3, policy)]
            for c in loans:
                assert is_catalyst(pair, c) == reference_joint(pair, c), (pair, c)
                assert is_catalyst(twin, c) == is_catalyst(pair, c), (pair, c)
                target, twin_target = pair.joint_target(c), twin.joint_target(c)
                returned = [c, probe_two_level(0.5 + (float(c[0]) - 0.5) * rng.random(), policy)]
                returned += [self._simplex(rng, r, policy) for r in (1, 2, 3, 4)]
                returned += [SchmidtVector(reversed(d)) for d in returned[1:]]
                for d in returned:
                    got = pair.joint_feasible(target, d)
                    assert got == reference_joint(pair, c, d), (pair, c, d)
                    assert twin.joint_feasible(twin_target, d) == got, (pair, c, d)
                    first = policy.leq(kron(pair.a, c)[0], kron(pair.b, d)[0])
                    verdicts[len(c), got, first] += 1
        for r in (2, 3):
            assert verdicts[r, True, True] > 50, verdicts
            assert verdicts[r, False, False] > 50, verdicts
            assert verdicts[r, False, True] > 50, verdicts

    def test_largest_product_within_an_ulp_of_the_threshold(self):
        # d is one smaller entry, then len(a) len(c) copies of d1, so max(d)
        # is not d[0] and every later prefix sum has room: the k = 1 test,
        # a1 c1 <= b1 d1 + tol_eq, decides alone as b1 d1 is stepped across
        # a1 c1 - tol_eq one ulp at a time
        rng = random.Random(6032)
        tol = FLOAT_POLICY.tol_eq
        verdicts = Counter()
        for _ in range(100):
            pair = random_nontrivial_pair(rng)
            c = probe_two_level(0.5 + rng.random() / 2, FLOAT_POLICY)
            target = pair.joint_target(c)
            t1, b1 = pair.a[0] * c[0], pair.b[0]
            d1 = (t1 - tol) / b1
            for _ in range(4):
                d1 = math.nextafter(d1, 0.0)
            for _ in range(9):
                d1 = math.nextafter(d1, 1.0)
                d = SchmidtVector((d1 / 2,) + (d1,) * len(target))
                got = pair.joint_feasible(target, d)
                assert got == reference_joint(pair, c, d), (pair, c, d)
                verdicts[got, b1 * d1 + tol == t1] += 1
        assert verdicts[True, False] > 100 and verdicts[False, False] > 100, verdicts
        assert verdicts[True, True] > 10, verdicts

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_longer_target_tail_decides(self, policy):
        # a rank-3 loan against a returned state of rank 1 or 2 scaled to a
        # total s < 1: the target is longer than b (x) d, its first
        # len(b (x) d) prefix sums may all hold, and its tail, which climbs
        # to 1, must still be compared with the last prefix sum, s
        rng = random.Random(6033)
        verdicts = Counter()
        for _ in range(150):
            pair = random_nontrivial_pair(rng, policy)
            c = self._simplex(rng, 3, policy)
            target = pair.joint_target(c)
            for r in (1, 2):
                s = _coerce(rng.choice((0.9, 0.97, 0.99)), policy)
                d = SchmidtVector(x * s for x in self._simplex(rng, r, policy))
                got = pair.joint_feasible(target, d)
                assert got == reference_joint(pair, c, d), (pair, c, d)
                head = majorizes(kron(pair.b, d), SchmidtVector(kron(pair.a, c)[:len(pair.b) * r]),
                                 policy)
                verdicts[got, head] += 1
        assert verdicts[False, True] > 20, verdicts  # decided by the tail alone
        assert verdicts[False, False] > 20, verdicts


class TestMaxCatalystEntropy:
    def test_rank2_closed_form(self, pairs):
        for name in ("1", "4"):
            search = max_catalyst_entropy(pairs[name], 2)
            assert search.exact
            assert search.value == pytest.approx(binary_entropy(0.6), abs=1e-12)
            assert search.certificate == pytest.approx((0.6, 0.4), abs=1e-12)

    def test_rank2_scan_beyond_rank4(self):
        # bundled pair 1 with its last level split: rank 5 -> 3, so no
        # closed form applies and the two-level range is scanned
        pair = CatalyticPair(vec(0.4, 0.4, 0.1, 0.05, 0.05), vec(0.5, 0.25, 0.25, 0, 0))
        search = max_catalyst_entropy(pair, 2)
        assert search.exact
        x = search.certificate[0]
        assert x == pytest.approx(0.6, abs=1e-9)
        assert is_catalyst(pair, search.certificate)
        assert not is_catalyst(pair, probe_two_level(x - 2e-9, pair.policy))
        assert search.value == pytest.approx(binary_entropy(0.6), abs=1e-9)

    def test_convertible_pair_rejected(self):
        pair = CatalyticPair(vec(0.25, 0.25, 0.25, 0.25), vec(0.5, 0.25, 0.25, 0))
        with pytest.raises(PreconditionViolated):
            max_catalyst_entropy(pair, 2)

    def test_separable_rank_empty(self, pairs):
        with pytest.raises(EmptyCatalystSet):
            max_catalyst_entropy(pairs["1"], 1)

    def test_rank3_search_dominates_rank2(self, pairs):
        search = max_catalyst_entropy(pairs["1"], 3)
        assert not search.exact
        assert search.value >= binary_entropy(0.6) - 1e-12
        assert is_catalyst(pairs["1"], search.certificate)

    def test_exact_rank4_search_on_first_pair(self, exact_pairs):
        search = max_catalyst_entropy(exact_pairs["1"], 4)
        assert not search.exact
        assert search.value == 1.9709505944546686
        assert search.certificate == (Fraction(3, 10), Fraction(3, 10), Fraction(1, 5),
                                      Fraction(1, 5))

    def test_deterministic_given_seed(self, pairs):
        s1 = max_catalyst_entropy(pairs["2"], 3)
        s2 = max_catalyst_entropy(pairs["2"], 3)
        assert s1.value == s2.value
        assert s1.certificate == s2.certificate


def reference_search_candidates(r: int, exact: bool) -> list:
    """(entropy, vector) of each candidate of the rank-r E_r search, in the
    list order the full scan visits: the ordered simplex grid, then the
    seeded random samples read by the exact-mode rule."""
    steps = SIMPLEX_STEPS
    if exact:
        vectors = [SchmidtVector(Fraction(k, steps) for k in parts)
                   for parts in _ordered_simplex_grid(r, steps)]
    else:
        vectors = [SchmidtVector(k / steps for k in parts)
                   for parts in _ordered_simplex_grid(r, steps)]
    rng = random.Random(SEARCH_SEED)
    for _ in range(RANDOM_SAMPLES):
        raw = sorted((rng.random() for _ in range(r)), reverse=True)
        if exact:
            raw = [Fraction(str(x)) for x in raw]
        total = sum(raw)
        vectors.append(SchmidtVector(x / total for x in raw))
    return [(entropy(v), v) for v in vectors]


def reference_max_catalyst_entropy(pair, candidates) -> tuple:
    """(value, certificate) of the rank >= 3 search as a full linear scan:
    the lowest two-level catalyst, the low end of the pair's exact two-level
    set, seeds it at every rank, and a candidate replaces the best when it
    is strictly more entropic and a catalyst.  None for no catalyst."""
    best_val, best_cert = -1.0, None
    if pair._two_level:
        x_min = pair._two_level[0][0]
        best_val, best_cert = binary_entropy(x_min), probe_two_level(x_min, pair.policy)
    for ent, v in candidates:
        if ent > best_val and is_catalyst(pair, v):
            best_val, best_cert = ent, v
    return None if best_cert is None else (best_val, best_cert)


def random_blocked_rank5_pair(rng):
    """A blocked pair of ranks 5 and 4, where no rank-2 seed applies."""
    while True:
        pair = CatalyticPair(make_schmidt(random_sorted_simplex(rng, 5)),
                             make_schmidt(random_sorted_simplex(rng, 4)))
        if pair.nontrivial:
            return pair


#: a float pair with a narrow two-level interval (width 2.6e-3), where the
#: rank-2 catalyst at x_min beats every candidate of the rank-3 table, though
#: some of them are catalysts too
SEED_WINS_AT_RANK_3 = CatalyticPair(
    SchmidtVector((0.4845759237219045, 0.4006514095594077, 0.07002214467475609,
                   0.044750522043931706)),
    SchmidtVector((0.6500268205660034, 0.1937579033957474, 0.12768976782103214,
                   0.02852550821721711)))


#: a rank-5 pair whose two-level set is [53/93, 4/7]: at rank 3 the seed
#: x_min = 53/93 is the answer, and no candidate of the table is a catalyst
SEED_WINS_ABOVE_RANK_4 = ("33/100,59/200,7/40,7/40,1/40", "9/25,49/200,11/50,3/20,1/40")


class TestCandidateTables:
    """max_catalyst_entropy scans a pair-independent candidate table in
    decreasing entropy and stops at the first catalyst; each result must
    equal the full linear scan's exactly."""

    @pytest.mark.parametrize("r", [3, 4])
    def test_search_matches_linear_scan(self, r, exact_pairs):
        rng = random.Random(6030 + r)
        cases = [random_nontrivial_pair(rng) for _ in range(100)]
        cases += [random_blocked_rank5_pair(rng) for _ in range(10)]
        cases += [*exact_pairs.values(), SEED_WINS_AT_RANK_3]
        cases += [text_pair(texts, EXACT_POLICY) for texts in (SINGLE_POINT, TWO_PIECES)]
        cases += [text_pair(SEED_WINS_ABOVE_RANK_4, policy) for policy in (FLOAT_POLICY,
                                                                           EXACT_POLICY)]
        candidates = {exact: reference_search_candidates(r, exact) for exact in (False, True)}
        outcomes = Counter()
        for pair in cases:
            want = reference_max_catalyst_entropy(pair, candidates[pair.policy.exact])
            if want is None:
                with pytest.raises(EmptyCatalystSet):
                    max_catalyst_entropy(pair, r)
                outcomes["empty"] += 1
                continue
            search = max_catalyst_entropy(pair, r)
            assert (search.value, search.certificate) == want, pair
            assert search.certificate.exact == pair.policy.exact
            outcomes[len(search.certificate)] += 1
        # most results come from the table; most rank-5 pairs have no catalyst
        # of rank r, so their scans run to the end of the table
        assert outcomes[r] > 50 and outcomes["empty"] > 0
        assert outcomes[2] == 3 * (r == 3)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("r", [3, 4])
    def test_table_sorted_by_entropy_in_list_order(self, r, exact):
        # at rank 4 a few distinct candidates share an entropy, so the
        # order of ties is checked too
        ents, coefs = _candidate_table(r, SIMPLEX_STEPS, RANDOM_SAMPLES, exact)
        want = sorted(reference_search_candidates(r, exact), key=lambda t: t[0], reverse=True)
        assert list(ents) == [ent for ent, _ in want]
        assert list(coefs) == [x for _, v in want for x in v]

    def test_second_pair_builds_no_table(self, pairs):
        # a rank-3 loan of a bundled pair has returned-rank cap 4, so the gain
        # scans the cap-4 grid and its bound the rank-4 E_r table
        c = vec(0.5, 0.3, 0.2)
        for search in (lambda pair: max_catalyst_entropy(pair, 3),
                       lambda pair: (gmax_given_c(pair, c), bound_gmax(pair, c))):
            search(pairs["1"])
            misses = _candidate_table.cache_info().misses
            search(pairs["2"])
            assert _candidate_table.cache_info().misses == misses

    def test_import_builds_no_table(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import supercat, supercat.cli; "
                "from supercat.catalysis import _candidate_table; "
                "print(_candidate_table.cache_info().currsize)")
        src = Path(supercat.__file__).resolve().parent.parent
        out = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.split() == ["0"]


class TestReturnedRankBound:
    def test_floor_division(self, pairs):
        assert returned_rank_bound(pairs["1"], vec(0.6, 0.4)) == 2  # floor(4*2/3)

    def test_exact_division(self):
        pair = CatalyticPair(vec(0.4, 0.3, 0.2, 0.1), vec(0.45, 0.3, 0.15, 0.1))
        assert returned_rank_bound(pair, vec(0.6, 0.4)) == 2  # floor(4*2/4)

    def test_rank5_input(self):
        pair = CatalyticPair(vec(0.3, 0.25, 0.2, 0.15, 0.1), vec(0.4, 0.3, 0.2, 0.1, 0))
        assert returned_rank_bound(pair, vec(0.6, 0.4)) == 2  # floor(5*2/4)


class TestCatalystSetStructure:
    def test_maximally_entangled_never_catalyzes(self, rng):
        for _ in range(20):
            pair = random_nontrivial_pair(rng)
            for r in (2, 3, 4):
                uniform = make_schmidt([1.0 / r] * r)
                assert not is_catalyst(pair, uniform)

    def test_closed_under_extra_factors(self, rng):
        for _ in range(20):
            pair = random_nontrivial_pair(rng)
            c = most_entangled_rank2_catalyst(pair)
            psi = make_schmidt(random_sorted_simplex(rng, rng.randrange(2, 4)))
            assert is_catalyst(pair, kron(c, psi))

    def test_random_interval_endpoints_exact_membership(self, rng):
        for _ in range(10):
            pair = random_nontrivial_pair(rng, EXACT_POLICY)
            interval = rank2_catalyst_interval(pair)
            for x in (interval.x_min, interval.x_max):
                assert is_catalyst(pair, SchmidtVector((x, 1 - x)))


def reference_random_nontrivial_pair(rng, policy, min_width):
    """The exact-mode pair generator without its prefilter on raw prefix
    sums: every candidate is built as a pair and then rejected."""
    while True:
        raw_a = random_rational_sorted_simplex(rng, 4)
        raw_b = random_rational_sorted_simplex(rng, 4)
        pair = CatalyticPair(make_schmidt(raw_a, policy), make_schmidt(raw_b, policy), policy)
        if not pair.nontrivial:
            continue
        try:
            if not necessary_conditions_4d(pair):
                continue
        except PreconditionViolated:
            continue
        interval = rank2_catalyst_interval(pair)
        if not interval.nonempty or interval.width < min_width:
            continue
        return pair


@pytest.mark.parametrize("min_width", [0.0, 5e-3])
def test_exact_pair_prefilter_keeps_the_same_pairs(min_width):
    rng, ref_rng = random.Random(31), random.Random(31)
    for _ in range(30):
        got = random_nontrivial_pair(rng, EXACT_POLICY, min_width)
        want = reference_random_nontrivial_pair(ref_rng, EXACT_POLICY, min_width)
        assert (got.a, got.b) == (want.a, want.b)


#: pairs of rank 5 whose two-level sets the grid scan got wrong: a single
#: point between grid steps, and two pieces whose gap the scan bridged
SINGLE_POINT = ("107/200,9/50,13/100,21/200,1/20", "111/200,29/200,27/200,27/200,3/100")
TWO_PIECES = ("43/100,27/100,37/200,7/100,9/200", "51/100,43/200,29/200,23/200,3/200")
#: a rank-6 pair whose two pieces [36/61, 3/5] and [38/63, 19/28] are 1/315 apart
NARROW_GAP = ("33/100,6/25,39/200,23/200,3/50,3/50", "19/50,41/200,17/100,27/200,3/40,7/200")


def text_pair(texts, policy):
    a, b = (make_schmidt(t.split(","), policy) for t in texts)
    return CatalyticPair(a, b, policy)


def random_high_rank_pair(rng, policy):
    """A blocked pair of dimension 5 to 8 with a nonempty two-level set.

    The candidates pass a1 <= b1 and a_n >= b_n, without which no catalyst
    exists, and are screened by the float set before the exact one is built.
    """
    n = rng.randrange(5, 9)
    while True:
        a, b = (random_rational_sorted_simplex(rng, n, 200) for _ in "ab")
        if a[0] > b[0] or a[-1] < b[-1]:
            continue
        screen = CatalyticPair(make_schmidt(a), make_schmidt(b))
        if screen.nontrivial and screen._two_level:
            pair = CatalyticPair(make_schmidt(a, policy), make_schmidt(b, policy), policy)
            if pair._two_level:
                return pair


def assert_pieces_and_gaps(pair):
    """Ends and midpoint of every piece are catalysts; the midpoint of every
    gap, including those next to 1/2 and 1, is not."""
    pieces, policy = pair._two_level, pair.policy
    half, one = (Fraction(1, 2), 1) if policy.exact else (0.5, 1.0)
    for lo, hi in pieces:
        assert lo <= hi
        for x in (lo, (lo + hi) / 2, hi):
            assert is_catalyst(pair, probe_two_level(x, policy)), (pair, x)
    ends = [half, *(x for piece in pieces for x in piece), one]
    for gap_lo, gap_hi in zip(ends[::2], ends[1::2]):
        if gap_lo < gap_hi:
            assert not is_catalyst(pair, probe_two_level((gap_lo + gap_hi) / 2, policy))


class TestTwoLevelSet:
    """The pair's exact set of two-level catalysts, at every rank."""

    def test_equals_closed_form_at_rank4_exact(self):
        rng = random.Random(6101)
        cases = [random_nontrivial_pair(rng, EXACT_POLICY) for _ in range(60)]
        cases += [random_blocked_pair_with_empty_interval(rng, EXACT_POLICY) for _ in range(40)]
        while len(cases) < 120:  # blocked pairs failing a necessary condition
            a, b = (make_schmidt(random_rational_sorted_simplex(rng, 4), EXACT_POLICY)
                    for _ in "ab")
            pair = CatalyticPair(a, b, EXACT_POLICY)
            if pair.nontrivial and not necessary_conditions_4d(pair):
                cases.append(pair)
        for pair in cases:
            interval = rank2_catalyst_interval(pair)
            want = ((interval.x_min, interval.x_max),) if interval.nonempty else ()
            assert pair._two_level == want, pair

    def test_one_piece_near_closed_form_at_rank4_float(self):
        rng = random.Random(6102)
        cases = [random_nontrivial_pair(rng) for _ in range(100)]
        cases += [random_nontrivial_pair(rng, min_width=0.02) for _ in range(20)]
        for pair in cases:
            interval = rank2_catalyst_interval(pair)
            (lo, hi), = pair._two_level
            assert abs(lo - interval.x_min) <= 1e-9 and abs(hi - interval.x_max) <= 1e-9
            for x in (lo, (lo + hi) / 2, hi):
                assert is_catalyst(pair, probe_two_level(x, pair.policy)), (pair, x)

    def test_empty_where_closed_form_is_empty_float(self):
        rng = random.Random(6103)
        for _ in range(30):
            assert random_blocked_pair_with_empty_interval(rng)._two_level == ()

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_pieces_and_gaps_at_ranks_5_to_8(self, policy):
        rng = random.Random(6104)
        ranks = Counter()
        for _ in range(100):
            pair = random_high_rank_pair(rng, policy)
            assert_pieces_and_gaps(pair)
            ranks[pair.rank_a] += 1
        assert set(ranks) == {5, 6, 7, 8}

    def test_exact_membership_is_piece_containment(self):
        # every rational x, not only ends and midpoints, is a catalyst
        # exactly when some piece holds it
        rng = random.Random(6105)
        verdicts = Counter()
        for _ in range(30):
            pair = random_high_rank_pair(rng, EXACT_POLICY)
            xs = [Fraction(rng.randrange(500, 1001), 1000) for _ in range(40)]
            xs += [x + d for piece in pair._two_level for x in piece
                   for d in (Fraction(-1, 10**9), 0, Fraction(1, 10**9))]
            for x in xs:
                got = is_catalyst(pair, probe_two_level(x, EXACT_POLICY))
                assert got == any(lo <= x <= hi for lo, hi in pair._two_level), (pair, x)
                verdicts[got] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_defect_pairs_exact(self):
        single = text_pair(SINGLE_POINT, EXACT_POLICY)
        assert single._two_level == ((Fraction(4, 7), Fraction(4, 7)),)
        two = text_pair(TWO_PIECES, EXACT_POLICY)
        assert two._two_level == ((Fraction(8, 13), Fraction(5, 8)),
                                  (Fraction(19, 29), Fraction(51, 67)))
        assert not is_catalyst(two, probe_two_level(Fraction(16, 25), EXACT_POLICY))
        narrow = text_pair(NARROW_GAP, EXACT_POLICY)
        assert narrow._two_level == ((Fraction(36, 61), Fraction(3, 5)),
                                     (Fraction(38, 63), Fraction(19, 28)))
        for pair in (single, two, narrow):
            assert_pieces_and_gaps(pair)

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_defect_pairs_rank2_entropy_exact(self, policy):
        for texts, x_min in ((SINGLE_POINT, Fraction(4, 7)), (TWO_PIECES, Fraction(8, 13))):
            search = max_catalyst_entropy(text_pair(texts, policy), 2)
            assert search.exact
            assert search.certificate[0] == pytest.approx(x_min, abs=1e-15)
            assert search.value == pytest.approx(binary_entropy(x_min), abs=1e-12)

    def test_float_sets_near_exact(self):
        for texts in (SINGLE_POINT, TWO_PIECES, NARROW_GAP):
            got = text_pair(texts, FLOAT_POLICY)._two_level
            want = text_pair(texts, EXACT_POLICY)._two_level
            assert len(got) == len(want)
            for (lo, hi), (w_lo, w_hi) in zip(got, want):
                assert (lo, hi) == (pytest.approx(w_lo, abs=1e-12), pytest.approx(w_hi, abs=1e-12))

    def test_catalysis_owns_no_grid_scan(self):
        import supercat.catalysis as catalysis
        for name in ("_scan", "_bisect", "_scan_two_level", "SCAN_RESOLUTION"):
            assert not hasattr(catalysis, name), name


def permuted(v):
    """v with its entries rotated by one: the same coefficients out of order."""
    return SchmidtVector(v[1:] + v[:1])


@pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
class TestOrderGuarantee:
    """Every vector is read as sorted, whatever order SchmidtVector(...) was given."""

    def test_unsorted_output_vector_interval(self, policy):
        # the closed form read b = (0.25, 0.5, 0.25, 0) as sorted and found
        # the interval empty
        a = make_schmidt(["0.4", "0.4", "0.1", "0.1"], policy)
        b = make_schmidt(["0.5", "0.25", "0.25", "0"], policy)
        b = SchmidtVector((b[1], b[0], b[2], b[3]))  # (0.25, 0.5, 0.25, 0)
        interval = rank2_catalyst_interval(CatalyticPair(a, b, policy))
        assert interval.nonempty
        assert (interval.x_min, interval.x_max) == (pytest.approx(0.6, abs=1e-15),
                                                    pytest.approx(0.625, abs=1e-15))
        if policy.exact:
            assert (interval.x_min, interval.x_max) == (Fraction(3, 5), Fraction(5, 8))

    def test_unsorted_loan_gain(self, policy):
        # the rank-2 solve read the loan's first entry as its largest and
        # reported no gain
        loan = SchmidtVector(probe_two_level("0.62", policy)[::-1])
        assert loan[0] < loan[1]
        result = gmax_given_c(example_pair("1", policy), loan)
        assert result.gain == pytest.approx(0.05816556139465218, abs=1e-15)
        if not policy.exact:
            assert result.gain == 0.05816556139465218

    def test_public_functions_ignore_order(self, policy):
        pair = example_pair("1", policy)
        a, b = pair.a, pair.b
        c2, d2 = (probe_two_level(x, policy) for x in ("0.625", "0.6"))
        c3 = make_schmidt(["0.5", "0.3", "0.2"], policy)
        for v in (a, b, c2, d2, c3):
            assert make_schmidt(v, policy) == v  # the sorted vectors are fixed points
        calls = {
            "make_schmidt": lambda a, b, c, d, e: make_schmidt(a, policy),
            "prefix_sums": lambda a, b, c, d, e: supercat.prefix_sums(a),
            "partial_sum": lambda a, b, c, d, e: [supercat.partial_sum(a, k) for k in (1, 2, 3)],
            "split_partial_sum": lambda a, b, c, d, e: supercat.split_partial_sum(a, c, 3, 1),
            "majorizes": lambda a, b, c, d, e: (majorizes(b, a, policy), majorizes(a, b, policy)),
            "nielsen_convertible": lambda a, b, c, d, e: nielsen_convertible(a, b, policy),
            "kron": lambda a, b, c, d, e: kron(a, c),
            "entropy": lambda a, b, c, d, e: entropy(a),
            "schmidt_rank": lambda a, b, c, d, e: supercat.schmidt_rank(b, policy),
            "CatalyticPair": lambda a, b, c, d, e: CatalyticPair(a, b, policy),
            "is_catalyst": lambda a, b, c, d, e: [is_catalyst(pair, v) for v in (c, d, e)],
            "necessary_conditions_4d": lambda a, b, c, d, e:
                necessary_conditions_4d(CatalyticPair(a, b, policy)),
            "rank2_catalyst_interval": lambda a, b, c, d, e:
                rank2_catalyst_interval(CatalyticPair(a, b, policy)),
            "extreme catalysts": lambda a, b, c, d, e:
                (least_entangled_rank2_catalyst(CatalyticPair(a, b, policy)),
                 most_entangled_rank2_catalyst(CatalyticPair(a, b, policy))),
            "max_catalyst_entropy": lambda a, b, c, d, e:
                [max_catalyst_entropy(CatalyticPair(a, b, policy), r) for r in (2, 3)],
            "returned_rank_bound": lambda a, b, c, d, e: returned_rank_bound(pair, e),
            "gain": lambda a, b, c, d, e: supercat.gain(a, b, c, d, policy),
            "check_supercatalytic": lambda a, b, c, d, e:
                supercat.check_supercatalytic(a, b, c, d, policy),
            "gmax_given_c": lambda a, b, c, d, e: (gmax_given_c(pair, c), gmax_given_c(pair, e)),
            "bound_gmax": lambda a, b, c, d, e: (bound_gmax(pair, c), bound_gmax(pair, e)),
            "tilde_gmax_sweep": lambda a, b, c, d, e:
                tilde_gmax_sweep(CatalyticPair(a, b, policy), n_points=3),
            "rank_reduce_returned": lambda a, b, c, d, e:
                supercat.rank_reduce_returned(e, d, policy),
            "trivial_swap_construction": lambda a, b, c, d, e:
                supercat.trivial_swap_construction(pair, c),
            "grid_catalyst_interval": lambda a, b, c, d, e:
                supercat.grid_catalyst_interval(CatalyticPair(a, b, policy)),
        }
        if not policy.exact:
            calls["grid_gmax_rank2"] = lambda a, b, c, d, e: supercat.grid_gmax_rank2(pair, c)
        args = (a, b, c2, d2, c3)
        for name, call in calls.items():
            want = call(*args)
            for i in range(len(args)):
                shuffled = args[:i] + (permuted(args[i]),) + args[i + 1:]
                assert call(*shuffled) == want, (name, i)
