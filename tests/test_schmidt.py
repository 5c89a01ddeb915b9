"""Vector construction, partial sums, majorization, composition, entropies."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercat import (EXACT_POLICY, FLOAT_POLICY, CatalyticPair, ComparisonPolicy, SchmidtVector,
                      binary_entropy, entropy, kron, majorizes, make_schmidt, nielsen_convertible,
                      partial_sum, prefix_sums, schmidt_rank, split_partial_sum)
from supercat.cli import _policy_json
from supercat.errors import (DomainError, IndexOutOfRange, NegativeEntry, NotNormalized,
                             PreconditionViolated)


def vec(*xs):
    return make_schmidt(xs)


@st.composite
def schmidt_vectors(draw, min_dim=1, max_dim=5):
    dim = draw(st.integers(min_dim, max_dim))
    raw = draw(st.lists(st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
                        min_size=dim, max_size=dim))
    total = sum(raw)
    return make_schmidt([x / total for x in raw])


def robin_hood(v: SchmidtVector, frac: float) -> SchmidtVector:
    """Move a fraction of the gap between the extreme entries inward.

    The classic mass-equalizing transfer: the result is majorized by v,
    strictly when the gap and fraction are positive.
    """
    entries = list(v)
    gap = entries[0] - entries[-1]
    t = frac * gap / 2
    entries[0] -= t
    entries[-1] += t
    return make_schmidt(entries)


class TestMakeSchmidt:
    def test_sorts_descending(self):
        assert vec(0.1, 0.4, 0.4, 0.1) == (0.4, 0.4, 0.1, 0.1)

    def test_separable(self):
        assert vec(1.0) == (1.0,)

    def test_trailing_zero_kept(self):
        v = vec(0.5, 0.25, 0.25, 0.0)
        assert v == (0.5, 0.25, 0.25, 0.0)
        assert len(v) == 4

    def test_vector_is_an_immutable_tuple(self):
        v = vec(0.6, 0.4)
        assert isinstance(v, tuple) and v == (0.6, 0.4)
        with pytest.raises(AttributeError):
            v.label = "c"
        assert not hasattr(v, "__dict__")

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            vec(1.1, -0.1)

    def test_tiny_negative_clamped(self):
        v = make_schmidt((1.0, -1e-12))
        assert v[-1] == 0.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            vec(0.5, 0.4)

    @pytest.mark.parametrize("build", [
        lambda: make_schmidt([math.nan, 1.0]),
        lambda: make_schmidt([1.0, -math.inf]),
        lambda: make_schmidt([math.nan], EXACT_POLICY),
        lambda: make_schmidt([math.inf, 0.0], EXACT_POLICY),
        lambda: CatalyticPair(SchmidtVector((math.nan, 1.0)), vec(1.0), EXACT_POLICY),
        lambda: make_schmidt(["nan"], EXACT_POLICY),
        lambda: make_schmidt(["inf", "0"], EXACT_POLICY),
        lambda: make_schmidt(["abc", "1"]),
        lambda: make_schmidt(["abc", "1"], EXACT_POLICY),
        lambda: make_schmidt(["nan", "1"]),
        lambda: make_schmidt(["1", "-inf"]),
        lambda: make_schmidt(["1e400", "0"]),
    ], ids=["float-nan", "float-minus-inf", "exact-nan", "exact-inf", "pair-coercion",
            "exact-nan-string", "exact-inf-string", "float-garbage-string",
            "exact-garbage-string", "float-nan-string", "float-inf-string",
            "float-overflow-string"])
    def test_non_finite_rejected(self, build):
        with pytest.raises(NotNormalized):
            build()

    def test_float_mode_reads_rational_strings(self):
        # float mode read strings with float(), so "1/2" was rejected while
        # exact mode accepted it
        assert make_schmidt(("1/2", "1/2")) == (0.5, 0.5)
        assert make_schmidt(("1/3", "2/3")) == (2 / 3, 1 / 3)
        exact = make_schmidt(("3/10", "7/10"), EXACT_POLICY)
        assert make_schmidt(("3/10", "7/10")) == tuple(float(x) for x in exact)

    @pytest.mark.parametrize("text", ["0.1", "0.3", "0.7", "1e-3", "0.123456789012345678"])
    def test_float_mode_decimal_strings_round_as_float(self, text):
        rest = 1 - float(text)
        assert make_schmidt((text, repr(rest))) == make_schmidt((float(text), rest))

    def test_renormalizes_within_tolerance(self):
        v = make_schmidt((0.5 + 4e-10, 0.5 + 4e-10))
        assert math.isclose(sum(v), 1.0, abs_tol=1e-15)

    def test_exact_mode_from_strings(self):
        v = make_schmidt(("0.4", "0.4", "0.1", "0.1"), EXACT_POLICY)
        assert v == (Fraction(2, 5), Fraction(2, 5), Fraction(1, 10),
                                  Fraction(1, 10))
        assert sum(v) == 1

    def test_exact_mode_json_roundtrip(self):
        v = make_schmidt(("1/3", "1/3", "1/3"), EXACT_POLICY)
        assert v.to_json_value() == ["1/3", "1/3", "1/3"]

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    @pytest.mark.parametrize("raw", [("1e500", "1"), ("-1e500", "1"), ("1e5000", "1"),
                                     ("1/3", "1/" + "7" * 60)])
    def test_long_rational_message_is_short(self, policy, raw):
        # a rational past the float range, or with a long denominator, was
        # printed with all its digits (and past 4300 digits str() raised)
        with pytest.raises((NotNormalized, NegativeEntry)) as info:
            make_schmidt([Fraction(x) for x in raw], policy)
        assert len(str(info.value)) < 80, str(info.value)


class TestComparisonPolicy:
    def test_exact_is_set_on_construction(self):
        assert (FLOAT_POLICY.exact, EXACT_POLICY.exact) == (False, True)
        assert ComparisonPolicy("exact").exact is True
        with pytest.raises(TypeError):
            ComparisonPolicy("float", exact=True)
        with pytest.raises(AttributeError):
            FLOAT_POLICY.exact = True

    def test_equality_hash_repr_and_json_unchanged(self):
        # exact is derived from mode and takes no part in any of these
        assert ComparisonPolicy() == FLOAT_POLICY and ComparisonPolicy("exact") == EXACT_POLICY
        assert FLOAT_POLICY != EXACT_POLICY
        assert hash(EXACT_POLICY) == hash(("exact",)) and hash(FLOAT_POLICY) == hash(("float",))
        assert repr(EXACT_POLICY) == "ComparisonPolicy(mode='exact')"
        assert _policy_json(EXACT_POLICY) == {"mode": "exact", "tol_eq": 1e-12,
                                              "tol_strict": 1e-9}
        assert _policy_json(FLOAT_POLICY) == {"mode": "float", "tol_eq": 1e-12,
                                              "tol_strict": 1e-9}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ComparisonPolicy("fuzzy")


class TestPolicyValue:
    def test_no_instance_dict_and_no_deletion(self):
        assert not hasattr(EXACT_POLICY, "__dict__")
        with pytest.raises(AttributeError):
            del EXACT_POLICY.mode
        with pytest.raises(AttributeError):
            FLOAT_POLICY.tol_eq = 0.0
        assert FLOAT_POLICY.tol_eq == ComparisonPolicy.tol_eq == 1e-12

    @pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
    def test_copy_and_pickle_keep_the_value(self, policy):
        for twin in (copy.copy(policy), copy.deepcopy(policy), pickle.loads(pickle.dumps(policy))):
            assert twin == policy and hash(twin) == hash(policy)
            assert (twin.mode, twin.exact) == (policy.mode, policy.exact)


class TestPartialSum:
    def test_two_largest(self):
        assert partial_sum(vec(0.4, 0.4, 0.1, 0.1), 2) == pytest.approx(0.8, abs=1e-15)

    def test_full_sum_is_one(self):
        assert partial_sum(vec(0.5, 0.25, 0.25, 0.0), 4) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_entangled_first(self):
        assert partial_sum(vec(0.5, 0.5), 1) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_out_of_range(self, k):
        with pytest.raises(IndexOutOfRange):
            partial_sum(vec(0.4, 0.4, 0.1, 0.1), k)


class TestMajorizes:
    def test_partial_sum_violation(self):
        b = vec(0.5, 0.25, 0.25, 0.0)
        a = vec(0.4, 0.4, 0.1, 0.1)
        assert not majorizes(b, a)  # fails at k=2: 0.75 < 0.8

    def test_reflexive(self):
        a = vec(0.35, 0.3, 0.2, 0.15)
        assert majorizes(a, a)

    def test_separable_majorizes_everything(self):
        assert majorizes(vec(1, 0, 0, 0), vec(0.25, 0.25, 0.25, 0.25))

    def test_zero_padding(self):
        assert majorizes(vec(0.5, 0.5), vec(0.4, 0.3, 0.2, 0.1))


class TestNielsenConvertible:
    def test_max_entangled_converts_down(self):
        assert nielsen_convertible(vec(0.25, 0.25, 0.25, 0.25), vec(0.5, 0.25, 0.25, 0))

    def test_blocked_pair(self):
        assert not nielsen_convertible(vec(0.4, 0.4, 0.1, 0.1), vec(0.5, 0.25, 0.25, 0))

    def test_identity(self):
        a = vec(0.6, 0.2, 0.2)
        assert nielsen_convertible(a, a)


class TestKron:
    def test_separable_factor_is_identity(self):
        v = vec(0.5, 0.3, 0.2)
        assert kron(vec(1.0), v) == v

    def test_enumerates_and_sorts(self):
        got = kron(vec(0.5, 0.25, 0.25, 0.0), vec(0.6, 0.4))
        assert got == pytest.approx((0.3, 0.2, 0.15, 0.15, 0.1, 0.1, 0.0, 0.0),
                                                 abs=1e-15)

    def test_bell_pair_squared(self):
        got = kron(vec(0.5, 0.5), vec(0.5, 0.5))
        assert got == (0.25, 0.25, 0.25, 0.25)


class TestEntropy:
    def test_separable_zero(self):
        assert entropy(vec(1.0, 0.0)) == 0.0

    def test_one_ebit(self):
        assert entropy(vec(0.5, 0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_four_level_value(self):
        assert entropy(vec(0.4, 0.4, 0.1, 0.1)) == pytest.approx(1.7219280948873623,
                                                                 abs=1e-12)

    def test_exact_coefficient_below_float_range(self):
        # the coefficient is positive but its float is 0, where log2 raised
        v = make_schmidt(("1/2", "1/2", "1e-400"), EXACT_POLICY)
        assert v[2] > 0 and float(v[2]) == 0.0
        assert entropy(v) == 1.0


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_endpoint(self):
        assert binary_entropy(1.0) == 0.0

    def test_value(self):
        assert binary_entropy(0.6) == pytest.approx(0.9709505944546686, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(1.5)


class TestSchmidtRank:
    def test_trailing_zero(self):
        assert schmidt_rank(vec(0.5, 0.25, 0.25, 0.0)) == 3

    def test_separable(self):
        assert schmidt_rank(vec(1, 0, 0)) == 1

    def test_full(self):
        assert schmidt_rank(vec(0.4, 0.4, 0.1, 0.1)) == 4


class TestSplitPartialSum:
    def test_empty_tail(self):
        got = split_partial_sum(vec(0.4, 0.4, 0.1, 0.1), vec(0.6, 0.4), 2, 0)
        assert got == pytest.approx(0.48, abs=1e-15)

    def test_total_mass(self):
        u = vec(0.4, 0.4, 0.1, 0.1)
        assert split_partial_sum(u, vec(0.6, 0.4), 4, 4) == pytest.approx(1.0, abs=1e-15)

    def test_matches_joint_partial_sum(self):
        u, c = vec(0.5, 0.25, 0.25, 0.0), vec(0.6, 0.4)
        got = split_partial_sum(u, c, 2, 1)
        assert got == pytest.approx(0.65, abs=1e-15)
        assert got == pytest.approx(partial_sum(kron(u, c), 3), abs=1e-12)

    def test_bad_order(self):
        with pytest.raises(IndexOutOfRange):
            split_partial_sum(vec(0.5, 0.5), vec(0.6, 0.4), 1, 2)

    def test_wrong_aux_dim(self):
        with pytest.raises(PreconditionViolated):
            split_partial_sum(vec(0.5, 0.5), vec(0.6, 0.3, 0.1), 1, 0)

    @pytest.mark.parametrize("k1, k2", [(3, 0), (3, 3)])
    def test_split_beyond_dimension(self, k1, k2):
        # k1 >= k2, so k1 alone decides whether the split fits in u
        with pytest.raises(IndexOutOfRange, match="exceed dim 2"):
            split_partial_sum(vec(0.5, 0.5), vec(0.6, 0.4), k1, k2)


class TestProperties:
    @given(schmidt_vectors())
    def test_prefix_sums_monotone_and_complete(self, v):
        sums = prefix_sums(v)
        assert all(s2 >= s1 - 1e-15 for s1, s2 in zip(sums, sums[1:]))
        assert sums[-1] == pytest.approx(1.0, abs=1e-12)

    def test_full_sum_exact_in_rational_mode(self, rng):
        from conftest import random_rational_sorted_simplex
        for _ in range(50):
            v = make_schmidt(random_rational_sorted_simplex(rng, 4), EXACT_POLICY)
            assert prefix_sums(v)[-1] == 1

    @given(schmidt_vectors(min_dim=3, max_dim=5), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    @settings(max_examples=60)
    def test_transitive_along_mixing_chain(self, v, f1, f2):
        mid = robin_hood(v, f1)
        low = robin_hood(mid, f2)
        assert majorizes(v, mid) and majorizes(mid, low)
        assert majorizes(v, low)

    @given(schmidt_vectors(min_dim=2, max_dim=5))
    @settings(max_examples=60)
    def test_antisymmetric_up_to_sorted_equality(self, v):
        w = SchmidtVector(tuple(v))
        assert majorizes(v, w) and majorizes(w, v)
        assert all(abs(x - y) <= 1e-12 for x, y in zip(v, w))

    @given(schmidt_vectors(max_dim=4), schmidt_vectors(max_dim=4))
    @settings(max_examples=80)
    def test_entropy_additive_under_kron(self, u, v):
        assert entropy(kron(u, v)) == pytest.approx(entropy(u) + entropy(v), abs=1e-10)

    @given(schmidt_vectors(max_dim=4), schmidt_vectors(max_dim=4))
    @settings(max_examples=80)
    def test_rank_multiplicative_under_kron(self, u, v):
        assert schmidt_rank(kron(u, v)) == schmidt_rank(u) * schmidt_rank(v)

    @given(schmidt_vectors(min_dim=3, max_dim=5), st.floats(0.05, 1.0))
    @settings(max_examples=60)
    def test_strict_schur_concavity(self, v, f):
        w = robin_hood(v, f)
        if all(abs(x - y) <= 1e-12 for x, y in zip(v, w)):
            return  # degenerate move on a flat vector
        assert majorizes(v, w)
        assert entropy(w) > entropy(v)

    def test_split_sum_dominance_with_attained_equality(self, rng):
        from conftest import random_sorted_simplex
        for _ in range(50):
            u = make_schmidt(random_sorted_simplex(rng, 4))
            x = 0.5 + 0.5 * rng.random()
            c = make_schmidt((x, 1 - x))
            joint = prefix_sums(kron(u, c))
            for k in range(1, 2 * len(u) + 1):
                splits = [split_partial_sum(u, c, m, k - m)
                          for m in range(max(k - len(u), (k + 1) // 2), min(k, len(u)) + 1)]
                assert all(s <= joint[k - 1] + 1e-12 for s in splits)
                assert max(splits) == pytest.approx(joint[k - 1], abs=1e-12)
