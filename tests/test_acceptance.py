"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with the measured numbers.
"""

from fractions import Fraction

import pytest

from supercat import (EXACT_POLICY, SchmidtVector, check_supercatalytic, entropy,
                      epsilon_family, gain, grid_catalyst_interval, grid_gmax_rank2,
                      gmax_given_c, is_catalyst, kron, least_entangled_rank2_catalyst,
                      majorizes, make_schmidt, most_entangled_rank2_catalyst, prefix_sums,
                      rank2_catalyst_interval, rank_reduce_returned, schmidt_rank,
                      split_partial_sum, tilde_gmax_sweep, trivial_swap_construction,
                      verify_epsilon_family)
from supercat.errors import EmptyCatalystSet
from supercat.examples import example_pair

from conftest import (random_blocked_pair_with_empty_interval, random_nontrivial_pair,
                      random_rational_sorted_simplex, random_sorted_simplex)


def ok(line: str):
    print(f"ACCEPTANCE {line}: PASS")


@pytest.fixture(scope="module")
def pairs():
    return {name: example_pair(name) for name in "1234"}


@pytest.fixture(scope="module")
def exact_pairs():
    return {name: example_pair(name, EXACT_POLICY) for name in "1234"}


@pytest.fixture(scope="module")
def sweeps(pairs):
    return {name: tilde_gmax_sweep(pair, n_points=201) for name, pair in pairs.items()}


def test_criterion_01_interval_closed_form_matches_grid_oracle(exact_pairs, rng):
    checked = 0
    for pair in exact_pairs.values():
        closed = rank2_catalyst_interval(pair)
        grid = grid_catalyst_interval(pair)
        assert abs(float(closed.x_min) - grid.x_min) <= 1e-6
        assert abs(float(closed.x_max) - grid.x_max) <= 1e-6
        for x in (closed.x_min, closed.x_max):
            assert is_catalyst(pair, SchmidtVector((x, 1 - x)))
        checked += 1
    for _ in range(100):
        pair = random_nontrivial_pair(rng, EXACT_POLICY, min_width=5e-3)
        closed = rank2_catalyst_interval(pair)
        grid = grid_catalyst_interval(pair)
        assert abs(float(closed.x_min) - grid.x_min) <= 1e-6
        assert abs(float(closed.x_max) - grid.x_max) <= 1e-6
        for x in (closed.x_min, closed.x_max):
            assert is_catalyst(pair, SchmidtVector((x, 1 - x)))
        checked += 1
    # closed-form-empty pairs must also look empty to the oracle
    for _ in range(10):
        pair = random_blocked_pair_with_empty_interval(rng)
        with pytest.raises(EmptyCatalystSet):
            grid_catalyst_interval(pair)
    ok(f"1 (interval oracle equivalence on {checked} pairs, endpoints exact members)")


def test_criterion_02_first_example_tightness(exact_pairs, sweeps):
    pair = exact_pairs["1"]
    most = SchmidtVector((Fraction(3, 5), Fraction(2, 5)))
    least = SchmidtVector((Fraction(5, 8), Fraction(3, 8)))
    assert majorizes(kron(pair.b, most), kron(pair.a, least), EXACT_POLICY)

    sweep = sweeps["1"]
    bound = sweep.envelope_bound
    assert abs(sweep.tilde_gmax - bound) <= 1e-6
    assert abs(sweep.tilde_gmax - 0.0744) <= 1e-4
    assert abs(sweep.tilde_gmax - 0.1) <= 0.05
    ok(f"2 (exact tightness; sweep max {sweep.tilde_gmax:.6f} equals bound {bound:.6f})")


def test_criterion_03_second_example_miserly_optimal(sweeps):
    sweep = sweeps["2"]
    assert 0.0 < sweep.tilde_gmax < 0.25
    assert sweep.tilde_gmax == sweep.gmax_at_x_max
    assert abs(sweep.argmax_x - float(sweep.interval.x_max)) <= 1e-9
    assert sweep.argmax_kind == "endpoint"
    ok(f"3 (second example: tilde_gmax {sweep.tilde_gmax:.6f} in (0, 0.25) at x_max)")


def test_criterion_04_third_example_interior_beats_miserly(sweeps):
    sweep = sweeps["3"]
    interior = [p for p in sweep.points
                if sweep.interval.x_min + 1e-6 < p.x < float(sweep.interval.x_max) - 1e-6]
    assert max(p.gmax for p in interior) > sweep.gmax_at_x_max + 1e-9
    assert sweep.tilde_gmax > sweep.gmax_at_x_max + 1e-9
    assert abs(sweep.tilde_gmax - 0.1) <= 0.05
    assert sweep.argmax_kind == "kink"  # the least entangled loan is not always optimal
    ok(f"4 (third example: interior {sweep.tilde_gmax:.6f} beats miserly "
       f"{sweep.gmax_at_x_max:.6f})")


def test_criterion_05_fourth_example_intermediate_strategy(pairs, sweeps):
    pair = pairs["4"]
    assert gmax_given_c(pair, least_entangled_rank2_catalyst(pair)).gain == 0.0
    assert gmax_given_c(pair, most_entangled_rank2_catalyst(pair)).gain == 0.0
    sweep = sweeps["4"]
    assert sweep.gmax_at_x_min == 0.0
    assert sweep.gmax_at_x_max == 0.0
    assert sweep.tilde_gmax > 0.02
    assert abs(sweep.tilde_gmax - 0.1) <= 0.05
    # independent confirmation of the interior figure by the grid oracle
    c_star = SchmidtVector((sweep.argmax_x, 1.0 - sweep.argmax_x))
    assert grid_gmax_rank2(pair, c_star).gain > 0.02
    ok(f"5 (fourth example: zero at both ends, interior max {sweep.tilde_gmax:.6f})")


def test_criterion_06_most_entangled_loan_never_gains(pairs):
    for name, pair in pairs.items():
        result = gmax_given_c(pair, most_entangled_rank2_catalyst(pair))
        assert result.gain == 0.0, name
    ok("6 (most entangled two-level loan gives exactly zero gain on all four examples)")


def test_criterion_07_bound_dominates_every_sweep_point(sweeps):
    n = 0
    for name, sweep in sweeps.items():
        for p in sweep.points:
            assert p.gmax <= p.bound + 1e-12, (name, p.x)
            n += 1
    ok(f"7 (gain bound dominates on all {n} sweep points)")


def test_criterion_08_minimal_gain_stays_below_one(sweeps, rng):
    for name, sweep in sweeps.items():
        assert sweep.tilde_gmax < 1 - 1e-6, name
    for _ in range(100):
        pair = random_nontrivial_pair(rng, min_width=1e-4)
        sweep = tilde_gmax_sweep(pair, n_points=21)
        assert sweep.tilde_gmax < 1 - 1e-6
    ok("8 (tilde_gmax < 1 - 1e-6 on the examples and 100 random pairs)")


def test_criterion_09_family_gain_approaches_one():
    reports = []
    for eps in (1e-2, 1e-3, 1e-4):
        family = epsilon_family(eps)
        verdict = check_supercatalytic(family.a, family.b, family.c, family.d)
        assert verdict.ok and not verdict.consistency_error, eps
        report = verify_epsilon_family(family)
        assert report.ok
        assert abs(report.x_min - report.predicted_x_min) <= 1e-10
        assert abs(report.x_max - report.predicted_x_max) <= 1e-10
        reports.append(report)
    gains = [r.gain for r in reports]
    assert gains[0] < gains[1] < gains[2]
    assert gains[2] > 0.99
    ok(f"9 (family gains {gains[0]:.4f} < {gains[1]:.4f} < {gains[2]:.4f}, "
       f"intervals match predictions)")


def test_criterion_10_swap_construction_gain_one(exact_pairs):
    pair = exact_pairs["1"]
    c = SchmidtVector((Fraction(3, 5), Fraction(2, 5)))
    borrowed, returned = trivial_swap_construction(pair, c)
    assert gain(pair.a, pair.b, borrowed, returned, EXACT_POLICY) == 1.0
    lhs = kron(pair.a, borrowed)
    rhs = kron(pair.b, returned)
    assert lhs == rhs  # exact entrywise equality
    ok("10 (register swap: gain exactly 1, joint coefficients identical)")


def test_criterion_11_rank_reduction_chains_exact(rng):
    done = 0
    while done < 1000:
        dim = rng.choice([3, 4, 5])
        d = make_schmidt(random_rational_sorted_simplex(rng, dim), EXACT_POLICY)
        if schmidt_rank(d, EXACT_POLICY) != dim or d[0] > Fraction(49, 50):
            continue
        c1 = d[0] + (1 - d[0]) * Fraction(rng.randrange(1, 100), 100)
        c = SchmidtVector((c1, 1 - c1))
        if schmidt_rank(c, EXACT_POLICY) != 2:
            continue
        reduced = rank_reduce_returned(d, c, EXACT_POLICY)
        assert schmidt_rank(reduced, EXACT_POLICY) <= 3
        assert majorizes(reduced, d, EXACT_POLICY)   # d -> d'
        assert majorizes(c, reduced, EXACT_POLICY)   # d' -> c
        done += 1
    ok("11 (rank reduction preserves both conversion chains on 1000 exact cases)")


def test_criterion_12_property_suites(pairs, rng):
    # gain stays in the unit interval on valid configurations
    for name, pair in pairs.items():
        c = most_entangled_rank2_catalyst(pair)
        borrowed, returned = trivial_swap_construction(pair, c)
        assert 0.0 <= gain(pair.a, pair.b, borrowed, returned) <= 1.0
    for eps in (1e-2, 1e-3, 1e-4):
        family = epsilon_family(eps)
        assert 0.0 <= gain(family.a, family.b, family.c, family.d) <= 1.0
    for _ in range(20):
        pair = random_nontrivial_pair(rng, min_width=1e-3)
        interval = rank2_catalyst_interval(pair)
        x = float(interval.x_min) + 0.75 * (float(interval.x_max) - float(interval.x_min))
        c = SchmidtVector((x, 1 - x))
        result = gmax_given_c(pair, c)
        assert 0.0 <= result.gain <= 1.0
        if result.gain > 0:
            assert 0.0 <= gain(pair.a, pair.b, c, result.returned_state) <= 1.0

    # entropy additivity and rank multiplicativity under composition
    for _ in range(50):
        u = make_schmidt(random_sorted_simplex(rng, rng.randrange(2, 5)))
        v = make_schmidt(random_sorted_simplex(rng, rng.randrange(2, 5)))
        assert abs(entropy(kron(u, v)) - entropy(u) - entropy(v)) <= 1e-10
        assert schmidt_rank(kron(u, v)) == schmidt_rank(u) * schmidt_rank(v)

    # maximally entangled states never catalyze
    for _ in range(100):
        pair = random_nontrivial_pair(rng)
        for r in (2, 3, 4):
            assert not is_catalyst(pair, make_schmidt([1.0 / r] * r))

    # split-sum dominance with equality attained at some split
    for _ in range(50):
        u = make_schmidt(random_sorted_simplex(rng, 4))
        x = 0.5 + 0.5 * rng.random()
        c = make_schmidt((x, 1 - x))
        joint = prefix_sums(kron(u, c))
        for k in range(1, 9):
            splits = [split_partial_sum(u, c, m, k - m)
                      for m in range(max(k - 4, (k + 1) // 2), min(k, 4) + 1)]
            assert all(s <= joint[k - 1] + 1e-12 for s in splits)
            assert abs(max(splits) - joint[k - 1]) <= 1e-12
    ok("12 (gain range, additivity, multiplicativity, no-uniform-catalyst, split dominance)")
