"""Grid oracles and their agreement with the closed-form/exact paths."""

import pytest

from supercat import (CatalyticPair, SchmidtVector, grid_catalyst_interval, grid_gmax_rank2,
                      gmax_given_c, make_schmidt, rank2_catalyst_interval)
from supercat.errors import EmptyCatalystSet, NotACatalyst, PreconditionViolated
from supercat.examples import example_pair

from conftest import random_nontrivial_pair


def vec(*xs):
    return make_schmidt(xs)


class TestGridCatalystInterval:
    def test_first_pair(self):
        got = grid_catalyst_interval(example_pair("1"))
        assert got.x_min == pytest.approx(0.6, abs=2e-9)
        assert got.x_max == pytest.approx(0.625, abs=2e-9)

    def test_second_pair(self):
        got = grid_catalyst_interval(example_pair("2"))
        assert got.x_min == pytest.approx(0.52, abs=2e-9)
        assert got.x_max == pytest.approx(25 / 38, abs=2e-9)

    def test_convertible_pair_rejected(self):
        pair = CatalyticPair(vec(0.25, 0.25, 0.25, 0.25), vec(0.5, 0.25, 0.25, 0))
        with pytest.raises(PreconditionViolated):
            grid_catalyst_interval(pair)

    def test_empty_set(self):
        pair = CatalyticPair(vec(0.6, 0.4, 0, 0), vec(0.7, 0.25, 0.05, 0))
        with pytest.raises(EmptyCatalystSet):
            grid_catalyst_interval(pair)


class TestGridGmax:
    def test_first_pair_least_entangled(self):
        pair = example_pair("1")
        got = grid_gmax_rank2(pair, vec(0.625, 0.375))
        assert got.gain == pytest.approx(0.0744231663778, abs=1e-8)
        assert got.method == "grid-approximate"

    def test_first_pair_most_entangled(self):
        pair = example_pair("1")
        assert grid_gmax_rank2(pair, vec(0.6, 0.4)).gain == 0.0

    def test_fourth_pair_least_entangled(self):
        pair = example_pair("4")
        c = SchmidtVector((2 / 3, 1 / 3))
        assert grid_gmax_rank2(pair, c).gain == 0.0

    def test_not_a_catalyst(self):
        with pytest.raises(NotACatalyst):
            grid_gmax_rank2(example_pair("1"), vec(0.9, 0.1))


class TestOracleAgreement:
    def test_interval_endpoints_on_bundled_pairs(self):
        for name in "1234":
            pair = example_pair(name)
            closed = rank2_catalyst_interval(pair)
            grid = grid_catalyst_interval(pair)
            assert grid.x_min == pytest.approx(float(closed.x_min), abs=2e-9), name
            assert grid.x_max == pytest.approx(float(closed.x_max), abs=2e-9), name

    def test_interval_endpoints_on_random_pairs(self, rng):
        for _ in range(25):
            pair = random_nontrivial_pair(rng, min_width=5e-3)
            closed = rank2_catalyst_interval(pair)
            grid = grid_catalyst_interval(pair)
            assert grid.x_min == pytest.approx(float(closed.x_min), abs=2e-9)
            assert grid.x_max == pytest.approx(float(closed.x_max), abs=2e-9)

    def test_gmax_on_random_pairs(self, rng):
        for _ in range(25):
            pair = random_nontrivial_pair(rng, min_width=5e-3)
            closed = rank2_catalyst_interval(pair)
            for t in (0.25, 0.85):
                x = float(closed.x_min) + t * (float(closed.x_max) - float(closed.x_min))
                c = SchmidtVector((x, 1 - x))
                exact = gmax_given_c(pair, c).gain
                grid = grid_gmax_rank2(pair, c).gain
                assert exact == pytest.approx(grid, abs=1e-5)

    def test_gmax_against_fine_grid_on_tight_instance(self):
        # the bound-attaining configuration
        pair = example_pair("1")
        c = vec(0.625, 0.375)
        exact = gmax_given_c(pair, c).gain
        assert exact == pytest.approx(grid_gmax_rank2(pair, c).gain, abs=1e-5)
