"""Grid oracles and their agreement with the closed-form/exact paths."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

import supercat
from supercat import (EXACT_POLICY, FLOAT_POLICY, CatalyticPair, SchmidtVector,
                      grid_catalyst_interval, grid_gmax_rank2, gmax_given_c, make_schmidt,
                      rank2_catalyst_interval)
from supercat.catalysis import probe_two_level
from supercat.errors import EmptyCatalystSet, NotACatalyst, PreconditionViolated
from supercat.examples import example_pair
from supercat.oracle import _bisect, _interval_grid, _scan

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


def reference_scan(member, xs):
    """The full scan: every grid point probed, then the first and last
    members bisected against their failing neighbours."""
    verdicts = [member(x) for x in xs]
    if True not in verdicts:
        return None
    first = verdicts.index(True)
    last = len(xs) - 1 - verdicts[::-1].index(True)
    lo = xs[first] if first == 0 else _bisect(member, xs[first - 1], xs[first])
    hi = xs[last] if last == len(xs) - 1 else _bisect(member, xs[last + 1], xs[last])
    return lo, hi


def verdict_lists(rng):
    """Verdict lists with no member, one member, all members, members only
    at the ends, adjacent first and last members, and random non-monotone
    gaps, of lengths 1 to 40."""
    lists = [[False] * 7, [True], [False], [True] * 6, [True, False, False, True],
             [False, True, True, False], [True, True], [False, True, False],
             [False, False, True], [True, False, True, False, True]]
    while len(lists) < 600:
        n = rng.randrange(1, 41)
        p = rng.choice((0.0, 0.05, 0.3, 0.7, 1.0))
        verdicts = [rng.random() < p for _ in range(n)]
        if rng.random() < 0.2 and n > 1:  # members only at the ends
            verdicts = [True] + [False] * (n - 2) + [True]
        lists.append(verdicts)
    return lists


class TestScan:
    """_scan probes upward to the first member and downward to the last;
    its result must equal the full scan's on every verdict list."""

    def test_matches_full_scan_and_skips_the_middle(self):
        rng = random.Random(6201)
        kinds = set()
        for verdicts in verdict_lists(rng):
            xs = [0.5 + i / 64 for i in range(len(verdicts))]
            at = dict(zip(xs, verdicts))
            probed = []

            def member(x):
                if x in at:
                    probed.append(xs.index(x))
                    return at[x]
                return int(x * 2**20) % 3 == 0  # between grid points: any fixed verdict

            want = reference_scan(member, xs)
            probed.clear()
            assert _scan(member, xs) == want, verdicts
            members = [i for i, v in enumerate(verdicts) if v]
            if members:
                first, last = members[0], members[-1]
                assert not [i for i in probed if first < i < last], verdicts
                assert sorted(probed) == [*range(first + 1), *range(max(last, first + 1), len(xs))]
            else:
                assert sorted(probed) == list(range(len(xs)))
            kinds.add(min(len(members), 2) if len(members) < len(xs) else "all")
            if len(members) == 2 and members[1] == members[0] + 1:
                kinds.add("adjacent")
            if members and members[-1] - members[0] >= len(members):
                kinds.add("ends" if members == [0, len(xs) - 1] else "gap")
        assert kinds == {0, 1, 2, "all", "adjacent", "ends", "gap"}


class TestIntervalGrid:
    """The fixed grid of grid_catalyst_interval and its probe vectors are
    built once per arithmetic, on first use."""

    def test_second_pair_builds_no_grid(self):
        for policy in (FLOAT_POLICY, EXACT_POLICY):
            grid_catalyst_interval(example_pair("1", policy))
            misses = _interval_grid.cache_info().misses
            grid_catalyst_interval(example_pair("2", policy))
            assert _interval_grid.cache_info().misses == misses

    def test_import_builds_no_grid(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import supercat, supercat.cli; "
                "from supercat.oracle import _interval_grid; "
                "print(_interval_grid.cache_info().currsize)")
        src = Path(supercat.__file__).resolve().parent.parent
        out = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.split() == ["0"]

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_probes_are_probe_two_level(self, exact):
        policy = EXACT_POLICY if exact else FLOAT_POLICY
        xs, probes = _interval_grid(exact)
        assert xs == tuple(min(0.5 + i * 1e-3, 1.0) for i in range(501))
        assert all(probes[x] == probe_two_level(x, policy) for x in xs)
        assert all(probes[x].exact == exact for x in xs)
