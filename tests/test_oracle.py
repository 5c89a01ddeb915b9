"""Grid oracles and their agreement with the closed-form/exact paths."""

import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import supercat
import supercat.oracle
from supercat import (EXACT_POLICY, FLOAT_POLICY, CatalyticPair, CatalystInterval, SchmidtVector,
                      binary_entropy, entropy, grid_catalyst_interval, grid_gmax_rank2,
                      gmax_given_c, is_catalyst, make_schmidt, rank2_catalyst_interval)
from supercat.catalysis import (_affine_grid, _require_dim4_nontrivial, _require_loan,
                                probe_two_level)
from supercat.errors import CatalysisError, EmptyCatalystSet, NotACatalyst, PreconditionViolated
from supercat.examples import example_pair
from supercat.oracle import REFINE_TOL, SCAN_RESOLUTION, _first, _interval_grid, _walk
from supercat.schmidt import _coerce_vector
from supercat.supercatalysis import GRID_METHOD, GainResult

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


def bisect(predicate, x_false, x_true):
    """Boundary of a verdict change, located to REFINE_TOL, on the True side:
    the oracles' bisection before _first took it in."""
    while abs(x_true - x_false) > REFINE_TOL:
        mid = 0.5 * (x_false + x_true)
        x_false, x_true = (x_false, mid) if predicate(mid) else (mid, x_true)
    return x_true


def scan_both_ends(member, xs):
    """(first, last) passing points of xs, or None if none passes, each bisected
    against its failing neighbour unless it ends xs: the oracles' scan before
    _first, probing up to the first member and down from the end to the last."""
    first = next((i for i in range(len(xs)) if member(xs[i])), None)
    if first is None:
        return None
    last = next((i for i in range(len(xs) - 1, first, -1) if member(xs[i])), first)
    lo = xs[first] if first == 0 else bisect(member, xs[first - 1], xs[first])
    hi = xs[last] if last == len(xs) - 1 else bisect(member, xs[last + 1], xs[last])
    return lo, hi


def reference_scan(member, xs):
    """The full scan: every grid point probed, then the first and last
    members bisected against their failing neighbours."""
    verdicts = [member(x) for x in xs]
    if True not in verdicts:
        return None
    first = verdicts.index(True)
    last = len(xs) - 1 - verdicts[::-1].index(True)
    lo = xs[first] if first == 0 else bisect(member, xs[first - 1], xs[first])
    hi = xs[last] if last == len(xs) - 1 else bisect(member, xs[last + 1], xs[last])
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
    """Each oracle finds its first member's grid index and _first bisects the
    boundary from it: the interval oracle's _walk probes upward to it, from
    each end of its grid for its hull, and the gain oracle bisects its
    monotone grid with bisect_left (TestOracleProbes and
    test_gain_edge_indices_match_reference check it on real pairs).  _walk
    then _first, and the reference oracles' scan_both_ends, must equal the
    full scan's ends."""

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
            assert scan_both_ends(member, xs) == want, verdicts  # the reference oracles' scan
            members = [i for i, v in enumerate(verdicts) if v]
            probed.clear()
            lo = _first(member, xs, _walk(member, xs))
            assert lo == (want and want[0]), verdicts
            assert probed == list(range(members[0] + 1 if members else len(xs))), verdicts
            if members:
                first, last = members[0], members[-1]
                assert (lo, _first(member, xs[::-1], _walk(member, xs[::-1]))) == want, verdicts
                assert not [i for i in probed if first < i < last], verdicts
                assert sorted(probed) == sorted([*range(first + 1), *range(last, len(xs))])
            kinds.add(min(len(members), 2) if len(members) < len(xs) else "all")
            if len(members) == 2 and members[1] == members[0] + 1:
                kinds.add("adjacent")
            if members and members[-1] - members[0] >= len(members):
                kinds.add("ends" if members == [0, len(xs) - 1] else "gap")
        assert kinds == {0, 1, 2, "all", "adjacent", "ends", "gap"}


class TestIntervalGrid:
    """The fixed grid of grid_catalyst_interval and its probes' membership
    forms are built once per arithmetic, on first use."""

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
        xs, forms = _interval_grid(exact)
        assert xs == tuple(min(0.5 + i * 1e-3, 1.0) for i in range(501))
        if exact:  # each probe vector's integer form (q, C), over the lcm q of its denominators
            for x in xs:
                q, ints = forms[x]
                assert all(type(k) is int for k in (q, *ints))
                assert tuple(Fraction(k, q) for k in ints) == probe_two_level(x, policy)
                assert math.gcd(q, *ints) == 1  # no smaller common denominator
        else:  # (1, the probe vector itself)
            assert all(forms[x] == (1, probe_two_level(x, policy)) for x in xs)
            assert all(forms[x][1].exact == exact for x in xs)


def reference_is_catalyst(pair, c):
    """is_catalyst as the joint test with d = c, before membership had its own kernel."""
    c = _coerce_vector(c, pair.policy)
    return pair.joint_feasible(pair.joint_target(c), c)


@cache
def reference_interval_grid(exact):
    policy = EXACT_POLICY if exact else FLOAT_POLICY
    xs = tuple(min(0.5 + i * SCAN_RESOLUTION, 1.0) for i in range(1 + round(0.5 / SCAN_RESOLUTION)))
    return xs, {x: probe_two_level(x, policy) for x in xs}


def reference_grid_catalyst_interval(pair):
    """grid_catalyst_interval as it was when every probe went through
    is_catalyst, grid points with their tabled vectors."""
    _require_dim4_nontrivial(pair)
    xs, probes = reference_interval_grid(pair.policy.exact)
    found = scan_both_ends(lambda x: reference_is_catalyst(
        pair, probes.get(x) or probe_two_level(x, pair.policy)), xs)
    if found is None:
        raise EmptyCatalystSet("no two-level catalyst found at this resolution")
    return CatalystInterval(*found)


def reference_grid_gmax_rank2(pair, c):
    """grid_gmax_rank2 as it was when every probe built a SchmidtVector."""
    c, target, _, _ = _require_loan(pair, c)
    c1 = float(c[0])

    def feasible(y):
        return pair.joint_feasible(target, probe_two_level(y, pair.policy))

    steps = max(1, int(round((c1 - 0.5) / SCAN_RESOLUTION)))
    found = scan_both_ends(feasible, _affine_grid(0.5, c1, steps + 1))
    if found is None or found[0] >= c1 - pair.policy.tol_strict:
        return GainResult(0.0, c, GRID_METHOD)
    y_star = found[0]
    g = (binary_entropy(y_star) - entropy(c)) / pair.entropy_drop
    return GainResult(min(max(g, 0.0), 1.0), probe_two_level(y_star, pair.policy),
                      GRID_METHOD)


def outcome(fn, *args):
    """fn's result, or the type and message of the CatalysisError it raised."""
    try:
        return fn(*args)
    except CatalysisError as exc:
        return type(exc), str(exc)


def two_level_loans(rng, pair):
    """Six two-level loans of the pair: its interval's ends, its quartiles
    and one random point of it."""
    interval = rank2_catalyst_interval(pair)
    ts = (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, Fraction(rng.randrange(101), 100))
    if not pair.policy.exact:
        ts = tuple(map(float, ts))
    xs = [interval.x_min + t * (interval.x_max - interval.x_min) for t in ts]
    return [probe_two_level(x, pair.policy) for x in xs]


@pytest.fixture
def spied_scans(monkeypatch):
    """(member, xs) of every oracle._first call, in order: the oracles' own probes."""
    scans = []
    real = supercat.oracle._first

    def spy(member, xs, i):
        scans.append((member, xs))
        return real(member, xs, i)

    monkeypatch.setattr(supercat.oracle, "_first", spy)
    return scans


@pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
class TestOracleProbes:
    """Each oracle probe pays only for its joint test: the interval grid's
    membership forms are tabled and the gain scan passes a plain pair to
    joint_feasible.  Results and probe verdicts must equal those of the
    oracles as they were, copied above, on random pairs in both arithmetics."""

    def test_results_match_reference(self, policy):
        rng = random.Random(7118)
        kinds = Counter()
        for _ in range(100):
            pair = random_nontrivial_pair(rng, policy)
            got = outcome(grid_catalyst_interval, pair)
            assert got == outcome(reference_grid_catalyst_interval, pair), pair
            kinds["interval" if isinstance(got, CatalystInterval) else got[0].__name__] += 1
            for c in two_level_loans(rng, pair):
                got = outcome(grid_gmax_rank2, pair, c)
                assert got == outcome(reference_grid_gmax_rank2, pair, c), (pair, c)
                kinds[got.gain > 0 if isinstance(got, GainResult) else got[0].__name__] += 1
        assert kinds["interval"] >= 90 and kinds[True] >= 100 and kinds[False] >= 100, kinds

    def test_probe_verdicts_match_reference(self, policy, spied_scans):
        rng = random.Random(7119)
        verdicts = Counter()
        for _ in range(100):
            pair = random_nontrivial_pair(rng, policy)
            spied_scans.clear()
            outcome(grid_catalyst_interval, pair)
            member, xs = spied_scans[0]
            interval = rank2_catalyst_interval(pair)
            lo, width = float(interval.x_min), float(interval.x_max) - float(interval.x_min)
            # off the grid: anywhere in (1/2, 1), and around the interval's ends
            mids = [0.5 + rng.random() / 2 for _ in range(25)]
            while len(mids) < 50:
                x = lo + width * (3 * rng.random() - 1)
                if 0.5 < x < 1.0:
                    mids.append(x)
            assert len(xs) == 501 and not set(xs) & set(mids)
            for x in (*xs, *mids):
                v = probe_two_level(x, policy)
                want = reference_is_catalyst(pair, v)
                assert member(x) == want == is_catalyst(pair, v), (pair, x)
                verdicts["interval", want] += 1
            c = two_level_loans(rng, pair)[rng.randrange(1, 4)]
            spied_scans.clear()
            grid_gmax_rank2(pair, c)
            feasible, ys = spied_scans[0]
            target = pair.joint_target(c)
            for y in ys:
                want = pair.joint_feasible(target, probe_two_level(y, policy))
                assert feasible(y) == want, (pair, c, y)
                verdicts["gain", want] += 1
        assert min(verdicts.values()) >= 1000 and len(verdicts) == 4, verdicts

    def test_interval_probes_skip_the_middle(self, policy, monkeypatch):
        """grid_catalyst_interval probes the grid points up to its first
        member, then down from the top of the grid to its last member, and
        no grid point between them: each probed once, in that order."""
        xs, forms = _interval_grid(policy.exact)
        index = {id(forms[x]): i for i, x in enumerate(xs)}  # grid forms stay alive
        probed = []
        real = CatalyticPair._member

        def spy(self, form):
            if id(form) in index:
                probed.append(index[id(form)])
            return real(self, form)

        monkeypatch.setattr(CatalyticPair, "_member", spy)
        rng = random.Random(7122)
        kinds = Counter()
        for _ in range(40):
            pair = random_nontrivial_pair(rng, policy)
            probed.clear()
            outcome(grid_catalyst_interval, pair)
            members = [i for i, x in enumerate(xs) if real(pair, forms[x])]
            if members:
                first, last = members[0], members[-1]
                want = [*range(first + 1), *range(len(xs) - 1, last - 1, -1)]
            else:
                want = list(range(len(xs)))
            assert probed == want, pair
            kinds["gap" if members and last - first > 1 else "other"] += 1
        assert kinds["gap"] >= 30, kinds

    def test_gain_probes_few_grid_points(self, policy, spied_scans, monkeypatch):
        """grid_gmax_rank2 probes at most ceil(log2(n + 1)) of its n grid
        points: its binary search, whatever the first feasible index.  The
        loan's own check in _require_loan, before the scan, is not counted."""
        probed = []
        real, require = CatalyticPair.joint_feasible, supercat.oracle._require_loan

        def spy(self, target, d):
            probed.append(float(d[0]))
            return real(self, target, d)

        def require_then_count(pair, c):
            found = require(pair, c)
            probed.clear()
            return found

        monkeypatch.setattr(CatalyticPair, "joint_feasible", spy)
        monkeypatch.setattr(supercat.oracle, "_require_loan", require_then_count)
        rng = random.Random(7123)
        shapes = Counter()
        for _ in range(30):
            pair = random_nontrivial_pair(rng, policy)
            for c in two_level_loans(rng, pair):
                spied_scans.clear()
                grid_gmax_rank2(pair, c)
                _, ys = spied_scans[0]
                on_grid = [y for y in probed if y in set(ys)]
                assert len(on_grid) <= math.ceil(math.log2(len(ys) + 1)), (pair, c, len(ys))
                shapes["long" if len(ys) > 20 else "short"] += 1
        assert shapes["long"] >= 60, shapes


@pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
def test_gain_verdicts_are_monotone_in_y(policy, spied_scans):
    """Joint feasibility of (y, 1-y) is monotone in y (grid_gmax_rank2's
    docstring argues it): along the gain oracle's own grid and probe, no
    verdict goes from True back to False."""
    rng = random.Random(7120)
    shapes = Counter()
    for _ in range(100):
        pair = random_nontrivial_pair(rng, policy)
        for c in two_level_loans(rng, pair):
            spied_scans.clear()
            grid_gmax_rank2(pair, c)
            feasible, ys = spied_scans[0]
            verdicts = [feasible(y) for y in ys]
            first = verdicts.index(True) if True in verdicts else len(ys)
            assert all(verdicts[first:]), (pair, c)
            shapes["none" if first == len(ys) else "all" if first == 0 else "step"] += 1
    assert shapes["step"] >= 500, shapes


#: Bundled pairs' loans whose only feasible grid point of the gain oracle is
#: the last one, c1; the boundary is bisected below it, so the gain is small.
LAST_POINT_LOANS = (("1", (0.6001, 0.3999)), ("4", (0.6003, 0.3997)))


@pytest.mark.parametrize("policy", [FLOAT_POLICY, EXACT_POLICY], ids=["float", "exact"])
def test_gain_edge_indices_match_reference(policy, spied_scans):
    """The gain oracle at the ends of its grid equals the reference scan: on
    LAST_POINT_LOANS, and at each random pair's x_min, whose gain is 0 with
    the last grid point or none feasible.  The first point, y = 1/2, never
    passes: b (x) u majorizing a (x) c, which majorizes a (x) u for the
    uniform u, would make b majorize a, but the pair is blocked."""
    rng = random.Random(7121)
    cases = [(example_pair(name, policy), make_schmidt(c, policy)) for name, c in LAST_POINT_LOANS]
    for _ in range(60):
        pair = random_nontrivial_pair(rng, policy)
        cases.append((pair, two_level_loans(rng, pair)[0]))
    edges = Counter()
    for k, (pair, c) in enumerate(cases):
        spied_scans.clear()
        got = grid_gmax_rank2(pair, c)
        assert got == reference_grid_gmax_rank2(pair, c), (pair, c)
        feasible, ys = spied_scans[0]
        i = _walk(feasible, ys)
        assert not feasible(ys[0]), (pair, c)
        if k < len(LAST_POINT_LOANS):
            assert i == len(ys) - 1 and 0 < got.gain < 0.01, (pair, c, got)
        else:
            assert i >= len(ys) - 1 and got.gain == 0, (pair, c, got)
        edges["last" if i == len(ys) - 1 else "none"] += 1
    assert edges["last"] >= 25, edges
