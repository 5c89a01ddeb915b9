"""Shared generators and fixtures for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import pytest
from hypothesis import settings

from supercat import (CatalyticPair, ComparisonPolicy, FLOAT_POLICY, SchmidtVector,
                      binary_entropy, entropy, is_catalyst, make_schmidt,
                      necessary_conditions_4d, rank2_catalyst_interval)
from supercat.catalysis import _ordered_simplex_grid, probe_two_level
from supercat.errors import PreconditionViolated

settings.register_profile("package", deadline=None, derandomize=True)
settings.load_profile("package")


def random_sorted_simplex(rng: random.Random, dim: int) -> tuple:
    cuts = sorted(rng.random() for _ in range(dim - 1))
    edges = [0.0] + cuts + [1.0]
    vals = [b - a for a, b in zip(edges, edges[1:])]
    return tuple(sorted(vals, reverse=True))


def random_rational_sorted_simplex(rng: random.Random, dim: int, denom: int = 1000) -> tuple:
    while True:
        cuts = sorted(rng.randrange(0, denom + 1) for _ in range(dim - 1))
        edges = [0] + cuts + [denom]
        vals = sorted((b - a for a, b in zip(edges, edges[1:])), reverse=True)
        if vals[0] < denom:  # avoid the separable corner
            return tuple(Fraction(v, denom) for v in vals)


def random_nontrivial_pair(rng: random.Random, policy: ComparisonPolicy = FLOAT_POLICY,
                           min_width: float = 0.0):
    """A random rank <= 4 pair with a blocked base transformation and a
    nonempty two-level catalyst interval of at least the given width."""
    while True:
        if policy.exact:
            raw_a = random_rational_sorted_simplex(rng, 4)
            raw_b = random_rational_sorted_simplex(rng, 4)
            # the raw rationals are the pair's vectors, so a candidate failing
            # a necessary condition is dropped before the pair is built;
            # f2(a) > f2(b) also makes the transformation blocked
            fa, fb = tuple(accumulate(raw_a)), tuple(accumulate(raw_b))
            if not (fa[0] <= fb[0] and fa[1] > fb[1] and fa[2] <= fb[2]):
                continue
        else:
            raw_a = random_sorted_simplex(rng, 4)
            raw_b = random_sorted_simplex(rng, 4)
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


def random_catalyst(rng: random.Random, pair: CatalyticPair, r: int = 3):
    """A random catalyst of rank r in the pair's arithmetic, its last level at
    least 1e-3; an exact one over a denominator of 20, 60 or 1000."""
    while True:
        if pair.policy.exact:
            raw = random_rational_sorted_simplex(rng, r, rng.choice((20, 60, 1000)))
        else:
            raw = random_sorted_simplex(rng, r)
        c = make_schmidt(raw, pair.policy)
        if c[-1] >= 1e-3 and is_catalyst(pair, c):
            return c


def random_blocked_pair_with_empty_interval(rng: random.Random,
                                            policy: ComparisonPolicy = FLOAT_POLICY):
    """A blocked pair passing the necessary conditions whose closed-form
    two-level interval is nevertheless empty."""
    while True:
        if policy.exact:
            raw_a = random_rational_sorted_simplex(rng, 4)
            raw_b = random_rational_sorted_simplex(rng, 4)
        else:
            raw_a = random_sorted_simplex(rng, 4)
            raw_b = random_sorted_simplex(rng, 4)
        pair = CatalyticPair(make_schmidt(raw_a, policy), make_schmidt(raw_b, policy), policy)
        if not pair.nontrivial:
            continue
        try:
            if not necessary_conditions_4d(pair):
                continue
        except PreconditionViolated:
            continue
        if not rank2_catalyst_interval(pair).nonempty:
            return pair


@lru_cache(maxsize=None)
def reference_search_candidates(r: int, exact: bool) -> tuple:
    """(entropy, vector) of rank-r reference points, sorted stably by
    decreasing entropy: the ordered simplex grid of 60 steps, then 2,000
    random points of seed 0, read by the exact-mode rule in exact mode.
    They test the entropy ceiling's soundness away from the returned-state
    grid.  Built once per (r, exact)."""
    steps = 60
    if exact:
        vectors = [SchmidtVector(Fraction(k, steps) for k in parts)
                   for parts in _ordered_simplex_grid(r, steps)]
    else:
        vectors = [SchmidtVector(k / steps for k in parts)
                   for parts in _ordered_simplex_grid(r, steps)]
    rng = random.Random(0)
    for _ in range(2000):
        raw = sorted((rng.random() for _ in range(r)), reverse=True)
        if exact:
            raw = [Fraction(str(x)) for x in raw]
        total = sum(raw)
        vectors.append(SchmidtVector(x / total for x in raw))
    return tuple(sorted(((entropy(v), v) for v in vectors), key=lambda t: t[0], reverse=True))


def reference_max_catalyst_entropy(pair: CatalyticPair, r: int):
    """(value, certificate): a lower bound on the largest entropy of a
    catalyst of rank <= r, the most entropic catalyst among the low end of
    the pair's exact two-level set and reference_search_candidates(r), ties
    going to the two-level one and then to the point listed first.  None
    for no catalyst."""
    best = None
    if pair._two_level:
        x_min = pair._two_level[0][0]
        best = binary_entropy(x_min), probe_two_level(x_min, pair.policy)
    for ent, v in reference_search_candidates(r, pair.policy.exact):
        if best and ent <= best[0]:
            break
        if is_catalyst(pair, v):
            return ent, v
    return best


@pytest.fixture
def rng():
    return random.Random(20240817)
