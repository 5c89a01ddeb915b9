"""Seeded inputs, CLI invocations and per-item correctness checks.

Nothing here imports supercat: the inputs and the checks are computed with
the benchmark's own few lines of majorization arithmetic, so a change to the
program can neither change the workloads nor grade its own answers.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

#: The four bundled pairs of supercat.examples, copied so the workloads do
#: not depend on the program under test.
BUNDLED = {
    "1": ("0.4,0.4,0.1,0.1", "0.5,0.25,0.25,0"),
    "2": ("0.4,0.36,0.14,0.1", "0.5,0.25,0.25,0"),
    "3": ("0.41,0.38,0.12,0.09", "0.5,0.25,0.25,0"),
    "4": ("0.88,0.08,0.02,0.02", "0.9,0.05,0.05,0"),
}

POOL_SIZE = 200
TOL = 1e-12          # the program's float tolerance for partial sums
STRICT = 1e-9        # its margin for strict inequalities
CHECK_TOL = 1e-9     # slack for re-checking printed floats


@dataclass(frozen=True)
class Item:
    """One input: a pair, optionally a borrowed state, and a stable key."""

    key: str
    a: str
    b: str
    c: str = ""
    bundled: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweep_points: int      # points per gain sweep, 0 if the workload runs none
    trace_items: int       # items in one traced pass (fixed, so counts repeat)


WORKLOADS = {w.name: w for w in (
    Workload("sweep-float", "float gain-sweep at 200 points: breakpoint solve, bound per "
             "point, zoom refinement and JSON/CSV export", 200, 16),
    Workload("sweep-exact", "exact gain-sweep at 50 points on rational pairs: Fraction "
             "kron, majorization and breakpoint arithmetic", 50, 8),
    Workload("verify", "catalyst-range --exact --verify then gain-sweep --points 25 "
             "--verify: the grid oracle's membership probe loops", 25, 6),
    Workload("loan-highrank", "gain-sweep --c with rank-3 loans: returned rank cap 3 or 4, "
             "so the grid searches for rank >= 3 run", 0, 16),
)}


# ---------------------------------------------------------------- arithmetic

def _vec(text: str, exact: bool) -> tuple:
    parts = [Fraction(t) for t in text.split(",")]
    total = sum(parts)
    vals = [x / total for x in parts] if exact else [float(x) / float(total) for x in parts]
    return tuple(sorted(vals, reverse=True))


def majorizes(b, a, tol: float = 0.0) -> bool:
    """Every partial sum of b at least a's (zero-padded)."""
    n = max(len(a), len(b))
    zero = 0 * a[0]
    fa = accumulate(tuple(a) + (zero,) * (n - len(a)))
    fb = accumulate(tuple(b) + (zero,) * (n - len(b)))
    return all(x <= y + tol for x, y in zip(fa, fb))


def kron(u, v) -> tuple:
    return tuple(sorted((x * y for x in u for y in v), reverse=True))


def entropy(v) -> float:
    return -math.fsum(float(p) * math.log2(float(p)) for p in v if p > 0)


def _interval(a, b, exact: bool):
    """Closed-form two-level catalyst interval of a blocked rank <= 4 pair
    passing the necessary conditions, as (x_min, x_max), or None if empty."""
    tol = 0 if exact else TOL
    a1, a2, a3, a4 = (tuple(a) + (0,) * 4)[:4]
    b1, b2, b3, b4 = (tuple(b) + (0,) * 4)[:4]
    lower = [(a1 + a2 - b1) / (b2 + b3)]
    if b3 - a3 > tol:
        lower.append(1 - (a4 - b4) / (b3 - a3))
    elif b4 > a4 + tol:
        return None
    upper = [b1 / (a1 + a2)]
    if a2 - b2 > tol:
        upper.append((b1 - a1) / (a2 - b2))
    elif a1 > b1 + tol:
        return None
    if a3 + a4 > tol:
        upper.append(1 - b4 / (a3 + a4))
    elif b4 > tol:
        return None
    x_min, x_max = max(max(lower), 0.5), min(min(upper), 1)
    return (x_min, x_max) if x_min <= x_max else None


# ---------------------------------------------------------------- generators
# These follow the random-pair generator of the test suite: sorted rank-4
# vectors, a blocked base transformation, the necessary partial-sum
# conditions, and a nonempty interval.  Intervals narrower than min_width are
# rejected so that no input sits on a tolerance boundary.

def _float_simplex(rng: random.Random, dim: int) -> tuple:
    cuts = sorted(rng.random() for _ in range(dim - 1))
    edges = [0.0] + cuts + [1.0]
    return tuple(sorted((y - x for x, y in zip(edges, edges[1:])), reverse=True))


def _rational_simplex(rng: random.Random, dim: int, denom: int = 1000) -> tuple:
    while True:
        cuts = sorted(rng.randrange(0, denom + 1) for _ in range(dim - 1))
        edges = [0] + cuts + [denom]
        vals = sorted((y - x for x, y in zip(edges, edges[1:])), reverse=True)
        if vals[0] < denom:
            return tuple(Fraction(v, denom) for v in vals)


def _text(v) -> str:
    return ",".join(f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else repr(x)
                    for x in v)


def _pair_ok(a, b, exact: bool, min_width: float) -> bool:
    tol, strict = (0, 0) if exact else (TOL, STRICT)
    if majorizes(b, a, tol):
        return False  # convertible without a catalyst
    fa, fb = list(accumulate(a)), list(accumulate(b))
    if not (fa[0] <= fb[0] + tol and fa[1] > fb[1] + strict and fa[2] <= fb[2] + tol):
        return False
    iv = _interval(a, b, exact)
    return iv is not None and float(iv[1]) - float(iv[0]) >= min_width


def random_pair(rng: random.Random, exact: bool, min_width: float):
    while True:
        if exact:
            a, b = _rational_simplex(rng, 4), _rational_simplex(rng, 4)
        else:
            a, b = _float_simplex(rng, 4), _float_simplex(rng, 4)
        if _pair_ok(a, b, exact, min_width):
            return a, b


def random_loan(rng: random.Random, a, b) -> tuple:
    """A random rank-3 catalyst of the pair.  It is accepted without the
    program's tolerance slack, so the program accepts it too."""
    while True:
        c = _float_simplex(rng, 3)
        if c[2] > 1e-3 and majorizes(kron(b, c), kron(a, c)):
            return c


def make_pool(workload: str, seed: int) -> list:
    """The workload's items, fully determined by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    items = []
    if workload in ("sweep-float", "sweep-exact"):
        exact = workload == "sweep-exact"
        items = [Item(f"bundled-{k}", a, b, bundled=True) for k, (a, b) in BUNDLED.items()]
        while len(items) < POOL_SIZE:
            a, b = random_pair(rng, exact, 1e-4)
            items.append(Item(f"r{len(items):03d}", _text(a), _text(b)))
    elif workload == "verify":
        while len(items) < POOL_SIZE:
            a, b = random_pair(rng, True, 5e-3)
            items.append(Item(f"r{len(items):03d}", _text(a), _text(b)))
    elif workload == "loan-highrank":
        for k, (a, b) in BUNDLED.items():
            va, vb = _vec(a, False), _vec(b, False)
            for j in range(3):
                items.append(Item(f"bundled-{k}-{j}", a, b, _text(random_loan(rng, va, vb))))
        while len(items) < POOL_SIZE:
            a, b = random_pair(rng, False, 1e-4)
            items.append(Item(f"r{len(items):03d}", _text(a), _text(b),
                              _text(random_loan(rng, a, b))))
    else:
        raise KeyError(workload)
    return items


def invocations(workload: str, item: Item, out_csv: str) -> list:
    """The argv lists passed to supercat.cli.main for one item."""
    pair = ["--a", item.a, "--b", item.b]
    if workload == "sweep-float":
        return [["gain-sweep", *pair, "--points", "200", "--out", out_csv]]
    if workload == "sweep-exact":
        return [["gain-sweep", "--exact", *pair, "--points", "50", "--out", out_csv]]
    if workload == "verify":
        return [["catalyst-range", "--exact", "--verify", *pair],
                ["gain-sweep", *pair, "--points", "25", "--verify", "--out", out_csv]]
    return [["gain-sweep", *pair, "--c", item.c]]


# ---------------------------------------------------------------- checks

@dataclass
class CallResult:
    code: int
    stdout: str
    csv: bytes = b""


def _check_sweep(res: CallResult, problems: list) -> dict:
    s = json.loads(res.stdout)
    for p in s["points"]:
        if not 0.0 <= p["gmax"] <= p["bound"] + 1e-12:
            problems.append(f"gmax {p['gmax']} outside [0, bound {p['bound']}] at x={p['x']}")
            break
    if s["bound_violations"] != 0:
        problems.append(f"bound_violations={s['bound_violations']}")
    if s["tilde_gmax"] > s["envelope_bound"] + CHECK_TOL:
        problems.append(f"tilde_gmax {s['tilde_gmax']} above envelope {s['envelope_bound']}")
    if s["tilde_gmax"] < max(p["gmax"] for p in s["points"]) - 1e-12:
        problems.append("tilde_gmax below a sampled point")
    if s.get("oracle_mismatches"):
        problems.append(f"{len(s['oracle_mismatches'])} oracle gain mismatches")
    return {"csv": hashlib.sha256(res.csv).hexdigest()[:16], "x_min": s["x_min"],
            "x_max": s["x_max"], "tilde_gmax": s["tilde_gmax"]}


def _check_loan(item: Item, res: CallResult, problems: list) -> dict:
    out = json.loads(res.stdout)
    a, b, c = _vec(item.a, False), _vec(item.b, False), _vec(item.c, False)
    d = tuple(out["returned_state"])
    if any(x < 0 for x in d) or abs(math.fsum(d) - 1) > CHECK_TOL or list(d) != sorted(d)[::-1]:
        problems.append(f"returned state {d} is not a sorted probability vector")
    if not majorizes(kron(b, d), kron(a, c), CHECK_TOL):
        problems.append("joint transfer a(x)c -> b(x)d infeasible")
    if not majorizes(c, d, CHECK_TOL):
        problems.append("returned state does not reach the borrowed state")
    g = out["gain"]
    expect = min(max((entropy(d) - entropy(c)) / (entropy(a) - entropy(b)), 0.0), 1.0)
    if not 0.0 <= g <= 1.0 or abs(g - expect) > CHECK_TOL:
        problems.append(f"gain {g} inconsistent with returned state ({expect})")
    return {"gain": g}


def check_item(workload: str, item: Item, results: list) -> tuple:
    """(problems, digest) for one item's CLI results."""
    problems = [f"call {i} exited with {r.code}" for i, r in enumerate(results) if r.code != 0]
    if problems:
        return problems, {}
    try:
        if workload == "verify":
            iv = json.loads(results[0].stdout)
            if iv.get("oracle_agrees") is not True:
                problems.append("interval oracle disagrees")
            digest = _check_sweep(results[1], problems)
            digest.update(x_min=iv["x_min"], x_max=iv["x_max"])
        elif workload == "loan-highrank":
            digest = _check_loan(item, results[0], problems)
        else:
            digest = _check_sweep(results[0], problems)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}
    return problems, digest


def compare_reference(digest: dict, ref: dict) -> list:
    """Problems of a digest against the one recorded for the same input.

    CSV bytes and interval endpoints must not change.  The sweep maximum and
    a loan's gain may rise, since a better optimizer finds more, but may not
    fall by more than 1e-9.
    """
    problems = []
    if "csv" in ref and digest["csv"] != ref["csv"]:
        problems.append(f"CSV sha256 {digest['csv']} != reference {ref['csv']}")
    for key in ("x_min", "x_max"):
        if key in ref and abs(digest[key] - ref[key]) > 1e-12:
            problems.append(f"{key} {digest[key]!r} != reference {ref[key]!r}")
    for key in ("tilde_gmax", "gain"):
        if key in ref and digest[key] < ref[key] - 1e-9:
            problems.append(f"{key} {digest[key]!r} fell below reference {ref[key]!r}")
    return problems
