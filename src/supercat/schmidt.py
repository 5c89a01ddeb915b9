"""Schmidt-vector arithmetic for bipartite pure states.

A state is represented by its Schmidt vector: the non-increasing probability
vector of squared Schmidt coefficients.  This is the complete description for
LOCC convertibility questions, which reduce to majorization of partial sums
(Nielsen's criterion).  All operations are pure functions; vectors are
immutable after construction.

Two arithmetic modes are supported through ComparisonPolicy: ordinary floats
with absolute tolerances, and exact rationals (fractions.Fraction) for inputs
given as short decimals or p/q strings, where majorization ties are decided
without ambiguity.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context
from fractions import Fraction
from itertools import accumulate
from typing import ClassVar, Iterable, Sequence, Union

from .errors import DomainError, IndexOutOfRange, NegativeEntry, NotNormalized, PreconditionViolated

Real = Union[int, float, Fraction]

#: Construction tolerance: how far raw inputs may stray from the simplex.
NORM_TOL = 1e-9


def _frozen(self, name, *value):  # __setattr__ and __delattr__ of an immutable class
    raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")


class ComparisonPolicy:
    """How numeric comparisons are decided.

    mode:        "float" compares with the fixed absolute tolerances below,
                 "exact" compares rationals exactly (both are ignored).
    exact:       mode == "exact", set once on construction; it is read on
                 every probe, and takes no part in equality, hash or repr.
    tol_eq:      slack allowed when testing non-strict inequalities/equality.
    tol_strict:  margin required before an inequality counts as strict.

    A policy is an immutable value, equal and hashed by mode alone.
    """

    __slots__ = ("mode", "exact")
    tol_eq: ClassVar[float] = 1e-12
    tol_strict: ClassVar[float] = 1e-9

    def __init__(self, mode: str = "float"):
        if mode not in ("float", "exact"):
            raise ValueError(f"unknown comparison mode {mode!r}")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "exact", mode == "exact")

    def __eq__(self, other):
        return self.mode == other.mode if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((self.mode,))

    def __repr__(self):
        return f"ComparisonPolicy(mode={self.mode!r})"

    def __reduce__(self):
        return ComparisonPolicy, (self.mode,)

    __setattr__ = __delattr__ = _frozen

    def leq(self, x: Real, y: Real) -> bool:
        """x <= y, up to tol_eq slack in float mode."""
        if self.exact:
            return x <= y
        return x <= y + self.tol_eq

    def strictly_greater(self, x: Real, y: Real) -> bool:
        """x > y with a tol_strict margin in float mode."""
        if self.exact:
            return x > y
        return x > y + self.tol_strict

    def eq(self, x: Real, y: Real) -> bool:
        if self.exact:
            return x == y
        return abs(x - y) <= self.tol_eq

    def positive(self, x: Real) -> bool:
        """Is x positive enough to count as a non-zero coefficient?"""
        if self.exact:
            return x > 0
        return x > self.tol_eq


FLOAT_POLICY = ComparisonPolicy()
EXACT_POLICY = ComparisonPolicy(mode="exact")


class SchmidtVector(tuple):
    """Non-increasing probability vector of squared Schmidt coefficients.

    The invariant: a non-empty tuple of coefficients, all floats or all
    Fractions, non-increasing and non-negative, summing to 1 (up to len(v)
    ulps of 1 for floats, exactly for Fractions).  make_schmidt (which validates,
    sorts, clamps and renormalizes) and kron build such vectors.
    SchmidtVector(iterable) checks nothing and keeps any order, which the
    joint tests accept; a pair's questions pass any vector that breaks the
    invariant to make_schmidt (_coerce_vector).
    """

    __slots__ = ()

    @property
    def exact(self) -> bool:
        return bool(self) and isinstance(self[0], Fraction)

    def padded(self, n: int) -> "SchmidtVector":
        """Same vector with zeros appended up to dimension n."""
        if n <= len(self):
            return self
        zero = _constants(self.exact)[0]
        return SchmidtVector(self + (zero,) * (n - len(self)))

    def to_json_value(self) -> list:
        """JSON form: decimals in float mode, "p/q" strings in exact mode."""
        if self.exact:
            return [f"{x.numerator}/{x.denominator}" for x in self]
        return list(self)


_EXACT_CONSTANTS = (Fraction(0), Fraction(1, 2), Fraction(1))
_FLOAT_CONSTANTS = (0.0, 0.5, 1.0)


def _constants(exact: bool) -> tuple:
    """(0, 1/2, 1) as Fractions in exact mode, as floats otherwise."""
    return _EXACT_CONSTANTS if exact else _FLOAT_CONSTANTS


def _coerce(x, policy: ComparisonPolicy, what: str = "coefficient"):
    """x in the policy's arithmetic; what names x in the NotNormalized message.

    Anything but a float is read as a Fraction first, so "1/2" and "0.1" mean
    the same number in both modes (float mode then rounds it correctly).  In
    float mode a finite float, such as every float probe, is returned at once.
    """
    if type(x) is float and not policy.exact and math.isfinite(x):
        return x
    try:
        if not isinstance(x, float):
            x = Fraction(x)
            if policy.exact:
                return x
        x = float(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise NotNormalized(f"{what} {x!r} is not a finite number") from None
    except OverflowError:
        raise NotNormalized(f"{what} {_brief(x)} is beyond the float range") from None
    if not math.isfinite(x):
        raise NotNormalized(f"non-finite {what} {x}")
    # exact mode reads a float by its shortest decimal repr, so a
    # literal like 0.4 means 2/5 rather than its binary expansion
    return Fraction(str(x)) if policy.exact else x


def make_schmidt(raw: Iterable[Real], policy: ComparisonPolicy = FLOAT_POLICY) -> SchmidtVector:
    """Validate, sort descending, clamp tiny negatives and renormalize.

    Raises NegativeEntry if any entry is below -NORM_TOL and NotNormalized if
    an entry does not denote a finite number or the total differs from 1 by
    more than NORM_TOL.
    """
    entries = [_coerce(x, policy) for x in raw]
    if not entries:
        raise NotNormalized("empty coefficient list")
    low = min(entries)
    if low < -NORM_TOL:
        raise NegativeEntry(f"coefficient {_brief(low)} below -{NORM_TOL}")
    total = _total(entries)
    if abs(total - 1) > NORM_TOL:
        raise NotNormalized(f"coefficients sum to {_brief(total)}, not 1")
    zero = _constants(policy.exact)[0]
    entries = [max(x, zero) for x in entries]
    total = _total(entries)
    entries = [x / total for x in entries]
    entries.sort(reverse=True)
    return SchmidtVector(entries)


def _brief(x) -> str:
    """x for an error message: str(x), or 12 significant digits for a rational of
    more than about 30, such as 1e500 (str of an int past 4300 digits raises)."""
    if isinstance(x, (int, Fraction)) and (x.numerator * x.denominator).bit_length() > 99:
        ctx = Context(prec=12, Emax=MAX_EMAX, Emin=MIN_EMIN)
        return format(ctx.normalize(ctx.divide(x.numerator, x.denominator)), "g")
    return str(x)


def _coerce_vector(v: SchmidtVector, policy: ComparisonPolicy) -> SchmidtVector:
    """v in the policy's arithmetic and order: kept as given if it holds
    SchmidtVector's invariant (an O(n) check, on _member_form's integers in
    exact mode), else passed to make_schmidt.  A kept float total is 1 up to
    rounding: a loan off by 1e-10 fails the joint test's last prefix sum."""
    exact, kind = policy.exact, (Fraction if policy.exact else float)
    if isinstance(v, SchmidtVector) and v and all(type(x) is kind for x in v):
        q, ints = _member_form(v, exact)
        if (ints[-1] >= 0 and list(ints) == sorted(ints, reverse=True)
                and (sum(ints) == q if exact else abs(math.fsum(v) - 1) <= len(v) * math.ulp(1))):
            return v
    return make_schmidt(v, policy)


def _member_form(c, exact: bool) -> tuple:
    """(q, C): c as every joint test reads it.  Exact mode: the integers
    C_j = c_j q over the lcm q of c's denominators (the probe x = p/q is
    (p, q - p)).  Float mode: (1, c)."""
    if not exact:
        return 1, c
    q = math.lcm(*(x.denominator for x in c))
    return q, [x.numerator * (q // x.denominator) for x in c]


def _total(entries: Sequence[Real]):
    if entries and isinstance(entries[0], Fraction):
        return sum(entries)
    return math.fsum(entries)


def _pad_to_match(u: SchmidtVector, v: SchmidtVector):
    n = max(len(u), len(v))
    return u.padded(n), v.padded(n)


def prefix_sums(v: SchmidtVector) -> tuple:
    """All partial sums f_1..f_dim of the coefficients, largest first."""
    return tuple(accumulate(sorted(v, reverse=True)))


def partial_sum(v: SchmidtVector, k: int) -> Real:
    """Sum of the k largest coefficients, 1 <= k <= dim."""
    if not 1 <= k <= len(v):
        raise IndexOutOfRange(f"k={k} outside [1, {len(v)}]")
    return _total(sorted(v, reverse=True)[:k])


def majorizes(b: SchmidtVector, a: SchmidtVector,
              policy: ComparisonPolicy = FLOAT_POLICY) -> bool:
    """True when every partial sum of b weakly dominates a's (b majorizes a).

    Vectors of unequal length are zero-padded first.
    """
    b, a = _pad_to_match(b, a)
    return all(policy.leq(fa, fb) for fa, fb in zip(prefix_sums(a), prefix_sums(b)))


def nielsen_convertible(a: SchmidtVector, b: SchmidtVector,
                        policy: ComparisonPolicy = FLOAT_POLICY) -> bool:
    """Can the state with vector a reach b by LOCC?  Yes iff b majorizes a."""
    return majorizes(b, a, policy)


def kron(u: SchmidtVector, v: SchmidtVector) -> SchmidtVector:
    """Schmidt vector of the joint state: all pairwise products, sorted."""
    return SchmidtVector(sorted((x * y for x in u for y in v), reverse=True))


def entropy(v: SchmidtVector) -> float:
    """Entanglement entropy in bits, with 0*log(0) taken as 0.

    Each coefficient is taken as a float first, so an exact coefficient below
    the float range counts as 0, as its term p*log(p) does in the limit.
    """
    return -math.fsum(p * math.log2(p) for p in map(float, v) if p > 0.0)


def binary_entropy(x: Real) -> float:
    """Entropy of the distribution (x, 1-x) in bits."""
    xf = float(x)
    if xf < -NORM_TOL or xf > 1 + NORM_TOL:
        raise DomainError(f"binary entropy argument {xf} outside [0, 1]")
    xf = min(max(xf, 0.0), 1.0)
    if xf in (0.0, 1.0):
        return 0.0
    return -xf * math.log2(xf) - (1 - xf) * math.log2(1 - xf)


def schmidt_rank(v: SchmidtVector, policy: ComparisonPolicy = FLOAT_POLICY) -> int:
    """Number of non-zero coefficients."""
    return sum(1 for x in v if policy.positive(x))


def split_partial_sum(u: SchmidtVector, c: SchmidtVector, k1: int, k2: int) -> Real:
    """c1 * (sum of k1 largest of u) + c2 * (sum of k2 largest of u).

    For a two-level auxiliary vector c, every partial sum of the joint vector
    u (x) c equals such a split for some k1 >= k2 with k1 + k2 = k, and
    dominates every other split of the same total.  The empty sum (k2 = 0)
    is 0.
    """
    if len(c) != 2:
        raise PreconditionViolated(f"auxiliary vector must have dimension 2, got {len(c)}")
    if not (k1 >= k2 >= 0):
        raise IndexOutOfRange(f"need k1 >= k2 >= 0, got k1={k1}, k2={k2}")
    if k1 > len(u):
        raise IndexOutOfRange(f"split indices ({k1}, {k2}) exceed dim {len(u)}")
    zero = _constants(u.exact)[0]
    s1 = partial_sum(u, k1) if k1 else zero
    s2 = partial_sum(u, k2) if k2 else zero
    return max(c) * s1 + min(c) * s2
