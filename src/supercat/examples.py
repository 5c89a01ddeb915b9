"""Bundled catalytic pairs used by the demo command and the test suite.

All four pairs share the pattern of a rank-4 input and a rank-3 output and
have a nonempty two-level catalyst range.  They cover the qualitatively
different sweep shapes: bound attained at the least entangled catalyst,
least entangled optimal without attaining the bound, interior optimum
slightly ahead, and complete failure of the least entangled catalyst.
"""

from __future__ import annotations

from .catalysis import CatalyticPair
from .schmidt import FLOAT_POLICY, ComparisonPolicy, make_schmidt

#: name -> (input coefficients, output coefficients), as exact decimal strings
EXAMPLE_PAIRS = {
    "1": (("0.4", "0.4", "0.1", "0.1"), ("0.5", "0.25", "0.25", "0")),
    "2": (("0.4", "0.36", "0.14", "0.1"), ("0.5", "0.25", "0.25", "0")),
    "3": (("0.41", "0.38", "0.12", "0.09"), ("0.5", "0.25", "0.25", "0")),
    "4": (("0.88", "0.08", "0.02", "0.02"), ("0.9", "0.05", "0.05", "0")),
}


def example_pair(name: str, policy: ComparisonPolicy = FLOAT_POLICY) -> CatalyticPair:
    """Build one of the bundled pairs under the given comparison policy."""
    raw_a, raw_b = EXAMPLE_PAIRS[name]
    return CatalyticPair(make_schmidt(raw_a, policy), make_schmidt(raw_b, policy), policy)
