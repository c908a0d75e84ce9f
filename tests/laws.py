"""The bounds the statistical checks of the simulator are held to, each at a
fixed seed, so that a check passes or fails the same way on every run.
Import from a test module as ``from laws import ...``.
"""

import math

# The standard normal's upper 1e-4 point: a statistic about standard normal
# under the law it checks must lie below it
LAW_Z = 3.719016485455709

# The probability that a normal variable lies within one standard deviation of its mean
ONE_SIGMA = math.erf(1.0 / math.sqrt(2.0))


def within_binomial_bound(hits: int, n: int, p: float, z: float = LAW_Z) -> bool:
    """Whether ``hits`` of ``n`` independent trials, each a hit with
    probability ``p``, lie within ``z`` standard deviations of the binomial
    mean ``n p``: the check of a fraction, such as a coverage, at a fixed seed."""
    return abs(hits - n * p) <= z * math.sqrt(n * p * (1.0 - p))
