"""Independent brute-force and analytic references.

Everything here recomputes quantities the main modules produce by other
means: exact p-values by full enumeration, the analytic entropy of a coin,
and the exact p-value of the likelihood statistic for a known coin via
binomial tails.  The test suite checks the fast paths against these; they
are deliberately written without reusing the logic under test.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .bits import BitString
from .errors import InfeasibleError

_ENUMERATION_GUARD = 14


def bernoulli_entropy(p: float) -> float:
    """Shannon entropy in bits of a coin with ones-probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def known_mu_log2_p_value(x: BitString, p: float) -> float:
    """log2 of the exact p-value of the known-coin likelihood statistic.

    The statistic is the probability of the sample under an i.i.d. coin
    with ones-probability ``p``; under the uniform null the p-value is the
    fraction of equal-length strings at least as probable as ``x`` (ties
    included).  The likelihood depends only on the ones count, so the count
    reduces to binomial sums, accumulated in log space: at n ~ 1e4 the
    p-value itself is far below float range, and rate computations need its
    logarithm exactly, not a clamped value.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")
    n = len(x)
    if n == 0:
        return 0.0
    ones = x.to_int().bit_count()
    if p == 0.5:
        return 0.0  # every string is equally probable
    # mu(w) is monotone in the ones count: decreasing for p < 1/2.
    counts = range(ones + 1) if p < 0.5 else range(ones, n + 1)
    log_binom = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 for k in counts]
    top = max(log_binom)
    log_total = top + math.log(math.fsum(math.exp(v - top) for v in log_binom))
    return min(0.0, (log_total - n * math.log(2.0)) / math.log(2.0))


def exhaustive_reject_count(test: Callable[[BitString, float], object], n: int,
                            alpha: float) -> int:
    """Number of n-bit inputs ``test`` rejects at level ``alpha``.

    Used to confirm the critical-region size bound: a level-alpha test may
    reject at most ``2**n * alpha`` of the n-bit inputs.
    """
    if n > _ENUMERATION_GUARD:
        raise InfeasibleError(
            f"exhaustive rejection count over 2**{n} inputs exceeds the "
            f"{_ENUMERATION_GUARD}-bit guard")
    count = 0
    for value in range(1 << n):
        report = test(BitString.from_int(value, n), alpha)
        if getattr(report, "rejected", False):
            count += 1
    return count


def exhaustive_p_values(tau: Callable[[BitString], float], n: int) -> np.ndarray:
    """Exact p-values of ``tau`` for every n-bit string, by one enumeration.

    Entry ``v`` is the p-value of the string whose big-endian value is
    ``v``.  Computed by sorting the statistic values, so it shares no logic
    with the per-string counting loop it is checked against.
    """
    if n > _ENUMERATION_GUARD:
        raise InfeasibleError(
            f"exhaustive p-value table over 2**{n} inputs exceeds the "
            f"{_ENUMERATION_GUARD}-bit guard")
    total = 1 << n
    values = np.empty(total)
    for v in range(total):
        values[v] = tau(BitString.from_int(v, n))
    order = np.sort(values)
    # count of y with tau(y) >= tau(x), ties included
    idx = np.searchsorted(order, values, side="left")
    return (total - idx) / float(total)
