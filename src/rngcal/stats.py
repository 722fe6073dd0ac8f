"""Test statistics, decision rules, p-values, and battery combination.

The compression test rejects uniformity when a prefix-free code saves at
least ``log2(1/alpha)`` bits: the number of n-bit inputs whose codeword is
that short is bounded by the Kraft inequality, so ``2**-statistic`` is a
valid (conservative) p-value bound.  The prefix-scanning ensemble test
``tau_k_test`` applies the same counting bound at every prefix length m,
charging each scale a share ``omega_m`` of the significance budget.

All reported p-values are clamped into ``(0, 1]`` with a floor of 2**-1024
so downstream logarithms stay finite.  Decisions are always derived from
``p_value <= alpha``, which for these statistics coincides with the
bits-saved threshold form.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence

from . import lz
from .bits import BitString
from .errors import InfeasibleError

P_VALUE_FLOOR = 2.0 ** -1024

UPPER_BOUND = "upper_bound"

TEST_IDS = ("lz77", "tauk")

EXACT_MAX_BITS = 24  # exact_p_value enumerates 2**n strings


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return float(alpha)


def _check_grid(start_bits: int, max_bits: int) -> None:
    """A scan's doubling grid, ``start_bits`` up to ``max_bits``, must hold a length."""
    if not 1 <= start_bits <= max_bits:
        raise ValueError(f"need 1 <= start_bits <= max_bits, got start_bits {start_bits} "
                         f"and max_bits {max_bits}")


def _clamp_p(p: float) -> float:
    return min(1.0, max(p, P_VALUE_FLOOR))


def _bound_from_bits(saved_bits: float) -> float:
    """p-value upper bound 2**-saved_bits, clamped into (0, 1]."""
    if saved_bits <= 0.0:
        return 1.0
    return _clamp_p(2.0 ** -min(saved_bits, 1100.0))


# ---------------------------------------------------------------------------
# weights


def omega_star(i: int) -> float:
    """The default weight of component or scale ``i``: 1/(i*(i+1)), which sums to 1."""
    if i < 1:
        raise ValueError(f"schedule index must be >= 1, got {i}")
    return 1.0 / (i * (i + 1.0))


# ---------------------------------------------------------------------------
# reports


class ComponentResult(namedtuple("ComponentResult", "test_id statistic_bits p_value")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


class TestReport(namedtuple("TestReport", "statistic_bits p_value p_value_kind alpha "
                                          "decision components detail")):
    """Outcome of one test (or one combined battery) on one sample.

    ``p_value_kind`` is ``upper_bound`` for every report made here: a Kraft
    bound, or a battery's ``min(p_i / w_i)``, a bound even over exact
    ``p_i``; so decisions are conservative.  ``components`` defaults to
    None and ``detail`` to a new ``{}``.  ``detail`` carries diagnostic
    extras: it is not part of the serialized report, and reports that differ
    only in it are equal.
    """

    __slots__ = ()

    def __new__(cls, statistic_bits, p_value, p_value_kind, alpha, decision,
                components=None, detail=None):
        return super().__new__(cls, statistic_bits, p_value, p_value_kind, alpha, decision,
                               components, {} if detail is None else detail)

    def __eq__(self, other):  # a tuple's would compare ``detail``, and equal a bare tuple
        return type(other) is type(self) and self[:-1] == other[:-1]

    __ne__ = object.__ne__  # the negation of ``__eq__``, not of the tuple's

    def __hash__(self) -> int:
        return hash(self[:-1])

    @property
    def rejected(self) -> bool:
        return self.decision == "reject"

    def to_dict(self) -> dict:
        document = self._asdict()
        del document["detail"]
        if self.components is not None:
            document["components"] = [c.to_dict() for c in self.components]
        return document


def _make_report(statistic_bits: float, p_value: float, alpha: float,
                 components=None, detail=None) -> TestReport:
    p = _clamp_p(p_value)
    return TestReport(
        statistic_bits=float(statistic_bits),
        p_value=p,
        p_value_kind=UPPER_BOUND,
        alpha=alpha,
        decision="reject" if p <= alpha else "accept",
        components=components,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# the compression test


def compression_test(x: BitString, alpha: float = 0.01) -> TestReport:
    """Reject uniformity when the LZ77 code saves ``log2(1/alpha)`` bits or more.

    The statistic is ``len(x) - code_length(x)``; ``2**-statistic`` is an
    upper bound on the p-value by the Kraft counting argument, so the
    reported p-value has kind ``upper_bound``.  One step of
    :class:`PrefixScanTest`.
    """
    return PrefixScanTest("lz77").reports(x, alpha)[0]


def _compression_report(n: int, clen: int, alpha: float) -> TestReport:
    """The report of ``n`` bits priced at ``clen`` by a prefix-free code."""
    statistic = n - clen
    return _make_report(statistic, _bound_from_bits(statistic), alpha,
                        detail={"test_id": "lz77", "code_bits": clen, "input_bits": n})


def exact_p_value(x: BitString, tau: Callable[[BitString], float]) -> float:
    """Exact p-value of statistic ``tau`` at ``x`` by full enumeration.

    Counts the n-bit strings whose statistic is at least ``tau(x)`` (ties
    count).  Enumeration is guarded at ``EXACT_MAX_BITS`` since the cost is
    2**n statistic evaluations.
    """
    n = len(x)
    if n > EXACT_MAX_BITS:
        raise InfeasibleError(
            f"exact enumeration over 2**{n} strings exceeds the {EXACT_MAX_BITS}-bit guard")
    observed = tau(x)
    pad, size = -n % 8, (n + 7) // 8  # each string's payload: its value, shifted to the top
    count = sum(1 for v in range(1 << n)
                if tau(BitString._wrap((v << pad).to_bytes(size, "big"), n)) >= observed)
    return count / float(1 << n)


# ---------------------------------------------------------------------------
# batteries


def _battery_weights(weights: Sequence[float] | None, k: int) -> list[float]:
    """The weights of a battery's ``k`` components: ``omega_star`` when
    ``weights`` is None, else the first ``k`` of that list, which must be
    positive, sum to at most 1 and have one weight per component."""
    if weights is None:
        return [omega_star(i) for i in range(1, k + 1)]
    w = [float(v) for v in weights]
    if not w:
        raise ValueError("custom weights must have at least one weight")
    if not all(v > 0.0 for v in w):  # NaN fails this too
        raise ValueError("schedule weights must be positive")
    if math.fsum(w) > 1.0 + 1e-12:
        raise ValueError(f"schedule weights sum to {math.fsum(w)}, must be <= 1")
    if len(w) < k:
        raise ValueError(f"schedule 'custom' has no weight for component {len(w) + 1}")
    return w[:k]


def battery_p_value(component_p_values: Sequence[float],
                    weights: Sequence[float] | None = None) -> float:
    """Combine component p-values into one: ``min(1, min_i p_i / w_i)``.

    ``weights`` defaults to ``omega_star``.  Rejecting when the combined
    value is at most alpha keeps the overall Type-I probability at most
    alpha, because component i effectively runs at level ``alpha * w_i``
    and the weights sum to at most 1.
    """
    pvals = [float(p) for p in component_p_values]
    if not pvals:
        raise ValueError("battery needs at least one component p-value")
    for p in pvals:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"component p-values must be in (0, 1], got {p}")
    weights = _battery_weights(weights, len(pvals))
    return _clamp_p(min(p / w for p, w in zip(pvals, weights)))


def battery_report(reports: Sequence[TestReport], ids: Sequence[str],
                   alpha: float, weights: Sequence[float] | None = None) -> TestReport:
    """Fold per-test reports into a single combined report.

    Components keep their order; weights are assigned by position.  The
    combined statistic is the combined p-value expressed in bits, and its
    kind is ``upper_bound`` whatever the components' kinds.
    """
    alpha = _check_alpha(alpha)
    if len(reports) != len(ids):
        raise ValueError("one id per report required")
    combined = battery_p_value([r.p_value for r in reports], weights)
    components = [ComponentResult(i, r.statistic_bits, r.p_value)
                  for i, r in zip(ids, reports)]
    return _make_report(0.0 - math.log2(combined), combined, alpha,  # 0.0, not -0.0, at p = 1
                        components=components)


# ---------------------------------------------------------------------------
# the prefix-scanning ensemble test


def tau_k_test(x: BitString, alpha: float = 0.01) -> TestReport:
    """Prefix-scanning ensemble test.

    The ensemble is fixed: the LZ77 code and the literal length (a string
    describing itself in ``len`` bits), k = 2.  For every prefix length m
    the joint estimate is ``log2(k) + min(lz77, m)`` (the log2 k surcharge
    keeps the ensemble prefix-free per length class).  Scale m contributes
    evidence ``m - estimate - log2(1/w_m)`` under ``omega_star``; the
    statistic is the best evidence over all scales, and rejection at the
    ``log2(1/alpha)`` threshold keeps the Type-I probability at most
    ``alpha``.  One step of :class:`PrefixScanTest`, whose LZ pass folds
    each scale's evidence as it prices the prefix (``lz._PrefixCosts``).
    """
    return PrefixScanTest("tauk").reports(x, alpha)[0]


def _tau_k_report(best: tuple[float, int], alpha: float) -> TestReport:
    statistic, scale = best
    return _make_report(statistic, _bound_from_bits(statistic), alpha,
                        detail={"test_id": "tauk", "best_scale": scale,
                                "schedule": "omega_star"})


# ---------------------------------------------------------------------------
# tests read from one pass of LZ77 prefix costs


class PrefixScanTest:
    """Tests of a sample, or of the growing prefixes of a
    :func:`consistency_scan`, from one incremental LZ pass.

    Each :meth:`reports` call takes the bits that follow those already taken
    in, feeds them to the LZ pass of the open window (``lz._PrefixCosts``)
    and reports each test on all the bits taken in: ``lz77`` as ``m -
    total``, ``tauk`` as the running maximum of the evidence, which the pass
    folds at each new scale as it prices the prefix, whatever the tests (the
    first maximum wins ties).  :func:`compression_test` and
    :func:`tau_k_test` are each one call of this engine, and a battery is
    one call of an engine that holds several tests.

    The one window is unbounded unless ``window_bits`` is given
    (bounded-window mode, lz77 only): memory then follows the window, but
    no match reaches across windows, so the test is not consistent.  The
    windows are fixed by the length, so codewords stay prefix-free.
    """

    def __init__(self, *test_ids: str, window_bits: int | None = None):
        if not test_ids:
            raise ValueError("at least one test must be selected")
        for test_id in test_ids:
            if test_id not in TEST_IDS:
                raise ValueError(f"unknown test {test_id!r}; available: {', '.join(TEST_IDS)}")
        if window_bits is not None:
            if window_bits < 1:
                raise ValueError(f"window bits must be >= 1, got {window_bits}")
            if "tauk" in test_ids:
                raise ValueError("bounded-window mode is only available for the lz77 test")
        self.test_ids = test_ids
        self._window = math.inf if window_bits is None else window_bits
        self._costs = lz._PrefixCosts()  # of the open window
        self._closed = 0  # code length of the windows before it
        self._bits = 0    # taken in

    def reports(self, bits: BitString, alpha: float) -> list[TestReport]:
        """Take in ``bits``, which follow the bits taken in so far, and
        report each test id, in order, on all of them."""
        alpha = _check_alpha(alpha)
        n = self._bits + len(bits)
        if n < 1:
            raise ValueError("input has no bits")
        self._bits, at = n, 0
        while True:  # cut at each window end, closing the window there
            end = min(len(bits), at + self._window - self._costs.seen)
            self._costs.extend(bits[at:end])
            if self._costs.seen < self._window:
                break
            self._closed += self._costs.total
            self._costs, at = lz._PrefixCosts(), end
        costs = self._costs
        return [_compression_report(n, self._closed + costs.total, alpha)
                if test_id == "lz77" else _tau_k_report((costs.best, costs.scale), alpha)
                for test_id in self.test_ids]


# ---------------------------------------------------------------------------
# consistency scan


ScanStep = namedtuple("ScanStep", "bits report")


class ScanResult(namedtuple("ScanResult", "first_rejection_bits p_value steps")):
    """First rejection length on a doubling grid of prefix lengths, and the scan's p-value."""

    __slots__ = ()

    @property
    def rejected(self) -> bool:
        return self.first_rejection_bits is not None


def consistency_scan(x: BitString, engine: PrefixScanTest, alpha: float,
                     start_bits: int = 1024) -> ScanResult:
    """Apply the one test of ``engine`` to the prefixes of ``x`` at doubling lengths.

    The grid is ``start_bits``, ``2*start_bits``, ... up to ``len(x)``; each
    step feeds ``engine``, which must not have taken in bits before, the
    bits since the last.  Step ``j`` (from 1) is judged at ``alpha *
    omega_star(j)``, and the scan's p-value is the battery's ``min_j p_j /
    w_j``, so a scan of uniform bits rejects with probability at most
    ``alpha``; ``tauk``, a maximum over every prefix already, spends
    nothing.  Returns the first grid length at which the p-value is at most
    ``alpha``, or None if the sample is exhausted without rejection; the
    budget running out is an outcome, not an error.
    """
    alpha = _check_alpha(alpha)
    _check_grid(start_bits, len(x))
    if len(engine.test_ids) != 1:
        raise ValueError("a scan drives one test; call reports() for a battery")
    if held := getattr(engine, "_bits", 0):  # a stand-in engine may count nothing
        raise ValueError(f"a scan needs a fresh engine; this one has taken {held} bits")
    spend = engine.test_ids[0] != "tauk"
    steps: list[ScanStep] = []
    taken, n = 0, start_bits
    while n <= len(x):
        level = alpha * omega_star(len(steps) + 1) if spend else alpha
        report = engine.reports(x[taken:n], level)[0]
        steps.append(ScanStep(bits=n, report=report))
        p = battery_p_value([s.report.p_value for s in steps]) if spend else report.p_value
        if p <= alpha:
            return ScanResult(first_rejection_bits=n, p_value=p, steps=steps)
        taken, n = n, 2 * n
    return ScanResult(first_rejection_bits=None, p_value=p, steps=steps)
