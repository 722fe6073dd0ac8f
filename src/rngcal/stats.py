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
# weight schedules


def omega_star(i: int) -> float:
    """The default weight schedule value 1/(i*(i+1)); sums to 1 over all i."""
    return OMEGA_STAR._weights(i, i)[0]


class WeightSchedule:
    """Weights ``w_1, w_2, ...`` with total mass at most 1.

    Used to split a significance budget across the components of a battery
    and across prefix scales in :func:`tau_k_test`.  Without
    ``finite_weights`` the schedule is the infinite ``omega_star`` (mass
    exactly 1); with them it is that explicit list, and indices beyond it
    carry weight 0, i.e. no budget.
    """

    def __init__(self, name: str, finite_weights: Sequence[float] | None = None):
        self.name = name
        self._finite = None
        if finite_weights is not None:
            w = [float(v) for v in finite_weights]
            if not w:
                raise ValueError("finite schedule must have at least one weight")
            if not all(v > 0.0 for v in w):  # NaN fails this too
                raise ValueError("schedule weights must be positive")
            if math.fsum(w) > 1.0 + 1e-12:
                raise ValueError(f"schedule weights sum to {math.fsum(w)}, must be <= 1")
            self._finite = w

    @classmethod
    def from_weights(cls, weights: Sequence[float]) -> "WeightSchedule":
        return cls("custom", finite_weights=weights)

    def _weights(self, k: int, start: int = 1) -> list[float]:
        """Weights ``w_start .. w_k`` as a list: omega_star's one formula,
        ``1 / (i (i + 1))`` in doubles, or the finite list, 0 beyond it."""
        if start < 1:
            raise ValueError(f"schedule index must be >= 1, got {start}")
        if self._finite is None:
            return [1.0 / (i * (i + 1.0)) for i in range(start, k + 1)]
        return [self._finite[i - 1] if i <= len(self._finite) else 0.0
                for i in range(start, k + 1)]

    def __repr__(self) -> str:
        return f"WeightSchedule({self.name!r})"


OMEGA_STAR = WeightSchedule("omega_star")


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


def _battery_weights(schedule: WeightSchedule, k: int) -> list[float]:
    """The weights of a battery's ``k`` components; each must be positive."""
    weights = schedule._weights(k)
    for i, w in enumerate(weights, start=1):
        if w <= 0.0:
            raise ValueError(f"schedule {schedule.name!r} has no weight for component {i}")
    return weights


def battery_p_value(component_p_values: Sequence[float],
                    schedule: WeightSchedule = OMEGA_STAR) -> float:
    """Combine component p-values into one: ``min(1, min_i p_i / w_i)``.

    Rejecting when the combined value is at most alpha keeps the overall
    Type-I probability at most alpha, because component i effectively runs
    at level ``alpha * w_i`` and the weights sum to at most 1.
    """
    pvals = [float(p) for p in component_p_values]
    if not pvals:
        raise ValueError("battery needs at least one component p-value")
    for p in pvals:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"component p-values must be in (0, 1], got {p}")
    weights = _battery_weights(schedule, len(pvals))
    return _clamp_p(min(p / w for p, w in zip(pvals, weights)))


def battery_report(reports: Sequence[TestReport], ids: Sequence[str],
                   alpha: float, schedule: WeightSchedule = OMEGA_STAR) -> TestReport:
    """Fold per-test reports into a single combined report.

    Components keep their order; weights are assigned by position.  The
    combined statistic is the combined p-value expressed in bits, and its
    kind is ``upper_bound`` whatever the components' kinds.
    """
    alpha = _check_alpha(alpha)
    if len(reports) != len(ids):
        raise ValueError("one id per report required")
    combined = battery_p_value([r.p_value for r in reports], schedule)
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
    evidence ``m - estimate - log2(1/w_m)`` under ``OMEGA_STAR``; the
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
                                "schedule": OMEGA_STAR.name})


# ---------------------------------------------------------------------------
# tests read from one pass of LZ77 prefix costs


class PrefixScanTest:
    """Tests of a sample, or of the growing prefixes of a
    :func:`consistency_scan`, from one incremental LZ pass.

    Each :meth:`reports` call takes a prefix that extends the last one (kept,
    not copied: a ``BitString`` is immutable), feeds it to the LZ pass of
    the open window (``lz._PrefixCosts``) and reports each test on the
    prefix: ``lz77`` as ``m - total``, ``tauk`` as the running maximum of
    the evidence, which the pass folds at each new scale as it prices the
    prefix, whatever the tests (the first maximum wins ties).
    :func:`compression_test` and :func:`tau_k_test` are each one call of
    this engine.  A battery is a
    single call; calling the object is the one-test callable a scan drives.

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
        self._taken = BitString.zeros(0)  # the last prefix
        self._costs = lz._PrefixCosts()  # of the open window
        self._closed = 0  # code length of the windows before it
        self._start = 0   # the open window's first bit

    def reports(self, x: BitString, alpha: float) -> list[TestReport]:
        """One report per test id, in order, on ``x``."""
        alpha = _check_alpha(alpha)
        n = len(x)
        if n < 1:
            raise ValueError("input has no bits")
        k = len(self._taken)
        if n < k or x.prefix(k) != self._taken:
            raise ValueError(f"a prefix must extend the {k} bits already taken in")
        self._taken = x
        while n - self._start >= self._window:  # close each window that x fills
            end = self._start + self._window
            self._costs.extend(x[self._start:end])
            self._closed += self._costs.total
            self._costs = lz._PrefixCosts()
            self._start = end
        costs = self._costs
        costs.extend(x[self._start:])
        return [_compression_report(n, self._closed + costs.total, alpha)
                if test_id == "lz77" else _tau_k_report((costs.best, costs.scale), alpha)
                for test_id in self.test_ids]

    def __call__(self, x: BitString, alpha: float) -> TestReport:
        if len(self.test_ids) != 1:
            raise ValueError("a scan drives one test; call reports() for a battery")
        return self.reports(x, alpha)[0]


# ---------------------------------------------------------------------------
# consistency scan


ScanStep = namedtuple("ScanStep", "bits report")


class ScanResult(namedtuple("ScanResult", "first_rejection_bits steps")):
    """First rejection length on a doubling grid of prefix lengths."""

    __slots__ = ()

    @property
    def rejected(self) -> bool:
        return self.first_rejection_bits is not None


def consistency_scan(prefix: Callable[[int], BitString], test: Callable[..., TestReport],
                     alpha: float, start_bits: int = 1024, max_bits: int = 2 ** 20) -> ScanResult:
    """Apply ``test`` to prefixes of a fixed stream at doubling lengths.

    ``prefix(m)`` returns the first ``m`` bits of the stream, for instance
    ``Source.bits`` or ``BitString.prefix``.  The grid is ``start_bits``,
    ``2*start_bits``, ... up to ``max_bits``.  Returns the first grid length
    at which ``test`` rejects, or None if the budget is exhausted without
    rejection; the budget running out is an outcome, not an error.  Each
    step is judged at the full ``alpha``, so the chance that a scan of
    uniform bits rejects is bounded by ``alpha`` times the number of steps,
    not by ``alpha``, unless the statistic is already a maximum over every
    prefix, as ``tauk``'s is (ROADMAP item 1).
    """
    alpha = _check_alpha(alpha)
    _check_grid(start_bits, max_bits)
    steps: list[ScanStep] = []
    n = start_bits
    while n <= max_bits:
        report = test(prefix(n), alpha)
        steps.append(ScanStep(bits=n, report=report))
        if report.rejected:
            return ScanResult(first_rejection_bits=n, steps=steps)
        n *= 2
    return ScanResult(first_rejection_bits=None, steps=steps)
