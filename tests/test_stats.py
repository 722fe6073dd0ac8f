from __future__ import annotations

import contextlib
import json
import math
import random
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rngcal import lz, stats
from rngcal.bits import BitString
from rngcal.errors import InfeasibleError
from rngcal.sources import BernoulliSource, DuplicationSource, MarkovSource

from helpers import (all_bitstrings, bit_array, mapped_tables, packed_bits, python_loops,
                     random_bits, reference_compression_test, reference_scan,
                     reference_tau_k_test, spy_on_tables)

# Frozen regression constants.
TAU_K_ZEROS_2_14_STAT = 16328.999912
TAU_K_ZEROS_SMALLEST_REJECTING_M = 34
DUP_SCAN_FIRST_REJECTION = 131072


# ---------------------------------------------------------------------------
# compression test


def test_no_compression_no_evidence():
    x = random_bits(64, seed=0)
    report = stats._compression_report(len(x), len(x), 0.5)  # tau = 0
    assert report.p_value == 1.0
    assert not report.rejected


def test_threshold_is_log2_inverse_alpha():
    # at alpha = 0.01 rejection needs ceil(log2 100) = 7 whole bits saved
    x = random_bits(128, seed=1)
    saved6 = stats._compression_report(len(x), len(x) - 6, 0.01)
    saved7 = stats._compression_report(len(x), len(x) - 7, 0.01)
    assert not saved6.rejected and saved6.p_value == 2.0 ** -6
    assert saved7.rejected and saved7.p_value == 2.0 ** -7


def test_reject_iff_p_at_most_alpha():
    x = random_bits(100, seed=2)
    for saved in range(-3, 12):
        for alpha in (0.5, 0.1, 0.01):
            r = stats._compression_report(len(x), len(x) - saved, alpha)
            assert r.rejected == (r.p_value <= alpha)


def test_all_zeros_is_rejected():
    report = stats.compression_test(BitString.zeros(2 ** 14), 0.01)
    assert report.rejected
    assert report.statistic_bits == 16384 - 26  # two pairs: literal + full run


def test_p_value_floor():
    report = stats.compression_test(BitString.zeros(2 ** 14), 0.01)
    assert report.p_value == 2.0 ** -1024


def test_compression_test_validates_input():
    with pytest.raises(ValueError, match="input has no bits"):
        stats.compression_test(BitString(), 0.01)
    with pytest.raises(ValueError):
        stats.compression_test(BitString.from01("01"), 1.5)


_PARITY_SOURCES = {
    "uniform": BernoulliSource(0.5, seed=41).bits,
    "bern01": BernoulliSource(0.1, seed=42).bits,
    "markov": MarkovSource([[0.9, 0.1], [0.2, 0.8]], seed=43).bits,
    "dup": DuplicationSource(seed=44).bits,
    "zeros": BitString.zeros,
}


@pytest.mark.parametrize("n", [1, 12, 1024, 2 ** 17 + 3])
@pytest.mark.parametrize("kind", sorted(_PARITY_SOURCES))
def test_compression_test_equals_the_scalar_reference(kind, n, monkeypatch):
    x = _PARITY_SOURCES[kind](n)
    want = [reference_compression_test(x, alpha) for alpha in (0.5, 1e-6)]

    def scalar(y):
        raise AssertionError("the default code prices through the prefix-cost engine")

    monkeypatch.setattr(lz, "code_length", scalar)
    got = [stats.compression_test(x, alpha) for alpha in (0.5, 1e-6)]
    assert got == want
    assert [r.detail for r in got] == [r.detail for r in want]


def test_type_one_error_bound_exhaustive():
    # critical region size |{x : rejected}| <= 2^n * alpha, every n <= 14
    lengths_by_n = {}
    for n in range(1, 15):
        lengths_by_n[n] = [lz.code_length(x) for x in all_bitstrings(n)]
    for n, lengths in lengths_by_n.items():
        for alpha in (0.5, 0.1, 0.01):
            threshold = math.log2(1.0 / alpha)
            rejected = sum(1 for c in lengths if n - c >= threshold)
            assert rejected <= (2 ** n) * alpha, (n, alpha)


# ---------------------------------------------------------------------------
# exact p-values


def test_constant_statistic_gives_p_one():
    assert stats.exact_p_value(BitString.from01("0110"), lambda y: 0.0) == 1.0


def test_ones_count_statistic():
    p = stats.exact_p_value(BitString.from01("111"), lambda y: sum(bit_array(y).tolist()))
    assert p == 1.0 / 8.0


def test_enumeration_guard():
    with pytest.raises(InfeasibleError):
        stats.exact_p_value(BitString.zeros(25), lambda y: 0.0)


def test_exact_p_value_respects_kraft_bound():
    # 2**-tau upper-bounds the exact p-value; spot check on sampled strings
    n = 12
    table = {x.to_int(): n - lz.code_length(x) for x in all_bitstrings(n)}

    def tau(y):
        return table[y.to_int()]

    rng = np.random.default_rng(3)
    for value in rng.integers(0, 2 ** n, size=24):
        x = BitString.from_int(int(value), n)
        exact = stats.exact_p_value(x, tau)
        assert exact <= min(1.0, 2.0 ** -tau(x)) + 1e-12


# ---------------------------------------------------------------------------
# schedules and batteries


def test_omega_star_values():
    assert stats.omega_star(1) == 0.5
    assert stats.omega_star(3) == pytest.approx(1.0 / 12.0)
    with pytest.raises(ValueError):
        stats.omega_star(0)


def test_omega_star_telescopes():
    total = sum(stats.omega_star(i) for i in range(1, 1001))
    assert total == pytest.approx(1000.0 / 1001.0, rel=1e-12)
    assert np.allclose([stats.omega_star(i) for i in range(1, 6)],
                       [1 / 2, 1 / 6, 1 / 12, 1 / 20, 1 / 30])
    assert stats._battery_weights(None, 5) == [stats.omega_star(i) for i in range(1, 6)]


def test_custom_schedule_validation():
    good = [0.5, 0.25, 0.125]
    assert stats._battery_weights(good, 2) == [0.5, 0.25]  # the first k weights
    assert stats._battery_weights(good, 3) == good
    with pytest.raises(ValueError, match="schedule 'custom' has no weight for component 4"):
        stats._battery_weights(good, 4)
    with pytest.raises(ValueError, match="schedule weights sum to 1.4, must be <= 1"):
        stats._battery_weights([0.7, 0.7], 1)
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="schedule weights must be positive"):
            stats._battery_weights([0.5, bad], 1)
    with pytest.raises(ValueError):
        stats._battery_weights([], 1)


def test_battery_degenerate_single_test():
    assert stats.battery_p_value([0.03], [1.0]) == pytest.approx(0.03)


def test_battery_worked_example():
    combined = stats.battery_p_value([0.004, 0.5])
    assert combined == pytest.approx(0.008)


def test_battery_no_evidence():
    assert stats.battery_p_value([1.0, 1.0, 1.0]) == 1.0


def test_battery_validates_inputs():
    with pytest.raises(ValueError):
        stats.battery_p_value([])
    with pytest.raises(ValueError):
        stats.battery_p_value([0.0, 0.5])
    with pytest.raises(ValueError):
        stats.battery_p_value([0.5, 1.2])
    with pytest.raises(ValueError):
        stats.battery_p_value([0.5, 0.5], [1.0])


def test_battery_monotone_in_p_values():
    base = [0.02, 0.3, 0.7]
    ref = stats.battery_p_value(base)
    for i in range(3):
        bumped = list(base)
        bumped[i] = min(1.0, bumped[i] * 1.5)
        assert stats.battery_p_value(bumped) >= ref


def test_battery_scaling_in_weights():
    pvals = [0.01, 0.2]
    w = [0.4, 0.4]
    ref = stats.battery_p_value(pvals, w)
    for c in (0.5, 0.25):
        scaled = [v * c for v in w]
        assert stats.battery_p_value(pvals, scaled) == pytest.approx(ref / c)


def test_battery_conservative_under_uniform_nulls():
    rng = np.random.default_rng(4)
    trials = 20000
    w = np.array([stats.omega_star(i) for i in range(1, 6)])
    u = rng.random((trials, 5))
    combined = np.minimum(1.0, (u / w).min(axis=1))
    for alpha in (0.1, 0.01):
        rate = float((combined <= alpha).mean())
        sigma = math.sqrt(alpha * (1 - alpha) / trials)
        assert rate <= alpha + 3 * sigma


def test_battery_report_structure():
    x = random_bits(256, seed=5)
    r1 = stats.compression_test(x, 0.05)
    r2 = stats.tau_k_test(x, alpha=0.05)
    combined = stats.battery_report([r1, r2], ["lz77", "tauk"], 0.05)
    expected = stats.battery_p_value([r1.p_value, r2.p_value])
    assert combined.p_value == pytest.approx(expected)
    assert [c.test_id for c in combined.components] == ["lz77", "tauk"]
    assert combined.statistic_bits == pytest.approx(-math.log2(expected))


def test_an_accepted_battery_saves_zero_bits_not_minus_zero():
    x = random_bits(4096, seed=1)
    reports = [stats.compression_test(x, 0.01), stats.tau_k_test(x, 0.01)]
    assert [r.p_value for r in reports] == [1.0, 1.0]
    combined = stats.battery_report(reports, ["lz77", "tauk"], 0.01)
    assert combined.p_value == 1.0
    assert math.copysign(1.0, combined.statistic_bits) == 1.0
    assert '"statistic_bits": 0.0,' in json.dumps(combined.to_dict())


def test_a_battery_of_exact_reports_is_an_upper_bound():
    # min(p_i / w_i) is a weighted-Bonferroni bound even over exact p-values
    exact = stats.TestReport(statistic_bits=3.0, p_value=0.125, p_value_kind="exact",
                             alpha=0.05, decision="accept")
    combined = stats.battery_report([exact, exact], ["a", "b"], 0.05)
    assert combined.p_value == 0.25
    assert combined.p_value_kind == "upper_bound"


# ---------------------------------------------------------------------------
# the prefix-scanning ensemble test


def test_tau_k_all_zeros_rejects():
    report = stats.tau_k_test(BitString.zeros(2 ** 14), alpha=0.01)
    assert report.rejected
    assert report.statistic_bits == pytest.approx(TAU_K_ZEROS_2_14_STAT, abs=1e-4)
    assert report.detail["best_scale"] == 2 ** 14


def test_tau_k_smallest_rejecting_scale():
    z = BitString.zeros(2 ** 14)
    scales = np.arange(1, 2 ** 14 + 1)
    joint = np.minimum(lz.prefix_code_lengths(z)[1:], scales)  # lz77, capped by len
    evidence = (scales - (math.log2(2) + joint)
                + np.log2([stats.omega_star(m) for m in range(1, 2 ** 14 + 1)]))
    first = int(np.argmax(evidence >= math.log2(1 / 0.01))) + 1
    assert first == TAU_K_ZEROS_SMALLEST_REJECTING_M


def test_tau_k_accepts_random_data():
    rejected = 0
    for seed in range(60):
        x = BernoulliSource(0.5, seed=seed).bits(4096)
        rejected += stats.tau_k_test(x, alpha=0.01).rejected
    assert rejected == 0


def test_tau_k_validates_arguments():
    with pytest.raises(ValueError):
        stats.tau_k_test(BitString(), alpha=0.01)


def test_tau_k_per_scale_rejection_counts():
    # at every scale m the rejection count obeys 2^m * alpha * w_m
    log_k = math.log2(2)
    for m in range(1, 11):
        w = stats.omega_star(m)
        for alpha in (0.5, 0.1, 0.01):
            threshold = math.log2(1.0 / alpha)
            count = 0
            for x in all_bitstrings(m):
                estimate = log_k + min(lz.code_length(x), len(x))
                if m - estimate - math.log2(1.0 / w) >= threshold:
                    count += 1
            assert count <= (2 ** m) * alpha * w, (m, alpha)


def test_estimator_class_kraft_inequality():
    # per length class, sum of 2^-estimate stays at most 1 (here: <= 12 bits)
    from rngcal.codes import kraft_sum
    for code in (lz.code_length, len):
        for n in (1, 4, 8, 12):
            lengths = [code(x) for x in all_bitstrings(n)]
            assert kraft_sum(lengths) <= 1.0 + 1e-12, (code.__name__, n)


# ---------------------------------------------------------------------------
# consistency scan


def _assert_scans_equal(got: stats.ScanResult, want: stats.ScanResult) -> None:
    """Two scans with the same steps, and the same details at each."""
    assert got == want
    assert [s.report.detail for s in got.steps] == [s.report.detail for s in want.steps]


def test_scan_detects_duplication_stream():
    x = DuplicationSource(seed=7).bits(2 ** 20)
    result = stats.consistency_scan(x, stats.PrefixScanTest("lz77"), 1e-6, start_bits=1024)
    assert result.first_rejection_bits == DUP_SCAN_FIRST_REJECTION
    assert result.steps[-1].report.rejected
    # step 8 saves +6,878 bits, where it needs log2(72 / 1e-6) = 26.1: the floor, times 72
    assert result.steps[-1].report.statistic_bits == 6878
    assert result.steps[-1].report.alpha == 1e-6 * stats.omega_star(8)
    assert result.p_value == stats.P_VALUE_FLOOR * 72
    _assert_scans_equal(result, reference_scan(x, reference_compression_test, 1e-6, 1024))


def test_scan_random_stream_stays_quiet():
    for seed in range(5):
        x = BernoulliSource(0.5, seed=seed).bits(2 ** 16)
        result = stats.consistency_scan(x, stats.PrefixScanTest("lz77"), 1e-6, start_bits=1024)
        assert result.first_rejection_bits is None
        assert len(result.steps) == 7  # 1024 .. 65536
        _assert_scans_equal(result, reference_scan(x, reference_compression_test, 1e-6, 1024))


class _Crc32Test:
    """A per-length test for :func:`stats.consistency_scan`, of level at
    most alpha on uniform bits: the p-value of the bits taken in so far is
    ``(crc + 1) / 2^32`` for their CRC-32, which is near uniform on them."""

    test_ids = ("crc32",)

    def __init__(self):
        self._crc = 0

    def reports(self, bits: BitString, alpha: float) -> list[stats.TestReport]:
        self._crc = zlib.crc32(bits.to_int().to_bytes(len(bits) // 8, "big"), self._crc)
        p = (self._crc + 1) / 2 ** 32
        return [stats._make_report(-math.log2(p), p, alpha)]


def test_a_scan_of_per_length_tests_rejects_at_level_alpha():
    # 11 doubling steps of a level-alpha test, each judged at alpha, rejected
    # about 11 alpha of uniform streams: 231 of 2,000 at alpha 0.01
    streams, alpha = 2000, 0.01
    rejected = 0
    for seed in range(streams):
        x = BitString._wrap(random.Random(seed).randbytes(8192), 8 * 8192)
        result = stats.consistency_scan(x, _Crc32Test(), alpha, start_bits=64)
        assert len(result.steps) == 11 or result.rejected
        assert result.p_value == stats.battery_p_value([s.report.p_value for s in result.steps])
        assert [s.report.alpha for s in result.steps] == [
            alpha * stats.omega_star(j) for j in range(1, len(result.steps) + 1)]
        assert result.rejected == (result.p_value <= alpha) == result.steps[-1].report.rejected
        rejected += result.rejected
    # no further out than a one-in-a-million tail of Binomial(2000, alpha)
    pmf, below = (1 - alpha) ** streams, 0.0
    for k in range(rejected):
        below += pmf
        pmf *= (streams - k) / (k + 1) * alpha / (1 - alpha)
    assert 1 - below > 1e-6, f"{rejected} of {streams} uniform streams rejected at alpha {alpha}"


def test_a_tauk_scan_spends_no_alpha():
    # tau_k's statistic is a maximum over every prefix: each step runs at the full
    # alpha, and the scan's p-value is the last step's
    x = BernoulliSource(0.08, seed=46).bits(4096)
    result = stats.consistency_scan(x, stats.PrefixScanTest("tauk"), 0.01, start_bits=256)
    assert [s.report.alpha for s in result.steps] == [0.01] * 4
    assert result.first_rejection_bits == 2048
    assert result.p_value == result.steps[-1].report.p_value < 0.01


def test_scan_stronger_bias_rejects_no_later():
    firsts = {}
    for p in (0.03, 0.08):
        firsts[p] = []
        for seed in range(20):
            x = BernoulliSource(p, seed=seed).bits(2 ** 14)
            r = stats.consistency_scan(x, stats.PrefixScanTest("lz77"), 0.01, start_bits=1024)
            _assert_scans_equal(r, reference_scan(x, reference_compression_test, 0.01, 1024))
            firsts[p].append(r.first_rejection_bits)
    assert all(f is not None for f in firsts[0.03] + firsts[0.08])
    assert all(a <= b for a, b in zip(firsts[0.03], firsts[0.08]))
    assert np.mean(firsts[0.03]) < np.mean(firsts[0.08])


def test_scan_accepts_fixed_bitstring_capped_at_length():
    x = BitString.zeros(3000)
    result = stats.consistency_scan(x, stats.PrefixScanTest("lz77"), 0.01, start_bits=1024)
    assert result.first_rejection_bits == 1024
    y = random_bits(3000, seed=8)
    result2 = stats.consistency_scan(y, stats.PrefixScanTest("lz77"), 0.01, start_bits=1024)
    assert [s.bits for s in result2.steps] == [1024, 2048]
    for z, result in ((x, result), (y, result2)):
        _assert_scans_equal(result, reference_scan(z, reference_compression_test, 0.01, 1024))


_SCAN_STREAMS = {
    "uniform": BernoulliSource(0.5, seed=31).bits(5000),
    "bern01": BernoulliSource(0.1, seed=32).bits(5000),
    "markov": MarkovSource([[0.9, 0.1], [0.2, 0.8]], seed=33).bits(5000),
    "dup": DuplicationSource(seed=34).bits(5000),
    "zeros": BitString.zeros(5000),
}


def _grid(start_bits: int, max_bits: int) -> list[int]:
    """The doubling grid of a scan from ``start_bits`` up to ``max_bits``."""
    return [start_bits << k for k in range((max_bits // start_bits).bit_length())]


def _assert_steps_equal(engine, reference, x: BitString, start_bits: int, label) -> None:
    """``engine``, fed the bits of ``x`` up to each length on the grid, reports
    on that prefix as ``reference`` does, past any rejection."""
    taken = 0
    for m in _grid(start_bits, len(x)):
        (got,), want = engine.reports(x[taken:m], 0.01), reference(x.prefix(m), 0.01)
        taken = m
        assert got == want and got.detail == want.detail, (label, m)


@pytest.mark.parametrize("start_bits", [1, 3, 1000])
@pytest.mark.parametrize("kind", sorted(_SCAN_STREAMS))
def test_prefix_scan_test_equals_from_scratch_scan(kind, start_bits):
    references = {"lz77": reference_compression_test,
                  "tauk": reference_tau_k_test}
    for test_id, reference in references.items():
        _assert_steps_equal(stats.PrefixScanTest(test_id), reference, _SCAN_STREAMS[kind],
                            start_bits, test_id)


def _windowed_code(window: int):
    """The bounded-window code length: each window of ``window`` bits priced apart."""
    return lambda y: sum(lz.code_length(y[i:i + window]) for i in range(0, len(y), window))


@pytest.mark.parametrize("start_bits,window", [(1, 256), (3, 384), (1000, 2000), (3, 700)])
@pytest.mark.parametrize("kind", sorted(_SCAN_STREAMS))
def test_windowed_prefix_scan_test_equals_from_scratch_scan(kind, start_bits, window):
    # every window but 700 ends on a scan step
    code = _windowed_code(window)
    _assert_steps_equal(stats.PrefixScanTest("lz77", window_bits=window),
                        lambda y, alpha: stats._compression_report(len(y), code(y), alpha),
                        _SCAN_STREAMS[kind], start_bits, window)


@pytest.mark.parametrize("backend", ["native", "python"])
@pytest.mark.parametrize("window", [None, 384])
def test_a_scan_moves_its_table_once(window, backend, monkeypatch):
    # a pass's first table is an array, which moves into a mapping with room
    # for lz._MAP_BYTES at its first growth; under a cut-off of 256 bytes, and
    # mappings sized to whole pages, not huge pages, that mapping grows in place.
    # A window of 384 ends on a scan step, so only the first window's pass
    # grows: each later one is sized once.
    def reference(y: BitString, alpha: float) -> stats.TestReport:
        if window is None:
            return reference_compression_test(y, alpha)
        return stats._compression_report(len(y), _windowed_code(window)(y), alpha)

    loops = python_loops if backend == "python" else contextlib.nullcontext
    seen = spy_on_tables(monkeypatch)
    grew_in_place = False
    for cut_off in (lz._MAP_BYTES, 256):
        for kind, x in sorted(_SCAN_STREAMS.items()):
            seen.clear()
            with loops(), mapped_tables(cut_off):
                result = stats.consistency_scan(
                    x, stats.PrefixScanTest("lz77", window_bits=window), 0.01, start_bits=3)
            grown = [path for path in seen if path[0] != "none"]  # not a window's first table
            assert grown[:1] == [("array", "mapping")], (cut_off, kind)
            assert set(grown[1:]) <= {("mapping", "same mapping")}, (cut_off, kind)
            grew_in_place |= len(grown) > 1
            _assert_scans_equal(result, reference_scan(x, reference, 0.01, 3))
    assert grew_in_place


@pytest.mark.parametrize("window", [None, 384, 700, 1 << 20])
def test_a_windowed_scan_puts_each_bit_through_the_automaton_once(window, monkeypatch):
    taken = []
    extend = lz._PrefixCosts.extend

    def counted(self, piece, costs=None, pairs=None):
        taken.append(len(piece))
        extend(self, piece, costs, pairs)

    monkeypatch.setattr(lz._PrefixCosts, "extend", counted)
    x = _SCAN_STREAMS["uniform"]
    result = stats.consistency_scan(x, stats.PrefixScanTest("lz77", window_bits=window), 0.01,
                                    start_bits=3)
    assert sum(taken) == result.steps[-1].bits == 3072


def test_prefix_cost_reports_equal_standalone_tests():
    for x in _SCAN_STREAMS.values():
        got = stats.PrefixScanTest("tauk", "lz77").reports(x, 0.05)
        want = [reference_tau_k_test(x, 0.05), reference_compression_test(x, 0.05)]
        assert got == want
        assert [r.detail for r in got] == [r.detail for r in want]


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_tau_k_evidence_equals_one_unblocked_call():
    # chunks of scales fed to one engine, starting off a power of two, give
    # the evidence of one pass; leading zeros put the best scale in a middle chunk
    start, chunk = 12345, 1 << 14
    ends = [start + k * chunk for k in range(4)] + [start + 3 * chunk + 777]
    inputs = [packed_bits(np.concatenate([np.zeros(30000, dtype=np.uint8),
                                          bit_array(random_bits(ends[-1] - 30000, seed=34))])),
              BernoulliSource(0.1, seed=35).bits(ends[-1]),
              DuplicationSource(seed=36).bits(ends[-1]),
              random_bits(ends[-1], seed=37)]
    for x in inputs:
        runner, taken = stats.PrefixScanTest("tauk"), 0
        for m in ends:
            (got,) = runner.reports(x[taken:m], 0.01)
            taken = m
        want = stats.tau_k_test(x, 0.01)
        assert got == want == reference_tau_k_test(x, 0.01)
        assert got.detail == want.detail
    dip = stats.tau_k_test(inputs[0], 0.01).detail["best_scale"]
    assert ends[1] < dip < ends[2]


def test_tau_k_evidence_temporaries_stay_bounded():
    # the walk folds each scale's evidence as it prices it: tau_k keeps nothing per scale
    x = random_bits(1 << 18, seed=41)
    lz77 = _traced_peak(stats.PrefixScanTest("lz77").reports, x, 0.01)
    battery = _traced_peak(stats.PrefixScanTest("lz77", "tauk").reports, x, 0.01)
    assert battery - lz77 < 16 << 10


def test_lz77_report_keeps_no_per_bit_table():
    x = random_bits(1 << 18, seed=40)
    one_shot = _traced_peak(lz.code_length, x)
    engine = _traced_peak(stats.PrefixScanTest("lz77").reports, x, 0.01)
    assert engine <= one_shot + (2 << 20)


def test_code_length_holds_no_per_position_ends():
    # the automaton's 32 B/bit and the sample's bytes: the walk prices each
    # prefix as it passes it, with no int32 per position
    x = random_bits(1 << 18, seed=40)
    assert _traced_peak(lz.code_length, x) < 35 * len(x)  # 8.75 MiB


def test_lz77_report_prices_whole_factors_in_place():
    # The whole-factor pricing runs while the automaton is alive, and the
    # engine holds no per-bit temporary beside it.
    x = random_bits(1 << 18, seed=40)
    one_shot = _traced_peak(lz.code_length, x)
    engine = _traced_peak(stats.PrefixScanTest("lz77").reports, x, 0.01)
    assert engine - one_shot < 3 << 18  # 0.75 MiB


@pytest.mark.parametrize("source", [BernoulliSource(0.1, seed=38), DuplicationSource(seed=39)],
                         ids=["bern01", "dup"])
def test_prefix_scan_battery_equals_standalone_tests_across_blocks(source):
    x = source.bits(2 ** 17 + 3)
    runner, taken = stats.PrefixScanTest("lz77", "tauk"), 0
    for m in (70001, len(x)):  # the second call resumes, and scores the scales above 70001
        y = x.prefix(m)
        got = runner.reports(x[taken:m], 0.01)
        taken = m
        want = [reference_compression_test(y, 0.01), reference_tau_k_test(y, 0.01)]
        assert got == want
        assert [r.detail for r in got] == [r.detail for r in want]


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=1, max_size=200), st.sampled_from([None, 1, 7, 64]),
       st.lists(st.one_of(st.integers(0, 60), st.none()), max_size=8))
def test_pieces_fed_to_the_engine_report_as_one_call_on_the_sample(blob, window, pieces):
    # a piece of None runs to the next window end; the last piece is the rest of x
    x = BitString(np.frombuffer(blob, dtype=np.uint8) % 2)
    ids = ("lz77",) if window else ("lz77", "tauk")
    runner = stats.PrefixScanTest(*ids, window_bits=window)
    m = 0
    for piece in pieces + [len(x)]:
        if piece is None:
            piece = window - m % window if window else 0
        if m + piece == 0:  # no bits yet: refused, and nothing is taken in
            with pytest.raises(ValueError, match="^input has no bits$"):
                runner.reports(x[:0], 0.01)
            continue
        got = runner.reports(x[m:m + piece], 0.01)
        m = min(len(x), m + piece)
        y = x.prefix(m)
        whole = stats.PrefixScanTest(*ids, window_bits=window).reports(y, 0.01)
        want = ([stats._compression_report(m, _windowed_code(window)(y), 0.01)] if window
                else [reference_compression_test(y, 0.01), reference_tau_k_test(y, 0.01)])
        assert got == whole == want, (m, window)
        assert [r.detail for r in got] == [r.detail for r in whole] == [r.detail for r in want]


def test_scan_validates_arguments():
    for start_bits, max_bits in ((0, 2 ** 20), (16, 10)):  # the grid's text names both
        with pytest.raises(ValueError, match=f"^need 1 <= start_bits <= max_bits, got "
                                             f"start_bits {start_bits} and max_bits {max_bits}$"):
            stats.consistency_scan(BitString.zeros(max_bits), stats.PrefixScanTest("lz77"), 0.01,
                                   start_bits=start_bits)
    with pytest.raises(TypeError):
        stats.consistency_scan(42, stats.PrefixScanTest("lz77"), 0.01)


def test_a_scan_refuses_a_two_test_engine_before_it_feeds_a_bit(monkeypatch):
    fed = []
    monkeypatch.setattr(lz._PrefixCosts, "extend",
                        lambda self, piece, costs=None, pairs=None: fed.append(len(piece)))
    with pytest.raises(ValueError,
                       match=r"^a scan drives one test; call reports\(\) for a battery$"):
        stats.consistency_scan(random_bits(4096, seed=9), stats.PrefixScanTest("lz77", "tauk"),
                               0.01, start_bits=16)
    assert fed == []


def test_a_scan_refuses_an_engine_that_has_taken_bits():
    # a second scan would feed x from its start as bits that follow the first
    # scan's: on the engine of the first, step 1024 read +7,857 bits saved and rejected
    x = DuplicationSource(seed=7).bits(1 << 17)
    engine = stats.PrefixScanTest("lz77")
    first = stats.consistency_scan(x, engine, 1e-6)
    assert first.first_rejection_bits == 1 << 17
    with pytest.raises(ValueError,
                       match=r"^a scan needs a fresh engine; this one has taken 131072 bits$"):
        stats.consistency_scan(x, engine, 1e-6)
    assert engine._bits == 1 << 17  # fed nothing
    _assert_scans_equal(stats.consistency_scan(x, stats.PrefixScanTest("lz77"), 1e-6), first)


# ---------------------------------------------------------------------------
# reports


def test_reports_are_records_equal_whatever_their_detail():
    fields = dict(statistic_bits=3.0, p_value=0.125, p_value_kind="upper_bound", alpha=0.01,
                  decision="accept")
    report = stats.TestReport(**fields)
    assert report.components is None and report.detail == {}
    assert stats.TestReport(**fields).detail is not report.detail  # a new dict each
    other = stats.TestReport(**fields, detail={"test_id": "lz77"})
    assert report == other and not report != other and hash(report) == hash(other)
    assert report != tuple(report) and tuple(report) != report
    assert report != stats.TestReport(**{**fields, "decision": "reject"})
    component = stats.ComponentResult(test_id="lz77", statistic_bits=3.0, p_value=0.125)
    assert component.to_dict() == {"test_id": "lz77", "statistic_bits": 3.0, "p_value": 0.125}
    battery = stats.TestReport(**fields, components=[component])
    assert battery.to_dict()["components"] == [component.to_dict()] and battery != report
    step = stats.ScanStep(bits=1024, report=report)
    assert not stats.ScanResult(first_rejection_bits=None, p_value=1.0, steps=[step]).rejected
    result = stats.ScanResult(first_rejection_bits=1024, p_value=2.0 ** -10, steps=[step])
    assert result.rejected and result.steps[0].report == other
    for record, name in ((report, "detail"), (report, "p_value"), (component, "p_value"),
                         (step, "bits"), (result, "steps")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_report_serialization_field_set():
    x = random_bits(128, seed=10)
    report = stats.compression_test(x, 0.01)
    doc = report.to_dict()
    assert set(doc) == {"statistic_bits", "p_value", "p_value_kind", "alpha",
                        "decision", "components"}
    assert doc["p_value_kind"] == "upper_bound"
    assert doc["decision"] in ("accept", "reject")
    json.dumps(doc)  # must be JSON-serializable as-is


def test_report_components_serialize():
    x = random_bits(128, seed=10)
    combined = stats.battery_report(
        [stats.compression_test(x, 0.05), stats.tau_k_test(x, alpha=0.05)],
        ["lz77", "tauk"], 0.05)
    doc = combined.to_dict()
    assert [c["test_id"] for c in doc["components"]] == ["lz77", "tauk"]
    assert set(doc["components"][0]) == {"test_id", "statistic_bits", "p_value"}
