from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rngcal import lz, stats
from rngcal.bits import BitString
from rngcal.errors import InfeasibleError
from rngcal.sources import BernoulliSource, DuplicationSource, MarkovSource

from helpers import (all_bitstrings, random_bits, reference_compression_test,
                     reference_tau_k_test)

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
    p = stats.exact_p_value(BitString.from01("111"), lambda y: sum(y.array.tolist()))
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
    assert np.allclose(stats.OMEGA_STAR.weights(5),
                       [1 / 2, 1 / 6, 1 / 12, 1 / 20, 1 / 30])


@pytest.mark.parametrize("schedule", [
    stats.OMEGA_STAR,
    stats.WeightSchedule.from_weights([0.5, 0.25, 0.125]),
])
def test_schedule_weight_ranges_are_slices(schedule):
    full = schedule.weights(9)
    for start in range(1, 11):
        assert np.array_equal(schedule.weights(9, start), full[start - 1:]), start


def test_custom_schedule_validation():
    good = stats.WeightSchedule.from_weights([0.5, 0.25, 0.125])
    assert good.weights(9)[[1, 8]].tolist() == [0.25, 0.0]  # beyond the list: no budget
    with pytest.raises(ValueError):
        stats.WeightSchedule.from_weights([0.7, 0.7])
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError):
            stats.WeightSchedule.from_weights([0.5, bad])
    with pytest.raises(ValueError):
        stats.WeightSchedule.from_weights([])


def test_battery_degenerate_single_test():
    one = stats.WeightSchedule.from_weights([1.0])
    assert stats.battery_p_value([0.03], one) == pytest.approx(0.03)


def test_battery_worked_example():
    combined = stats.battery_p_value([0.004, 0.5], stats.OMEGA_STAR)
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
    short = stats.WeightSchedule.from_weights([1.0])
    with pytest.raises(ValueError):
        stats.battery_p_value([0.5, 0.5], short)


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
    ref = stats.battery_p_value(pvals, stats.WeightSchedule.from_weights(w))
    for c in (0.5, 0.25):
        scaled = stats.WeightSchedule.from_weights([v * c for v in w])
        assert stats.battery_p_value(pvals, scaled) == pytest.approx(ref / c)


def test_battery_conservative_under_uniform_nulls():
    rng = np.random.default_rng(4)
    trials = 20000
    w = stats.OMEGA_STAR.weights(5)
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
                + np.log2(stats.OMEGA_STAR.weights(2 ** 14)))
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


def test_scan_detects_duplication_stream():
    result = stats.consistency_scan(DuplicationSource(seed=7).bits,
                                    stats.compression_test, 1e-6,
                                    start_bits=1024, max_bits=2 ** 20)
    assert result.first_rejection_bits == DUP_SCAN_FIRST_REJECTION
    assert result.steps[-1].report.rejected


def test_scan_random_stream_stays_quiet():
    for seed in range(5):
        src = BernoulliSource(0.5, seed=seed)
        result = stats.consistency_scan(src.bits, stats.compression_test, 1e-6,
                                        start_bits=1024, max_bits=2 ** 16)
        assert result.first_rejection_bits is None
        assert len(result.steps) == 7  # 1024 .. 65536


def test_scan_stronger_bias_rejects_no_later():
    firsts = {}
    for p in (0.03, 0.08):
        firsts[p] = []
        for seed in range(20):
            src = BernoulliSource(p, seed=seed)
            r = stats.consistency_scan(src.bits, stats.compression_test, 0.01,
                                       start_bits=1024, max_bits=2 ** 14)
            firsts[p].append(r.first_rejection_bits)
    assert all(f is not None for f in firsts[0.03] + firsts[0.08])
    assert all(a <= b for a, b in zip(firsts[0.03], firsts[0.08]))
    assert np.mean(firsts[0.03]) < np.mean(firsts[0.08])


def test_scan_accepts_fixed_bitstring_capped_at_length():
    x = BitString.zeros(3000)
    result = stats.consistency_scan(x.prefix, stats.compression_test, 0.01,
                                    start_bits=1024, max_bits=len(x))
    assert result.first_rejection_bits == 1024
    y = random_bits(3000, seed=8)
    result2 = stats.consistency_scan(y.prefix, stats.compression_test, 0.01,
                                     start_bits=1024, max_bits=len(y))
    assert [s.bits for s in result2.steps] == [1024, 2048]


_SCAN_STREAMS = {
    "uniform": BernoulliSource(0.5, seed=31).bits(5000),
    "bern01": BernoulliSource(0.1, seed=32).bits(5000),
    "markov": MarkovSource([[0.9, 0.1], [0.2, 0.8]], seed=33).bits(5000),
    "dup": DuplicationSource(seed=34).bits(5000),
    "zeros": BitString.zeros(5000),
}


@pytest.mark.parametrize("start_bits", [1, 3, 1000])
@pytest.mark.parametrize("kind", sorted(_SCAN_STREAMS))
def test_prefix_scan_test_equals_from_scratch_scan(kind, start_bits):
    x = _SCAN_STREAMS[kind]
    references = {"lz77": reference_compression_test,
                  "tauk": reference_tau_k_test}
    for test_id, reference in references.items():
        got = stats.consistency_scan(x.prefix, stats.PrefixScanTest(test_id), 0.01,
                                     start_bits=start_bits, max_bits=len(x),
                                     stop_at_rejection=False)
        want = stats.consistency_scan(x.prefix, reference, 0.01, start_bits=start_bits,
                                      max_bits=len(x), stop_at_rejection=False)
        assert got.first_rejection_bits == want.first_rejection_bits
        assert [s.bits for s in got.steps] == [s.bits for s in want.steps]
        for a, b in zip(got.steps, want.steps):
            assert a.report == b.report, (test_id, a.bits)
            assert a.report.detail == b.report.detail, (test_id, a.bits)


def _windowed_code(window: int):
    """The bounded-window code length: each window of ``window`` bits priced apart."""
    return lambda y: sum(lz.code_length(y[i:i + window]) for i in range(0, len(y), window))


@pytest.mark.parametrize("start_bits,window", [(1, 256), (3, 384), (1000, 2000), (3, 700)])
@pytest.mark.parametrize("kind", sorted(_SCAN_STREAMS))
def test_windowed_prefix_scan_test_equals_from_scratch_scan(kind, start_bits, window):
    # every window but 700 ends on a scan step
    x = _SCAN_STREAMS[kind]
    code = _windowed_code(window)
    got = stats.consistency_scan(x.prefix, stats.PrefixScanTest("lz77", window_bits=window),
                                 0.01, start_bits=start_bits, max_bits=len(x),
                                 stop_at_rejection=False)
    want = stats.consistency_scan(
        x.prefix, lambda y, alpha: stats._compression_report(len(y), code(y), alpha), 0.01,
        start_bits=start_bits, max_bits=len(x), stop_at_rejection=False)
    assert [s.bits for s in got.steps] == [s.bits for s in want.steps]
    for a, b in zip(got.steps, want.steps):
        assert a.report == b.report, a.bits
        assert a.report.detail == b.report.detail, a.bits


@pytest.mark.parametrize("window", [384, 700, 1 << 20])
def test_a_windowed_scan_puts_each_bit_through_the_automaton_once(window, monkeypatch):
    taken = []
    extend = lz._SuffixAutomaton.extend

    def counted(self, bits):
        taken.append(len(bits))
        extend(self, bits)

    monkeypatch.setattr(lz._SuffixAutomaton, "extend", counted)
    x = _SCAN_STREAMS["uniform"]
    result = stats.consistency_scan(x.prefix, stats.PrefixScanTest("lz77", window_bits=window),
                                    0.01, start_bits=3, max_bits=len(x),
                                    stop_at_rejection=False)
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


def _scored(costs: np.ndarray, start: int) -> tuple[float, int | None]:
    """The tau_k evidence of ``costs`` at scales ``start ..``, fed to a fresh
    runner in the blocks ``lz._PrefixCosts`` returns."""
    runner = stats.PrefixScanTest("tauk")
    runner._score((start + lo, costs[lo:lo + lz._BLOCK])
                  for lo in range(0, len(costs), lz._BLOCK))
    return runner._best


def test_blocked_tau_k_evidence_equals_one_unblocked_call():
    # four blocks of scales, starting off a block boundary
    start, count = 12345, 3 * lz._BLOCK + 777
    scales = np.arange(start, start + count, dtype=np.int64)
    dip = scales + 5
    dip[2 * lz._BLOCK + 10] -= 100  # the best scale in a middle block
    tables = [lz.prefix_code_lengths(x)[start:]
              for x in (BernoulliSource(0.1, seed=35).bits(start + count - 1),
                        DuplicationSource(seed=36).bits(start + count - 1),
                        random_bits(start + count - 1, seed=37))]
    for costs in [dip, *tables]:
        want = stats._tau_k_evidence(np.minimum(costs, scales), start)
        got = _scored(costs, start)
        assert got[0] == want[0] and got[1] == want[1]
    assert _scored(dip, start)[1] == start + 2 * lz._BLOCK + 10


def test_tau_k_evidence_temporaries_stay_bounded():
    costs = np.arange(1 << 20, dtype=np.int64)  # allocated before tracing starts
    assert _traced_peak(_scored, costs, 1) < 8 << 20


def test_lz77_report_keeps_no_per_bit_table():
    x = random_bits(1 << 18, seed=40)
    one_shot = _traced_peak(lz.code_length, x)
    engine = _traced_peak(stats.PrefixScanTest("lz77").reports, x, 0.01)
    assert engine <= one_shot + (2 << 20)


def test_lz77_report_prices_whole_factors_in_place():
    # The whole-factor pricing runs while the automaton is alive; with a
    # temporary per numpy step it took 0.80 MiB over the one-shot peak here.
    x = random_bits(1 << 18, seed=40)
    one_shot = _traced_peak(lz.code_length, x)
    engine = _traced_peak(stats.PrefixScanTest("lz77").reports, x, 0.01)
    assert engine - one_shot < 3 << 18  # 0.75 MiB


@pytest.mark.parametrize("source", [BernoulliSource(0.1, seed=38), DuplicationSource(seed=39)],
                         ids=["bern01", "dup"])
def test_prefix_scan_battery_equals_standalone_tests_across_blocks(source):
    x = source.bits(2 ** 17 + 3)
    runner = stats.PrefixScanTest("lz77", "tauk")
    for m in (70001, len(x)):  # the second call scores scales from a mid-block start
        y = x.prefix(m)
        got = runner.reports(y, 0.01)
        want = [reference_compression_test(y, 0.01), reference_tau_k_test(y, 0.01)]
        assert got == want
        assert [r.detail for r in got] == [r.detail for r in want]


def test_prefix_scan_test_refuses_a_prefix_it_has_not_seen():
    x = random_bits(64, seed=9)
    runner = stats.PrefixScanTest("lz77")
    runner(x.prefix(32), 0.01)
    with pytest.raises(ValueError, match="extend"):
        runner(random_bits(64, seed=10), 0.01)
    with pytest.raises(ValueError, match="extend"):
        runner(x.prefix(16), 0.01)
    windowed = stats.PrefixScanTest("lz77", window_bits=4)  # its closed windows differ
    windowed(BitString.from01("00000000"), 0.01)
    with pytest.raises(ValueError, match="a prefix must extend the 8 bits already taken in"):
        windowed(BitString.from01("101101001"), 0.01)
    for ids in (("nope",), ()):
        with pytest.raises(ValueError):
            stats.PrefixScanTest(*ids)


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=2, max_size=200), st.lists(st.integers(1, 60), max_size=6),
       st.sampled_from([None, 1, 7, 64]), st.data())
def test_the_engine_checks_every_prefix_windowed_or_not(blob, steps, window, data):
    x = BitString(np.frombuffer(blob, dtype=np.uint8) % 2)
    ids = ("lz77",) if window else ("lz77", "tauk")
    runner = stats.PrefixScanTest(*ids, window_bits=window)
    m = 0
    for step in steps + [len(x)]:
        m = min(len(x), m + step)
        y = x.prefix(m)
        want = ([stats._compression_report(m, _windowed_code(window)(y), 0.01)] if window
                else [reference_compression_test(y, 0.01), reference_tau_k_test(y, 0.01)])
        got = runner.reports(y, 0.01)
        assert got == want and [r.detail for r in got] == [r.detail for r in want]
    # the last prefix is x; its windows close at each multiple of the window,
    # and all of x is one open window without one
    start = len(x) // window * window if window else 0
    flips = []
    if start:
        flips.append(data.draw(st.integers(0, start - 1), label="closed flip"))
    if start < len(x):
        flips.append(data.draw(st.integers(start, len(x) - 1), label="open flip"))
    refused = [x.prefix(data.draw(st.integers(1, len(x) - 1), label="shorter"))]
    for i in flips:
        bits = x.array.copy()
        bits[i] ^= 1
        refused.append(BitString(bits))
    for y in refused:
        with pytest.raises(ValueError,
                           match=f"^a prefix must extend the {len(x)} bits already taken in$"):
            runner.reports(y, 0.01)
    assert runner.reports(x, 0.01) == want  # a refused prefix changes nothing


def test_scan_validates_arguments():
    with pytest.raises(ValueError):
        stats.consistency_scan(BitString.zeros(10).prefix, stats.compression_test, 0.01,
                               start_bits=0)
    with pytest.raises(TypeError):
        stats.consistency_scan(42, stats.compression_test, 0.01)


# ---------------------------------------------------------------------------
# reports


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
