"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte-Carlo heavy criteria fan trials out over a process pool (capped by
RNGCAL_THREADS); every trial is seeded, so reported values do not depend on
the worker count.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import math

import numpy as np

from rngcal import lz, reference, stats
from rngcal.bits import BitString
from rngcal.codes import encode_integer, encoded_length, kraft_sum
from rngcal.sources import BernoulliSource, DuplicationSource
from helpers import all_bitstrings, packed_bits, parallel_map


def conclude(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# worker functions (top level so the fork pool can address them)


def _roundtrip_trial(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    n = int(math.exp(rng.uniform(0.0, math.log(10 ** 4))))
    x = packed_bits(rng.integers(0, 2, n).astype(np.uint8))
    return lz.decode(lz.encode(x)) == x


def _mc_compression_trial(seed: int) -> bool:
    x = BernoulliSource(0.5, seed=seed).bits(10 ** 4)
    return stats.compression_test(x, 0.01).rejected


def _power_trial_bern03(seed: int) -> bool:
    x = BernoulliSource(0.3, seed=seed).bits(10 ** 5)
    return stats.compression_test(x, 0.01).rejected


def _dup_claim_trial(seed: int) -> tuple[float, bool, bool]:
    n = 2 ** 17
    y = DuplicationSource(seed=seed).bits(n)
    ratio = lz.code_length(y) / n
    y_rejected = stats.compression_test(y, 1e-6).rejected
    base = BernoulliSource(0.5, seed=seed ^ 0x5EED).bits(n)
    base_accepted = not stats.compression_test(base, 1e-6).rejected
    return ratio, y_rejected, base_accepted


def _tauk_trial(seed: int) -> bool:
    x = BernoulliSource(0.5, seed=seed).bits(2 ** 14)
    return stats.tau_k_test(x, alpha=0.01).rejected


_TAU12 = {}


def _exact_p_chunk(values: list[int]) -> list[float]:
    def tau(y):
        return _TAU12[y.to_int()]

    return [stats.exact_p_value(BitString.from_int(v, 12), tau) for v in values]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_kraft_and_prefix_soundness():
    words = {}
    for m in range(1, 4097):
        bits = encode_integer(m).bits
        words.setdefault(len(bits), []).append(bits.to_int())
    prefix_free = True
    lengths_sorted = sorted(words)
    for la in lengths_sorted:
        va = np.array(words[la], dtype=np.int64)
        if len(np.unique(va)) != len(va):
            prefix_free = False
        for lb in lengths_sorted:
            if lb <= la:
                continue
            vb = np.array(words[lb], dtype=np.int64) >> (lb - la)
            if np.isin(vb, va).any():
                prefix_free = False
    total = kraft_sum(encoded_length(m) for m in range(1, 2 ** 20 + 1))
    ok = prefix_free and total <= 1.0
    conclude(1, ok, f"prefix-free over m<=4096: {prefix_free}; "
                    f"Kraft sum over m<=2^20: {total:.10f} <= 1")


def test_criterion_2_lossless_coding():
    exhaustive_ok = all(lz.decode(lz.encode(x)) == x
                        for n in range(0, 15) for x in all_bitstrings(n))
    # 1e4 random strings with log-uniform lengths in 1..1e4 bits
    results = parallel_map(_roundtrip_trial, range(10 ** 4))
    random_ok = all(results)
    ok = exhaustive_ok and random_ok
    conclude(2, ok, f"exhaustive |x|<=14: {exhaustive_ok}; "
                    f"random strings identical: {sum(results)}/10000")


def test_criterion_3_type_one_calibration():
    counts = {}
    exhaustive_ok = True
    for alpha in (0.5, 0.1, 0.01):
        count = reference.exhaustive_reject_count(stats.compression_test, 12, alpha)
        counts[alpha] = count
        if count > (2 ** 12) * alpha:
            exhaustive_ok = False
    rejected = sum(parallel_map(_mc_compression_trial, range(10 ** 4)))
    rate = rejected / 10 ** 4
    bound = 0.01 + 3 * math.sqrt(0.01 * 0.99 / 10 ** 4)
    ok = exhaustive_ok and rate <= bound
    conclude(3, ok, f"exhaustive n=12 reject counts {counts} all within 2^12*alpha; "
                    f"Monte-Carlo rate {rate:.4f} <= {bound:.4f}")


def test_criterion_4_power_against_stationary_bias():
    rejected = sum(parallel_map(_power_trial_bern03, range(100)))
    power_ok = rejected == 100

    rates = {}
    rate_ok = True
    for p in (0.1, 0.3):
        x = BernoulliSource(p, seed=7).bits(10 ** 6)
        rate = (10 ** 6 - lz.code_length(x)) / 10 ** 6
        target = 1.0 - reference.bernoulli_entropy(p)
        rates[p] = (rate, target - 0.15, target + 0.02)
        if not (target - 0.15 <= rate <= target + 0.02):
            rate_ok = False
    detail = (f"Bernoulli(0.3) n=1e5 rejected in {rejected}/100 seeds (need 100); "
              + "; ".join(f"p={p}: rate {r:.4f} required [{lo:.4f}, {hi:.4f}]"
                          for p, (r, lo, hi) in rates.items()))
    conclude(4, power_ok and rate_ok, detail)


def test_criterion_5_duplication_construction_detection():
    results = parallel_map(_dup_claim_trial, range(100))
    ratios = [r for r, _, _ in results]
    y_rejections = sum(1 for _, rej, _ in results if rej)
    base_accepts = sum(1 for _, _, acc in results if acc)
    ratio_ok = max(ratios) <= 0.75
    reject_ok = y_rejections == 100
    accept_ok = base_accepts >= 99
    detail = (f"y ratio at 2^17: max {max(ratios):.4f} (need <= 0.75); "
              f"y rejected at alpha=1e-6 in {y_rejections}/100; "
              f"base accepted in {base_accepts}/100 (need >= 99)")
    conclude(5, ratio_ok and reject_ok and accept_ok, detail)


def test_criterion_6_battery_arithmetic():
    worked = stats.battery_p_value([0.004, 0.5])
    worked_ok = abs(worked - 0.008) < 1e-12
    rng = np.random.default_rng(2718)
    trials = 10 ** 5
    w = np.array([stats.omega_star(i) for i in range(1, 6)])
    combined = np.minimum(1.0, (rng.random((trials, 5)) / w).min(axis=1))
    mc_ok = True
    rates = {}
    for alpha in (0.1, 0.01):
        rate = float((combined <= alpha).mean())
        bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials)
        rates[alpha] = (rate, bound)
        if rate > bound:
            mc_ok = False
    conclude(6, worked_ok and mc_ok,
             f"worked example -> {worked:.6f} (want 0.008); "
             + "; ".join(f"alpha={a}: P(combined<=a) {r:.5f} <= {b:.5f}"
                         for a, (r, b) in rates.items()))


def test_criterion_7_tau_k_test():
    log_k = math.log2(2)  # the ensemble: lz77 and the literal length
    count_ok = True
    worst = 0
    for m in range(1, 13):
        w = stats.omega_star(m)
        estimates = [log_k + min(lz.code_length(x), len(x))
                     for x in all_bitstrings(m)]
        for alpha in (0.5, 0.1, 0.01):
            threshold = math.log2(1.0 / alpha)
            count = sum(1 for est in estimates
                        if m - est - math.log2(1.0 / w) >= threshold)
            worst = max(worst, count)
            if count > (2 ** m) * alpha * w:
                count_ok = False

    zeros_rejected = stats.tau_k_test(BitString.zeros(2 ** 14), alpha=0.01).rejected
    accepted = 1000 - sum(parallel_map(_tauk_trial, range(1000)))
    ok = count_ok and zeros_rejected and accepted >= 990
    conclude(7, ok, f"per-scale counts m<=12 within 2^m*alpha*w_m (max count {worst}); "
                    f"all-zeros 2^14 rejected: {zeros_rejected}; "
                    f"PRNG accepted in {accepted}/1000 (need >= 990)")


def test_criterion_8_known_coin_rate():
    n = 10 ** 4
    target = 1.0 - reference.bernoulli_entropy(0.2)
    rates = [-reference.known_mu_log2_p_value(BernoulliSource(0.2, seed=s).bits(n), 0.2) / n
             for s in range(100)]
    mean = float(np.mean(rates))
    ok = abs(mean - target) <= 0.05
    conclude(8, ok, f"mean -log2(p)/n over 100 samples: {mean:.4f}, "
                    f"target {target:.4f} +- 0.05")


def test_criterion_9_oracle_equivalence():
    n = 12
    _TAU12.clear()
    _TAU12.update({x.to_int(): float(n - lz.code_length(x)) for x in all_bitstrings(n)})

    def tau(y):
        return _TAU12[y.to_int()]

    table = reference.exhaustive_p_values(tau, n)
    values = list(range(1 << n))
    chunks = [values[i:i + 256] for i in range(0, len(values), 256)]
    direct = [p for chunk in parallel_map(_exact_p_chunk, chunks) for p in chunk]
    agree = all(direct[v] == table[v] for v in values)

    taus = np.array([_TAU12[v] for v in values])
    bound_ok = bool(np.all(table <= np.minimum(1.0, 2.0 ** -taus) + 1e-12))
    conclude(9, agree and bound_ok,
             f"exact_p_value agrees with oracle table for all 2^12 inputs: {agree}; "
             f"p_exact <= 2^-tau holds exhaustively: {bound_ok}")
