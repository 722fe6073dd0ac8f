from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rngcal import lz, reference, stats
from rngcal.bits import BitString
from rngcal.errors import InfeasibleError
from rngcal.sources import BernoulliSource

from helpers import all_bitstrings, bit_array


def test_entropy_extremes():
    assert reference.bernoulli_entropy(0.5) == 1.0
    assert reference.bernoulli_entropy(0.0) == 0.0
    assert reference.bernoulli_entropy(1.0) == 0.0


def test_entropy_is_symmetric():
    for p in (0.1, 0.25, 0.37):
        assert reference.bernoulli_entropy(p) == pytest.approx(
            reference.bernoulli_entropy(1 - p), rel=1e-14)


def test_entropy_at_point_three():
    assert reference.bernoulli_entropy(0.3) == pytest.approx(
        0.8812908992306927, abs=1e-10)


def test_entropy_validates_range():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            reference.bernoulli_entropy(bad)


# ---------------------------------------------------------------------------
# exact p-value of the known-coin likelihood statistic


def _direct_mu_p_value(x: BitString, p: float) -> float:
    """Literal 2^n enumeration; independent of the binomial-tail path."""
    n = len(x)
    mu_x = p ** sum(bit_array(x).tolist()) * (1 - p) ** (n - sum(bit_array(x).tolist()))
    count = 0
    for v in range(1 << n):
        ones = v.bit_count()
        if p ** ones * (1 - p) ** (n - ones) >= mu_x:
            count += 1
    return count / float(1 << n)


def test_fair_coin_gives_p_one():
    for s in ("0", "0101", "1111111"):
        assert 2.0 ** reference.known_mu_log2_p_value(BitString.from01(s), 0.5) == 1.0


def test_most_probable_singleton():
    # under p = 0.9, "111" is the unique most probable 3-bit string
    assert 2.0 ** reference.known_mu_log2_p_value(BitString.from01("111"), 0.9) == pytest.approx(1 / 8)


def test_ties_count_against_randomness():
    # p=0.9, x="110": mu = .9*.9*.1; the three two-one strings tie, "111" beats
    p = 2.0 ** reference.known_mu_log2_p_value(BitString.from01("110"), 0.9)
    assert p == pytest.approx(4 / 8)


def test_matches_direct_enumeration_exhaustive():
    rng = np.random.default_rng(17)
    for n in (3, 7, 11, 14):
        for p in (0.1, 0.3, 0.45):
            for _ in range(6):
                x = BitString.from_int(int(rng.integers(0, 1 << n)), n)
                assert 2.0 ** reference.known_mu_log2_p_value(x, p) == pytest.approx(
                    _direct_mu_p_value(x, p), rel=1e-11), (n, p)


def test_matches_direct_enumeration_sampled_large():
    rng = np.random.default_rng(18)
    for n in (17, 20):
        for p in (0.1, 0.45):
            x = BitString.from_int(int(rng.integers(0, 1 << n)), n)
            assert 2.0 ** reference.known_mu_log2_p_value(x, p) == pytest.approx(
                _direct_mu_p_value(x, p), rel=1e-10), (n, p)


def test_validates_probability():
    for bad in (0.0, 1.0, -1.0):
        with pytest.raises(ValueError):
            2.0 ** reference.known_mu_log2_p_value(BitString.from01("01"), bad)


def test_rate_against_known_bias():
    # -log2(p-value)/n concentrates near 1 - H(0.2) for samples from B(0.2)
    n = 10 ** 4
    target = 1.0 - reference.bernoulli_entropy(0.2)
    rates = []
    for seed in range(10):
        x = BernoulliSource(0.2, seed=seed).bits(n)
        rates.append(-reference.known_mu_log2_p_value(x, 0.2) / n)
    assert abs(np.mean(rates) - target) < 0.02
    assert all(abs(r - target) < 0.05 for r in rates)


def test_log2_variant_matches_plain_value_in_range():
    x = BitString.from01("1110010111")
    for p in (0.2, 0.8):
        assert 2.0 ** reference.known_mu_log2_p_value(x, p) == pytest.approx(
            _direct_mu_p_value(x, p), rel=1e-11)


def test_package_runs_without_scipy():
    # rngcal has no runtime dependency, the reference oracles included
    src = str(Path(reference.__file__).parent.parent)
    code = ("import sys; sys.modules['scipy'] = None\n"
            f"sys.path.insert(0, {src!r})\n"
            "import rngcal, rngcal.cli, rngcal.reference as r\n"
            "from rngcal.bits import BitString\n"
            "print(2.0 ** r.known_mu_log2_p_value(BitString.from01('111'), 0.9))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) == pytest.approx(1 / 8)


# ---------------------------------------------------------------------------
# exhaustive enumeration oracles


def test_reject_count_of_never_rejecting_test():
    def never(x, alpha):
        return stats._compression_report(len(x), len(x), alpha)

    assert reference.exhaustive_reject_count(never, 10, 0.5) == 0


def test_reject_count_lz77_at_n12():
    count = reference.exhaustive_reject_count(stats.compression_test, 12, 0.01)
    assert count == 0  # pinned: the pair code cannot save 7 bits at n = 12
    assert count <= int(4096 * 0.01)


def test_reject_count_tau_k_at_n12():
    def tauk(x, alpha):
        return stats.tau_k_test(x, alpha=alpha)

    count = reference.exhaustive_reject_count(tauk, 12, 0.1)
    assert count == 0  # pinned
    assert count <= int(4096 * 0.1)


def test_reject_count_guard():
    with pytest.raises(InfeasibleError):
        reference.exhaustive_reject_count(stats.compression_test, 15, 0.5)


def test_p_value_table_agrees_with_per_string_enumeration():
    n = 8
    cache = {x.to_int(): n - lz.code_length(x) for x in all_bitstrings(n)}

    def tau(y):
        return cache[y.to_int()]

    table = reference.exhaustive_p_values(tau, n)
    for x in all_bitstrings(n):
        assert table[x.to_int()] == pytest.approx(stats.exact_p_value(x, tau),
                                                  abs=0.0), x.to01()


def test_exact_p_value_enumerates_every_string_across_row_blocks():
    n = 14  # 2^14 strings: four blocks of rows
    seen = []

    def tau(y):
        seen.append(y.to_int())
        return seen[-1] * 2654435761 % 97

    table = reference.exhaustive_p_values(tau, n)
    for v in (0, 4095, 4096, 12345, (1 << n) - 1):
        seen.clear()
        assert stats.exact_p_value(BitString.from_int(v, n), tau) == table[v], v
        assert seen == [v] + list(range(1 << n))
