from __future__ import annotations

import contextlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from rngcal.bits import BitString
from rngcal.sources import (
    BernoulliSource,
    DriftingBiasSource,
    DuplicationSource,
    MarkovSource,
    RegimeSwitchSource,
    block_span,
    duplication_construction,
    generate,
    parse_source_spec,
    required_base_length,
)

from helpers import numpy_uniforms, packed_bits, python_loops, reference_markov_bits

# Frozen stream digests (Philox keyed by seed; stable across platforms).
DIGEST_BERNOULLI_05_SEED7_1024 = (
    "2db8ca59e8ff6d81ac7a0b30e2d35769ffee63cc33a1d55ecad6979f920ed8c8")
DIGEST_DUP_SEED7_4096 = (
    "aac389ce04e2f0b31c2b6b5b1a72f52a2554b8aefd3b6b68b15cfd579045ea91")
DIGEST_REGIME_SEED7_4096 = (
    "195385eb67a4f38979703501b1fc07230ee8da878105c8f3f7b01b005315f38a")
# 2^22 bits: 64 pieces of uniforms
DIGESTS_2_22 = {
    "bernoulli:0.5:seed=1":
        "413101f6af71afe82eb7e0d0841d8468126d4785179f4565b98a8cf274bcd7a9",
    "markov:0.9,0.1,0.2,0.8:seed=1":
        "a5657465a2835ab1488083c3d8fad8a13469fa0b8f5f491538332b74a70bfed8",
    "drift:0.5,1e-08:seed=1":
        "f87964207f40c049a1f1a1a33795c7e45c860cad99c0392e36cd70d329f550c0",
    "regime:262144,0.5,262144,0.4:seed=1":
        "d264bce96e00588235e837ed1ab0344833fb9de840db1f27c9f4228f5b6223a4",
    "dup:seed=1":
        "1048f866943e10adc265f4b60f963d72816f50ebf9f3fab189b9492ab6d937d6",
}


def test_degenerate_probabilities():
    assert BernoulliSource(1.0, seed=1).bits(8).to01() == "11111111"
    assert BernoulliSource(0.0, seed=1).bits(8).to01() == "00000000"


def test_pinned_digests():
    assert generate("bernoulli:0.5:seed=7", 1024).digest() == DIGEST_BERNOULLI_05_SEED7_1024
    assert generate("dup:seed=7", 4096).digest() == DIGEST_DUP_SEED7_4096
    assert (generate("regime:100,0.2,50,0.8:seed=7", 4096).digest()
            == DIGEST_REGIME_SEED7_4096)
    assert (generate(f"bernoulli:0.5:seed={2 ** 64 - 1}", 64).to01()  # the largest seed
            == "1010100111111101111011100111011101100001101110010111110100010111")


@pytest.mark.parametrize("spec", DIGESTS_2_22)
def test_pinned_digests_at_2_22_bits(spec):
    assert generate(spec, 1 << 22).digest() == DIGESTS_2_22[spec]


def test_same_spec_same_bits():
    a = BernoulliSource(0.3, seed=42).bits(4096)
    b = BernoulliSource(0.3, seed=42).bits(4096)
    assert a == b
    c = BernoulliSource(0.3, seed=43).bits(4096)
    assert a != c


ALL_SOURCES = {
    "bernoulli:0.5:seed=5": BernoulliSource(0.5, seed=5),
    "bernoulli:0.1:seed=5": BernoulliSource(0.1, seed=5),
    "markov:0.7,0.3,0.4,0.6:seed=5": MarkovSource([[0.7, 0.3], [0.4, 0.6]], seed=5),
    "drift:0.5,1e-05:seed=5": DriftingBiasSource(0.5, 1e-5, seed=5),
    "regime:100,0.2,50,0.8:seed=5": RegimeSwitchSource([(100, 0.2), (50, 0.8)], seed=5),
    "dup:seed=5": DuplicationSource(seed=5),
}


@pytest.mark.parametrize("source", ALL_SOURCES.values(), ids=ALL_SOURCES)
def test_prefix_consistency(source):
    long = source.bits(3000)
    for n in (0, 1, 17, 512, 2999):
        assert source.bits(n) == long.prefix(n)


@pytest.mark.parametrize("spec,source", ALL_SOURCES.items(), ids=ALL_SOURCES)
def test_spec_string_round_trip(spec, source):
    # the spec string names the source: same type, seed and bits
    parsed = parse_source_spec(spec)
    assert type(parsed) is type(source) and parsed.seed == source.seed
    assert parsed.bits(256) == source.bits(256)


def _one_draw(source, n: int) -> np.ndarray:
    """``source.bits(n)`` from one whole-length draw of numpy's uniforms."""
    if isinstance(source, MarkovSource):
        return reference_markov_bits(source, n) if n else np.zeros(0, dtype=np.uint8)
    if isinstance(source, DuplicationSource):
        base = BernoulliSource(0.5, seed=source.seed)
        return duplication_construction(
            packed_bits(_one_draw(base, required_base_length(n))), n).array
    i = np.arange(n)
    if isinstance(source, DriftingBiasSource):
        with np.errstate(over="ignore"):  # clip maps the infinities to 0 or 1
            p = np.clip(source.p0 + source.rate * i.astype(np.float64), 0.0, 1.0)
    elif isinstance(source, RegimeSwitchSource):
        # i's segment is the first whose end passes i modulo the period; below
        # n, an end or a period past n acts as n
        lengths, ps = zip(*source.segments)
        ends = [min(end, n) for end in itertools.accumulate(lengths)]
        p = np.array(ps)[np.searchsorted(ends, i % max(ends[-1], 1), side="right")]
    else:
        p = source.p
    return (numpy_uniforms(source.seed, n) < p).astype(np.uint8)


SEEDS = (0, 1, 7, 2 ** 63 + 5, 2 ** 64 - 1)
DRAW_SPECS = [
    "bernoulli:0.3", "bernoulli:0.0", "bernoulli:1.0",
    "markov:0.9,0.1,0.2,0.8", "markov:0.2,0.8,0.7,0.3",
    "drift:0.1,4e-06", "drift:0.0,1e300", "drift:1.0,-0.001",
    "regime:3,0.1,1,0.9,7,0.5", "regime:40000,0.2,30000,0.9,7,0.5", "regime:1e30,0.3",
    "dup",
]


@pytest.mark.parametrize("spec", DRAW_SPECS)
@pytest.mark.parametrize("backend", ["native", "python"])
def test_draws_equal_numpys(backend, spec):
    # the C loop and its Python fallback both draw numpy's Philox bits,
    # u_i < p_i with u_i from Generator(Philox(key=seed)).random()
    lengths = [0, 1, 3, 4, 5, 63, 64, 65, 1000, 4099]
    if backend == "native":
        lengths += [2 ** 16 + 3, 2 ** 17]
    for seed in SEEDS:
        source = parse_source_spec(f"{spec}:seed={seed}")
        for n in lengths:
            with python_loops() if backend == "python" else contextlib.nullcontext():
                got = source.bits(n)
            assert got.digest() == packed_bits(_one_draw(source, n)).digest(), (seed, n)


@pytest.mark.parametrize("source", ALL_SOURCES.values(), ids=ALL_SOURCES)
def test_python_draws_are_prefix_consistent(source):
    with python_loops():
        long = source.bits(1000)
        for n in (0, 1, 17, 512, 999):
            assert source.bits(n) == long.prefix(n)
    assert long == source.bits(1000)  # and the C loop's


@pytest.mark.parametrize("spec", [
    "bernoulli:0.3:seed=11",
    "markov:0.9,0.1,0.2,0.8:seed=12",
    "markov:0.2,0.8,0.7,0.3:seed=13",  # P11 < P01: the flipping branch
    "drift:0.1,4e-06:seed=14",
    "regime:40000,0.2,30000,0.9,7,0.5:seed=15",
    "dup:seed=16",
])
def test_bits_across_pieces_equal_one_draw(spec):
    # lengths about 2^16: where a draw in pieces of 2^16 uniforms would cut
    source = parse_source_spec(spec)
    for n in (2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 3 * 2 ** 16 + 5):
        assert np.array_equal(source.bits(n).array, _one_draw(source, n)), n


def test_bits_validates_count():
    with pytest.raises(ValueError):
        BernoulliSource(0.5, seed=1).bits(-1)


def test_bernoulli_validates_probability():
    with pytest.raises(ValueError):
        BernoulliSource(1.5, seed=0)


def test_bernoulli_frequency():
    x = BernoulliSource(0.3, seed=9).bits(10 ** 5)
    freq = np.mean(x.array)
    assert abs(freq - 0.3) < 0.01


def test_markov_validates_rows():
    with pytest.raises(ValueError):
        MarkovSource([[0.5, 0.4], [0.4, 0.6]], seed=0)  # row sums 0.9
    with pytest.raises(ValueError):
        MarkovSource([[1.1, -0.1], [0.5, 0.5]], seed=0)
    with pytest.raises(ValueError):
        MarkovSource([[1.0, 0.0]], seed=0)
    with pytest.raises(ValueError):
        MarkovSource([[np.nan, np.nan], [0.5, 0.5]], seed=0)  # NaN rows pass a sum test


@pytest.mark.parametrize("rows,text", [
    ([[0.5, 0.4], [0.4, 0.6]], "transition matrix rows must sum to 1, got [0.9, 1.0]"),
    ([[1.1, -0.1], [0.5, 0.5]], "transition probabilities must be in [0, 1]"),
    ([[1.0, 0.0]], "transition matrix must be 2x2, got shape (1, 2)"),
    ([[0.5, 0.5, 0.0]] * 3, "transition matrix must be 2x2, got shape (3, 3)"),
    ([[np.nan, np.nan], [0.5, 0.5]], "transition probabilities must be in [0, 1]"),
])
def test_markov_refusals_keep_their_texts(rows, text):
    with pytest.raises(ValueError) as err:
        MarkovSource(rows, seed=0)
    assert str(err.value) == text


def test_markov_draw_matches_the_chain_walk():
    rng = np.random.default_rng(3)
    rows = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]],
            [[0.3, 0.7], [0.3, 0.7]], [[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.5, 0.5]]]
    rows += [[[1.0 - a, a], [1.0 - b, b]] for a, b in rng.random((100, 2))]
    for seed, m in enumerate(rows):
        source = MarkovSource(m, seed=seed)
        for n in (1, 2, 3, 1000):
            assert np.array_equal(source.bits(n).array, reference_markov_bits(source, n)), m


def test_markov_transition_frequencies():
    rows = [[0.8, 0.2], [0.3, 0.7]]
    x = MarkovSource(rows, seed=12).bits(2 * 10 ** 5).array
    prev, cur = x[:-1], x[1:]
    for s in (0, 1):
        mask = prev == s
        observed = cur[mask].mean()
        assert abs(observed - rows[s][1]) < 0.01, s


def test_drifting_bias_reaches_target():
    # ramp 0.5 -> 0.6 across 1e6 bits; the last decile should average ~0.595
    n = 10 ** 6
    rate = 0.1 / n
    for seed in range(20):
        x = DriftingBiasSource(0.5, rate, seed=seed).bits(n)
        tail = x.array[-n // 10:]
        assert 0.58 < tail.mean() < 0.62, seed


def test_drifting_bias_clips():
    x = DriftingBiasSource(0.99, 1e-3, seed=3).bits(10 ** 4)
    assert x.array[-100:].mean() == 1.0  # ramp saturates at probability 1


@pytest.mark.parametrize("rate,bit", [(1e308, 1), (-1e308, 0)])
def test_drifting_bias_overflow_is_clipped_silently(rate, bit):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = DriftingBiasSource(0.5, rate, seed=3).bits(64)
    assert x.array[1:].tolist() == [bit] * 63  # p is 0 or 1 from the second bit on


def test_regime_switch_segment_frequencies():
    src = RegimeSwitchSource([(1000, 0.1), (1000, 0.9)], seed=8)
    x = src.bits(2 * 10 ** 5).array
    blocks = x.reshape(-1, 1000)
    lows = blocks[0::2].mean()
    highs = blocks[1::2].mean()
    assert abs(lows - 0.1) < 0.02
    assert abs(highs - 0.9) < 0.02


@pytest.mark.parametrize("segments", [
    [(1, 0.3)],
    [(100, 0.2), (50, 0.8)],
    [(3, 0.1), (1, 0.9), (7, 0.5), (2, 1.0)],
    [(5000, 0.4)],
])
def test_regime_switch_equals_the_whole_period_construction(segments):
    n = 3000
    period = np.concatenate([np.full(length, p) for length, p in segments])
    p = np.tile(period, -(-n // len(period)))[:n]
    want = np.random.Generator(np.random.Philox(key=9)).random(n) < p
    assert np.array_equal(RegimeSwitchSource(segments, seed=9).bits(n).array, want)


@pytest.mark.parametrize("spec", [
    "regime:4611686018427387904,0.5,4611686018427387904,0.9,64,0.1:seed=1",
    "regime:9e18,0.5,9e18,0.2:seed=1",
    "regime:1e300,0.5:seed=1",
])
def test_regime_switch_lengths_past_int64(spec):
    # the first 64 bits lie in the first segment
    assert generate(spec, 64) == generate("regime:64,0.5:seed=1", 64)


@pytest.mark.parametrize("spec,mib", [
    ("bernoulli:0.5:seed=1", 8),
    ("markov:0.9,0.1,0.2,0.8:seed=1", 8),
    ("drift:0.5,1e-08:seed=1", 8),
    ("regime:33554432,0.5,3,0.1:seed=1", 8),
    ("dup:seed=1", 12),  # its base, about as long, beside the output
], ids=["bernoulli", "markov", "drift", "regime", "dup"])
def test_memory_follows_the_bits_drawn(spec, mib):
    # 4 MiB of bits; one whole-length float64 draw would add 32 MiB, and the
    # regime source's whole 2^25-position period 256 MiB of probabilities
    source = parse_source_spec(spec)
    tracemalloc.start()
    try:
        source.bits(1 << 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib << 20


def test_regime_switch_validation():
    with pytest.raises(ValueError):
        RegimeSwitchSource([], seed=0)
    with pytest.raises(ValueError):
        RegimeSwitchSource([(0, 0.5)], seed=0)
    with pytest.raises(ValueError):
        RegimeSwitchSource([(10, 1.2)], seed=0)
    for length in (2.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="integer"):
            RegimeSwitchSource([(length, 0.5)], seed=0)
    with pytest.raises(ValueError, match="integer"):
        BernoulliSource(0.5, seed=2.7)


# ---------------------------------------------------------------------------
# the duplication construction


def test_block_spans():
    assert block_span(0) == (0, 2)
    assert block_span(1) == (2, 14)
    assert block_span(2) == (14, 254)
    assert block_span(3) == (254, 65534)


def test_output_layout_doubles_each_block():
    base = BitString(np.arange(300) % 2)  # alternating; content is irrelevant
    b = base.array.tolist()
    y = duplication_construction(base, 28).array.tolist()
    expected = b[0:2] + b[0:2] + b[2:14] + b[2:14]
    assert y == expected


def test_first_four_bits_duplicate_first_pair():
    base = BitString.from01("10" + "0" * 20)
    assert duplication_construction(base, 4).to01() == "1010"


def test_paired_halves_are_identical():
    y = DuplicationSource(seed=21).bits(2 * (2 ** 16 - 2))  # u_0..u_3 complete
    out_pos = 0
    for k in range(4):
        start, end = block_span(k)
        blk = end - start
        first = y[out_pos:out_pos + blk]
        second = y[out_pos + blk:out_pos + 2 * blk]
        assert first == second, k
        out_pos += 2 * blk
    assert out_pos == len(y)


def test_required_base_length_values():
    assert required_base_length(0) == 0
    assert required_base_length(4) == 2
    assert required_base_length(5) == 3   # one bit into the first copy of u_1
    assert required_base_length(28) == 14
    assert required_base_length(29) == 15
    assert required_base_length(2 ** 17) == 65538


def test_minimal_base_suffices_and_shorter_fails():
    for n in (1, 4, 5, 28, 100, 508, 509):
        need = required_base_length(n)
        base = BitString(np.ones(need, dtype=np.uint8))
        assert len(duplication_construction(base, n)) == n
        if need > 0:
            with pytest.raises(ValueError) as err:
                duplication_construction(base.prefix(need - 1), n)
            assert str(need) in str(err.value)


def test_duplication_from_source_matches_explicit_base():
    n = 600
    base = BernoulliSource(0.5, seed=33).bits(required_base_length(n) + 50)
    assert DuplicationSource(seed=33).bits(n) == duplication_construction(base, n)


# ---------------------------------------------------------------------------
# spec strings


def test_parse_spec_defaults_seed_zero():
    for spec, source in (("bernoulli:0.25", BernoulliSource(0.25, seed=0)),
                         ("dup", DuplicationSource(seed=0))):
        parsed = parse_source_spec(spec)
        assert parsed.seed == 0
        assert parsed.bits(256) == source.bits(256)


@pytest.mark.parametrize("bad", [
    "gaussian:0.5:seed=1",
    "bernoulli",
    "bernoulli:0.5:0.6:seed=1",
    "bernoulli:zebra:seed=1",
    "bernoulli:0.5:seed=zebra",
    "markov:0.5,0.5:seed=1",
    "regime:100:seed=1",
    "regime:2.5,0.5:seed=1",
    "dup:0.5:seed=1",
    "dup:",
    "dup::seed=3",
    "markov:nan,nan,0.5,0.5:seed=1",
    "drift:0.5,nan:seed=1",
    "drift:0.5,inf:seed=1",
    "regime:inf,0.5:seed=1",
])
def test_parse_spec_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_source_spec(bad)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_a_seed_outside_64_bits_is_refused(seed):
    # a Philox key taken modulo 2^64 would give -1 the stream of 2^64 - 1, 2^64 that of 0
    for make in (lambda: BernoulliSource(0.5, seed=seed),
                 lambda: parse_source_spec(f"dup:seed={seed}")):
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\), got "):
            make()


def test_unknown_kind_lists_valid_kinds():
    with pytest.raises(ValueError) as err:
        parse_source_spec("noise:1:seed=0")
    for kind in ("bernoulli", "markov", "drift", "regime", "dup"):
        assert kind in str(err.value)
