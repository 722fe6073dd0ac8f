from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rngcal import lz
from rngcal.bits import BitString
from rngcal.codes import BitWriter, Codeword, encoded_length, write_integer
from rngcal.errors import DecodeError
from rngcal.sources import BernoulliSource, DuplicationSource, MarkovSource

from helpers import all_bitstrings, brute_lz77_pairs, random_bits, reference_prefix_costs

# Frozen regression constants for seed 7 of the packaged generators.
RANDOM_1E5_CODE_BITS = 187503
RANDOM_1E6_CODE_BITS = 1799906   # ratio 1.7999: random data expands at this n
DUP_BOUNDARY_CODE_BITS = {28: 72, 508: 642, 131068: 124186}
BASE_2_17_CODE_BITS = 244991
DUPLICATION_SLACK_BITS = 32      # measured worst 25 over 40 seeds
EXPANSION_BETA = 1.5             # measured worst 1.196


def test_single_literal():
    assert lz.parse(BitString.from01("0")).pairs == [lz.Lz77Pair(0, 0)]


def test_overlapping_run():
    assert lz.parse(BitString.from01("0000")).pairs == [
        lz.Lz77Pair(0, 0), lz.Lz77Pair(1, 3)]


def test_empty_input():
    assert lz.parse(BitString()).pairs == []
    assert lz.code_length(BitString()) == 0
    assert lz.decode(lz.encode(BitString())) == BitString()


def test_parse_matches_brute_force_exhaustive():
    for n in range(0, 13):
        for x in all_bitstrings(n):
            assert [tuple(p) for p in lz.parse(x).pairs] == brute_lz77_pairs(x)


def test_parse_matches_brute_force_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(0, 120))
        x = BitString(rng.integers(0, 2, n).astype(np.uint8))
        assert [tuple(p) for p in lz.parse(x).pairs] == brute_lz77_pairs(x)


def test_parse_covers_input():
    x = random_bits(500, seed=3)
    parsed = lz.parse(x)
    assert parsed.total_length == len(x)
    assert sum(1 if p.is_literal else p.payload for p in parsed.pairs) == len(x)


def test_copy_positions_point_into_prefix():
    x = random_bits(400, seed=4)
    produced = 0
    for pair in lz.parse(x).pairs:
        if pair.is_literal:
            produced += 1
        else:
            assert 1 <= pair.position <= produced
            produced += pair.payload


def test_doubling_adds_at_most_one_pair():
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        for u in all_bitstrings(n):
            assert len(lz.parse(u + u).pairs) <= len(lz.parse(u).pairs) + 1
    for _ in range(100):
        n = int(rng.integers(1, 65))
        u = BitString(rng.integers(0, 2, n).astype(np.uint8))
        assert len(lz.parse(u + u).pairs) <= len(lz.parse(u).pairs) + 1


def test_single_literal_codeword_length():
    assert len(lz.encode(BitString.from01("0"))) == encoded_length(1) + 1


def test_code_length_agrees_with_encode():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(0, 300))
        x = BitString(rng.integers(0, 2, n).astype(np.uint8))
        assert lz.code_length(x) == len(lz.encode(x))


def test_round_trip_trivial():
    for s in ("", "0110"):
        x = BitString.from01(s)
        assert lz.decode(lz.encode(x)) == x


def test_round_trip_exhaustive_small():
    for n in range(0, 15):
        for x in all_bitstrings(n):
            assert lz.decode(lz.encode(x)) == x


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_round_trip_property(blob):
    x = BitString(np.frombuffer(blob, dtype=np.uint8) % 2)
    assert lz.decode(lz.encode(x)) == x


def test_prefix_free_within_each_length_class():
    # Equal-length inputs never produce one codeword extending another;
    # this per-class property is what the rejection counting bound uses.
    # (Across lengths the bare pair stream is extendable by construction:
    # encode("0") is a prefix of encode("00").)
    for n in range(1, 11):
        words = sorted(lz.encode(x).bits.to01() for x in all_bitstrings(n))
        assert len(set(words)) == len(words)
        for a, b in zip(words, words[1:]):
            assert not b.startswith(a), (n, a, b)


def test_cross_length_extension_exists():
    short = lz.encode(BitString.from01("0")).bits.to01()
    long = lz.encode(BitString.from01("00")).bits.to01()
    assert long.startswith(short)


def test_prefix_code_lengths_match_per_prefix_encoding():
    for seed, n in ((0, 257), (1, 512)):
        x = random_bits(n, seed=seed)
        table = lz.prefix_code_lengths(x)
        assert table.shape == (n + 1,)
        for m in range(n + 1):
            assert table[m] == lz.code_length(x.prefix(m)), m
    y = DuplicationSource(seed=3).bits(600)
    table = lz.prefix_code_lengths(y)
    for m in range(601):
        assert table[m] == lz.code_length(y.prefix(m)), m


def _chunked_table(x: BitString, chunks) -> np.ndarray:
    """The table of a PrefixCosts fed ``x`` in consecutive chunks."""
    costs = lz.PrefixCosts()
    taken = 0
    for size in chunks:
        if taken >= len(x):
            break
        costs.extend(x[taken:taken + size])
        taken = min(len(x), taken + size)
    assert len(costs) == len(x)
    return np.frombuffer(costs.table, dtype=np.int64)


_CHUNKINGS = {
    "ones": lambda: iter(lambda: 1, None),
    "sevens": lambda: iter(lambda: 7, None),
    "doubling": lambda: (1 << k for k in range(64)),
}

_PARITY_INPUTS = {
    "uniform": lambda n: BernoulliSource(0.5, seed=11).bits(n),
    "bern01": lambda n: BernoulliSource(0.1, seed=12).bits(n),
    "dup": lambda n: DuplicationSource(seed=13).bits(n),
    "markov": lambda n: MarkovSource([[0.9, 0.1], [0.2, 0.8]], seed=14).bits(n),
    "zeros": BitString.zeros,
}


@pytest.mark.parametrize("chunking", sorted(_CHUNKINGS))
@pytest.mark.parametrize("kind", sorted(_PARITY_INPUTS))
def test_chunk_extended_table_matches_one_pass(kind, chunking):
    x = _PARITY_INPUTS[kind](700)
    table = _chunked_table(x, _CHUNKINGS[chunking]())
    assert np.array_equal(table, lz.prefix_code_lengths(x))
    for m in range(0, len(x) + 1, 7):
        assert table[m] == lz.code_length(x.prefix(m)), m


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200), st.lists(st.integers(1, 40), min_size=1, max_size=20))
def test_chunk_extended_table_property(blob, sizes):
    x = BitString(np.frombuffer(blob, dtype=np.uint8) % 2)
    table = _chunked_table(x, sizes + [len(x)])
    assert np.array_equal(table, lz.prefix_code_lengths(x))
    assert table[-1] == lz.code_length(x)


# longer than one pricing block, with chunk ends inside blocks
_MULTI_BLOCK_BITS = (1 << 16) + (1 << 14) + 3


@pytest.mark.parametrize("kind", sorted(_PARITY_INPUTS))
def test_table_matches_per_bit_reference(kind):
    x = _PARITY_INPUTS[kind](_MULTI_BLOCK_BITS)
    reference = reference_prefix_costs(x)
    assert np.array_equal(lz.prefix_code_lengths(x), reference)
    assert np.array_equal(_chunked_table(x, [5000, 70001, 1 << 20]), reference)
    assert reference[-1] == lz.code_length(x)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300), st.lists(st.integers(1, 60), max_size=10))
def test_table_matches_per_bit_reference_property(blob, sizes):
    x = BitString(np.frombuffer(blob, dtype=np.uint8) % 2)
    reference = reference_prefix_costs(x)
    assert np.array_equal(lz.prefix_code_lengths(x), reference)
    assert np.array_equal(_chunked_table(x, sizes + [len(x)]), reference)


def test_vectorized_delta_lengths_match_encoded_length():
    values = sorted({v for k in range(32) for v in (2 ** k - 1, 2 ** k, 2 ** k + 1) if v >= 1})
    got = lz._delta_lengths(np.array(values, dtype=np.int64))
    assert got.tolist() == [encoded_length(v) for v in values]


def test_random_data_expands_pinned():
    x = BernoulliSource(0.5, seed=7).bits(10 ** 5)
    assert lz.code_length(x) == RANDOM_1E5_CODE_BITS
    x = BernoulliSource(0.5, seed=7).bits(10 ** 6)
    clen = lz.code_length(x)
    assert clen == RANDOM_1E6_CODE_BITS
    # expansion factor at this scale; it shrinks toward 1 as n grows
    assert 1.6 < clen / 10 ** 6 < 1.9
    assert clen / 10 ** 6 < RANDOM_1E5_CODE_BITS / 10 ** 5


def test_duplication_prefixes_compress_below_their_length():
    dup = DuplicationSource(seed=7)
    ratios = []
    for n, pinned in DUP_BOUNDARY_CODE_BITS.items():
        clen = lz.code_length(dup.bits(n))
        assert clen == pinned
        ratios.append(clen / n)
    # ratio falls monotonically toward 1/2 as the doubled blocks grow
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 1.0
    base = BernoulliSource(0.5, seed=7).bits(2 ** 17)
    assert lz.code_length(base) == BASE_2_17_CODE_BITS
    assert ratios[-1] < BASE_2_17_CODE_BITS / 2 ** 17


def test_second_copy_costs_log_bits():
    for seed in range(25):
        x = BernoulliSource(0.5, seed=seed).bits(256 + 16 * seed)
        extra = lz.code_length(x + x) - lz.code_length(x)
        assert extra <= (encoded_length(1) + encoded_length(len(x))
                         + DUPLICATION_SLACK_BITS)


def test_expansion_bound():
    for seed in range(10):
        for n in (64, 512, 4096):
            x = random_bits(n, seed=1000 + seed)
            parsed = lz.parse(x)
            clen = lz.pairs_cost(parsed.pairs)
            assert clen <= n + EXPANSION_BETA * len(parsed.pairs) * math.log2(n)


def test_decode_rejects_bad_source_position():
    # C(3) = "0101" claims a copy from position 2 with nothing decoded yet
    stream = BitString.from01("0101")
    with pytest.raises(DecodeError):
        lz.decode(stream)


def test_decode_rejects_truncation():
    # "0000" encodes to literal + copy pair; cutting into the final length
    # codeword leaves a dangling partial integer
    bits = lz.encode(BitString.from01("0000")).bits
    with pytest.raises(DecodeError) as err:
        lz.decode(bits.prefix(len(bits) - 2))
    assert err.value.bit_offset >= 0


def _copy_bomb(copy_bits: int) -> BitString:
    """A literal, then one copy of ``copy_bits`` bits from position 1."""
    w = BitWriter()
    write_integer(w, 1)
    w.write(0, 1)
    write_integer(w, 2)
    write_integer(w, copy_bits)
    return w.to_bitstring()


def _decode_peak_bytes(c) -> int:
    """Peak bytes allocated while ``lz.decode(c)`` raises DecodeError."""
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError):
            lz.decode(c)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_refuses_codeword_bomb():
    bomb = _copy_bomb(1 << 22)
    assert len(bomb) == 37
    assert _decode_peak_bytes(Codeword(bits=bomb, source_length=5)) < 1 << 20


def test_decode_refuses_bare_bomb_past_the_memory_cap():
    bomb = _copy_bomb(lz.DEFAULT_MEMORY_CAP_BITS)  # the literal makes it one bit too many
    assert _decode_peak_bytes(bomb) < 1 << 20


def test_decode_checks_codeword_length():
    c = lz.encode(BitString.from01("0110"))
    for wrong in (3, 5):
        with pytest.raises(DecodeError):
            lz.decode(Codeword(bits=c.bits, source_length=wrong))
    assert lz.decode(c) == lz.decode(c.bits) == BitString.from01("0110")


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=40), st.integers(0, 64))
def test_decode_fuzz_stays_bounded(blob, source_length):
    stream = BitString(np.unpackbits(np.frombuffer(blob, dtype=np.uint8)))
    try:
        assert len(lz.decode(stream)) <= lz.DEFAULT_MEMORY_CAP_BITS
    except DecodeError:
        pass
    try:
        assert len(lz.decode(Codeword(bits=stream, source_length=source_length))) == source_length
    except DecodeError:
        pass


def test_block_code_length_bounded_mode():
    x = random_bits(4096, seed=12)
    full = lz.code_length(x)
    blocked = lz.block_code_length(x, 512)
    expected = sum(lz.code_length(x[i:i + 512]) for i in range(0, 4096, 512))
    assert blocked == expected
    assert blocked >= full * 0.9  # restarting context cannot help much
    with pytest.raises(ValueError):
        lz.block_code_length(x, 0)
