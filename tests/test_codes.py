from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rngcal.bits import BitString
from rngcal.codes import (
    BitReader,
    BitWriter,
    Codeword,
    decode_integer,
    encode_integer,
    encoded_length,
    kraft_sum,
    write_integer,
)
from rngcal.errors import DecodeError

# Frozen regression constants (computed once from this implementation).
KRAFT_SUM_2_20 = 0.9472656268626451
KRAFT_SUM_65536 = 0.9394531548023224
LENGTH_LAW_DEV_MAX = 1.671103  # |C(m)| - log2 m - 2 log2 log2(m+1), m = 2^1..2^20


def test_smallest_integer_is_one_bit():
    cw = encode_integer(1)
    assert cw.bits.to01() == "1"
    assert encoded_length(1) == 1


@pytest.mark.parametrize("m,expected", [(2, "0100"), (3, "0101"), (4, "01100"),
                                        (5, "01101"), (8, "00100000")])
def test_known_codewords(m, expected):
    assert encode_integer(m).bits.to01() == expected


def test_codeword_bits_follow_the_definition():
    # gamma(L), i.e. L after floor(log2 L) zeros, then the L - 1 low bits of m
    values = {1, 2, 3} | {v for k in range(2, 71) for v in (2 ** k - 1, 2 ** k, 2 ** k + 1)}
    for m in sorted(values):
        length = m.bit_length()
        want = "0" * (length.bit_length() - 1) + f"{length:b}" + f"{m:b}"[1:]
        bits = encode_integer(m).bits
        assert bits.to01() == want, m
        assert decode_integer(bits) == (m, len(want))


def test_rejects_nonpositive():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            encode_integer(bad)
        with pytest.raises(ValueError):
            encoded_length(bad)


def test_length_formula_matches_emitted_bits():
    for m in list(range(1, 2000)) + [2 ** e for e in range(11, 30)]:
        assert len(encode_integer(m).bits) == encoded_length(m)


def test_length_monotone_nondecreasing():
    lengths = [encoded_length(m) for m in range(1, 5000)]
    assert all(a <= b for a, b in zip(lengths, lengths[1:]))


def test_round_trip_small_and_spec_values():
    for m in (1, 254):
        cw = encode_integer(m)
        value, consumed = decode_integer(cw.bits)
        assert (value, consumed) == (m, len(cw.bits))


def test_round_trip_exhaustive_to_1e6():
    from rngcal.codes import read_integer, write_integer
    # every integer in 1..1e6, streamed in chunks so the test stays fast
    chunk = 20000
    for lo in range(1, 10 ** 6 + 1, chunk):
        hi = min(lo + chunk, 10 ** 6 + 1)
        w = BitWriter()
        for m in range(lo, hi):
            write_integer(w, m)
        r = BitReader(w.to_bitstring())
        for m in range(lo, hi):
            assert read_integer(r) == m
        assert r.remaining() == 0
    # per-codeword decode with consumed-bit accounting at the low end
    for m in range(1, 4097):
        value, consumed = decode_integer(encode_integer(m).bits)
        assert value == m and consumed == encoded_length(m)


def test_concatenated_stream_decodes_unambiguously():
    w = BitWriter()
    from rngcal.codes import write_integer
    for m in (3, 7, 2):
        write_integer(w, m)
    stream = w.to_bitstring()
    out = []
    offset = 0
    while offset < len(stream):
        m, used = decode_integer(stream, offset)
        out.append(m)
        offset += used
    assert out == [3, 7, 2]


def test_random_concatenations_round_trip():
    rng = np.random.default_rng(2024)
    trials = 0
    while trials < 10 ** 5:
        k = int(rng.integers(1, 8))
        values = [int(v) for v in rng.integers(1, 10 ** 6, size=k)]
        trials += k
        w = BitWriter()
        from rngcal.codes import write_integer
        for m in values:
            write_integer(w, m)
        stream = w.to_bitstring()
        reader = BitReader(stream)
        from rngcal.codes import read_integer
        got = [read_integer(reader) for _ in values]
        assert got == values
        assert reader.remaining() == 0


def test_truncated_codeword_reports_offset():
    truncated = encode_integer(1000).bits.to01()[:-3]
    cases = [  # stream, offset, message, bit offset
        (truncated, 0, "unexpected end of stream", len(truncated)),
        ("1" + "0" * 64, 1, "truncated integer codeword", 1),
        ("1" + "0" * 65, 1, "malformed integer codeword (length prefix too long)", 1),
        ("1" + "0" * 64 + "1" + "0" * 10, 1, "unexpected end of stream", 76),
        # a length of 2^64 - 1 bits: the low bits run out before 2^(L - 1) is formed
        ("1" + "0" * 63 + "1" + "1" * 63, 1, "unexpected end of stream", 128),
    ]
    for stream, offset, message, bit_offset in cases:
        with pytest.raises(DecodeError) as err:
            decode_integer(BitString.from01(stream), offset)
        assert err.value.bit_offset == bit_offset
        assert str(err.value) == f"{message} (at bit offset {bit_offset})"


def test_decode_empty_stream_fails():
    with pytest.raises(DecodeError):
        decode_integer(BitString())


def test_prefix_free_exhaustive_4096():
    # group codewords as (value, length) ints; u is a prefix of v iff
    # len(u) <= len(v) and the first len(u) bits of v equal u
    words = {}
    for m in range(1, 4097):
        bits = encode_integer(m).bits
        words.setdefault(len(bits), []).append(bits.to_int())
    lengths = sorted(words)
    for la in lengths:
        va = np.array(words[la], dtype=np.int64)
        assert len(np.unique(va)) == len(va)
        for lb in lengths:
            if lb <= la:
                continue
            vb = np.array(words[lb], dtype=np.int64) >> (lb - la)
            assert not np.isin(vb, va).any(), (la, lb)


def test_kraft_trivial_values():
    assert kraft_sum([1, 1]) == 1.0
    assert kraft_sum([1, 2, 3, 3]) == 1.0
    assert kraft_sum([]) == 0.0
    with pytest.raises(ValueError):
        kraft_sum([0])


def test_kraft_sum_of_code_is_below_one():
    lengths = [encoded_length(m) for m in range(1, 65537)]
    assert kraft_sum(lengths) == pytest.approx(KRAFT_SUM_65536, abs=1e-12)
    lengths += [encoded_length(m) for m in range(65537, 2 ** 20 + 1)]
    total = kraft_sum(lengths)
    assert total == pytest.approx(KRAFT_SUM_2_20, abs=1e-12)
    assert total <= 1.0
    # the code is complete: adding each next power-of-two block moves the
    # truncated sum monotonically toward 1 without ever crossing it
    assert KRAFT_SUM_65536 < KRAFT_SUM_2_20 < 1.0


def test_length_law_constant_is_pinned():
    devs = [encoded_length(2 ** e) - e - 2 * math.log2(math.log2(2 ** e + 1))
            for e in range(1, 21)]
    assert max(devs) <= LENGTH_LAW_DEV_MAX + 1e-9
    assert min(devs) >= -2.0  # bounded below as well: the law is tight to O(1)


def test_a_codeword_is_a_record_as_long_as_its_bits():
    c = encode_integer(10)
    assert len(c) == encoded_length(10) == 8 and c.source_length == 4
    assert c == Codeword(bits=c.bits, source_length=4) != Codeword(c.bits, 5)
    assert len(Codeword(bits=BitString(), source_length=0)) == 0
    with pytest.raises(AttributeError):
        c.source_length = 5


def test_bitwriter_reader_round_trip():
    w = BitWriter()
    w.write(0b1011, 4)
    w.write(0b0, 1)
    w.write(0b111111111, 9)
    w.write(0b101, 0)
    w.write(0b110110, 3)  # only the low bits
    assert len(w) == 17
    bits = w.to_bitstring()
    assert bits.to01() == "10110111111111110"
    r = BitReader(bits)
    assert r.read(4) == 0b1011
    assert r.read(1) == 0
    assert r.read(0) == 0
    assert r.read(9) == 0b111111111
    assert r.read(3) == 0b110
    assert r.remaining() == 0
    with pytest.raises(DecodeError) as err:
        r.read(1)
    assert err.value.bit_offset == 17


@given(st.lists(st.tuples(st.integers(0, 1 << 80), st.integers(0, 70)), max_size=40))
def test_writer_packs_each_field_and_the_reader_reads_it_back(fields):
    # the low ``width`` bits of each value, whatever else it holds
    w = BitWriter()
    for value, width in fields:
        w.write(value, width)
    bits = w.to_bitstring()
    masked = [(value & ((1 << width) - 1), width) for value, width in fields]
    want = "".join(format(v, f"0{width}b") for v, width in masked if width)
    assert len(w) == len(bits) == len(want) and bits.to01() == want
    assert len(bits._payload) == (len(want) + 7) // 8
    r = BitReader(bits)
    assert [(r.read(width), width) for _, width in masked] == masked
    assert r.remaining() == 0


def test_writer_holds_its_bits_packed():
    # the writer and a codeword keep an eighth of a byte per bit; while it is
    # built, the writer's buffer (with its growth slack) and the codeword may
    # both be alive
    tracemalloc.start()
    try:
        w = BitWriter()
        for m in range(1, 2 * 10 ** 5):
            write_integer(w, m)
        bits = w.to_bitstring()
        del w
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(bits)
    assert n == sum(encoded_length(m) for m in range(1, 2 * 10 ** 5))
    assert kept < n / 8 + (1 << 16)
    assert peak < n / 2 + (1 << 16)
