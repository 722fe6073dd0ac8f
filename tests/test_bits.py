from __future__ import annotations

import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rngcal.bits import BitString, decode_bits, encode_bits, read_bit_file, write_bit_file

from helpers import Pipe


def test_length_matches_stored_bits():
    assert len(BitString()) == 0
    assert len(BitString([0, 1, 1])) == 3
    assert len(BitString.from01("0101 1100\n1")) == 9


def test_round_trip_01_text():
    s = "0110100101"
    assert BitString.from01(s).to01() == s


def test_rejects_non_binary():
    with pytest.raises(ValueError):
        BitString([0, 2, 1])
    # values that a uint8 cast would wrap (256, 257, -255) or truncate into bits
    for bits in (np.array([256, 257]), np.array([-255]), [0.5, 1.7], [0, float("nan")]):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            BitString(bits)
    with pytest.raises(ValueError):
        BitString.from01("0102")
    with pytest.raises(ValueError):
        BitString.from01("0\u00a01")  # ascii: only ASCII whitespace is skipped


def test_bools_and_binary_integers_are_bits():
    assert BitString([True, False, True]).to01() == "101"
    assert BitString(np.array([False, True])).to01() == "01"
    assert BitString(np.array([1, 0, 1], dtype=np.int64)).to01() == "101"
    assert BitString([1.0, 0.0]).to01() == "10"


def test_indexing_and_prefix():
    x = BitString.from01("10110")
    assert x[0] == 1 and x[4] == 0
    assert x.prefix(3) == BitString.from01("101")
    assert x.prefix(0) == BitString()
    assert x[1:4] == BitString.from01("011")
    with pytest.raises(ValueError):
        x.prefix(6)


@pytest.mark.parametrize("take, index", [
    (lambda x: x.prefix(700), slice(None, 700)),
    (lambda x: x[100:900], slice(100, 900)),
    (lambda x: x[5::3], slice(5, None, 3)),
    (lambda x: x[::-7], slice(None, None, -7)),
], ids=["prefix", "slice", "step", "reverse-step"])
def test_slices_and_prefixes_are_read_only_views(take, index):
    x = BitString(np.random.default_rng(5).integers(0, 2, 1000))
    y = take(x)
    assert np.shares_memory(y.array, x.array)
    assert not y.array.flags.writeable
    with pytest.raises(ValueError):
        y.array[0] = 1 - y[0]
    assert y == BitString(x.array[index])  # the checking, copying constructor
    assert y.to01() == x.to01()[index]


def test_from_int_matches_formatted_string():
    for width in range(21):
        top = 1 << max(width - 1, 0)
        values = {0, 1, top - 1, top, top + 1, (1 << width) - 2, (1 << width) - 1,
                  0x5555555 & ((1 << width) - 1)}
        for value in sorted(v for v in values if 0 <= v < 1 << width):
            x = BitString.from_int(value, width)
            assert x == BitString.from01(format(value, f"0{width}b") if width else "")
            assert x.array.dtype == np.uint8 and x.array.ndim == 1
            assert not x.array.flags.writeable
            assert x.to_int() == value


def test_from_int():
    assert BitString.from_int(5, 4).to01() == "0101"
    assert BitString.from_int(0, 0) == BitString()
    assert BitString.from_int(5, 3).to_int() == 5
    with pytest.raises(ValueError):
        BitString.from_int(8, 3)


def test_immutability():
    x = BitString([1, 0])
    with pytest.raises(ValueError):
        x.array[0] = 0


def test_pack_header_is_little_endian_bit_count():
    x = BitString.from01("1" * 9)
    raw = encode_bits(x)
    assert raw[:8] == (9).to_bytes(8, "little")
    assert raw[8:] == bytes([0xFF, 0x80])  # MSB-first payload, zero padded
    assert decode_bits(raw) == x


def test_bad_raw_streams_are_refused_from_bytes_files_and_pipes(tmp_path):
    path = tmp_path / "bad.bin"
    for data, message in [(b"\x01\x00", "too short for header: 2 bytes"),
                          ((9).to_bytes(8, "little") + b"\xff", "truncated"),
                          ((1).to_bytes(8, "little") + b"\xff\x00", "1 trailing bytes")]:
        with pytest.raises(ValueError, match=message):
            decode_bits(data)
        path.write_bytes(data)  # a file is sized from its header, before any bit is taken
        with pytest.raises(ValueError, match=message):
            read_bit_file(path, take=lambda count: 0)
        with pytest.raises(ValueError, match=message):  # a pipe is drained to be sized
            read_bit_file(Pipe(data), take=lambda count: 0)


@pytest.mark.parametrize("stream", [io.BytesIO, Pipe], ids=["seekable", "pipe"])
def test_a_raw_stream_is_read_from_where_it_stands(stream):
    x = BitString(np.random.default_rng(7).integers(0, 2, 150_000, dtype=np.uint8))
    f = stream(b"head" + encode_bits(x))
    f.read(4)
    counts = []
    assert read_bit_file(f, take=lambda count: counts.append(count) or 1000) == x.prefix(1000)
    assert counts == [len(x)]
    assert read_bit_file(stream(encode_bits(x))) == x


def test_a_pipe_whose_header_overstates_it_allocates_only_what_it_holds():
    # one read of the 2^57 bytes the header promises would raise MemoryError
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as f:
        with open(write_end, "wb") as w:
            w.write((1 << 60).to_bytes(8, "little") + bytes(100))
        with pytest.raises(ValueError, match=f"truncated: header says {1 << 60} bits, "
                                             f"payload has 800$"):
            read_bit_file(f)


@pytest.mark.parametrize("fmt", ["raw", "ascii"])
def test_file_round_trip(tmp_path, fmt):
    x = BitString.from01("001101011100010")
    path = tmp_path / f"bits.{fmt}"
    write_bit_file(path, x, fmt=fmt)
    assert read_bit_file(path, fmt=fmt) == x
    counts = []
    first = read_bit_file(path, fmt=fmt, take=lambda count: counts.append(count) or 9)
    assert counts == [len(x)] and first == x.prefix(9)


def test_decode_bits_holds_one_byte_per_bit():
    n = 1 << 20
    data = encode_bits(BitString(np.random.default_rng(6).integers(0, 2, n, dtype=np.uint8)))
    tracemalloc.start()
    try:
        bits = decode_bits(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bits) == n
    assert peak <= 1.25 * n, f"{peak / n:.2f} bytes per bit"  # 2.03 with a check and a copy


def test_ascii_file_ignores_whitespace(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("01 10\n11\t0\n")
    assert read_bit_file(path, fmt="ascii").to01() == "0110110"


@given(st.lists(st.integers(0, 1), max_size=200))
def test_pack_unpack_identity(bits):
    x = BitString(np.array(bits, dtype=np.uint8))
    assert decode_bits(encode_bits(x)) == x


def test_digest_depends_on_length_not_padding():
    # "1" packs to the same payload byte as "10", the header must separate them
    assert BitString.from01("1").digest() != BitString.from01("10").digest()
