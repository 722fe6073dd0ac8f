from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rngcal.bits import BitString, pack, read_bit_file, unpack, write_bit_file


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
    with pytest.raises(ValueError):
        BitString.from01("0102")


def test_indexing_and_prefix():
    x = BitString.from01("10110")
    assert x[0] == 1 and x[4] == 0
    assert x.prefix(3) == BitString.from01("101")
    assert x.prefix(0) == BitString()
    assert x[1:4] == BitString.from01("011")
    with pytest.raises(ValueError):
        x.prefix(6)


def test_concat_and_add():
    a = BitString.from01("01")
    b = BitString.from01("10")
    assert (a + b).to01() == "0110"
    assert BitString.concat([a, b, a]).to01() == "011001"
    assert BitString.concat([]) == BitString()


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
    raw = pack(x)
    assert raw[:8] == (9).to_bytes(8, "little")
    assert raw[8:] == bytes([0xFF, 0x80])  # MSB-first payload, zero padded
    assert unpack(raw) == x


def test_unpack_rejects_bad_streams():
    with pytest.raises(ValueError):
        unpack(b"\x01\x00")  # too short for the header
    with pytest.raises(ValueError):
        unpack((9).to_bytes(8, "little") + b"\xff")  # payload too short
    with pytest.raises(ValueError):
        unpack((1).to_bytes(8, "little") + b"\xff\x00")  # trailing bytes


@pytest.mark.parametrize("fmt", ["raw", "ascii"])
def test_file_round_trip(tmp_path, fmt):
    x = BitString.from01("001101011100010")
    path = tmp_path / f"bits.{fmt}"
    write_bit_file(path, x, fmt=fmt)
    assert read_bit_file(path, fmt=fmt) == x


def test_ascii_file_ignores_whitespace(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("01 10\n11\t0\n")
    assert read_bit_file(path, fmt="ascii").to01() == "0110110"


@given(st.lists(st.integers(0, 1), max_size=200))
def test_pack_unpack_identity(bits):
    x = BitString(np.array(bits, dtype=np.uint8))
    assert unpack(pack(x)) == x


def test_digest_depends_on_length_not_padding():
    # "1" packs to the same payload byte as "10", the header must separate them
    assert BitString.from01("1").digest() != BitString.from01("10").digest()
