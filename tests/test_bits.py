from __future__ import annotations

import ast
import hashlib
import io
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rngcal.bits
from rngcal import lz, stats
from rngcal.bits import BitString, decode_bits, encode_bits, read_bit_file, write_bit_file
from rngcal.codes import BitWriter, encode_integer

from helpers import Pipe, bit_array, packed_bits


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
    # and what is no bit at all: a digit, or a nested list that numpy flattened
    for bits in (np.array([256, 257]), np.array([-255]), [0.5, 1.7], [0, float("nan")],
                 [256], [-255], ["1"], [[0, 1], [1, 0]]):
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
    # a prefix shares the payload of its string; any other slice copies its own
    assert (y._payload is x._payload) == (index.start is None and index.step is None)
    with pytest.raises(TypeError):  # no item assignment
        y[0] = 1 - y[0]
    assert y == BitString(bit_array(x)[index])  # the checking, copying constructor
    assert y.to01() == x.to01()[index]


def test_a_prefix_shares_the_bytes_and_compares_as_a_copy():
    x = BitString(np.random.default_rng(8).integers(0, 2, 4096))
    for m in (0, 1, 7, 4095, 4096):
        y = x.prefix(m)
        assert y._payload is x._payload  # no copy, however long the string
        copy = BitString(bit_array(x)[:m])
        assert copy._payload is not x._payload
        assert y == copy and copy == y and hash(y) == hash(copy)
        assert y.to_int() == copy.to_int() == int(x.to01()[:m] or "0", 2)
        assert y.to01() == copy.to01() and len(y) == m
        assert bit_array(y).tolist() == bit_array(copy).tolist()
        assert [y[i] for i in range(m)] == bit_array(copy).tolist()
        if m < 4096:
            assert y != x.prefix(m + 1) and y != BitString(bit_array(x)[1:m + 1]) or m == 0
            with pytest.raises(IndexError):
                y[m]
    assert x.prefix(100)[:50] == x.prefix(50) and x[:50]._payload is x._payload


def test_a_prefix_masks_the_bits_its_payload_holds_past_it():
    # a prefix of all ones shares a payload whose last byte is set past the prefix
    x = BitString.from01("1" * 17)
    for m in range(18):
        y, copy = x.prefix(m), BitString([1] * m)
        assert y._payload is x._payload and copy._payload == bytes([0xFF] * (m // 8)) + (
            bytes([0xFF << (8 - m % 8) & 0xFF]) if m % 8 else b"")
        assert y == copy and copy == y and hash(y) == hash(copy) and y.digest() == copy.digest()
        assert encode_bits(y) == encode_bits(copy) == m.to_bytes(8, "little") + copy._payload
        assert y.to_int() == (1 << m) - 1 and y.to01() == "1" * m


def test_digest_maps_no_openssl_where_cpython_has_its_own_sha256():
    pytest.importorskip("_sha256")
    code = ("import sys\n"
            "from rngcal.bits import BitString\n"
            "print(BitString.from01('0110' * 9).digest(), '_hashlib' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(rngcal.bits.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    want = hashlib.sha256((36).to_bytes(8, "little") + bytes([0x66] * 4 + [0x60])).hexdigest()
    assert run.stdout.split() == [want, "False"]


def test_from_int_matches_formatted_string():
    for width in range(21):
        top = 1 << max(width - 1, 0)
        values = {0, 1, top - 1, top, top + 1, (1 << width) - 2, (1 << width) - 1,
                  0x5555555 & ((1 << width) - 1)}
        for value in sorted(v for v in values if 0 <= v < 1 << width):
            x = BitString.from_int(value, width)
            assert x == BitString.from01(format(value, f"0{width}b") if width else "")
            assert x.to_int() == value


def test_from_int():
    assert BitString.from_int(5, 4).to01() == "0101"
    assert BitString.from_int(0, 0) == BitString()
    assert BitString.from_int(5, 3).to_int() == 5
    with pytest.raises(ValueError):
        BitString.from_int(8, 3)


def test_immutability():
    x = BitString([1, 0])
    with pytest.raises(TypeError):
        x[0] = 0


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
    x = packed_bits(np.random.default_rng(7).integers(0, 2, 150_000, dtype=np.uint8))
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
    data = encode_bits(packed_bits(np.random.default_rng(6).integers(0, 2, n, dtype=np.uint8)))
    tracemalloc.start()
    try:
        bits = decode_bits(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bits) == n
    assert peak <= 1.25 * n, f"{peak / n:.2f} bytes per bit"  # 2.03 with a check and a copy


def test_a_raw_read_holds_the_payload_it_reads(tmp_path):
    # the payload is wrapped as it is read: 2^20 bits hold 128 KiB
    n = 1 << 20
    path = tmp_path / "bits.bin"
    write_bit_file(path, packed_bits(np.random.default_rng(9).integers(0, 2, n, dtype=np.uint8)))
    tracemalloc.start()
    try:
        bits = read_bit_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18, f"{peak / n:.3f} bytes per bit"  # 1.0 with the bits unpacked
    assert len(bits) == n and bits._payload == path.read_bytes()[8:]


def test_a_string_is_decoded_written_and_digested_without_numpy():
    # the coder, the integer code, a step slice, the digest, the raw and ascii
    # writers and the exact p-value work on the payload; numpy costs a
    # process about 0.13 s and 13 MiB
    x = BitString.from01("0110" * 9 + "1")
    tau = "lambda z: len(z) - lz.code_length(z)"
    code = ("import sys\n"
            "from rngcal import lz, stats\n"
            "from rngcal.bits import BitString, encode_bits\n"
            "from rngcal.codes import Codeword, encode_integer\n"
            f"y = lz.decode(Codeword(BitString.from01({lz.encode(x).bits.to01()!r}), {len(x)}))\n"
            f"p = stats.exact_p_value(y.prefix(10), {tau})\n"
            "c = lz.encode(y)\n"
            "print(y.to01(), y.digest(), encode_bits(y).hex(), encode_bits(y, 'ascii').hex(), p,\n"
            "      len(c), c.bits.digest(), y[::-3].to01(), encode_integer(1000).bits.to01(),\n"
            "      'numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(rngcal.bits.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    p = stats.exact_p_value(x.prefix(10), eval(tau))
    c = lz.encode(x)
    assert run.stdout.split() == [x.to01(), x.digest(), encode_bits(x).hex(),
                                  encode_bits(x, "ascii").hex(), repr(p), str(len(c)),
                                  c.bits.digest(), x.to01()[::-3],
                                  encode_integer(1000).bits.to01(), "False"]


def test_the_package_imports_no_numpy():
    # numpy is the tests' reference, not a dependency: no module of rngcal imports it
    modules = sorted(Path(rngcal.__file__).parent.glob("*.py"))
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "numpy"]
    assert "bits.py" in {path.name for path in modules} and found == []


def test_ascii_file_ignores_whitespace(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("01 10\n11\t0\n")
    assert read_bit_file(path, fmt="ascii").to01() == "0110110"


def test_an_unknown_format_is_refused_before_the_input_is_opened(tmp_path):
    with pytest.raises(ValueError, match="^unknown bit file format: 'hex'$"):
        read_bit_file(tmp_path / "missing", "hex")


def test_ascii_read_in_pieces_gives_its_digits():
    # about three 64 KiB pieces, whose digits do not fill whole bytes
    text = np.random.default_rng(25).choice(np.frombuffer(b"0101 \n", np.uint8), 200003).tobytes()
    want = BitString(np.frombuffer(text.translate(None, b" \n"), np.uint8) - ord("0"))
    assert read_bit_file(io.BytesIO(text), "ascii") == want
    counts = []
    first = read_bit_file(Pipe(text), "ascii", take=lambda count: counts.append(count) or 1001)
    assert counts == [len(want)] and first == want.prefix(1001)


def test_ascii_names_the_bad_characters_of_every_piece():
    with pytest.raises(ValueError, match=r"^invalid bit characters: b'2x'$"):
        read_bit_file(io.BytesIO(b"x" + b"01" * (1 << 16) + b"2\n"), "ascii")


def test_ascii_holds_its_digits_packed():
    n = 1 << 22
    text = encode_bits(packed_bits(np.random.default_rng(27).integers(0, 2, n, dtype=np.uint8)),
                       "ascii")
    tracemalloc.start()
    try:
        bits = read_bit_file(io.BytesIO(text), "ascii", take=lambda count: 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bits) == 4096
    assert peak <= n / 4, f"{peak / n:.2f} bytes per bit"


@given(st.lists(st.integers(0, 1), max_size=200))
def test_pack_unpack_identity(bits):
    x = BitString(np.array(bits, dtype=np.uint8))
    assert decode_bits(encode_bits(x)) == x


@given(st.lists(st.integers(0, 1), max_size=200))
def test_a_packed_string_reads_as_its_bits(bits):
    # a coder's output, packed by the writer, reads as the checked copy of its bits
    x = BitString(np.array(bits, dtype=np.uint8))
    w = BitWriter()
    for b in bits:
        w.write(b, 1)
    y = w.to_bitstring()
    n = len(x)
    assert len(y) == n and y._payload == x._payload and len(y._payload) == (n + 7) // 8
    assert encode_bits(y)[8:] == y._payload and y.prefix(n // 2)._payload is y._payload
    assert y == x and x == y and hash(y) == hash(x) and y.digest() == x.digest()
    assert y.to01() == x.to01() and y.to_int() == x.to_int() and bit_array(y).tolist() == bits
    assert [y[i] for i in range(-n, n)] == bits + bits and encode_bits(y) == encode_bits(x)
    assert y[1::3] == x[1::3] and y[:n // 2] == x.prefix(n // 2)
    for cut in (slice(None, None, -1), slice(n, 0, -2), slice(None, None, -3)):
        assert bit_array(y[cut]).tolist() == bits[cut], cut
    assert pickle.loads(pickle.dumps(y)) == x
    with pytest.raises(IndexError):
        y[n]


def test_digest_depends_on_length_not_padding():
    # "1" packs to the same payload byte as "10", the header must separate them
    assert BitString.from01("1").digest() != BitString.from01("10").digest()
