"""Bit sequences and the on-disk bit formats.

A :class:`BitString` is an immutable ordered sequence of 0/1 symbols.  It is
the sample type every test and coder in this package operates on.  Indexing
is 0-based in code; formulas in the docs write prefixes as "the first m
bits", which is exactly ``prefix(m)``.

Two persistence formats are supported:

* raw: an 8-byte little-endian unsigned bit count, then the payload packed
  MSB-first into bytes (the final byte is zero-padded);
* ascii: the ASCII digits '0' and '1', any ASCII whitespace ignored.

:func:`read_bit_file` reads both from a file or a stream, and
:func:`decode_bits` and :func:`encode_bits` convert both from and to bytes.
"""

from __future__ import annotations

import contextlib
import io
import os
from typing import Callable, Iterable

import numpy as np

_HEADER_BYTES = 8
_ASCII_WHITESPACE = b" \t\n\r\x0b\x0c"

# Swaps the bytes 0 and 1 with the digits '0' and '1': one table turns one
# byte per bit into binary digits and back.
_DIGITS = bytes.maketrans(b"\x00\x01" b"01", b"01" b"\x00\x01")


def int_to_bit_bytes(value: int, width: int) -> bytes:
    """The ``width`` low bits of ``value``, MSB first, one byte (0 or 1) per bit."""
    if width <= 0:
        return b""
    return f"{value & ((1 << width) - 1):0{width}b}".encode().translate(_DIGITS)


def bit_bytes_to_int(buf: bytes) -> int:
    """The integer whose MSB-first bits are ``buf``, one byte (0 or 1) per bit."""
    return int(buf.translate(_DIGITS), 2) if buf else 0


class BitString:
    """Immutable sequence of bits backed by a uint8 array of 0/1 values."""

    __slots__ = ("_a",)

    def __init__(self, bits: Iterable[int] | np.ndarray = ()):
        a = np.asarray(bits)
        # checked before the cast, which would wrap 256 and -255 and truncate 1.7
        if a.size and not np.all(a <= 1 if a.dtype == np.uint8 else (a == 0) | (a == 1)):
            raise ValueError("bits must be 0 or 1")
        a = a.astype(np.uint8).reshape(-1)
        a.setflags(write=False)
        self._a = a

    # -- constructors ------------------------------------------------------

    @classmethod
    def from01(cls, text: str) -> "BitString":
        """Parse a string of '0'/'1' characters; ASCII whitespace is ignored."""
        return decode_bits(text.encode(), "ascii")

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        """The ``width``-bit big-endian binary expansion of ``value``."""
        if width < 0:
            raise ValueError("width must be >= 0")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        return cls._wrap(np.frombuffer(int_to_bit_bytes(value, width), dtype=np.uint8))

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "BitString":
        """Take ``a``, a 1-D uint8 array of 0/1 that nothing writes to,
        without the check and the copy of ``__init__``: a fresh array, or a
        view of the array of an immutable ``BitString``."""
        a.setflags(write=False)
        self = cls.__new__(cls)
        self._a = a
        return self

    # -- views -------------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """Read-only uint8 view of the bits."""
        return self._a

    def to01(self) -> str:
        return self._a.tobytes().translate(_DIGITS).decode()

    def to_int(self) -> int:
        """The integer whose big-endian binary expansion is this string."""
        return bit_bytes_to_int(self._a.tobytes())

    def prefix(self, m: int) -> "BitString":
        """The first ``m`` bits, as a read-only view (no copy)."""
        if not 0 <= m <= len(self):
            raise ValueError(f"prefix length {m} out of range 0..{len(self)}")
        return BitString._wrap(self._a[:m])

    def digest(self) -> str:
        """SHA-256 over the packed payload and bit length; for regressions."""
        import hashlib  # here: its OpenSSL costs every process about 3 MB

        h = hashlib.sha256()
        h.update(len(self).to_bytes(8, "little"))
        h.update(np.packbits(self._a).tobytes())
        return h.hexdigest()

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return int(self._a.size)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return BitString._wrap(self._a[idx])
        return int(self._a[idx])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return len(self) == len(other) and bool(np.array_equal(self._a, other._a))

    def __hash__(self) -> int:
        return hash((len(self), self._a.tobytes()))

    def __repr__(self) -> str:
        if len(self) <= 32:
            return f"BitString('{self.to01()}')"
        return f"BitString('{self.prefix(24).to01()}...', length={len(self)})"


def _check_raw_size(count: int, size: int) -> None:
    """Raise unless ``size`` bytes is the size of a raw stream whose header says ``count`` bits."""
    if size < _HEADER_BYTES:
        raise ValueError(f"raw bit stream too short for header: {size} bytes")
    payload, need = size - _HEADER_BYTES, (count + 7) // 8
    if payload < need:
        raise ValueError(f"raw bit stream truncated: header says {count} bits, "
                         f"payload has {8 * payload}")
    if payload > need:
        raise ValueError(f"raw bit stream has {payload - need} trailing bytes")


def decode_bits(data: bytes, fmt: str = "raw") -> BitString:
    """The bits that ``data``, in format ``fmt``, holds."""
    return read_bit_file(io.BytesIO(data), fmt)


def encode_bits(bits: BitString, fmt: str = "raw") -> bytes:
    """``bits`` in format ``fmt``; ascii ends with a newline."""
    if fmt == "raw":
        return len(bits).to_bytes(_HEADER_BYTES, "little") + np.packbits(bits.array).tobytes()
    if fmt != "ascii":
        raise ValueError(f"unknown bit file format: {fmt!r}")
    return bits.array.tobytes().translate(_DIGITS) + b"\n"


def write_bit_file(path, bits: BitString, fmt: str = "raw") -> None:
    data = encode_bits(bits, fmt)
    with open(path, "wb") as f:
        f.write(data)


def read_bit_file(path, fmt: str = "raw",
                  take: Callable[[int], int] | None = None) -> BitString:
    """The bits of ``path``, a file path or an open binary stream, in format ``fmt``.

    ``take(count)``, given the number of bits the input holds, returns how
    many of the first ones to read; all of them by default.  ascii is read
    whole.  A raw input is sized from its header and only the payload of the
    bits taken is unpacked.  A file, or a stream that can seek, is checked
    against its size before ``take`` is called and only that payload is
    read; a stream that cannot seek is read to its end in bounded pieces,
    after ``take``, and then checked.
    """
    with contextlib.nullcontext(path) if hasattr(path, "read") else open(path, "rb") as f:
        if fmt != "raw":
            if fmt != "ascii":
                raise ValueError(f"unknown bit file format: {fmt!r}")
            digits = f.read().translate(None, _ASCII_WHITESPACE)
            bad = digits.translate(None, b"01")
            if bad:
                raise ValueError(f"invalid bit characters: {bytes(sorted(set(bad)))!r}")
            bits = BitString._wrap(np.frombuffer(digits.translate(_DIGITS), dtype=np.uint8))
            return bits if take is None else bits.prefix(take(len(bits)))
        size = None
        if f.seekable():
            start = f.tell()
            size = f.seek(0, os.SEEK_END) - f.seek(start)
        header = f.read(_HEADER_BYTES)
        count = int.from_bytes(header, "little")
        if size is not None or len(header) < _HEADER_BYTES:
            _check_raw_size(count, len(header) if size is None else size)
        n = count if take is None else take(count)
        need = (n + 7) // 8
        if size is not None:
            payload = f.read(need)
        else:  # in 64 KiB pieces: a header that overstates it allocates only what it holds
            payload, size = bytearray(), len(header)
            for piece in iter(lambda: f.read(1 << 16), b""):
                payload += piece[:need - len(payload)]
                size += len(piece)
            _check_raw_size(count, size)
    if 8 * len(payload) < n:  # the input shrank after it was sized
        raise ValueError(f"raw bit stream truncated: header says {count} bits")
    # unpackbits yields only 0 and 1 in a fresh array: no check, no copy
    return BitString._wrap(np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n))
