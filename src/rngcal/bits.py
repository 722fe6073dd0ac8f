"""Bit sequences and the on-disk bit formats.

A :class:`BitString` is an immutable ordered sequence of 0/1 symbols.  It is
the sample type every test and coder in this package operates on.  Indexing
is 0-based in code; formulas in the docs write prefixes as "the first m
bits", which is exactly ``prefix(m)``.

Two persistence formats are supported:

* raw: an 8-byte little-endian unsigned bit count, then the payload packed
  MSB-first into bytes (the final byte is zero-padded);
* ascii: the ASCII digits '0' and '1', any ASCII whitespace ignored.

A ``BitString`` holds the raw format's payload, so a raw read wraps the
bytes it reads and a raw write writes them.  Its binary digits, for
``to01``, the ascii format and a slice whose step is not 1, are those of
the payload read as one integer.

:func:`read_bit_file` reads both from a file or a stream, and
:func:`decode_bits` and :func:`encode_bits` convert both from and to bytes.
"""

from __future__ import annotations

import contextlib
import io
import os
from collections.abc import Callable, Iterable

_HEADER_BYTES = 8
_ASCII_WHITESPACE = b" \t\n\r\x0b\x0c"


class BitString:
    """Immutable sequence of bits: the first ``n`` bits of a payload packed
    MSB-first, as the raw format stores them, an eighth of a byte per bit.
    Nothing writes to the payload, and a prefix shares it with the string it
    is cut from, so the bits of its last byte past ``n`` may be set;
    :meth:`_packed` zeroes them.  The payload is a ``bytes``, or a
    ``bytearray`` that its maker fills and hands over (:func:`read_bit_file`,
    ``Source.bits``)."""

    __slots__ = ("_payload", "_n")

    def __init__(self, bits: Iterable[int] = ()):
        digits = bytearray()
        for b in bits:
            if b != 0 and b != 1:  # 256, -255, 1.7, '1', NaN and a list too
                raise ValueError("bits must be 0 or 1")
            digits.append(49 if b == 1 else 48)
        packed = decode_bits(digits, "ascii")  # the digits, packed as an ascii read packs them
        self._payload, self._n = packed._payload, packed._n

    # -- constructors ------------------------------------------------------

    @classmethod
    def from01(cls, text: str) -> "BitString":
        """Parse a string of '0'/'1' characters; ASCII whitespace is ignored."""
        return decode_bits(text.encode(), "ascii")

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls._wrap(bytes((n + 7) // 8), n)

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        """The ``width``-bit big-endian binary expansion of ``value``."""
        if width < 0:
            raise ValueError("width must be >= 0")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        return cls._wrap((value << (-width % 8)).to_bytes((width + 7) // 8, "big"), width)

    @classmethod
    def _wrap(cls, payload: bytes | bytearray, n: int) -> "BitString":
        """The first ``n`` bits of MSB-first ``payload``, which nothing may
        write to: taken without the check and the copy of ``__init__``."""
        self = cls.__new__(cls)
        self._payload, self._n = payload, n
        return self

    # -- views -------------------------------------------------------------

    @property
    def array(self):
        """Read-only uint8 numpy array of the bits, one per byte (numpy: the test extra)."""
        import numpy as np

        a = np.unpackbits(np.frombuffer(self._payload, dtype=np.uint8), count=self._n)
        a.setflags(write=False)
        return a

    def to01(self) -> str:
        return format(self.to_int(), f"0{self._n}b") if self._n else ""

    def to_int(self) -> int:
        """The integer whose big-endian binary expansion is this string."""
        n = self._n
        return int.from_bytes(memoryview(self._payload)[:(n + 7) // 8], "big") >> (-n % 8)

    def prefix(self, m: int) -> "BitString":
        """The first ``m`` bits, sharing this string's payload (no copy)."""
        if not 0 <= m <= len(self):
            raise ValueError(f"prefix length {m} out of range 0..{len(self)}")
        return BitString._wrap(self._payload, m)

    def _packed(self) -> bytes:
        """The payload of exactly these bits, the last byte zero-padded: the
        payload itself where it is a ``bytes`` of that form, else a copy."""
        n, p = self._n, self._payload
        k, pad = (n + 7) // 8, -n % 8
        if pad and p[k - 1] & ((1 << pad) - 1):
            return b"".join((memoryview(p)[:k - 1], bytes([p[k - 1] & 0xFF << pad])))
        return p if type(p) is bytes and len(p) == k else bytes(memoryview(p)[:k])

    def digest(self) -> str:
        """SHA-256 over the packed payload and bit length; for regressions."""
        try:  # CPython's own SHA-256: hashlib's OpenSSL costs a process about 3.5 MB
            from _sha256 import sha256
        except ImportError:  # CPython names it _sha2 from 3.12 on
            from hashlib import sha256

        h = sha256()
        h.update(len(self).to_bytes(8, "little"))
        h.update(self._packed())
        return h.hexdigest()

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            start, stop, step = idx.indices(self._n)
            if step != 1:  # cut from the digits and read back
                digits = self.to01()[idx]
                return BitString.from_int(int(digits or "0", 2), len(digits))
            if start == 0:
                return self.prefix(stop)
            # cut from its own bytes: shifted left past the bits before ``start``
            m, view = max(stop - start, 0), memoryview(self._payload)[start >> 3:(stop + 7) >> 3]
            v = int.from_bytes(view, "big") << (start & 7)
            return BitString._wrap(v.to_bytes(len(view) + 1, "big")[1:(m + 7) // 8 + 1], m)
        i = range(self._n)[idx]  # one bit, without unpacking them all
        return self._payload[i >> 3] >> (7 - (i & 7)) & 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._n == other._n and (self._payload is other._payload
                                        or self._packed() == other._packed())

    def __hash__(self) -> int:
        return hash((len(self), self._packed()))

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
        return len(bits).to_bytes(_HEADER_BYTES, "little") + bits._packed()
    if fmt != "ascii":
        raise ValueError(f"unknown bit file format: {fmt!r}")
    return bits.to01().encode() + b"\n"


def write_bit_file(path, bits: BitString, fmt: str = "raw") -> None:
    data = encode_bits(bits, fmt)
    with open(path, "wb") as f:
        f.write(data)


def read_bit_file(path, fmt: str = "raw",
                  take: Callable[[int], int] | None = None) -> BitString:
    """The bits of ``path``, a file path or an open binary stream, in format ``fmt``.

    ``take(count)``, given the number of bits the input holds, returns how
    many of the first ones to read; all of them by default.  ascii is read
    in 64 KiB pieces, each checked and packed.  A raw input is sized from its
    header, and the payload of the bits taken is held as it is read.  A file,
    or a stream that can seek, is checked against its size before ``take`` is
    called and only that payload is read; a stream that cannot seek is read
    to its end in bounded pieces, after ``take``, and then checked.
    """
    if fmt not in ("raw", "ascii"):  # before the input is opened
        raise ValueError(f"unknown bit file format: {fmt!r}")
    with contextlib.nullcontext(path) if hasattr(path, "read") else open(path, "rb") as f:
        if fmt == "ascii":  # the digits read as a binary integer, packed 8 at a time
            payload, bad, rest = bytearray(), set(), b""
            for piece in iter(lambda: f.read(1 << 16), b""):
                rest += piece.translate(None, _ASCII_WHITESPACE)
                bad.update(rest.translate(None, b"01"))
                whole = len(rest) & ~7
                if whole and not bad:
                    payload += int(rest[:whole], 2).to_bytes(whole // 8, "big")
                rest = rest[whole:]
            if bad:
                raise ValueError(f"invalid bit characters: {bytes(sorted(bad))!r}")
            count = 8 * len(payload) + len(rest)
            if rest:
                payload += int(rest.ljust(8, b"0"), 2).to_bytes(1, "big")
            n = count if take is None else take(count)
        else:
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
    return BitString._wrap(payload, n)
