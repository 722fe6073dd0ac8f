"""Bit sequences and the on-disk bit formats.

A :class:`BitString` is an immutable ordered sequence of 0/1 symbols.  It is
the sample type every test and coder in this package operates on.  Indexing
is 0-based in code; formulas in the docs write prefixes as "the first m
bits", which is exactly ``prefix(m)``.

Two persistence formats are supported:

* raw: an 8-byte little-endian unsigned bit count, then the payload packed
  MSB-first into bytes (the final byte is zero-padded);
* ascii: the characters '0' and '1', any whitespace ignored.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

_HEADER_BYTES = 8


class BitString:
    """Immutable sequence of bits backed by a uint8 array of 0/1 values."""

    __slots__ = ("_a",)

    def __init__(self, bits: Iterable[int] | np.ndarray = ()):
        a = np.asarray(bits, dtype=np.uint8)
        if a.ndim != 1:
            a = a.reshape(-1)
        if a.size and not np.all(a <= 1):
            raise ValueError("bits must be 0 or 1")
        a = a.copy()
        a.setflags(write=False)
        self._a = a

    # -- constructors ------------------------------------------------------

    @classmethod
    def from01(cls, text: str) -> "BitString":
        """Parse a string of '0'/'1' characters; whitespace is ignored."""
        stripped = "".join(text.split())
        if stripped and set(stripped) - {"0", "1"}:
            bad = sorted(set(stripped) - {"0", "1"})
            raise ValueError(f"invalid bit characters: {bad}")
        return cls(np.frombuffer(stripped.encode("ascii"), dtype=np.uint8) - ord("0")
                   if stripped else np.empty(0, dtype=np.uint8))

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls(np.ones(n, dtype=np.uint8))

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        """The ``width``-bit big-endian binary expansion of ``value``."""
        if width < 0:
            raise ValueError("width must be >= 0")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        nbytes = (width + 7) // 8
        bits = np.unpackbits(np.frombuffer(value.to_bytes(nbytes, "big"), dtype=np.uint8))
        return cls._wrap(bits[8 * nbytes - width:])

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "BitString":
        """Take ``a``, a 1-D uint8 array of 0/1 that nothing else holds,
        without the check and the copy of ``__init__``."""
        a.setflags(write=False)
        self = cls.__new__(cls)
        self._a = a
        return self

    @classmethod
    def concat(cls, parts: Iterable["BitString"]) -> "BitString":
        arrays = [p._a for p in parts]
        if not arrays:
            return cls()
        return cls(np.concatenate(arrays))

    # -- views -------------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """Read-only uint8 view of the bits."""
        return self._a

    def tolist(self) -> list[int]:
        return self._a.tolist()

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self._a)

    def to_int(self) -> int:
        """The integer whose big-endian binary expansion is this string."""
        value = 0
        for b in self._a.tolist():
            value = (value << 1) | b
        return value

    def prefix(self, m: int) -> "BitString":
        """The first ``m`` bits."""
        if not 0 <= m <= len(self):
            raise ValueError(f"prefix length {m} out of range 0..{len(self)}")
        return BitString(self._a[:m])

    def digest(self) -> str:
        """SHA-256 over the packed payload and bit length; for regressions."""
        h = hashlib.sha256()
        h.update(len(self).to_bytes(8, "little"))
        h.update(np.packbits(self._a).tobytes())
        return h.hexdigest()

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return int(self._a.size)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return BitString(self._a[idx])
        return int(self._a[idx])

    def __iter__(self) -> Iterator[int]:
        return iter(self._a.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return len(self) == len(other) and bool(np.array_equal(self._a, other._a))

    def __hash__(self) -> int:
        return hash((len(self), self._a.tobytes()))

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString.concat([self, other])

    def __repr__(self) -> str:
        if len(self) <= 32:
            return f"BitString('{self.to01()}')"
        return f"BitString('{self.prefix(24).to01()}...', length={len(self)})"


def pack(bits: BitString) -> bytes:
    """Raw format: 8-byte little-endian bit count, then MSB-first payload."""
    payload = np.packbits(bits.array).tobytes() if len(bits) else b""
    return len(bits).to_bytes(_HEADER_BYTES, "little") + payload


def unpack(data: bytes) -> BitString:
    """Inverse of :func:`pack`."""
    if len(data) < _HEADER_BYTES:
        raise ValueError(f"raw bit stream too short for header: {len(data)} bytes")
    n = int.from_bytes(data[:_HEADER_BYTES], "little")
    payload = data[_HEADER_BYTES:]
    need = (n + 7) // 8
    if len(payload) < need:
        raise ValueError(f"raw bit stream truncated: header says {n} bits, "
                         f"payload has {8 * len(payload)}")
    if len(payload) > need:
        raise ValueError(f"raw bit stream has {len(payload) - need} trailing bytes")
    if n == 0:
        return BitString()
    return BitString(np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[:n])


def write_bit_file(path, bits: BitString, fmt: str = "raw") -> None:
    if fmt == "raw":
        with open(path, "wb") as f:
            f.write(pack(bits))
    elif fmt == "ascii":
        with open(path, "w") as f:
            f.write(bits.to01())
            f.write("\n")
    else:
        raise ValueError(f"unknown bit file format: {fmt!r}")


def read_bit_file(path, fmt: str = "raw") -> BitString:
    if fmt == "raw":
        with open(path, "rb") as f:
            return unpack(f.read())
    if fmt == "ascii":
        with open(path, "r") as f:
            return BitString.from01(f.read())
    raise ValueError(f"unknown bit file format: {fmt!r}")

