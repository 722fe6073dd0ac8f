"""Prefix-free integer coding and bit-level I/O.

The integer code is Elias delta: for m >= 1 with binary expansion of
``L = floor(log2 m) + 1`` bits, the codeword is gamma(L) followed by the
``L - 1`` low bits of m, where gamma(L) writes ``floor(log2 L)`` zeros and
then L in binary.  Codeword lengths are

    |C(m)| = floor(log2 m) + 2 * floor(log2(floor(log2 m) + 1)) + 1,

i.e. log2 m + 2 log2 log2 m + O(1), and the code is complete: the Kraft sum
over all integers equals 1 exactly (the truncated sum over m <= M falls
short of 1 by the mass of the tail m > M).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .bits import BitString
from .errors import DecodeError


class Codeword(namedtuple("Codeword", "bits source_length")):
    """An encoder's output bits plus the size of the input they encode."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.bits)


class BitWriter:
    """Accumulates MSB-first bits packed as they come: the whole bytes, then
    a tail of the last ``len(self) % 8`` bits."""

    def __init__(self):
        self._bytes, self._tail, self._n = bytearray(), 0, 0

    def write(self, value: int, nbits: int) -> None:
        """Append the ``nbits`` low bits of ``value``, MSB first."""
        n = self._n + nbits
        tail = self._tail << nbits | value & ((1 << nbits) - 1)
        whole, keep = (n >> 3) - (self._n >> 3), n & 7  # the bytes this write completes
        if whole:
            self._bytes += (tail >> keep).to_bytes(whole, "big")
            tail &= (1 << keep) - 1
        self._tail, self._n = tail, n

    def __len__(self) -> int:
        return self._n

    def to_bitstring(self) -> BitString:
        pad = -self._n % 8
        last = (self._tail << pad).to_bytes(1 if pad else 0, "big")  # the tail, zero-padded
        return BitString._wrap(b"".join((self._bytes, last)), self._n)


class BitReader:
    """Reads MSB-first bits from a :class:`BitString`, an integer at a time
    straight from its packed payload."""

    def __init__(self, bits: BitString, offset: int = 0):
        if not 0 <= offset <= len(bits):
            raise ValueError(f"offset {offset} out of range")
        self._payload, self._n = bits._payload, len(bits)
        self.pos = offset

    def remaining(self) -> int:
        return self._n - self.pos

    def read(self, nbits: int) -> int:
        end = self.pos + nbits
        if end > self._n:
            raise DecodeError("unexpected end of stream", self._n)
        value = self._peek(end)
        self.pos = end
        return value

    def _peek(self, end: int) -> int:
        """Bits ``pos .. end`` as an integer, from the bytes that cover them."""
        pos = self.pos
        covering = int.from_bytes(self._payload[pos >> 3:(end + 7) >> 3], "big")
        return covering >> (-end % 8) & ((1 << (end - pos)) - 1)


def encoded_length(m: int) -> int:
    """Length in bits of the integer codeword for ``m`` (m >= 1)."""
    if m < 1:
        raise ValueError(f"integer code is defined for m >= 1, got {m}")
    n = m.bit_length() - 1
    return n + 2 * ((n + 1).bit_length() - 1) + 1


def write_integer(writer: BitWriter, m: int) -> None:
    """Append the codeword for ``m`` to ``writer``, with one write."""
    width = encoded_length(m)  # refuses m < 1
    n = m.bit_length() - 1
    # gamma(L) for L = n + 1, that is L after its leading zeros, then the n
    # low bits of m: its leading 1 goes, as L implies it
    writer.write((n + 1) << n | m ^ (1 << n), width)


def encode_integer(m: int) -> Codeword:
    """Self-delimiting codeword for a positive integer."""
    w = BitWriter()
    write_integer(w, m)
    return Codeword(bits=w.to_bitstring(), source_length=m.bit_length())


def read_integer(reader: BitReader) -> int:
    """Read one integer codeword from ``reader``."""
    start = reader.pos
    width = min(65, reader.remaining())  # at most 64 zeros, then L's leading 1
    window = reader._peek(start + width)
    if not window:
        if width < 65:
            raise DecodeError("truncated integer codeword", start)
        raise DecodeError("malformed integer codeword (length prefix too long)", start)
    zeros = width - window.bit_length()
    rest = width - 2 * zeros - 1  # the window's bits after L
    n = (window >> rest) - 1 if rest >= 0 else -1
    if 0 <= n <= rest:  # the whole codeword is in the window
        reader.pos = start + width - rest + n
        return window >> (rest - n) & ((1 << n) - 1) | (1 << n)
    reader.pos = start + zeros + 1
    n = ((1 << zeros) | reader.read(zeros)) - 1
    # the low bits come first, so a hostile length runs out of bits before 2^n is formed
    return reader.read(n) | (1 << n)


def decode_integer(stream: BitString, offset: int = 0) -> tuple[int, int]:
    """Decode one codeword at ``offset``; returns ``(m, bits consumed)``."""
    reader = BitReader(stream, offset)
    m = read_integer(reader)
    return m, reader.pos - offset


def kraft_sum(lengths: Iterable[int]) -> float:
    """Sum of 2**-l over codeword lengths, computed exactly.

    Counts per distinct length are accumulated first, then combined as exact
    rationals, so the result does not depend on summation order and cannot
    underflow term by term.  Returns 0.0 for an empty input.
    """
    from fractions import Fraction  # here: no test or scan run needs it

    counts: dict[int, int] = {}
    for l in lengths:
        if l < 1:
            raise ValueError(f"codeword lengths must be >= 1, got {l}")
        counts[l] = counts.get(l, 0) + 1
    total = Fraction(0)
    for l, c in counts.items():
        total += Fraction(c, 1 << l)
    return float(total)
