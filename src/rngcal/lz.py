"""LZ77 factorization of bit strings and its prefix-free encoding.

The factorization is greedy and left-to-right over an unbounded window.  A
pair ``(p, l)`` with ``p >= 1`` copies ``l`` bits starting at 1-based
position ``p`` of the output built so far; copies may overlap the current
position (self-referential runs are allowed).  ``p = 0`` marks a literal
whose payload is a single bit.  At each step the match length is maximal,
and among maximal matches the smallest ``p`` is chosen, which makes parses
bit-reproducible.

Each pair is serialized as ``C(p + 1)`` followed by one raw bit (literal)
or ``C(l)`` (copy), where C is the integer code from :mod:`rngcal.codes`.
The pair stream carries no terminator: within any fixed input length the
codeword set is prefix-free (decoding is unambiguous pair by pair and the
reconstructed length identifies the input), which is what the rejection
counting bound of the compression test needs.  Across different input
lengths codewords can extend one another, so the decoder relies on the
container (codeword object or bit file) to delimit the stream.

Match search uses a suffix automaton over the whole input with first-
occurrence positions, giving maximal matches and smallest-p tie-breaking in
O(n) overall.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bits import BitString
from .codes import BitReader, BitWriter, Codeword, encoded_length, read_integer, write_integer
from .errors import DecodeError

_LITERAL_COST = encoded_length(1) + 1  # C(1) marker plus one raw bit


class Lz77Pair(NamedTuple):
    """One factor: ``position == 0`` marks a literal, payload is the bit;
    otherwise payload is the copy length from 1-based ``position``."""

    position: int
    payload: int

    @property
    def is_literal(self) -> bool:
        return self.position == 0


@dataclass(frozen=True)
class Lz77Parse:
    """Greedy factorization of a bit string."""

    pairs: list[Lz77Pair]
    total_length: int


class _SuffixAutomaton:
    """Suffix automaton of a bit string, built online (Blumer et al. 1985).

    ``next0``/``next1`` hold transitions (-1 means absent) and ``first[s]``
    is the end index (0-based, inclusive) of the first occurrence of the
    substrings of state ``s``.  ``extend`` appends bits; a substring of the
    bits already taken in keeps its first occurrence, so walks over the
    automaton of a prefix and of the extended string agree on that prefix.
    Extending can clone a state, though, so a walk must restart from the
    root after an extension.
    """

    __slots__ = ("next0", "next1", "link", "length", "first", "last", "size")

    def __init__(self, bits: Sequence[int] = ()):
        self.next0 = array("i", [-1])
        self.next1 = array("i", [-1])
        self.link = array("i", [-1])
        self.length = array("i", [0])
        self.first = array("i", [-1])
        self.last = 0
        self.size = 0  # bits taken in
        self.extend(bits)

    def extend(self, bits: Sequence[int]) -> None:
        next0, next1, link, length, first = (self.next0, self.next1, self.link,
                                             self.length, self.first)
        append0 = next0.append
        append1 = next1.append
        append_link = link.append
        append_len = length.append
        append_first = first.append
        last = self.last
        for pos, c in enumerate(bits, self.size):
            cur = len(link)
            append0(-1)
            append1(-1)
            append_link(-1)
            append_len(pos + 1)
            append_first(pos)
            nx = next1 if c else next0
            p = last
            while p != -1 and nx[p] == -1:
                nx[p] = cur
                p = link[p]
            if p == -1:
                link[cur] = 0
            else:
                q = nx[p]
                if length[p] + 1 == length[q]:
                    link[cur] = q
                else:
                    clone = len(link)
                    append0(next0[q])
                    append1(next1[q])
                    append_link(link[q])
                    append_len(length[p] + 1)
                    append_first(first[q])
                    while p != -1 and nx[p] == q:
                        nx[p] = clone
                        p = link[p]
                    link[q] = clone
                    link[cur] = clone
            last = cur
        self.last = last
        self.size += len(bits)


def _delta_len(v: int) -> int:
    # encoded_length inlined for the hot loops
    n = v.bit_length() - 1
    return n + 2 * ((n + 1).bit_length() - 1) + 1


def parse(x: BitString) -> Lz77Parse:
    """Greedy factorization of ``x``; empty input yields no pairs."""
    bits = x.tolist()
    n = len(bits)
    if n == 0:
        return Lz77Parse(pairs=[], total_length=0)
    automaton = _SuffixAutomaton(bits)
    next0, next1, first = automaton.next0, automaton.next1, automaton.first
    pairs: list[Lz77Pair] = []
    i = 0
    while i < n:
        st = 0
        ell = 0
        src = -1
        while i + ell < n:
            st2 = (next1 if bits[i + ell] else next0)[st]
            if st2 == -1:
                break
            s = first[st2] - ell  # start of the first occurrence of this match
            if s >= i:
                break
            src = s
            ell += 1
            st = st2
        if ell == 0:
            pairs.append(Lz77Pair(0, bits[i]))
            i += 1
        else:
            pairs.append(Lz77Pair(src + 1, ell))
            i += ell
    return Lz77Parse(pairs=pairs, total_length=n)


def pairs_cost(pairs: list[Lz77Pair]) -> int:
    """Bit length of the serialized pair stream."""
    total = 0
    for p, payload in pairs:
        if p == 0:
            total += _LITERAL_COST
        else:
            total += _delta_len(p + 1) + _delta_len(payload)
    return total


def encode(x: BitString) -> Codeword:
    """Serialize the greedy parse of ``x``."""
    w = BitWriter()
    for p, payload in parse(x).pairs:
        write_integer(w, p + 1)
        if p == 0:
            w.write(payload, 1)
        else:
            write_integer(w, payload)
    return Codeword(bits=w.to_bitstring(), source_length=len(x))


def decode(c: Codeword | BitString) -> BitString:
    """Rebuild the input from a serialized pair stream."""
    stream = c.bits if isinstance(c, Codeword) else c
    reader = BitReader(stream)
    out: list[int] = []
    while reader.remaining():
        at = reader.pos
        p = read_integer(reader) - 1
        if p == 0:
            out.append(reader.read_bit())
            continue
        if p > len(out):
            raise DecodeError(
                f"copy source {p} points past the {len(out)} bits decoded so far", at)
        ell = read_integer(reader)
        s = p - 1
        for j in range(ell):
            out.append(out[s + j])
    return BitString(out)


def code_length(x: BitString) -> int:
    """``len(encode(x))`` without materializing the codeword."""
    total = 0
    bits = x.tolist()
    n = len(bits)
    if n == 0:
        return 0
    automaton = _SuffixAutomaton(bits)
    next0, next1, first = automaton.next0, automaton.next1, automaton.first
    i = 0
    while i < n:
        st = 0
        ell = 0
        src = -1
        while i + ell < n:
            st2 = (next1 if bits[i + ell] else next0)[st]
            if st2 == -1:
                break
            s = first[st2] - ell
            if s >= i:
                break
            src = s
            ell += 1
            st = st2
        if ell == 0:
            total += _LITERAL_COST
            i += 1
        else:
            v = src + 2
            b = v.bit_length() - 1
            total += b + 2 * ((b + 1).bit_length() - 1) + 1
            b = ell.bit_length() - 1
            total += b + 2 * ((b + 1).bit_length() - 1) + 1
            i += ell
    return total


class PrefixCosts:
    """Prefix-cost table of a bit string that grows at its end.

    ``table[m]`` (an int64 ``array``) is ``code_length`` of the first ``m``
    bits, for every ``m`` up to the bits taken in so far.  ``extend``
    appends bits, extends the suffix automaton and resumes the greedy walk
    at the start of the open factor: the last one, which reached the end of
    the input and may still grow.  The factors before it are final, since
    each stopped at a bit already taken in and the first occurrence of a
    substring of those bits never changes.  The table of a prefix is a
    prefix of the table, so extending in chunks gives the table of one pass
    over the whole string while each bit is analysed once.

    Within a factor the greedy parse of a prefix is the parse of the whole
    string with its last factor shortened, and the smallest-p source of the
    shortened factor is the first occurrence of the shortened match, which
    the automaton reports during the same walk.
    """

    def __init__(self):
        self._automaton = _SuffixAutomaton()
        self._bits = bytearray()  # one byte per bit: a list would take eight
        self.table = array("q", [0])
        self._open = 0    # start of the open factor
        self._closed = 0  # cost of the factors before it

    def __len__(self) -> int:
        return len(self._bits)

    def extend(self, x: BitString) -> None:
        """Append the bits of ``x`` and fill ``table`` up to the new length."""
        new = x.array.tobytes()
        out = self.table
        out.frombytes(bytes(8 * len(new)))
        self._automaton.extend(new)
        bits = self._bits
        bits += new
        n = len(bits)
        next0, next1, first = self._automaton.next0, self._automaton.next1, self._automaton.first
        cum = self._closed
        i = self._open
        while i < n:
            st = 0  # from the root: extending may have cloned the states of an earlier walk
            ell = 0
            while i + ell < n:
                st2 = (next1 if bits[i + ell] else next0)[st]
                if st2 == -1:
                    break
                s = first[st2] - ell
                if s >= i:
                    break
                ell += 1
                st = st2
                # cost of the prefix ending inside this factor, truncated here
                v = s + 2
                b = v.bit_length() - 1
                cost = b + 2 * ((b + 1).bit_length() - 1) + 1
                b = ell.bit_length() - 1
                cost += b + 2 * ((b + 1).bit_length() - 1) + 1
                out[i + ell] = cum + cost
            if ell == 0:
                cum += _LITERAL_COST
                out[i + 1] = cum
                i += 1
            elif i + ell == n:
                break  # the open factor: the next extend walks it again
            else:
                cum = out[i + ell]
                i += ell
        self._open = i
        self._closed = cum


def prefix_code_lengths(x: BitString) -> np.ndarray:
    """``code_length`` of every prefix in one pass.

    Returns an int64 array ``out`` of size ``len(x) + 1`` with
    ``out[m] == code_length(x.prefix(m))``; see :class:`PrefixCosts`.
    """
    costs = PrefixCosts()
    costs.extend(x)
    return np.frombuffer(costs.table, dtype=np.int64)


def block_code_length(x: BitString, block_bits: int) -> int:
    """Bounded-memory variant: the input is split into consecutive blocks of
    ``block_bits`` and each block is encoded independently.

    Memory stays proportional to the block size, but matches cannot reach
    across block boundaries, so the scheme loses the asymptotic guarantees
    of the unbounded window; reports should flag results computed this way.
    For a fixed input length the block layout is fixed, so the implied
    codeword set is still prefix-free within each length class.
    """
    if block_bits < 1:
        raise ValueError("block_bits must be >= 1")
    total = 0
    for start in range(0, len(x), block_bits):
        total += code_length(x[start:start + block_bits])
    return total
