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
from itertools import pairwise
from typing import NamedTuple, Sequence

import numpy as np

from .bits import BitString
from .codes import BitReader, BitWriter, Codeword, encoded_length, read_integer, write_integer
from .errors import DecodeError

# A full-window analysis holds a suffix automaton of all its bits, about 40
# bytes per bit; a bare pair stream decodes to at most this many bits.
DEFAULT_MEMORY_CAP_BITS = 1 << 23
_LITERAL_COST = encoded_length(1) + 1  # C(1) marker plus one raw bit
_BLOCK = 1 << 16  # table positions priced per numpy step


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

    A bit adds at most two states (itself and a clone), so the five arrays
    are sized once per construction or ``extend`` and filled by index;
    ``states`` counts the states in use and the rest is room.
    """

    __slots__ = ("next0", "next1", "link", "length", "first", "last", "states", "size")

    def __init__(self, bits: Sequence[int] = ()):
        room = 2 * len(bits) + 2  # the root and two states per bit
        self.next0 = array("i", [-1]) * room
        self.next1 = array("i", [-1]) * room
        self.link = array("i", [-1]) * room
        self.length = array("i", [0]) * room
        self.first = array("i", [-1]) * room
        self.last = 0
        self.states = 1
        self.size = 0  # bits taken in
        self.extend(bits)

    def extend(self, bits: Sequence[int]) -> None:
        size = len(self.link)
        room = self.states + 2 * len(bits) + 1 - size
        if room > 0:
            # Copy into a new column of the exact size: no temporary and no
            # slack (``array.extend`` adds a sixteenth).  Growing by at least
            # an eighth keeps short extensions amortized.
            for name in self.__slots__[:5]:
                column = array("i", [-1]) * (size + max(room, size >> 3))
                column[:size] = getattr(self, name)
                setattr(self, name, column)
        next0, next1, link, length, first = (self.next0, self.next1, self.link,
                                             self.length, self.first)
        last = self.last
        states = self.states
        for pos, c in enumerate(bits, self.size):
            cur = states
            states += 1
            length[cur] = pos + 1
            first[cur] = pos
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
                    clone = states
                    states += 1
                    next0[clone] = next0[q]
                    next1[clone] = next1[q]
                    link[clone] = link[q]
                    length[clone] = length[p] + 1
                    first[clone] = first[q]
                    while p != -1 and nx[p] == q:
                        nx[p] = clone
                        p = link[p]
                    link[q] = clone
                    link[cur] = clone
            last = cur
        self.last = last
        self.states = states
        self.size += len(bits)


def _factorize(bits: bytes, automaton: _SuffixAutomaton, start: int) -> tuple[array, array]:
    """The greedy parse of ``bits[start:]``; ``automaton`` has taken in all of ``bits``.

    Returns int32 arrays of the factor starts and of ``ends``.  For
    ``start < m <= len(bits)``, ``ends[m]`` is the end index of the first
    occurrence of ``bits[i:m]``, where ``i`` starts the factor that holds bit
    ``m - 1``: the factor truncated at ``m``.  It is -1 where that factor is
    a literal.  A match may take bit ``j`` while its first occurrence ends
    before ``j``, that is, starts before ``i``, and that first occurrence is
    the smallest source.
    """
    n = len(bits)
    next0, next1, first = automaton.next0, automaton.next1, automaton.first
    ends = array("i", [-1]) * (n + 1)
    starts = array("i")
    i = start
    while i < n:
        starts.append(i)
        st = 0  # from the root: extending may have cloned the states of an earlier walk
        j = i
        while j < n:
            st = (next1 if bits[j] else next0)[st]
            if st == -1:
                break
            end = first[st]
            if end >= j:
                break
            j += 1
            ends[j] = end
        i = j if j > i else i + 1
    return starts, ends


def _delta_lengths(v: np.ndarray) -> np.ndarray:
    """:func:`encoded_length` of every entry of ``v`` (each >= 1; exact below 2**53)."""
    b = np.frexp(v)[1] - 1  # floor(log2 v)
    return b + 2 * (np.frexp(b + 1)[1] - 1) + 1


def _factor_costs(ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Serialized cost of factors given by their ``_factorize`` ends and lengths."""
    return np.where(ends < 0, _LITERAL_COST,
                    _delta_lengths(ends - lengths + 3) + _delta_lengths(lengths))


def _greedy(x: BitString) -> tuple[bytes, array, array]:
    """The bits of ``x``, the bounds of its factors (starts, then the length)
    and the ``ends`` of :func:`_factorize`, from one build and one walk."""
    bits = x.array.tobytes()
    bounds, ends = _factorize(bits, _SuffixAutomaton(bits), 0)
    bounds.append(len(bits))
    return bits, bounds, ends


def parse(x: BitString) -> Lz77Parse:
    """Greedy factorization of ``x``; empty input yields no pairs."""
    bits, bounds, ends = _greedy(x)
    pairs = [Lz77Pair(0, bits[i]) if ends[j] < 0 else Lz77Pair(ends[j] - (j - i) + 2, j - i)
             for i, j in pairwise(bounds)]
    return Lz77Parse(pairs=pairs, total_length=len(bits))


def pairs_cost(pairs: list[Lz77Pair]) -> int:
    """Bit length of the serialized pair stream."""
    return sum(_LITERAL_COST if p == 0 else encoded_length(p + 1) + encoded_length(payload)
               for p, payload in pairs)


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
    """Rebuild the input from a serialized pair stream.

    A :class:`Codeword` must decode to exactly its ``source_length`` bits,
    and a bare stream to at most ``DEFAULT_MEMORY_CAP_BITS``.  A pair that
    would pass the bound raises :class:`DecodeError` before it is expanded,
    so a short hostile stream cannot allocate a long output.
    """
    if isinstance(c, Codeword):
        stream, limit = c.bits, c.source_length
    else:
        stream, limit = c, DEFAULT_MEMORY_CAP_BITS
    reader = BitReader(stream)
    out = bytearray()
    while reader.remaining():
        at = reader.pos
        p = read_integer(reader) - 1
        if p > len(out):
            raise DecodeError(
                f"copy source {p} points past the {len(out)} bits decoded so far", at)
        ell = 1 if p == 0 else read_integer(reader)
        if len(out) + ell > limit:
            raise DecodeError(f"pair decodes past the bound of {limit} bits", at)
        if p == 0:
            out.append(reader.read_bit())
            continue
        s = p - 1
        while ell:  # an overlapping copy repeats what it has copied so far
            piece = out[s:s + ell]
            out += piece
            s += len(piece)
            ell -= len(piece)
    if isinstance(c, Codeword) and len(out) != limit:
        raise DecodeError(f"decoded {len(out)} bits, the codeword holds {limit}", reader.pos)
    return BitString(np.frombuffer(out, dtype=np.uint8))


def code_length(x: BitString) -> int:
    """``len(encode(x))`` without materializing the codeword."""
    _, bounds, ends = _greedy(x)
    return sum(_LITERAL_COST if ends[j] < 0
               else encoded_length(ends[j] - (j - i) + 3) + encoded_length(j - i)
               for i, j in pairwise(bounds))


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
    the walk reports as ``ends``.  So ``table[m]`` is the cost of the
    factors before the one holding bit ``m - 1`` plus that factor truncated
    at ``m``, priced in numpy a block of positions at a time.
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
        if not new:
            return
        self.table.frombytes(bytes(8 * len(new)))
        self._automaton.extend(new)
        bits = self._bits
        bits += new
        n = len(bits)
        starts, ends = _factorize(bits, self._automaton, self._open)
        ends = np.frombuffer(ends, dtype=np.int32)
        begin = np.frombuffer(starts, dtype=np.int32)
        stop = np.append(begin[1:], n)
        whole = _factor_costs(ends[stop], stop - begin)
        before = np.cumsum(whole) - whole + self._closed  # closed cost before each factor
        table = np.frombuffer(self.table, dtype=np.int64)
        for lo in range(starts[0] + 1, n + 1, _BLOCK):
            hi = min(lo + _BLOCK, n + 1)
            m = np.arange(lo, hi, dtype=np.int32)
            f = np.searchsorted(begin, m - 1, side="right") - 1  # factor holding bit m - 1
            table[lo:hi] = before[f] + _factor_costs(ends[lo:hi], m - begin[f])
        self._open = starts[-1]
        self._closed = int(before[-1])


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
