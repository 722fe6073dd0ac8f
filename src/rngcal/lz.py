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
O(n) overall.  The automaton build and the greedy walk run in C
(``_lzkernel.c``) where a C compiler is at hand, else in Python.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import sysconfig
import tempfile
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .bits import BitString
from .codes import BitReader, BitWriter, Codeword, encoded_length, read_integer, write_integer
from .errors import DecodeError

# A full-window analysis holds a suffix automaton of all its bits, 40 bytes
# per bit, and two more bytes per bit beside it: a `test` at this cap peaks
# below 48 bytes per bit, interpreter included.  A bare pair stream decodes
# to at most this many bits.
DEFAULT_MEMORY_CAP_BITS = 1 << 23
_LITERAL_COST = encoded_length(1) + 1  # C(1) marker plus one raw bit
_BLOCK = 1 << 14  # positions, or factors, priced per numpy step
_ROOM = 1 << 12  # factors the C walk records per call
_MAX_BITS = (2 ** 31 - 3) // 2  # keeps 2 * bits + 2 states within int32
_KERNEL_SOURCE = Path(__file__).with_name("_lzkernel.c")


@functools.cache
def _kernel() -> ctypes.CDLL | None:
    """The C loops of ``_lzkernel.c``, or None where they cannot be had.

    The library is built on first use into this package's ``__pycache__``,
    named after a content key of the source (two checksums and its length)
    and the extension suffix, so an edited source is rebuilt; later
    processes load it.  The key takes no ``hashlib``, whose OpenSSL would
    add about 3 MB to every process.  If anything fails
    (no compiler, a directory that cannot be written, a library that does
    not load) the Python loops run instead.
    """
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    try:
        source = _KERNEL_SOURCE.read_bytes()
        key = f"{zlib.crc32(source):08x}{zlib.adler32(source):08x}{len(source):x}"
        target = _KERNEL_SOURCE.parent / "__pycache__" / f"_lzkernel.{key}{suffix}"
        if not target.exists():
            _build_kernel(target)
        lib = ctypes.CDLL(str(target))
    except OSError:
        return None
    i32, i64, ptr = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    lib.sam_extend.argtypes = [ptr] * 6 + [i64, i32, ptr]
    lib.sam_extend.restype = None
    lib.sam_factorize.argtypes = [ptr] * 4 + [i64, i64, i64, ptr, ptr, ptr]
    lib.sam_factorize.restype = i64
    return lib


def _build_kernel(target: Path) -> None:
    """Compile ``_KERNEL_SOURCE`` with the compiler Python was built with.

    The library is written in a temporary directory and renamed into
    place, so processes that build at once never load a partial file.
    Raises OSError if it cannot be built.
    """
    import shlex
    import subprocess  # imported here: only a build needs it, and it costs 0.6 MB

    target.parent.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=target.parent)
    built = os.path.join(workdir, target.name)
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    try:
        subprocess.run([*compiler, "-O2", "-shared", "-fPIC", "-o", built, str(_KERNEL_SOURCE)],
                       check=True, capture_output=True, timeout=60)
        os.replace(built, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"{compiler[0]} could not build {_KERNEL_SOURCE.name}") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _address(buffer: bytes | array | np.ndarray):
    """``buffer`` (a numpy array must be contiguous) as a pointer argument
    of the kernel, not copied; the caller keeps ``buffer`` alive and
    unresized during the call."""
    if isinstance(buffer, array):
        return buffer.buffer_info()[0]
    if isinstance(buffer, np.ndarray):
        return buffer.ctypes.data
    return buffer


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

    def __init__(self, bits: bytes = b""):
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

    def extend(self, bits: bytes | np.ndarray) -> None:
        if self.size + len(bits) > _MAX_BITS:
            raise OverflowError(f"a suffix automaton holds at most {_MAX_BITS} bits")
        if not len(bits):
            return
        size = len(self.link)
        room = self.states + 2 * len(bits) + 1 - size
        if room > 0:
            # Grow each column in place, a bounded fill piece at a time, so no
            # old column is held beside its new one; the slack ``extend`` adds
            # is never written, so it is not resident.  Growing by at least an
            # eighth keeps short extensions amortized.
            grow = max(room, size >> 3)
            fill = array("i", [-1]) * min(grow, _BLOCK)
            for name in self.__slots__[:5]:
                column = getattr(self, name)
                for done in range(0, grow, _BLOCK):
                    column.extend(fill[:grow - done])
        next0, next1, link, length, first = (self.next0, self.next1, self.link,
                                             self.length, self.first)
        kernel = _kernel()
        if kernel is not None:  # the loop below, in C
            state = (ctypes.c_int32 * 2)(self.last, self.states)
            kernel.sam_extend(*map(_address, (next0, next1, link, length, first, bits)),
                              len(bits), self.size, state)
            self.last, self.states = state
            self.size += len(bits)
            return
        last = self.last
        states = self.states
        for pos, c in enumerate(memoryview(bits), self.size):
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


def _factorize(bits: bytes | np.ndarray, automaton: _SuffixAutomaton,
               start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The greedy parse of ``bits[start:]``; ``automaton`` has taken in all of ``bits``.

    Returns int32 arrays of the factor bounds (the starts, then
    ``len(bits)``) and of the factor ends, and a uint8 array of ``widths``
    indexed from ``start``.  A factor's end is the end index of its first
    occurrence, -1 for a literal.  For ``start < m <= len(bits)``,
    ``widths[m - start]`` is the bit length of ``end - (m - i) + 3``, where
    ``i`` starts the factor that holds bit ``m - 1`` and ``end`` is the end
    of the first occurrence of ``bits[i:m]``, -1 for a literal: the factor
    truncated at ``m``.  A match may take bit ``j`` while its first
    occurrence ends before ``j``, that is, starts before ``i``, and that
    first occurrence is the smallest source.

    ``end - (m - i) + 3`` is ``p + 1`` for the 1-based source ``p`` of the
    truncated factor (``p = 0`` for a literal), and C of an integer depends
    only on its bit length.  So a width and a length price a factor, whole
    or truncated, and one byte per position is all the prefix costs need.

    The C walk records at most ``_ROOM`` factors per call and resumes at
    the next factor start, so it needs no room sized by the input.
    """
    n = len(bits)
    next0, next1, first = automaton.next0, automaton.next1, automaton.first
    widths = array("B", [0]) * (n + 1 - start)
    kernel = _kernel()
    if kernel is not None:  # the walk below, in C
        room = min(_ROOM, n - start)  # a short input takes one call
        bounds, ends = array("i", [0]) * (room + 1), array("i", [0]) * room
        args = [*map(_address, (next0, next1, first, bits)), n]
        out = _address(bounds), _address(ends)
        base = _address(widths) - start  # a call indexes widths from its own start
        count = kernel.sam_factorize(*args, start, room, *out, base + start)
        starts, factor_ends = bounds[:count], ends[:count]
        while bounds[count] < n:  # the room filled: resume at the next factor
            i = bounds[count]
            count = kernel.sam_factorize(*args, i, room, *out, base + i)
            starts += bounds[:count]
            factor_ends += ends[:count]
    else:
        bits = memoryview(bits)
        starts, factor_ends = array("i"), array("i")
        i = start
        while i < n:
            starts.append(i)
            st = 0  # from the root: extending may have cloned the states of an earlier walk
            end = -1
            j = i
            while j < n:
                st = (next1 if bits[j] else next0)[st]
                if st == -1 or first[st] >= j:
                    break
                end = first[st]
                j += 1
                widths[j - start] = (end - (j - i) + 3).bit_length()
            if j == i:  # a literal
                j += 1
                widths[j - start] = 1
            factor_ends.append(end)
            i = j
    starts.append(n)
    return (np.frombuffer(starts, dtype=np.int32), np.frombuffer(factor_ends, dtype=np.int32),
            np.frombuffer(widths, dtype=np.uint8))


# ``encoded_length`` of the integers of each bit length: C(v) depends on nothing else
_CODE_LENGTHS = np.array([0] + [encoded_length(1 << k) for k in range(63)], dtype=np.int64)


def _delta_lengths(v: np.ndarray) -> np.ndarray:
    """:func:`encoded_length` of every entry of ``v`` (each >= 1; exact below 2**53)."""
    return _CODE_LENGTHS[np.frexp(v)[1]]


def _factor_costs(widths: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Serialized cost of factors given by their ``_factorize`` widths and lengths.

    A literal, of width 1 and length 1, costs C(1) and one raw bit: two bits,
    as ``_LITERAL_COST`` says.
    """
    cost = _CODE_LENGTHS[widths]
    cost += _delta_lengths(lengths)
    return cost


def _greedy(x: BitString) -> tuple[bytes, list[int], list[int], list[int]]:
    """The bits of ``x`` and, per factor, its start, its length and its end
    (see :func:`_factorize`), from one build and one walk."""
    bits = x.array.tobytes()
    bounds, ends, _ = _factorize(bits, _SuffixAutomaton(bits), 0)
    starts = bounds[:-1]
    return bits, starts.tolist(), (bounds[1:] - starts).tolist(), ends.tolist()


def parse(x: BitString) -> Lz77Parse:
    """Greedy factorization of ``x``; empty input yields no pairs."""
    bits, starts, lengths, ends = _greedy(x)
    pairs = [Lz77Pair(0, bits[i]) if end < 0 else Lz77Pair(end - ell + 2, ell)
             for i, ell, end in zip(starts, lengths, ends)]
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
    _, _, lengths, ends = _greedy(x)
    return sum(_LITERAL_COST if end < 0 else encoded_length(end - ell + 3) + encoded_length(ell)
               for ell, end in zip(lengths, ends))


class _PrefixCosts:
    """Code lengths of the prefixes of a bit string that grows at its end.

    ``extend`` takes a prefix that extends the bits taken in so far (the
    caller's rule: :class:`rngcal.stats.PrefixScanTest` checks it),
    extends the suffix automaton and resumes the greedy walk at the start
    of the open factor: the last one, which reached the end of the input
    and may still grow.  The factors before it are final, since each
    stopped at a bit already taken in and the first occurrence of a
    substring of those bits never changes.  The costs of a prefix's
    prefixes do not change as the string grows, so extending in chunks
    gives the costs of one pass over the whole string while each bit is
    analysed once.  ``total`` is ``code_length`` of all bits taken in.

    Within a factor the greedy parse of a prefix is the parse of the whole
    string with its last factor shortened, and the smallest-p source of the
    shortened factor is the first occurrence of the shortened match, whose
    width the walk reports, one byte per position.  So the code length of
    the first ``m`` bits is the cost of the factors before the one holding
    bit ``m - 1`` plus that factor truncated at ``m``, priced in numpy a
    block of positions at a time.  No per-bit table is kept, and no bits.
    """

    def __init__(self):
        self._automaton = None  # built from the first bits, at their size
        self.total = 0
        self._open = 0    # start of the open factor
        self._closed = 0  # cost of the factors before it

    def extend(self, x: BitString) -> Iterator[tuple[int, np.ndarray]]:
        """Take in the prefix ``x`` of the string and set ``total`` to its code length.

        Returns the code lengths of the prefixes longer than the bits taken
        in so far, up to ``len(x)`` bits, as ``(m, costs)`` blocks of up to
        ``_BLOCK`` int64 entries, where ``costs[i]`` belongs to the first
        ``m + i`` bits.  A block is priced when it is read, so blocks nobody
        reads cost nothing.
        """
        k = 0 if self._automaton is None else self._automaton.size
        if len(x) == k:
            return iter(())
        bits = np.ascontiguousarray(x.array)  # only a strided view is copied
        if k:
            self._automaton.extend(bits[k:])
        else:
            self._automaton = _SuffixAutomaton(bits)
        n = len(bits)
        first = self._open
        bounds, _, widths = _factorize(bits, self._automaton, first)
        begin = bounds[:-1]
        before = np.empty(len(bounds), dtype=np.int64)  # cost before each factor, then in all
        before[0] = self._closed
        for lo in range(0, len(begin), _BLOCK):  # a block of factors at a time
            stop = bounds[lo + 1:lo + 1 + _BLOCK]
            before[lo + 1:lo + 1 + len(stop)] = _factor_costs(widths[stop - first],
                                                              stop - begin[lo:lo + _BLOCK])
        np.cumsum(before, out=before)
        self._open = int(begin[-1])
        self._closed = int(before[-2])
        self.total = int(before[-1])

        def block(lo: int) -> tuple[int, np.ndarray]:
            hi = min(lo + _BLOCK, n + 1)
            m = np.arange(lo, hi, dtype=np.int32)
            f = np.searchsorted(begin, m - 1, side="right") - 1  # factor holding bit m - 1
            return lo, before[f] + _factor_costs(widths[lo - first:hi - first], m - begin[f])

        return map(block, range(k + 1, n + 1, _BLOCK))


def prefix_code_lengths(x: BitString) -> np.ndarray:
    """``code_length`` of every prefix in one pass.

    Returns an int64 array ``out`` of size ``len(x) + 1`` with
    ``out[m] == code_length(x.prefix(m))``; see :class:`_PrefixCosts`.
    """
    blocks = _PrefixCosts().extend(x)  # the automaton is freed before the pricing
    out = np.zeros(len(x) + 1, dtype=np.int64)
    for lo, costs in blocks:
        out[lo:lo + len(costs)] = costs
    return out

