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
A factor costs ``|C(p + 1)| + |C(l)|`` bits; a literal's raw bit is as long as ``C(1)``.
The pair stream carries no terminator: within any fixed input length the
codeword set is prefix-free (decoding is unambiguous pair by pair and the
reconstructed length identifies the input), which is what the rejection
counting bound of the compression test needs.  Across different input
lengths codewords can extend one another, so the decoder relies on the
container (codeword object or bit file) to delimit the stream.

Match search uses a suffix automaton with first-occurrence positions,
giving maximal matches and smallest-p tie-breaking in O(n) overall.  One
online loop takes each appended bit into the greedy parse and then into the
automaton (see :class:`_PrefixCosts`).  It runs in C (``_lzkernel.c``) where
a C compiler is at hand, else in Python, and so do the codec's loops, which
write a walk's pairs as codewords (``encode``) and expand a pair stream
(``decode``); the Python loops stay the fallback and the reference, and
every refusal of ``decode`` is raised by its Python loop.  Which loops run
depends on whether the kernel loads, never on the input: an empty buffer
goes to a C loop as NULL (see ``_address``), and each loop that takes one
reads and writes nothing where its count is 0.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
import os
import zlib
from array import array
from collections import namedtuple
from importlib.machinery import EXTENSION_SUFFIXES

from .bits import BitString
from .codes import BitReader, BitWriter, Codeword, encoded_length, read_integer, write_integer
from .errors import DecodeError

# A full-window analysis holds a suffix automaton of all its bits, 32 bytes
# per bit (a huge-page mapping from 2^19 bits on, or once it grows: see
# _allocate), and the sample's packed payload, an eighth of a byte per bit,
# beside it: a `test` at this cap peaks below 36 bytes per bit, interpreter
# included.  A bare pair stream decodes to at most this many bits, and a
# codeword to at most _MAX_BITS.
DEFAULT_MEMORY_CAP_BITS = 1 << 23
_BLOCK = 1 << 14  # entries an array grows by at a time, where there is no MADV_HUGEPAGE
# The smallest new table, in bytes, made in a mapping, and the least room of
# a table that grows (see _allocate): 2^19 bits' automaton.  Below it repeated
# one-shot passes run faster in a heap array, whose freed pages come back
# already resident.
_MAP_BYTES = 16 << 20
_MAX_BITS = (2 ** 31 - 3) // 2  # keeps 2 * bits + 2 states within int32
# A mapping's length is a whole number of huge pages, which Linux aligns it
# to: its last page is then huge too.
_HUGE_PAGE = 2 << 20
_KERNEL_SOURCE = os.path.join(os.path.dirname(__file__), "_lzkernel.c")
# -ffp-contract=off: tau_k's arithmetic in the C loop stays that of the Python loop
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# ``encoded_length`` of the integers of each bit length: C(v) depends on nothing else
_CODE_LENGTHS = bytes([0] + [encoded_length(1 << k) for k in range(63)])


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
    try:
        with open(_KERNEL_SOURCE, "rb") as f:
            source = f.read()
        key = f"{zlib.crc32(source):08x}{zlib.adler32(source):08x}{len(source):x}"
        target = os.path.join(os.path.dirname(_KERNEL_SOURCE), "__pycache__",
                              f"_lzkernel.{key}{EXTENSION_SUFFIXES[0]}")
        if not os.path.exists(target):
            _build_kernel(target)
        lib = ctypes.CDLL(target)
    except OSError:
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.lz_extend.argtypes = [ptr, ptr, i64, ptr, ctypes.POINTER(_PrefixCosts), ptr, ptr]
    lib.lz_extend.restype = None
    lib.lz_pack.argtypes = [ptr, i64, ptr]
    lib.lz_pack.restype = None
    lib.lz_unpack.argtypes = [ptr, i64, i64, ctypes.c_int, ptr]
    lib.lz_unpack.restype = i64
    lib.draw.argtypes = [ctypes.c_uint64, i64, ctypes.c_int, ptr, ptr, i64, ptr]
    lib.draw.restype = None
    return lib


def _build_kernel(target: str) -> None:
    """Compile ``_KERNEL_SOURCE`` with the compiler Python was built with.

    The library is written in a temporary directory and renamed into
    place, so processes that build at once never load a partial file.
    Raises OSError if it cannot be built.
    """
    import shlex
    import shutil
    import subprocess  # imported here: only a build needs these, and they cost every run
    import sysconfig
    import tempfile

    os.makedirs(os.path.dirname(target), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.dirname(target))
    built = os.path.join(workdir, os.path.basename(target))
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    try:
        subprocess.run([*compiler, *_KERNEL_FLAGS, "-o", built, _KERNEL_SOURCE, "-lm"],
                       check=True, capture_output=True, timeout=60)
        os.replace(built, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"{compiler[0]} could not build {os.path.basename(_KERNEL_SOURCE)}") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _address(buffer: bytes | bytearray | array | memoryview | None):
    """``buffer`` as a pointer argument of the kernel, not copied; the
    caller keeps ``buffer`` alive and unresized during the call."""
    if isinstance(buffer, array):
        return buffer.buffer_info()[0]
    if buffer is None or isinstance(buffer, bytes):
        return buffer
    # a bytearray, or a mapping's view; NULL where it is empty, as an empty array's address is
    return ctypes.addressof(ctypes.c_char.from_buffer(buffer)) if len(buffer) else None


def _allocate(entries: int, table: array | memoryview | None = None) -> array | memoryview:
    """An int32 table of at least ``entries`` zeros, or ``table`` grown to
    at least ``entries`` with zeros at its end; the caller holds no other
    view of ``table``.

    A new table of at least ``_MAP_BYTES``, and every table that grows, is
    a private anonymous mapping advised ``MADV_HUGEPAGE``, seen as an
    ``'i'`` memoryview: where transparent huge pages are granted on advice
    (Linux's ``madvise`` mode), its pages fault in 2 MiB at a time, not 4
    KiB, and pages it never writes are never resident.  An array moves
    into a mapping at its first growth, with room for at least
    ``_MAP_BYTES`` (address space, resident only where written), and a
    mapping grows with ``mmap.resize``, which keeps its pages; so a table
    that grows, as a scan's does, is copied once, while it is small.  A
    mapping, new or resized, is a whole number of ``_HUGE_PAGE``, and its
    view is as long: Linux aligns such a mapping to a huge page, so none of
    its pages falls back to 4 KiB ones (a 2^20-bit pass's table, 32 bytes
    past 32 MiB, took 15 huge pages and 512 small ones).  A
    smaller new table is an ``array``, as is every table where the
    platform has no ``MADV_HUGEPAGE``; there a table grows in place a
    bounded fill piece at a time, so no old table is held beside its new
    one.  Raises MemoryError where the table cannot be had.
    """
    size = 4 * entries
    if (size < _MAP_BYTES and table is None) or not hasattr(mmap, "MADV_HUGEPAGE"):
        if table is None:
            return array("i", [0]) * entries
        grow = entries - len(table)
        fill = array("i", [0]) * min(grow, _BLOCK)
        for done in range(0, grow, _BLOCK):
            table.extend(fill[:grow - done])
        return table
    if isinstance(table, array):
        size = max(size, _MAP_BYTES)
    size = -(-size // _HUGE_PAGE) * _HUGE_PAGE
    try:
        if isinstance(table, memoryview):
            mapping = table.obj
            table.release()  # a mapping with a view alive cannot be resized
            mapping.resize(size)  # new pages read 0
        else:  # Python's default anonymous mapping is shared, and gets no huge pages
            mapping = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except OSError as exc:
        raise MemoryError(f"cannot map a table of {size} bytes: {exc}") from exc
    try:
        mapping.madvise(mmap.MADV_HUGEPAGE)
    except OSError:
        pass  # only advice: the table works in small pages
    view = memoryview(mapping).cast("i")
    if isinstance(table, array):
        view[:len(table)] = table
    return view


class Lz77Pair(namedtuple("Lz77Pair", "position payload")):
    """One factor: ``position == 0`` marks a literal, payload is the bit;
    otherwise payload is the copy length from 1-based ``position``."""

    __slots__ = ()

    @property
    def is_literal(self) -> bool:
        return self.position == 0


Lz77Parse = namedtuple("Lz77Parse", "pairs total_length")
Lz77Parse.__doc__ = "Greedy factorization of a bit string: its ``Lz77Pair`` list and bit count."


def _walk(x: BitString) -> tuple[_PrefixCosts, array | memoryview, int]:
    """One walk of all of ``x``, the int32 table of its pairs (see
    ``extend``) and their count: ``walk.factors + 1``, or 0 for no bits."""
    pairs = _allocate(2 * len(x))  # a factor has at least one bit; few entries are written
    walk = _PrefixCosts()
    walk.extend(x, pairs=pairs)
    return walk, pairs, walk.factors + 1 if len(x) else 0


def parse(x: BitString) -> Lz77Parse:
    """Greedy factorization of ``x``; empty input yields no pairs."""
    _, pairs, count = _walk(x)
    entries = iter(pairs[:2 * count])
    return Lz77Parse(pairs=list(map(Lz77Pair._make, zip(entries, entries))), total_length=len(x))


def pairs_cost(pairs: list[Lz77Pair]) -> int:
    """Bit length of the serialized pair stream."""
    return sum(encoded_length(p + 1) + (encoded_length(payload) if p else 1)
               for p, payload in pairs)


def encode(x: BitString) -> Codeword:
    """Serialize the greedy parse of ``x``: the walk's pairs, packed by
    ``lz_pack`` in ``_lzkernel.c`` where the kernel loads, else written below."""
    walk, pairs, count = _walk(x)
    kernel = _kernel()
    if kernel is not None:
        out = bytearray((walk.total + 7) // 8)  # the walk prices exactly these codewords
        kernel.lz_pack(_address(pairs), count, _address(out))
        return Codeword(bits=BitString._wrap(out, walk.total), source_length=len(x))
    w = BitWriter()
    entries = iter(pairs[:2 * count])
    for p, payload in zip(entries, entries):
        write_integer(w, p + 1)
        if p == 0:
            w.write(payload, 1)
        else:
            write_integer(w, payload)
    return Codeword(bits=w.to_bitstring(), source_length=len(x))


def decode(c: Codeword | BitString) -> BitString:
    """Rebuild the input from a serialized pair stream.

    A :class:`Codeword` must decode to exactly its ``source_length`` bits,
    at most ``_MAX_BITS``, the most that ``encode`` takes, and a bare stream
    to at most ``DEFAULT_MEMORY_CAP_BITS``.  A pair that would pass the
    bound raises :class:`DecodeError` before it is expanded, so a short
    hostile stream cannot allocate a long output.

    Where the C kernel loads, ``lz_unpack`` reads the stream once, and, if
    it decodes, expands it into its packed result, an eighth of a byte per
    bit.  Otherwise, and for every stream that it refuses, the Python loop
    below decodes it, or raises the error that says why and where.  That
    loop holds one ASCII digit per bit, packed once at the end; an
    overlapping copy appends what it has copied so far from its fixed
    source, so each piece doubles and a run of ``l`` bits of period ``d``
    takes about ``log2(l / d)`` pieces.
    """
    exact = isinstance(c, Codeword)
    if exact:
        stream, limit = c.bits, c.source_length
        if not 0 <= limit <= _MAX_BITS:
            raise DecodeError(f"source_length {limit} is outside 0 to {_MAX_BITS}", 0)
    else:
        stream, limit = c, DEFAULT_MEMORY_CAP_BITS
    kernel = _kernel()
    if kernel is not None:
        payload = _address(stream._payload)
        n = kernel.lz_unpack(payload, len(stream), limit, exact, None)
        if n >= 0:
            out = bytearray((n + 7) // 8)
            kernel.lz_unpack(payload, len(stream), limit, exact, _address(out))
            return BitString._wrap(out, n)
    reader = BitReader(stream)
    out = bytearray()  # the digits b"0" and b"1", packed once at the end
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
            out.append(48 + reader.read(1))
            continue
        s = p - 1  # out[s:] is a whole number of periods, so each piece continues the run
        while ell:  # an overlapping copy repeats what it has copied so far
            piece = out[s:s + ell]
            out += piece
            ell -= len(piece)
    if exact and len(out) != limit:
        raise DecodeError(f"decoded {len(out)} bits, the codeword holds {limit}", reader.pos)
    n = len(out)
    out += b"0" * (-n % 8)  # to whole bytes; a base-2 int() takes linear time
    return BitString._wrap(int(out or b"0", 2).to_bytes(len(out) // 8, "big"), n)


def code_length(x: BitString) -> int:
    """``len(encode(x))`` without materializing the codeword, nor anything per position."""
    costs = _PrefixCosts()
    costs.extend(x)
    return costs.total


class _PrefixCosts(ctypes.Structure):
    """One LZ pass: the code lengths of the prefixes of a bit string that
    grows at its end, and tau_k's best evidence over them.

    ``extend`` takes the bits that follow those taken in so far and runs one
    loop over them.  For each bit ``k`` of the string it first moves the
    open factor, the last one, on bit ``k`` in the suffix automaton of the
    bits before ``k``.  A greedy factor ``bits[i:k + 1]`` has an earlier
    occurrence exactly when it is a substring of ``bits[0:k]``, so where
    that transition is missing, or the open factor is a literal, bit ``k``
    starts a new factor from the root.  Then it prices the first ``k + 1``
    bits, and then it takes bit ``k`` into the automaton (Blumer et al.
    1985), the online longest-previous-factor scheme of Okanohara and
    Sadakane (ESA 2008).  The fields are ``walk_t`` of ``_lzkernel.c``:
    ``open`` starts the open factor and ``closed`` is the cost of the
    factors before it, ``factors`` counts those, and ``state`` and ``end``
    are the open factor's automaton state and the end of its first
    occurrence (-1 for a literal), so a later ``extend`` goes on where this
    one stopped, and each bit is analysed once.

    A factor from ``i`` truncated at ``m`` costs ``|C(p + 1)| + |C(m - i)|``,
    where ``p`` is the 1-based source of the first occurrence of bits ``i ..
    m`` (the smallest source; it may start before ``i``), 0 for a literal,
    whose raw bit is as long as C(1).  C of an integer depends only on its
    bit length, which ``_CODE_LENGTHS`` prices.  Within a factor the greedy
    parse of a prefix is the parse of the whole string with its last factor
    shortened, so the loop has the code length of the first ``m`` bits at
    each ``m``: ``total`` is ``code_length`` of all bits taken in (``seen``).
    At each ``m`` it folds tau_k's evidence, ``m - (1 + min(cost, m)) +
    log2(1 / (m (m + 1)))`` in that order in doubles, into ``best`` at
    ``scale``, the first maximum winning, but for a ``log2`` that cannot
    move it (``report`` in ``_lzkernel.c`` says why).  No per-bit table is
    kept, and no bits.

    ``_table`` holds the automaton, one row of four int32 entries per state
    ``s``: ``table[4*s + c]`` is the transition on bit ``c``, 0 when absent
    (no transition enters the root), ``t`` for a solid edge to state ``t``
    and ``-t`` for a secondary one; ``table[4*s + 2]`` is the suffix link and
    ``table[4*s + 3]`` the end index (0-based, inclusive) of the first
    occurrence of the substrings of ``s``, -1 at the root.  An edge ``s ->
    t`` is solid when the longest substring of ``t`` is that of ``s`` plus
    one bit, and the build needs no more of the state lengths than that.
    A bit adds at most two states (itself and a clone), so the table is
    sized once per ``extend``; ``last`` is the state of all the bits taken
    in, ``states`` counts the rows in use and the rest is room.  A pass's
    first table is an ``array``, or from ``_MAP_BYTES`` (2^19 bits) on a
    huge-page mapping seen as an ``'i'`` memoryview; an array moves into
    such a mapping at its first growth, and the mapping grows in place;
    ``_allocate`` says why, and makes and grows both.
    """

    _fields_ = ([(name, ctypes.c_int64) for name in ("open", "closed", "total", "seen", "scale")]
                + [("best", ctypes.c_double), ("factors", ctypes.c_int64)]
                + [(name, ctypes.c_int32) for name in ("last", "states", "state", "end")])

    def __init__(self):
        super().__init__(best=-math.inf, states=1, end=-1)
        self._table = None  # sized at the first bits

    def extend(self, x: BitString, costs: array | None = None,
               pairs: array | memoryview | None = None) -> None:
        """Take in ``x``, the ``len(x)`` bits that follow the ``seen`` taken
        in so far, and price the prefixes that end in them.

        Where the int64 array ``costs`` of at least ``seen + len(x) + 1``
        entries is given, the code length of the first ``m`` bits goes to
        ``costs[m]`` for each of those prefixes.  Where the int32 array (or
        ``'i'`` memoryview, as ``_allocate`` makes) ``pairs`` of at least
        ``2 * len(x)`` is, which only a walk's first extend takes, the
        ``f``-th factor goes to ``pairs[2f]`` and ``pairs[2f + 1]`` as an
        :class:`Lz77Pair` when it closes, and the open one after the
        ``factors`` before it.
        """
        k, n = self.seen, len(x)
        if pairs is not None and k:
            raise ValueError(f"only a walk's first extend writes pairs; {k} bits are taken in")
        for table, code, need, name in ((costs, "q", k + n + 1, "costs"),
                                        (pairs, "i", 2 * n, "pair entries")):
            if table is not None and (_typecode(table) != code or len(table) < need):
                raise ValueError(f"the walk writes {need} {name} to an array({code!r})")
        if k + n > _MAX_BITS:
            raise OverflowError(f"a suffix automaton holds at most {_MAX_BITS} bits")
        if not n:
            return
        table = self._table
        if table is None:
            table = self._table = _allocate(4 * (2 * n + 2))  # the root, two states a bit
            table[2] = table[3] = -1  # the root has no link and no occurrence
        elif (room := self.states + 2 * n + 1 - len(table) // 4) > 0:
            # growing by at least an eighth keeps short extensions amortized
            table = self._table = _allocate(len(table) + 4 * max(room, len(table) >> 5), table)
        kernel = _kernel()
        if kernel is not None:  # the loop below, in C
            kernel.lz_extend(_address(table), _address(x._payload), n, _CODE_LENGTHS, self,
                             _address(pairs), _address(costs))
            return
        lengths = _CODE_LENGTHS
        i, closed, cost, factors = self.open, self.closed, self.total, self.factors
        last, states, st, end = self.last, self.states, self.state, self.end
        best, scale = self.best, self.scale
        bar = -1  # the log2 is skipped where m - min(cost, m) <= bar: see report in _lzkernel.c
        payload = x._payload
        for j in range(n):
            c = payload[j >> 3] >> (7 - (j & 7)) & 1  # BIT in _lzkernel.c
            pos = k + j
            # the automaton holds bits[0:pos]: a transition on c is a source for a longer factor
            t = table[4 * st + c]
            if pos > i and (end < 0 or not t):  # a literal, or no source: pos starts a factor
                if pairs is not None:
                    _record(pairs, factors, x, i, pos, end)
                factors += 1
                closed, i = cost, pos
                t = table[c]
            st = abs(t)
            end = table[4 * st + 3]  # -1 at the root: a literal, p + 1 = 1, as long as its bit
            m = pos + 1
            cost = closed + lengths[(end - (m - i) + 3).bit_length()] + lengths[(m - i).bit_length()]
            if costs is not None:
                costs[m] = cost
            if m - (cost if cost < m else m) > bar:
                e = m - (1.0 + (cost if cost < m else m))
                e += math.log2(1.0 / (m * (m + 1.0)))
                if e > best:  # the first maximum wins
                    best, scale = e, m
                bar = math.floor(best) + 2 * m.bit_length() - 1
            # take bit pos in; st stays valid if it is cloned (see lz_extend in _lzkernel.c)
            cur = states
            states += 1
            table[4 * cur + 3] = pos
            table[4 * last + c] = cur  # ``last`` has no transitions yet; this one is solid
            p = table[4 * last + 2]
            while p != -1 and table[4 * p + c] == 0:
                table[4 * p + c] = -cur
                p = table[4 * p + 2]
            if p == -1:
                table[4 * cur + 2] = 0
            elif table[4 * p + c] > 0:
                table[4 * cur + 2] = table[4 * p + c]
            else:
                q = -table[4 * p + c]
                clone = states
                states += 1
                # a copy, not a mapping's view: a clone is shorter than q, all its edges secondary
                row = array("i", table[4 * q:4 * q + 4])
                row[0], row[1] = -abs(row[0]), -abs(row[1])
                table[4 * clone:4 * clone + 4] = row
                table[4 * p + c] = clone
                p = table[4 * p + 2]
                while p != -1 and table[4 * p + c] == -q:
                    table[4 * p + c] = -clone
                    p = table[4 * p + 2]
                table[4 * q + 2] = clone
                table[4 * cur + 2] = clone
            last = cur
        if pairs is not None:
            _record(pairs, factors, x, i, k + n, end)
        self.open, self.closed, self.total, self.factors = i, closed, cost, factors
        self.seen, self.best, self.scale = k + n, best, scale
        self.last, self.states, self.state, self.end = last, states, st, end


def _typecode(buffer) -> str | None:
    """The item type of an array, or of a contiguous memoryview; None for anything else."""
    if isinstance(buffer, array):
        return buffer.typecode
    if isinstance(buffer, memoryview) and buffer.c_contiguous and not buffer.readonly:
        return buffer.format
    return None


def _record(pairs: array | memoryview, f: int, x: BitString, i: int, m: int, end: int) -> None:
    """The ``f``-th factor, ``x[i:m]``, into ``pairs`` as ``record`` in ``_lzkernel.c`` writes it."""
    pairs[2 * f], pairs[2 * f + 1] = (end - (m - i) + 2, m - i) if end >= 0 else (0, x[i])


def prefix_code_lengths(x: BitString) -> array:
    """``code_length`` of every prefix in one pass.

    Returns an ``array('q')`` ``out`` of size ``len(x) + 1`` with
    ``out[m] == code_length(x.prefix(m))``; see :class:`_PrefixCosts`.
    """
    out = array("q", [0]) * (len(x) + 1)
    _PrefixCosts().extend(x, out)
    return out
