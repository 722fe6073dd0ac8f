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

Match search uses a suffix automaton over the whole input with first-
occurrence positions, giving maximal matches and smallest-p tie-breaking in
O(n) overall.  The automaton build and the greedy walk run in C
(``_lzkernel.c``) where a C compiler is at hand, else in Python.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import zlib
from array import array
from collections import namedtuple
from importlib.machinery import EXTENSION_SUFFIXES

from .bits import BitString, _pack, _unpack
from .codes import BitReader, BitWriter, Codeword, encoded_length, read_integer, write_integer
from .errors import DecodeError

# A full-window analysis holds a suffix automaton of all its bits, 32 bytes
# per bit, and the sample's packed payload, an eighth of a byte per bit,
# beside it: a `test` at this cap peaks below 36 bytes per bit, interpreter
# included.  A bare pair stream decodes to at most this many bits.
DEFAULT_MEMORY_CAP_BITS = 1 << 23
_BLOCK = 1 << 14  # entries a growing table is filled with at a time
_INNER = -2  # what ``parse``'s ends hold where no factor ends
_MAX_BITS = (2 ** 31 - 3) // 2  # keeps 2 * bits + 2 states within int32
_KERNEL_SOURCE = os.path.join(os.path.dirname(__file__), "_lzkernel.c")
# -ffp-contract=off: tau_k's arithmetic in the walk stays that of the Python loop
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
    i32, i64, ptr = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    lib.sam_extend.argtypes = [ptr, ptr, i64, i32, ptr]
    lib.sam_extend.restype = None
    lib.sam_factorize.argtypes = [ptr, ptr, i64, ptr, ctypes.POINTER(_PrefixCosts), ptr, ptr]
    lib.sam_factorize.restype = None
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


def _address(buffer: bytes | bytearray | array | None):
    """``buffer`` as a pointer argument of the kernel, not copied; the
    caller keeps ``buffer`` alive and unresized during the call."""
    if isinstance(buffer, array):
        return buffer.buffer_info()[0]
    if isinstance(buffer, bytearray):
        return ctypes.addressof(ctypes.c_char.from_buffer(buffer))
    return buffer


class Lz77Pair(namedtuple("Lz77Pair", "position payload")):
    """One factor: ``position == 0`` marks a literal, payload is the bit;
    otherwise payload is the copy length from 1-based ``position``."""

    __slots__ = ()

    @property
    def is_literal(self) -> bool:
        return self.position == 0


Lz77Parse = namedtuple("Lz77Parse", "pairs total_length")
Lz77Parse.__doc__ = "Greedy factorization of a bit string: its ``Lz77Pair`` list and bit count."


class _SuffixAutomaton:
    """Suffix automaton of a bit string, built online (Blumer et al. 1985).

    ``table`` holds one row of four int32 entries per state ``s``:
    ``table[4*s + c]`` is the transition on bit ``c``, 0 when absent (no
    transition enters the root), ``t`` for a solid edge to state ``t`` and
    ``-t`` for a secondary one; ``table[4*s + 2]`` is the suffix link and
    ``table[4*s + 3]`` the end index (0-based, inclusive) of the first
    occurrence of the substrings of ``s``.  An edge ``s -> t`` is solid
    when the longest substring of ``t`` is that of ``s`` plus one bit, and
    the build needs no more of the state lengths than that.  ``extend``
    takes in more of the string; a substring of the bits already taken in
    keeps its first occurrence, so walks over the automaton of a prefix and
    of the extended string agree on that prefix.  Extending can clone a
    state, though, so a walk must restart from the root after an extension.

    A bit adds at most two states (itself and a clone), so the table is
    sized once per construction or ``extend`` and filled by index;
    ``states`` counts the rows in use and the rest is room.
    """

    __slots__ = ("table", "last", "states", "size")

    def __init__(self, bits: bytes | bytearray, n: int):
        self.table = array("i", [0]) * (4 * (2 * n + 2))  # the root, two states per bit
        self.table[2] = self.table[3] = -1  # the root has no link and no occurrence
        self.last, self.states, self.size = 0, 1, 0  # ``size`` counts the bits taken in
        self.extend(bits, n)

    def extend(self, bits: bytes | bytearray, n: int) -> None:
        """Take in bits ``size .. n`` of the string whose payload, packed
        MSB-first, is ``bits``, read in place; ``n`` is cut at the bits the
        payload holds."""
        n = min(n, 8 * len(bits))
        if n > _MAX_BITS:
            raise OverflowError(f"a suffix automaton holds at most {_MAX_BITS} bits")
        if n <= self.size:
            return
        table = self.table
        rows = len(table) // 4
        room = self.states + 2 * (n - self.size) + 1 - rows
        if room > 0:
            # Grow the table in place, a bounded fill piece at a time, so no
            # old table is held beside its new one; the slack ``extend`` adds
            # is never written, so it is not resident.  Growing by at least an
            # eighth keeps short extensions amortized.
            grow = 4 * max(room, rows >> 3)
            fill = array("i", [0]) * min(grow, _BLOCK)
            for done in range(0, grow, _BLOCK):
                table.extend(fill[:grow - done])
        kernel = _kernel()
        if kernel is not None:  # the loop below, in C
            state = (ctypes.c_int32 * 2)(self.last, self.states)
            kernel.sam_extend(_address(table), _address(bits), n, self.size, state)
            self.last, self.states = state
            self.size = n
            return
        last = self.last
        states = self.states
        for pos, c in enumerate(_unpack(bits, n, self.size), self.size):
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
                row = table[4 * q:4 * q + 4]  # a clone is shorter than q: all edges secondary
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
        self.last = last
        self.states = states
        self.size = n


def _factorize(bits: bytes | bytearray, n: int, automaton: _SuffixAutomaton,
               walk: _PrefixCosts, ends: array | None = None, costs: array | None = None) -> None:
    """Resume the greedy parse of the first ``n`` bits of the payload ``bits``
    at ``walk.open``, pricing as it goes; ``automaton`` has taken them all in.

    ``walk.open`` starts the open factor, the last one, which reached the
    end of the input and may grow with it, and ``walk.closed`` is the cost
    of the factors before it; the walk leaves both so for the ``n`` bits and
    sets ``walk.total`` to the code length of all ``n`` bits.  A factor from
    ``i`` truncated at ``m`` costs ``|C(p + 1)| + |C(m - i)|``, where ``p``
    is the 1-based source of the first occurrence of bits ``i .. m`` (the
    smallest source; it may start before ``i``), 0 for a literal, whose raw
    bit is as long as C(1).  C of an integer depends only on its bit length,
    which ``_CODE_LENGTHS`` prices.  Within a factor the greedy parse of a
    prefix is the parse of the whole string with its last factor shortened,
    so the walk has the code length of the first ``m`` bits at each position
    ``m`` it passes.  For each ``m`` above ``walk.seen`` it writes that cost
    to ``costs[m]`` where ``costs`` is given, and folds tau_k's evidence at
    scale ``m``, ``m - (1 + min(cost, m)) + log2(1 / (m (m + 1)))`` in that
    order in doubles, into ``walk.best`` at ``walk.scale``, the first maximum
    winning, but for a ``log2`` that cannot move it (``report`` in
    ``_lzkernel.c`` says why); then ``walk.seen`` is ``n``.  Where ``ends``
    is given (only :func:`parse` needs the sources), the walk writes the end
    of each factor's first occurrence, -1 for a literal, to ``ends[m]`` at
    the factor's last position ``m``.
    """
    kernel = _kernel()
    if kernel is not None:  # the walk below, in C
        kernel.sam_factorize(*map(_address, (automaton.table, bits)), n, _CODE_LENGTHS, walk,
                             _address(ends), _address(costs))
        return
    first = walk.open
    table, lengths, bits = automaton.table, _CODE_LENGTHS, _unpack(bits, n, first)
    seen, best, scale = walk.seen, walk.best, walk.scale
    bar = -1  # the log2 is skipped where m - min(cost, m) <= bar: see report in _lzkernel.c

    def score(m: int, cost: int) -> None:
        nonlocal best, scale, bar
        dm = float(m)
        e = dm - (1.0 + min(cost, m))
        e += math.log2(1.0 / (dm * (dm + 1.0)))
        if e > best:  # the first maximum wins
            best, scale = e, m
        bar = math.floor(best) + 2 * m.bit_length() - 1

    i = last = first
    closed = before = cost = walk.closed
    while i < n:
        st = 0  # from the root: extending may have cloned the states of an earlier walk
        end = -1
        j = i
        last, before = i, closed  # the factor from i is open until one starts after it
        while j < n:
            st = abs(table[4 * st + bits[j - first]])
            if st and table[4 * st + 3] < j:
                end = table[4 * st + 3]
            elif j > i:
                break
            j += 1  # with end -1 a literal: p + 1 = 1, and its raw bit is as long as C(1)
            cost = (closed + lengths[(end - (j - i) + 3).bit_length()]
                    + lengths[(j - i).bit_length()])
            if j > seen:
                if costs is not None:
                    costs[j] = cost
                if j - (cost if cost < j else j) > bar:
                    score(j, cost)
            if end < 0:  # a literal is one bit
                break
        if ends is not None:
            ends[j] = end
        closed = cost
        i = j
    walk.open, walk.closed, walk.total = last, before, closed
    walk.seen, walk.best, walk.scale = n, best, scale


def parse(x: BitString) -> Lz77Parse:
    """Greedy factorization of ``x``; empty input yields no pairs."""
    import numpy as np  # here: it finds the factor ends, and the CLI never parses

    ends = array("i", [_INNER]) * (len(x) + 1)
    _PrefixCosts().extend(x, ends=ends)
    bounds = [0, *np.flatnonzero(np.frombuffer(ends, dtype=np.int32) != _INNER).tolist()]
    pairs = [Lz77Pair(0, x[i]) if ends[m] < 0 else Lz77Pair(ends[m] - (m - i) + 2, m - i)
             for i, m in zip(bounds, bounds[1:])]
    return Lz77Parse(pairs=pairs, total_length=len(x))


def pairs_cost(pairs: list[Lz77Pair]) -> int:
    """Bit length of the serialized pair stream."""
    return sum(encoded_length(p + 1) + (encoded_length(payload) if p else 1)
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
    return BitString._wrap(_pack(out), len(out))


def code_length(x: BitString) -> int:
    """``len(encode(x))`` without materializing the codeword, nor anything per position."""
    costs = _PrefixCosts()
    costs.extend(x)
    return costs.total


class _PrefixCosts(ctypes.Structure):
    """One LZ pass: the code lengths of the prefixes of a bit string that
    grows at its end, and tau_k's best evidence over them.

    ``extend`` takes a prefix that extends the bits taken in so far (the
    caller's rule: :class:`rngcal.stats.PrefixScanTest` checks it),
    extends the pass's suffix automaton and resumes the greedy walk at the
    start of the open factor.  The factors before it are final, since each
    stopped at a bit already taken in and the first occurrence of a
    substring of those bits never changes.  The costs of a prefix's
    prefixes do not change as the string grows, so extending in chunks
    gives the costs of one pass over the whole string while each bit is
    analysed once.  The walk prices each prefix and folds its evidence as
    it passes it (see :func:`_factorize`): ``total`` is ``code_length`` of
    all bits taken in, and ``best`` is tau_k's best evidence over every
    prefix, at ``scale``.  No per-bit table is kept, and no bits.  The
    fields are ``walk_t`` of ``_lzkernel.c``.
    """

    _fields_ = [(name, ctypes.c_int64) for name in
                ("open", "closed", "total", "seen", "scale")] + [("best", ctypes.c_double)]

    def __init__(self):
        super().__init__(best=-math.inf)
        self._automaton = None  # built from the first bits, at their size

    def extend(self, x: BitString, costs: array | None = None, ends: array | None = None) -> None:
        """Take in the prefix ``x`` of the string, and price the prefixes
        longer than the bits taken in so far.

        Where the int64 array ``costs`` of at least ``len(x) + 1`` entries
        is given, the code length of the first ``m`` bits goes to
        ``costs[m]`` for each of those prefixes, and where the int32 array
        ``ends`` of as many is, the factors' source ends (see :func:`_factorize`).
        """
        k = 0 if self._automaton is None else self._automaton.size
        n = len(x)
        for table, code, name in ((costs, "q", "costs"), (ends, "i", "ends")):  # C writes [n]
            if table is not None and (getattr(table, "typecode", None) != code or len(table) <= n):
                raise ValueError(f"the walk writes {n + 1} {name} to an array({code!r})")
        if n == k:
            return
        bits = x._payload
        if k:
            self._automaton.extend(bits, n)
        else:
            self._automaton = _SuffixAutomaton(bits, n)
        _factorize(bits, n, self._automaton, self, ends, costs)


def prefix_code_lengths(x: BitString):
    """``code_length`` of every prefix in one pass.

    Returns an int64 numpy array ``out`` of size ``len(x) + 1`` with
    ``out[m] == code_length(x.prefix(m))``; see :class:`_PrefixCosts`.
    """
    import numpy as np  # here: only the bench and the tests ask for the table

    out = array("q", [0]) * (len(x) + 1)
    _PrefixCosts().extend(x, out)
    return np.frombuffer(out, dtype=np.int64)
