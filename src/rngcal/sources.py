"""Bit-sequence generators: null references, biased and non-stationary
alternatives, and the block-duplication construction.

Every source is deterministic in (kind, parameters, seed) and prefix
consistent: ``bits(n)`` is a prefix of ``bits(m)`` for n <= m.  Randomness
comes from the Philox4x64-10 counter-based generator keyed by the seed
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
whose uniforms are those of numpy's ``Generator(Philox(key=seed))``; its
streams are exactly specified, so they are stable across platforms, and
distinct seeds give independent streams.

The duplication construction splits a base sequence x into blocks

    u_k = x[a_k : a_k + L_k],  a_k = 2**(2**k) - 2 (0-based),
    L_k = 2**(2**(k+1)) - 2**(2**k)    (lengths 2, 12, 240, 65280, ...),

and emits ``u_0 u_0 u_1 u_1 u_2 u_2 ...``.  Fed with an effectively
incompressible base (here: a seeded Philox stream standing in for one), the
output repeats ever longer blocks, which no stationary model predicts but a
long-window compressor detects.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import Sequence

from . import lz
from .bits import BitString

_SPEC_KINDS = ("bernoulli", "markov", "drift", "regime", "dup")
_SEGMENTS, _MARKOV, _DRIFT = 0, 1, 2  # a source rule's kind, as draw in _lzkernel.c reads it
_MASK = (1 << 64) - 1


def _uniforms(seed: int):
    """The seed's uniforms, without end, as ``draw`` in ``_lzkernel.c`` makes them."""
    for counter in itertools.count(1):  # its higher words stay 0 for 2**66 uniforms
        c0, c1, c2, c3, k0, k1 = counter, 0, 0, 0, seed, 0
        for _ in range(10):
            p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _MASK, (k1 + 0xBB67AE8584CAA73B) & _MASK
        for v in (c0, c1, c2, c3):
            yield (v >> 11) * 2.0 ** -53


def _draw(seed: int, n: int, kind: int, par: array, ends: array, out: bytearray) -> None:
    """``draw`` of ``_lzkernel.c`` in Python: ``n`` bits into the zeroed ``out``."""
    seg = at = bit = 0  # i's segment and its position in the period, and bit i - 1
    for i, u in zip(range(n), _uniforms(seed)):
        if kind == _MARKOV:
            p = par[bit] if i else 0.5
        elif kind == _DRIFT:
            p = par[0] + par[1] * i  # u < p reads p clipped to [0, 1]
        else:
            if at == ends[seg]:
                seg += 1
                if seg == len(ends):
                    seg = at = 0
            p = par[seg]
            at += 1
        bit = u < p
        out[i >> 3] |= bit << (7 - (i & 7))


def _check_probability(name: str, p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")
    return p


def _check_integer(name: str, v) -> int:
    """``v`` as an int, refusing a fractional or non-finite value (2.5, inf, NaN)."""
    try:
        i = int(v)
    except (OverflowError, ValueError):
        raise ValueError(f"{name} must be an integer, got {v}") from None
    if i != v:
        raise ValueError(f"{name} must be an integer, got {v}")
    return i


class Source:
    """Deterministic bit-stream generator.  Bit ``i`` is ``u_i < p_i`` for the
    seed's ``i``-th uniform, where a subclass sets ``_rule = (kind, par,
    ends)``: ``p_i`` is ``par[bit i - 1]`` for ``_MARKOV`` (1/2 for bit 0),
    ``par[0] + par[1] * i`` for ``_DRIFT``, and for ``_SEGMENTS``
    ``par[s]`` for the segment ``s`` of ``i`` modulo the period, which ends at ``ends[s]``."""

    def __init__(self, seed: int = 0):
        self.seed = _check_integer("seed", seed)
        if not 0 <= self.seed < 2 ** 64:  # one 64-bit Philox key per seed
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")

    def bits(self, n: int) -> BitString:
        """First ``n`` bits of the stream, drawn into one payload by ``draw``
        in ``_lzkernel.c`` where lz's kernel loads, else by :func:`_draw`."""
        if n < 0:
            raise ValueError(f"bit count must be >= 0, got {n}")
        out = bytearray((n + 7) // 8)
        kind, par, ends = self._rule
        # an end past n, past int64 too, draws as n: bit n - 1 lies in the same segment
        par, ends = array("d", par), array("q", [min(end, n) for end in ends])
        kernel = lz._kernel()
        if kernel is None or not n:  # ctypes takes no address of an empty bytearray
            _draw(self.seed, n, kind, par, ends, out)
        else:
            kernel.draw(self.seed, n, kind, lz._address(par), lz._address(ends), len(ends),
                        lz._address(out))
        return BitString._wrap(out, n)


class BernoulliSource(Source):
    """Independent bits, each 1 with probability ``p``."""

    def __init__(self, p: float, seed: int = 0):
        super().__init__(seed)
        self.p = _check_probability("p", p)
        self._rule = (_SEGMENTS, (self.p,), (1,))


class MarkovSource(Source):
    """First-order binary Markov chain from a 2x2 transition matrix.

    ``rows[s]`` is the distribution of the next bit given the current bit
    ``s``; rows must sum to 1 within 1e-12.  The initial bit is equiprobable.
    """

    def __init__(self, rows: Sequence[Sequence[float]], seed: int = 0):
        super().__init__(seed)
        m = tuple(tuple(float(v) for v in row) for row in rows)
        shape = (len(m), *sorted({len(row) for row in m}))
        if shape != (2, 2):
            raise ValueError(f"transition matrix must be 2x2, got shape {shape}")
        if not all(0.0 <= v <= 1.0 for row in m for v in row):  # NaN fails this too
            raise ValueError("transition probabilities must be in [0, 1]")
        sums = [a + b for a, b in m]
        if any(abs(s - 1.0) > 1e-12 for s in sums):
            raise ValueError(f"transition matrix rows must sum to 1, got {sums}")
        self.rows = m
        self._rule = (_MARKOV, (m[0][1], m[1][1]), (1,))  # P(next=1 | bit)


class DriftingBiasSource(Source):
    """Ones-probability ramps linearly: ``p_i = clip(p0 + rate * i, 0, 1)``."""

    def __init__(self, p0: float, rate: float, seed: int = 0):
        super().__init__(seed)
        self.p0 = _check_probability("p0", p0)
        self.rate = float(rate)
        if not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")
        self._rule = (_DRIFT, (self.p0, self.rate), (1,))


class RegimeSwitchSource(Source):
    """Piecewise-constant bias: ``segments`` of (length, p) applied cyclically."""

    def __init__(self, segments: Sequence[tuple[int, float]], seed: int = 0):
        super().__init__(seed)
        if not segments:
            raise ValueError("at least one (length, p) segment is required")
        cleaned = []
        for length, p in segments:
            length = _check_integer("segment length", length)
            if length < 1:
                raise ValueError(f"segment lengths must be >= 1, got {length}")
            cleaned.append((length, _check_probability("segment p", p)))
        self.segments = tuple(cleaned)
        lengths, ps = zip(*self.segments)
        self._rule = (_SEGMENTS, ps, tuple(itertools.accumulate(lengths)))


# ---------------------------------------------------------------------------
# the duplication construction


def block_span(k: int) -> tuple[int, int]:
    """Half-open 0-based span of block ``u_k`` within the base sequence."""
    if k < 0:
        raise ValueError(f"block index must be >= 0, got {k}")
    start = 2 ** (2 ** k) - 2
    end = 2 ** (2 ** (k + 1)) - 2
    return start, end


def _copies(n: int):
    """``(base start, length)`` of each block copy in the first ``n`` output
    bits, in output order: ``u_0 u_0 u_1 u_1 ...``, the last one cut at ``n``."""
    emitted, k = 0, 0
    while emitted < n:
        start, end = block_span(k)
        for _ in range(2):
            m = min(end - start, n - emitted)
            yield start, m
            emitted += m
        k += 1


def required_base_length(n: int) -> int:
    """Minimal base length defining the first ``n`` duplicated-output bits."""
    if n < 0:
        raise ValueError(f"bit count must be >= 0, got {n}")
    return max((start + m for start, m in _copies(n)), default=0)


def duplication_construction(base: BitString, n: int) -> BitString:
    """First ``n`` bits of ``u_0 u_0 u_1 u_1 u_2 u_2 ...`` over ``base``,
    which must hold at least ``required_base_length(n)`` bits."""
    need = required_base_length(n)
    if len(base) < need:
        raise ValueError(f"base sequence has {len(base)} bits; {need} are required "
                         f"for {n} output bits")
    out = 0  # the copies, each read from the base as an integer
    for start, m in _copies(n):
        out = out << m | base[start:start + m].to_int()
    return BitString.from_int(out, n)


class DuplicationSource(Source):
    """Duplication construction over a seeded uniform base stream.

    A genuinely incompressible base cannot be generated; a cryptographic-
    strength counter-based stream is the practical surrogate, so statements
    about the construction hold relative to that surrogate.
    """

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._base = BernoulliSource(0.5, seed=seed)

    def bits(self, n: int) -> BitString:
        return duplication_construction(self._base.bits(required_base_length(n)), n)


# ---------------------------------------------------------------------------
# spec strings


def apply_seed(spec: str, seed: int | None) -> str:
    """``spec`` with ``seed`` in place of its own; ``spec`` must parse as given."""
    parse_source_spec(spec)
    return spec if seed is None else f"{spec.strip().split(':seed=')[0]}:seed={seed}"


def parse_source_spec(spec: str) -> Source:
    """Build a source from its compact string form.

    Grammar (seed defaults to 0 when the field is omitted):

    - ``bernoulli:P[:seed=S]``
    - ``markov:P00,P01,P10,P11[:seed=S]`` (row-major transition matrix)
    - ``drift:P0,RATE[:seed=S]`` (per-bit linear ramp, clipped to [0, 1])
    - ``regime:L1,P1[,L2,P2,...][:seed=S]`` (cycled segments)
    - ``dup[:seed=S]``
    """
    fields = spec.strip().split(":")
    kind = fields[0]
    if kind not in _SPEC_KINDS:
        raise ValueError(f"unknown source kind {kind!r}; valid kinds: "
                         + ", ".join(_SPEC_KINDS))
    seed = 0
    if len(fields) > 1 and fields[-1].startswith("seed="):
        try:
            seed = int(fields.pop()[5:], 0)
        except ValueError:
            raise ValueError(f"malformed seed in source spec {spec!r}") from None
    params = fields[1] if len(fields) > 1 else ""
    if len(fields) > 2:
        raise ValueError(f"malformed source spec {spec!r}")

    def floats(expected: int | None = None) -> list[float]:
        if not params:
            raise ValueError(f"source kind {kind!r} needs parameters in {spec!r}")
        try:
            vals = [float(v) for v in params.split(",")]
        except ValueError:
            raise ValueError(f"malformed parameters in source spec {spec!r}") from None
        if expected is not None and len(vals) != expected:
            raise ValueError(f"source kind {kind!r} takes {expected} parameters, "
                             f"got {len(vals)} in {spec!r}")
        return vals

    if kind == "bernoulli":
        return BernoulliSource(floats(1)[0], seed=seed)
    if kind == "markov":
        v = floats(4)
        return MarkovSource([[v[0], v[1]], [v[2], v[3]]], seed=seed)
    if kind == "drift":
        v = floats(2)
        return DriftingBiasSource(v[0], v[1], seed=seed)
    if kind == "regime":
        v = floats()
        if len(v) < 2 or len(v) % 2:
            raise ValueError(f"regime takes pairs L,P in {spec!r}")
        return RegimeSwitchSource(list(zip(v[::2], v[1::2])), seed=seed)
    if len(fields) > 1:  # an empty field too: "dup:" and "dup::seed=3"
        raise ValueError(f"source kind 'dup' takes no parameters in {spec!r}")
    return DuplicationSource(seed=seed)


def generate(spec: str, n: int) -> BitString:
    """First ``n`` bits of the source that ``spec`` names."""
    return parse_source_spec(spec).bits(n)
