"""Bit-sequence generators: null references, biased and non-stationary
alternatives, and the block-duplication construction.

Every source is deterministic in (kind, parameters, seed) and prefix
consistent: ``bits(n)`` is a prefix of ``bits(m)`` for n <= m.  Randomness
comes from numpy's Philox counter-based generator keyed by the seed, whose
streams are stable across platforms; distinct seeds give independent
streams.

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
from typing import Sequence

import numpy as np

from .bits import BitString

_SPEC_KINDS = ("bernoulli", "markov", "drift", "regime", "dup")
_PIECE = 2 ** 16  # uniforms drawn at a time: 512 KiB of float64


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


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
    """Deterministic bit-stream generator; subclasses define ``_bits``."""

    def __init__(self, seed: int = 0):
        self.seed = _check_integer("seed", seed)
        if not 0 <= self.seed < 2 ** 64:  # one 64-bit Philox key per seed
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")

    def bits(self, n: int) -> BitString:
        """First ``n`` bits of the stream.

        The seed's Philox uniforms are drawn ``_PIECE`` at a time, one per
        bit; consecutive ``random`` calls continue one stream, so the bits do
        not depend on the piece size.  Each piece is packed into the payload
        as it is drawn.
        """
        if n < 0:
            raise ValueError(f"bit count must be >= 0, got {n}")
        rng = _rng(self.seed)
        out = bytearray((n + 7) // 8)  # filled in place and handed over
        prev = None
        for lo in range(0, n, _PIECE):
            hi = min(lo + _PIECE, n)
            bits = self._bits(rng.random(hi - lo), lo, prev)
            out[lo // 8:(hi + 7) // 8] = np.packbits(bits).tobytes()
            prev = int(bits[-1])
        return BitString._wrap(out, n)

    def _bits(self, u: np.ndarray, lo: int, prev) -> np.ndarray:
        """Bits ``lo .. lo + len(u)`` from their uniforms ``u``; ``prev`` is
        bit ``lo - 1``, None for the first piece."""
        raise NotImplementedError


class BernoulliSource(Source):
    """Independent bits, each 1 with probability ``p``."""

    def __init__(self, p: float, seed: int = 0):
        super().__init__(seed)
        self.p = _check_probability("p", p)

    def _bits(self, u, lo, prev):
        return u < self.p


class MarkovSource(Source):
    """First-order binary Markov chain from a 2x2 transition matrix.

    ``rows[s]`` is the distribution of the next bit given the current bit
    ``s``; rows must sum to 1 within 1e-12.  The initial bit is equiprobable.
    """

    def __init__(self, rows: Sequence[Sequence[float]], seed: int = 0):
        super().__init__(seed)
        m = np.asarray(rows, dtype=np.float64)
        if m.shape != (2, 2):
            raise ValueError(f"transition matrix must be 2x2, got shape {m.shape}")
        if not np.all((m >= 0.0) & (m <= 1.0)):  # NaN fails this too
            raise ValueError("transition probabilities must be in [0, 1]")
        sums = m.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError(f"transition matrix rows must sum to 1, got {sums}")
        self.rows = m

    def _bits(self, u, lo, prev):
        # Bit i is 1 when u[i] < P(next=1 | bit i-1), the piece's first bit when
        # it is below the threshold of ``prev`` (1/2 for the stream's first): 1
        # below both thresholds, 0 above both, and between them a copy of the
        # previous bit if P11 > P01, its flip otherwise.
        m = len(u)
        p01, p11 = self.rows[0, 1], self.rows[1, 1]
        low, high = sorted((p01, p11))
        fixed = (u < low) | (u >= high)
        value = (u < low).view(np.uint8)
        fixed[0], value[0] = True, u[0] < (0.5 if prev is None else self.rows[prev, 1])
        last = np.where(fixed, np.arange(m), 0)
        np.maximum.accumulate(last, out=last)
        out = value[last]
        if p11 < p01:
            last -= np.arange(m)
            out ^= (last & 1).astype(np.uint8)
        return out


class DriftingBiasSource(Source):
    """Ones-probability ramps linearly: ``p_i = clip(p0 + rate * i, 0, 1)``."""

    def __init__(self, p0: float, rate: float, seed: int = 0):
        super().__init__(seed)
        self.p0 = _check_probability("p0", p0)
        self.rate = float(rate)
        if not np.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")

    def _bits(self, u, lo, prev):
        i = np.arange(lo, lo + len(u), dtype=np.float64)
        with np.errstate(over="ignore"):  # clip maps the infinities to 0 or 1
            return u < np.clip(self.p0 + self.rate * i, 0.0, 1.0)


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
        self._ends = list(itertools.accumulate(lengths))  # Python ints: may pass int64
        self._ps = np.array(ps)

    def _bits(self, u, lo, prev):
        # one run of the period from bit lo's position on, wrapping to 0, at
        # most a piece long; resize cycles it over the piece
        period = self._ends[-1]
        start = lo % period
        stop = start + min(period, len(u))
        wrap = max(0, stop - period)
        return u < np.resize(np.concatenate((self._bias(start, stop - wrap),
                                             self._bias(0, wrap))), len(u))

    def _bias(self, a: int, b: int) -> np.ndarray:
        """Bias of positions ``a .. b`` of the period, ``0 <= a <= b <= period``."""
        cut = np.diff([min(max(end, a), b) for end in self._ends], prepend=a)  # clipped: int64
        return np.repeat(self._ps, cut)


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


def _parse_seed(field: str, spec: str) -> int:
    if not field.startswith("seed="):
        raise ValueError(f"malformed source spec {spec!r}: last field must be seed=<int>")
    try:
        return int(field[5:], 0)
    except ValueError:
        raise ValueError(f"malformed seed in source spec {spec!r}") from None


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
        seed = _parse_seed(fields[-1], spec)
        fields = fields[:-1]
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
