"""Shared test utilities, including independent brute-force references."""

from __future__ import annotations

import io
import math
import multiprocessing
import os
from array import array
from typing import Callable, Sequence, TypeVar
from unittest import mock

import numpy as np

from rngcal import lz, stats
from rngcal.bits import BitString
from rngcal.codes import encoded_length


T = TypeVar("T")
R = TypeVar("R")


def max_workers() -> int:
    """Worker count for :func:`parallel_map`: ``RNGCAL_THREADS`` if set
    (1 forces serial execution), else the CPU count."""
    env = os.environ.get("RNGCAL_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"RNGCAL_THREADS must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError(f"RNGCAL_THREADS must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T],
                 workers: int | None = None) -> list[R]:
    """``[fn(it) for it in items]``, fanned out over a process pool.

    Results keep input order, and every trial is seeded, so values do not
    depend on the worker count.  Falls back to a plain loop when one worker
    is requested or there is nothing to gain.
    """
    items = list(items)
    if workers is None:
        workers = max_workers()
    workers = min(workers, len(items)) or 1
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    ctx = multiprocessing.get_context("fork" if "fork" in
                                      multiprocessing.get_all_start_methods() else None)
    chunk = max(1, len(items) // (workers * 8))
    with ctx.Pool(workers) as pool:
        return pool.map(fn, items, chunksize=chunk)


class Pipe(io.BytesIO):
    """A binary stream that cannot seek, as a pipe on standard input."""

    def seekable(self) -> bool:
        return False


def random_bits(n: int, seed: int, p: float = 0.5) -> BitString:
    """Seeded random bits for tests that do not go through rngcal.sources."""
    return packed_bits(np.random.default_rng(seed).random(n) < p)


def packed_bits(a: np.ndarray) -> BitString:
    """The bits of the 0/1 array ``a``, packed by numpy: ``BitString(a)``
    checks each element in Python, which takes seconds at 2^20 bits."""
    return BitString._wrap(np.packbits(a).tobytes(), len(a))


def brute_lz77_pairs(x: BitString) -> list[tuple[int, int]]:
    """Greedy LZ77 factorization by quadratic scan; the reference oracle.

    Maximal match, overlap allowed, smallest 1-based source position among
    maximal matches; (0, bit) for literals.
    """
    bits = x.array.tolist()
    n = len(bits)
    pairs = []
    i = 0
    while i < n:
        best_len = 0
        best_src = -1
        for s in range(i):
            ell = 0
            while i + ell < n and bits[s + ell] == bits[i + ell]:
                ell += 1
            if ell > best_len:  # strict: keeps the smallest source on ties
                best_len = ell
                best_src = s
        if best_len == 0:
            pairs.append((0, bits[i]))
            i += 1
        else:
            pairs.append((best_src + 1, best_len))
            i += best_len
    return pairs


def python_loops():
    """Context manager under which ``lz`` runs its Python loops, not the C kernel."""
    return mock.patch.object(lz, "_kernel", lambda: None)


def mapped_tables(cut_off: int):
    """Context manager under which ``lz`` holds every table of at least
    ``cut_off`` bytes in a huge-page mapping, not only those of
    ``lz._MAP_BYTES``: short inputs then take the mapping's paths."""
    return mock.patch.object(lz, "_MAP_BYTES", cut_off)


def spy_on_tables(monkeypatch) -> list[tuple[str, str]]:
    """The tables ``lz._allocate`` makes or grows from now on, each as what
    it was and what it became: ``none``, ``array``, ``mapping`` (a new one)
    or ``same mapping`` (one grown in place)."""
    allocate, seen = lz._allocate, []

    def spy(entries, table=None):
        mapping = table.obj if isinstance(table, memoryview) else None
        was = "none" if table is None else "mapping" if mapping is not None else "array"
        table = allocate(entries, table)
        seen.append((was, "array" if isinstance(table, array) else
                     "same mapping" if table.obj is mapping else "mapping"))
        return table

    monkeypatch.setattr(lz, "_allocate", spy)
    return seen


def reference_automaton(bits) -> tuple[list[int], list[int], list[int], list[int], list[int], int]:
    """The suffix automaton of ``bits`` by the classic length-based build
    (Blumer et al. 1985), one state per list entry; the reference for the
    signed table of ``lz._PrefixCosts`` on both backends.

    Returns the five columns ``next0``, ``next1`` (-1 where there is no
    transition), ``link``, ``length`` (of each state's longest substring)
    and ``first``, then ``last``.  An edge ``s -> t`` is solid when
    ``length[t] == length[s] + 1``.
    """
    columns = next0, next1, link, length, first = [-1], [-1], [-1], [0], [-1]
    last = 0
    for pos, c in enumerate(memoryview(bits)):
        cur = len(link)
        for column, value in zip(columns, (-1, -1, -1, pos + 1, pos)):
            column.append(value)
        nx = next1 if c else next0
        p = last
        while p != -1 and nx[p] == -1:
            nx[p] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        elif length[p] + 1 == length[nx[p]]:
            link[cur] = nx[p]
        else:
            q = nx[p]
            clone = len(link)
            for column, value in zip(columns, (next0[q], next1[q], link[q], length[p] + 1,
                                               first[q])):
                column.append(value)
            while p != -1 and nx[p] == q:
                nx[p] = clone
                p = link[p]
            link[q] = link[cur] = clone
        last = cur
    return (*columns, last)


def reference_factorize(bits, automaton: tuple) -> tuple[list[int], list[int]]:
    """The greedy walk over ``automaton``, the ``reference_automaton`` of all
    of ``bits``, with the end of a source at every position, not only at each
    factor's last; the second pass of :func:`reference_pass`.

    Returns the factor bounds (the starts, then ``len(bits)``) and ``ends``:
    for ``0 < m <= len(bits)``, ``ends[m]`` is the end index of the first
    occurrence of ``bits[i:m]``, where ``i`` starts the factor that holds bit
    ``m - 1``: the factor truncated at ``m``.  It is -1 where that factor is
    a literal.  A factor grows while its bits occur ending before its last.
    """
    bits = memoryview(bits)
    n = len(bits)
    next0, next1, _, _, first, _ = automaton
    ends = [-1] * (n + 1)
    starts = []
    i = 0
    while i < n:
        starts.append(i)
        st = 0
        j = i
        while j < n:
            st = (next1 if bits[j] else next0)[st]
            if st == -1 or first[st] >= j:
                break
            j += 1
            ends[j] = first[st]
        i = j if j > i else i + 1
    starts.append(n)
    return starts, ends


def reference_pass(x: BitString) -> dict:
    """What one ``lz._PrefixCosts.extend`` of all of ``x`` leaves, by two
    passes in Python: ``reference_automaton`` builds the automaton of all the
    bits, then ``reference_factorize`` walks it, and ``encoded_length``
    prices each truncated factor.  The reference for the online loop on both
    backends: the code length of the first ``m`` bits at ``costs[m]``, the
    factors as ``(p, l)`` pairs (``(0, bit)`` for a literal), the open
    factor's start, the cost before it, the total, and tau_k's best evidence
    and its scale, computed with ``math.log2``."""
    bits = x.array.tobytes()
    n = len(bits)
    bounds, ends = reference_factorize(bits, reference_automaton(bits))
    costs, pairs = [0] * (n + 1), []
    best, scale = -math.inf, 0
    closed = cost = start = before = 0
    for i, stop in zip(bounds, bounds[1:]):
        start, before = i, closed
        for m in range(i + 1, stop + 1):
            cost = costs[m] = closed + encoded_length(ends[m] - (m - i) + 3) + encoded_length(m - i)
            evidence = m - (1.0 + min(cost, m)) + math.log2(1.0 / (m * (m + 1.0)))
            if evidence > best:
                best, scale = evidence, m
        pairs.append((0, bits[i]) if ends[stop] < 0 else (ends[stop] - (stop - i) + 2, stop - i))
        closed = cost
    return {"costs": costs, "pairs": pairs, "open": start, "closed": before, "total": closed,
            "best": best, "scale": scale}


def reference_prefix_costs(x: BitString) -> np.ndarray:
    """``lz.prefix_code_lengths(x)`` by a per-bit greedy walk that prices
    each truncated factor as it goes; the reference for the walk's prices.

    Every bit the walk takes is priced at once: the cost of the closed
    factors plus the open one truncated at that bit, from the source of
    its first occurrence.  The automaton is ``reference_automaton``'s, so
    the reference does not rest on ``lz``.
    """
    bits = x.array.tobytes()
    n = len(bits)
    next0, next1, _, _, first, _ = reference_automaton(bits)
    out = [0] * (n + 1)
    cum = 0
    i = 0
    while i < n:
        st = 0
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
            out[i + ell] = cum + encoded_length(s + 2) + encoded_length(ell)
        if ell == 0:
            cum += encoded_length(1) + 1
            out[i + 1] = cum
            i += 1
        else:
            cum = out[i + ell]
            i += ell
    return np.array(out, dtype=np.int64)


def reference_compression_test(x: BitString, alpha: float) -> stats.TestReport:
    """``stats.compression_test(x, alpha)`` priced by the scalar
    ``lz.code_length``, one build and one walk of the whole sample; the
    reference for the engine's incremental pricing."""
    return stats._compression_report(len(x), lz.code_length(x), stats._check_alpha(alpha))


def reference_running_tau_k(x: BitString) -> list[tuple[float, int]]:
    """tau_k's best evidence over the first ``m`` bits of ``x`` and its
    scale, at index ``m`` for each prefix, from scratch: at each scale ``m``
    the lz77 cost of ``reference_prefix_costs``, capped by the literal length
    ``m``, gives the evidence ``m - (1 + cost) + log2(1 / (m (m + 1)))`` in
    doubles with ``math.log2``, and the first maximum wins; ``(-inf, 0)`` for
    no bits.  The reference for the fold of the LZ walk."""
    running = [(-math.inf, 0)]
    for m, cost in enumerate(reference_prefix_costs(x).tolist()[1:], start=1):
        evidence = m - (1.0 + min(cost, m)) + math.log2(1.0 / (m * (m + 1.0)))
        running.append(max(running[-1], (evidence, m), key=lambda best: best[0]))
    return running


def reference_tau_k(x: BitString) -> tuple[float, int]:
    """tau_k's best evidence over the prefixes of ``x`` and its scale."""
    return reference_running_tau_k(x)[-1]


def reference_tau_k_test(x: BitString, alpha: float) -> stats.TestReport:
    """``stats.tau_k_test(x, alpha)`` from :func:`reference_tau_k`; the
    reference for the engine's fold and running maximum."""
    return stats._tau_k_report(reference_tau_k(x), stats._check_alpha(alpha))


def reference_scan(x: BitString, test: Callable[[BitString, float], stats.TestReport],
                   alpha: float, start_bits: int) -> stats.ScanResult:
    """``stats.consistency_scan`` by its grid loop with ``test`` applied to
    each prefix afresh, as ``reference_compression_test`` or
    ``reference_tau_k_test``; the reference for the engine fed forward.
    The j-th step runs at ``alpha * omega_star(j)``, and the scan's p-value
    is ``battery_p_value`` of the steps', but for tau_k, whose statistic is
    a maximum over every prefix: its steps run at ``alpha``, and the scan's
    p-value is the last step's."""
    spend = test is not reference_tau_k_test
    steps, m = [], start_bits
    while m <= len(x):
        level = alpha * stats.omega_star(len(steps) + 1) if spend else alpha
        report = test(x.prefix(m), level)
        steps.append(stats.ScanStep(bits=m, report=report))
        p = stats.battery_p_value([s.report.p_value for s in steps]) if spend else report.p_value
        if p <= alpha:
            return stats.ScanResult(first_rejection_bits=m, p_value=p, steps=steps)
        m *= 2
    return stats.ScanResult(first_rejection_bits=None, p_value=p, steps=steps)


def all_bitstrings(n: int):
    for value in range(1 << n):
        yield BitString.from_int(value, n)


def numpy_uniforms(seed: int, n: int) -> np.ndarray:
    """The first ``n`` uniforms of numpy's ``Generator(Philox(key=seed))``:
    the reference of the sources' draw."""
    return np.random.Generator(np.random.Philox(key=seed)).random(n)


def reference_markov_bits(source, n: int) -> np.ndarray:
    """``MarkovSource.bits(n)`` by a per-bit chain walk over numpy's
    uniforms: bit i is 1 when the i-th uniform is below P(next=1 | bit
    i-1), the first bit when it is below 1/2."""
    u = numpy_uniforms(source.seed, n).tolist()
    t = (source.rows[0][1], source.rows[1][1])
    out = np.empty(n, dtype=np.uint8)
    state = 1 if u[0] < 0.5 else 0
    out[0] = state
    for i in range(1, n):
        state = 1 if u[i] < t[state] else 0
        out[i] = state
    return out
