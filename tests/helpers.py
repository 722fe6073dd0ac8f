"""Shared test utilities, including independent brute-force references."""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Sequence, TypeVar

import numpy as np

from rngcal import lz
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


def random_bits(n: int, seed: int, p: float = 0.5) -> BitString:
    """Seeded random bits for tests that do not go through rngcal.sources."""
    rng = np.random.default_rng(seed)
    return BitString((rng.random(n) < p).astype(np.uint8))


def brute_lz77_pairs(x: BitString) -> list[tuple[int, int]]:
    """Greedy LZ77 factorization by quadratic scan; the reference oracle.

    Maximal match, overlap allowed, smallest 1-based source position among
    maximal matches; (0, bit) for literals.
    """
    bits = x.tolist()
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


def reference_prefix_costs(x: BitString) -> np.ndarray:
    """``lz.prefix_code_lengths(x)`` by a per-bit greedy walk that prices
    each truncated factor as it goes; the reference for the numpy table.

    Every bit the walk takes is priced at once: the cost of the closed
    factors plus the open one truncated at that bit, from the source of
    its first occurrence.
    """
    bits = x.array.tobytes()
    n = len(bits)
    automaton = lz._SuffixAutomaton(bits)
    next0, next1, first = automaton.next0, automaton.next1, automaton.first
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


def all_bitstrings(n: int):
    for value in range(1 << n):
        yield BitString.from_int(value, n)
