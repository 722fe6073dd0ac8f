from __future__ import annotations

import contextlib
import ctypes
import errno
import functools
import inspect
import itertools
import math
import mmap
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import zlib
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rngcal import lz, sources, stats
from rngcal.bits import BitString
from rngcal.codes import BitWriter, Codeword, encoded_length, write_integer
from rngcal.errors import DecodeError
from rngcal.sources import BernoulliSource, DuplicationSource, MarkovSource

from helpers import (all_bitstrings, bit_array, brute_lz77_pairs, mapped_tables, python_loops,
                     random_bits, reference_automaton, reference_compression_test, reference_pass,
                     reference_prefix_costs, reference_running_tau_k, spy_on_tables)

# Frozen regression constants for seed 7 of the packaged generators.
RANDOM_1E5_CODE_BITS = 187503
RANDOM_1E6_CODE_BITS = 1799906   # ratio 1.7999: random data expands at this n
DUP_BOUNDARY_CODE_BITS = {28: 72, 508: 642, 131068: 124186}
BASE_2_17_CODE_BITS = 244991
DUPLICATION_SLACK_BITS = 32      # measured worst 25 over 40 seeds
EXPANSION_BETA = 1.5             # measured worst 1.196


def test_single_literal():
    assert lz.parse(BitString.from01("0")).pairs == [lz.Lz77Pair(0, 0)]


def test_overlapping_run():
    assert lz.parse(BitString.from01("0000")).pairs == [
        lz.Lz77Pair(0, 0), lz.Lz77Pair(1, 3)]


def test_pairs_and_parses_are_records():
    assert lz.Lz77Pair(0, 1) == (0, 1) and lz.Lz77Pair(0, 1).is_literal
    assert lz.Lz77Pair(position=1, payload=3) == (1, 3) and not lz.Lz77Pair(1, 3).is_literal
    parsed = lz.parse(BitString.from01("0000"))
    assert parsed == lz.Lz77Parse(pairs=[(0, 0), (1, 3)], total_length=4)
    for record, name in ((parsed.pairs[0], "position"), (parsed, "total_length")):
        with pytest.raises(AttributeError):
            setattr(record, name, 2)


def test_empty_input():
    assert lz.parse(BitString()).pairs == []
    assert lz.code_length(BitString()) == 0
    assert lz.decode(lz.encode(BitString())) == BitString()


def _unreachable(*args, **kwargs):
    raise AssertionError("a Python loop ran where the C kernel loads")


def _no_bits() -> list:
    """What the current backend makes of no bits: a draw of each source
    kind, then the encode, parse and code length of no bits and decodes of
    a bare and an exact empty stream."""
    specs = ("bernoulli:0.3:seed=1", "markov:0.9,0.1,0.2,0.8:seed=2", "drift:0.2,0.01:seed=3",
             "regime:5,0.2,3,0.9:seed=4", "dup:seed=5")
    empty = BitString()
    return [*(sources.parse_source_spec(spec).bits(0) for spec in specs), lz.encode(empty),
            lz.parse(empty), lz.code_length(empty), lz.decode(empty),
            lz.decode(Codeword(empty, 0))]


def test_the_backend_depends_only_on_whether_the_kernel_loads(monkeypatch):
    # no bits run the C loops, as every other input does, to the Python loops' results
    refused = Codeword(BitString(), 5)
    with python_loops():
        want, want_error = _no_bits(), _decoded(refused)
    if lz._kernel() is None:
        pytest.skip("the C kernel does not build here")
    with monkeypatch.context() as patched:
        for module, name in ((sources, "_draw"), (lz, "BitReader"), (lz, "BitWriter")):
            patched.setattr(module, name, _unreachable)
        got = _no_bits()
    assert got == want
    digests = [[x.digest() for x in (*results[:5], results[5].bits, *results[-2:])]
               for results in (got, want)]
    assert digests[0] == digests[1]
    # a stream that lz_unpack refuses goes to the Python loop, which says why
    assert _decoded(refused) == want_error == (
        "decoded 0 bits, the codeword holds 5 (at bit offset 0)", 0)


def test_parse_matches_brute_force_exhaustive():
    for n in range(0, 13):
        for x in all_bitstrings(n):
            assert [tuple(p) for p in lz.parse(x).pairs] == brute_lz77_pairs(x)


def test_parse_matches_brute_force_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(0, 120))
        x = BitString(rng.integers(0, 2, n).astype(np.uint8))
        assert [tuple(p) for p in lz.parse(x).pairs] == brute_lz77_pairs(x)


def test_parse_covers_input():
    x = random_bits(500, seed=3)
    parsed = lz.parse(x)
    assert parsed.total_length == len(x)
    assert sum(1 if p.is_literal else p.payload for p in parsed.pairs) == len(x)


def test_copy_positions_point_into_prefix():
    x = random_bits(400, seed=4)
    produced = 0
    for pair in lz.parse(x).pairs:
        if pair.is_literal:
            produced += 1
        else:
            assert 1 <= pair.position <= produced
            produced += pair.payload


def test_doubling_adds_at_most_one_pair():
    def doubled(u):
        return BitString(np.concatenate([bit_array(u), bit_array(u)]))

    rng = np.random.default_rng(5)
    for n in range(1, 13):
        for u in all_bitstrings(n):
            assert len(lz.parse(doubled(u)).pairs) <= len(lz.parse(u).pairs) + 1
    for _ in range(100):
        n = int(rng.integers(1, 65))
        u = BitString(rng.integers(0, 2, n).astype(np.uint8))
        assert len(lz.parse(doubled(u)).pairs) <= len(lz.parse(u).pairs) + 1


def test_single_literal_codeword_length():
    assert len(lz.encode(BitString.from01("0"))) == encoded_length(1) + 1


def test_round_trip_trivial():
    for s in ("", "0110"):
        x = BitString.from01(s)
        assert lz.decode(lz.encode(x)) == x


def test_round_trip_exhaustive_small():
    for n in range(0, 15):
        for x in all_bitstrings(n):
            assert lz.decode(lz.encode(x)) == x


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_round_trip_property(blob):
    x = BitString(np.frombuffer(blob, dtype=np.uint8) % 2)
    assert lz.decode(lz.encode(x)) == x


# Length and digest of lz.encode over 2^16 bits of each seed-7 source.
ENCODE_2_16_PINS = {
    "uniform": (123647, "b1ab4a31e66f287bac31b30d300c4b6227d6a29fb210af12d0f0a0d48d5e3157"),
    "bernoulli_0.1": (62033, "f9b44e3924750ea2cf608e279a6c52a395ed45997dd76770f6d3443d23b1a596"),
    "markov": (71324, "fe511a4b2ee596088c56b5c96c987f55141f5f009af30b5e8ec8828427f9c816"),
    "dup": (123674, "da28ab6d205dee6995a4c1998434834d5cc2b082f075ee84159fdb6aaf1c05df"),
}
_ENCODE_2_16_SOURCES = {
    "uniform": BernoulliSource(0.5, seed=7),
    "bernoulli_0.1": BernoulliSource(0.1, seed=7),
    "markov": MarkovSource([[0.9, 0.1], [0.3, 0.7]], seed=7),
    "dup": DuplicationSource(seed=7),
}


@pytest.mark.parametrize("kind", sorted(ENCODE_2_16_PINS))
def test_encode_digest_is_pinned(kind):
    x = _ENCODE_2_16_SOURCES[kind].bits(2 ** 16)
    cw = lz.encode(x)
    assert (len(cw), cw.bits.digest()) == ENCODE_2_16_PINS[kind]
    assert lz.code_length(x) == len(cw)
    assert lz.decode(cw) == x


def test_a_codeword_and_its_decoding_are_held_packed():
    # a coder's output is kept more than scanned: an eighth of a byte per bit
    x = _ENCODE_2_16_SOURCES["markov"].bits(2 ** 16)
    cw = lz.encode(x)
    y = lz.decode(cw)
    assert len(cw.bits._payload) == (len(cw) + 7) // 8 and len(y._payload) == len(x) // 8
    assert y == x and y.digest() == x.digest() and lz.code_length(y) == len(cw)


def test_prefix_free_within_each_length_class():
    # Equal-length inputs never produce one codeword extending another;
    # this per-class property is what the rejection counting bound uses.
    # (Across lengths the bare pair stream is extendable by construction:
    # encode("0") is a prefix of encode("00").)
    for n in range(1, 11):
        words = sorted(lz.encode(x).bits.to01() for x in all_bitstrings(n))
        assert len(set(words)) == len(words)
        for a, b in zip(words, words[1:]):
            assert not b.startswith(a), (n, a, b)


def test_cross_length_extension_exists():
    short = lz.encode(BitString.from01("0")).bits.to01()
    long = lz.encode(BitString.from01("00")).bits.to01()
    assert long.startswith(short)


def test_prefix_code_lengths_match_per_prefix_encoding():
    for seed, n in ((0, 257), (1, 512)):
        x = random_bits(n, seed=seed)
        table = lz.prefix_code_lengths(x)
        assert table.typecode == "q" and len(table) == n + 1
        for m in range(n + 1):
            assert table[m] == lz.code_length(x.prefix(m)), m
    y = DuplicationSource(seed=3).bits(600)
    table = lz.prefix_code_lengths(y)
    for m in range(601):
        assert table[m] == lz.code_length(y.prefix(m)), m


def _chunked_table(x: BitString, chunks, unread=(), running=None) -> np.ndarray:
    """The costs a _PrefixCosts writes when fed ``x`` in consecutive chunks
    of the given sizes, cut at ``len(x)``; the chunks whose indices are in
    ``unread`` are fed without a table, and their entries stay -1.  The
    tau_k evidence it folds on the way equals that of one pass over ``x``,
    and where ``running`` is given, its best after each chunk is ``running``
    at the prefix taken."""
    costs = lz._PrefixCosts()
    table = array("q", [-1]) * (len(x) + 1)
    table[0] = 0
    taken = 0
    for i, size in enumerate(chunks):
        if taken >= len(x):
            break
        costs.extend(x[taken:taken + size], None if i in unread else table)
        taken = min(len(x), taken + size)
        if i in unread:
            assert costs.total == lz.code_length(x.prefix(taken))
        else:
            assert costs.total == table[taken]
        if running is not None:
            assert (costs.best, costs.scale) == running[taken], taken
    assert costs.seen == len(x)
    one_pass = lz._PrefixCosts()
    one_pass.extend(x)
    assert (costs.best, costs.scale) == (one_pass.best, one_pass.scale)
    return np.frombuffer(table, dtype=np.int64)


_CHUNKINGS = {
    "ones": lambda: iter(lambda: 1, None),
    "sevens": lambda: iter(lambda: 7, None),
    "doubling": lambda: (1 << k for k in range(64)),
}

_PARITY_INPUTS = {
    "uniform": lambda n: BernoulliSource(0.5, seed=11).bits(n),
    "bern01": lambda n: BernoulliSource(0.1, seed=12).bits(n),
    "dup": lambda n: DuplicationSource(seed=13).bits(n),
    "markov": lambda n: MarkovSource([[0.9, 0.1], [0.2, 0.8]], seed=14).bits(n),
    "zeros": BitString.zeros,
}


@pytest.mark.parametrize("chunking", sorted(_CHUNKINGS))
@pytest.mark.parametrize("kind", sorted(_PARITY_INPUTS))
def test_chunk_extended_table_matches_one_pass(kind, chunking):
    x = _PARITY_INPUTS[kind](700)
    table = _chunked_table(x, _CHUNKINGS[chunking]())
    assert np.array_equal(table, lz.prefix_code_lengths(x))
    for m in range(0, len(x) + 1, 7):
        assert table[m] == lz.code_length(x.prefix(m)), m


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200), st.lists(st.integers(1, 40), min_size=1, max_size=20))
def test_chunk_extended_table_property(blob, sizes):
    x = BitString(np.frombuffer(blob, dtype=np.uint8) % 2)
    table = _chunked_table(x, sizes + [len(x)])
    assert np.array_equal(table, lz.prefix_code_lengths(x))
    assert table[-1] == lz.code_length(x)


# long enough that the chunked feeds below end at odd positions well inside it
_MULTI_BLOCK_BITS = (1 << 16) + (1 << 14) + 3


@pytest.mark.parametrize("kind", sorted(_PARITY_INPUTS))
def test_table_matches_per_bit_reference(kind):
    x = _PARITY_INPUTS[kind](_MULTI_BLOCK_BITS)
    reference = reference_prefix_costs(x)
    assert np.array_equal(lz.prefix_code_lengths(x), reference)
    assert np.array_equal(_chunked_table(x, [5000, 70001, 1 << 20]), reference)
    assert reference[-1] == lz.code_length(x)
    # chunks 1 and 3 are fed without a table, so their entries stay -1
    table = _chunked_table(x, [3000, 5000, 70000, 2000, 1 << 20], unread={1, 3})
    read = table >= 0
    assert read.sum() == len(x) + 1 - 5000 - 2000
    assert np.array_equal(table[read], reference[read])
    want = reference_compression_test(x, 0.01)
    got = stats.PrefixScanTest("lz77").reports(x, 0.01)
    assert got == [want] and got[0].detail == want.detail
    assert want.detail["code_bits"] == reference[-1]


def test_prefix_costs_price_nothing_when_nothing_is_new():
    x = BitString.from01("0110100110")
    costs = lz._PrefixCosts()
    table = array("q", [-1]) * 11
    costs.extend(x[:0], table)
    assert table.tolist() == [-1] * 11 and costs.total == 0
    assert (costs.best, costs.scale) == (-math.inf, 0)
    costs.extend(x[:6])
    best = costs.best, costs.scale
    costs.extend(x[6:6], table)  # nothing new: nothing to price
    assert table.tolist() == [-1] * 11 and (costs.best, costs.scale) == best
    assert costs.total == lz.code_length(x.prefix(6))
    costs.extend(x[6:], table)  # only the new prefixes
    assert table.tolist() == [-1] * 7 + lz.prefix_code_lengths(x)[7:].tolist()


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300), st.lists(st.integers(1, 60), max_size=10))
def test_table_matches_per_bit_reference_property(blob, sizes):
    x = BitString(np.frombuffer(blob, dtype=np.uint8) % 2)
    reference = reference_prefix_costs(x)
    assert np.array_equal(lz.prefix_code_lengths(x), reference)
    assert np.array_equal(_chunked_table(x, sizes + [len(x)]), reference)


# Parity of the C kernel with the Python loops: each test runs on both.
_BACKENDS = ["native", "python"]


def _backend(name: str):
    """Context manager under which ``lz`` runs on the named loops; skips the
    native run where the C kernel does not build."""
    if name == "python":
        return python_loops()
    if lz._kernel() is None:
        pytest.skip("the C kernel does not build here")
    return contextlib.nullcontext()


# The tables a pass can hold: arrays, as below lz._MAP_BYTES, or mappings from
# a cut-off lowered so that a test's inputs reach them.
_TABLES = ["arrays", "mapped"]


def _tables(name: str, cut_off: int):
    """Context manager under which ``lz`` holds its tables as arrays, or in
    mappings from ``cut_off`` bytes on."""
    return mapped_tables(cut_off) if name == "mapped" else contextlib.nullcontext()


# a short pass's first table, an array, and the three ways into a mapping: a
# pass that starts in one, an array that moves into one at its first growth,
# and a mapping that grows in place; where there is MADV_HUGEPAGE no table
# grows in place as an array
_MAPPED_PATHS = {("none", "array"), ("none", "mapping"), ("array", "mapping"),
                 ("mapping", "same mapping")}


@pytest.mark.parametrize("backend", _BACKENDS)
def test_code_length_agrees_with_encode(backend):
    rng = np.random.default_rng(6)
    samples = [BitString(rng.integers(0, 2, int(rng.integers(0, 300))).astype(np.uint8))
               for _ in range(1000)]
    # all-zero and all-one strings: one literal, then one self-overlapping copy
    samples += [BitString(np.full(n, b, dtype=np.uint8)) for n in range(71) for b in (0, 1)]
    with _backend(backend):
        for x in samples:
            assert lz.code_length(x) == len(lz.encode(x))


def _columns(automaton: lz._PrefixCosts) -> tuple:
    """The four columns of a pass's table over the states in use, then
    ``states``, ``last`` and ``seen``; before its first bits, the root's row."""
    k, table = automaton.states, automaton._table
    if table is None:
        table = array("i", [0, 0, -1, -1])
    return (*(table[c:4 * k:4] for c in range(4)),
            automaton.states, automaton.last, automaton.seen)


def _one_pass(x: BitString) -> lz._PrefixCosts:
    """A pass that has taken in all of ``x`` in one extend."""
    automaton = lz._PrefixCosts()
    automaton.extend(x)
    return automaton


def _chunked_automaton(x: BitString, sizes) -> lz._PrefixCosts:
    """A pass fed ``x`` in chunks of the given sizes, cut at ``len(x)``, then the rest."""
    automaton = lz._PrefixCosts()
    for size in sizes:
        automaton.extend(x[automaton.seen:automaton.seen + size])
    automaton.extend(x[automaton.seen:])
    return automaton


def _assert_matches_reference(automaton: lz._PrefixCosts, reference: tuple) -> None:
    """``automaton`` is the ``reference_automaton`` build without its
    ``length`` column: the same states, links and first occurrences, each
    transition to the same state, positive exactly where the edge is solid
    (``length[t] == length[s] + 1``), and 0 where there is none."""
    next0, next1, link, length, first, last = reference
    k = len(link)
    got0, got1, got_link, got_first = _columns(automaton)[:4]
    assert (automaton.states, automaton.last) == (k, last)
    assert got_link.tolist() == link
    assert got_first.tolist() == first
    for got, want in ((got0, next0), (got1, next1)):
        assert [abs(t) for t in got] == [max(t, 0) for t in want]
        assert [t > 0 for t in got] == [t != -1 and length[t] == length[s] + 1
                                        for s, t in enumerate(want)]


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("kind", sorted(_PARITY_INPUTS))
def test_automaton_columns_match_the_python_build(kind, backend, monkeypatch):
    x = _PARITY_INPUTS[kind](_MULTI_BLOCK_BITS)
    reference = reference_automaton(bit_array(x).tobytes())
    with python_loops():
        want = _columns(_one_pass(x))
    seen = spy_on_tables(monkeypatch)
    for tables in _TABLES:  # a 2.6 MiB table: mapped from 1 MiB on
        with _backend(backend), _tables(tables, 1 << 20):
            automaton = _one_pass(x)
            # one row of four int32 entries for the root and for each of 2n
            # states, in a mapping to the end of its last page
            entries, page = 4 * (2 * len(x) + 2), lz._HUGE_PAGE // 4
            assert automaton._table.itemsize == 4
            assert len(automaton._table) == (-(-entries // page) * page if tables == "mapped"
                                             else entries)
            assert isinstance(automaton._table, memoryview) == (tables == "mapped")
            assert _columns(automaton) == want, tables
            _assert_matches_reference(automaton, reference)
            for size in (1, 7, 5000, 70001):
                automaton = _chunked_automaton(x, itertools.repeat(size, len(x) // size))
                assert _columns(automaton) == want, (tables, size)
                _assert_matches_reference(automaton, reference)
    assert set(seen) == _MAPPED_PATHS


def _pass_states(x: BitString, *splits: int) -> list[dict]:
    """What an ``lz._PrefixCosts`` holds after each of its extends, on the
    current backend, in the form of ``_walk``: it is fed ``x[seen:m]`` for
    each ``m`` of ``splits``, then the rest of ``x``.  Each extend writes its
    costs to a table of its own, and writes nothing at or below the bits
    taken in before it."""
    walk, costs, states = lz._PrefixCosts(), [0], []
    for m in (*splits, len(x)):
        seen = walk.seen
        table = array("q", [-1]) * (m + 1)
        walk.extend(x[seen:m], table)
        assert table[:seen + 1].tolist() == [-1] * (seen + 1) and walk.seen == m
        costs += table[seen + 1:].tolist()
        states.append({"costs": costs[:], "open": walk.open, "closed": walk.closed,
                       "total": walk.total, "best": walk.best, "scale": walk.scale,
                       "factors": walk.factors})
    return states


def _walk(reference: dict) -> dict:
    """A ``reference_pass`` in the form of ``_pass_states``: its pairs give
    the count of factors before the open one."""
    walk = {k: v for k, v in reference.items() if k != "pairs"}
    return {**walk, "factors": max(len(reference["pairs"]) - 1, 0)}


def _pairs(x: BitString) -> list[tuple[int, int]]:
    """``lz.parse(x)``'s pairs as tuples, the form of ``reference_pass``'s."""
    return [tuple(pair) for pair in lz.parse(x).pairs]


@pytest.mark.parametrize("backend", _BACKENDS)
def test_the_online_loop_matches_the_two_pass_reference(backend):
    strings = [*itertools.chain.from_iterable(map(all_bitstrings, range(13)))]
    want = {x.to01(): reference_pass(x) for x in strings}
    with _backend(backend):
        for x in strings:
            whole = _walk(want[x.to01()])
            assert _pass_states(x) == [whole], x
            assert _pairs(x) == want[x.to01()]["pairs"], x
            for k in range(1, len(x)):  # every two-piece split
                assert _pass_states(x, k) == [_walk(want[x.prefix(k).to01()]), whole], (x, k)


@functools.cache
def _reference_of(kind: str) -> dict:
    """``reference_pass`` of the ``_MULTI_BLOCK_BITS`` bits of a parity input."""
    return reference_pass(_PARITY_INPUTS[kind](_MULTI_BLOCK_BITS))


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("kind", sorted(_PARITY_INPUTS))
def test_factorize_from_a_start_matches_the_python_walk(kind, backend):
    # a pass resumed at any bit goes on as the two-pass reference of the whole string
    x, reference = _PARITY_INPUTS[kind](_MULTI_BLOCK_BITS), _reference_of(kind)
    n, whole = len(x), _walk(reference)
    assert whole["total"] == lz.code_length(x)
    bounds = [0, *itertools.accumulate(1 if p == 0 else l for p, l in reference["pairs"])]
    longest = max(range(len(bounds) - 1), key=lambda f: bounds[f + 1] - bounds[f])
    # resumed after a literal, at factor starts and inside the longest factor, it is one pass
    splits = {1, 7, 5000, 70001, n - 1, bounds[len(bounds) // 2], bounds[-2],
              bounds[longest] + 1, bounds[longest + 1] - 1}
    with _backend(backend):
        assert _pass_states(x) == [whole] and _pairs(x) == reference["pairs"]
        for k in sorted(splits):
            first, last = _pass_states(x, k)
            assert first["costs"] == whole["costs"][:k + 1] and first["total"] == whole["costs"][k]
            assert last == whole, k


@pytest.mark.parametrize("backend", _BACKENDS)
def test_walks_of_chunked_extends_match_the_reference(backend, monkeypatch):
    extend = lz._PrefixCosts.extend
    starts, taken, fed = [], [], {}  # fed: the bits taken in by each walk, by its id
    seen = spy_on_tables(monkeypatch)

    def checked(self, piece, costs=None, pairs=None):
        resume = self.open, self.seen
        x = fed[id(self)] = BitString.from01((fed[id(self)].to01() if self.seen else "")
                                             + piece.to01())
        want = reference_pass(x)
        extend(self, piece, costs, pairs)
        assert (self.open, self.closed, self.total) == (want["open"], want["closed"],
                                                        want["total"]), (len(x), resume)
        assert (self.best, self.scale) == (want["best"], want["scale"])
        if costs is not None:
            assert costs[resume[1] + 1:len(x) + 1].tolist() == want["costs"][resume[1] + 1:]
        starts.append(resume[0])
        taken.append(len(piece))

    monkeypatch.setattr(lz._PrefixCosts, "extend", checked)
    for tables in _TABLES:  # 96 KiB tables at 3000 bits: mapped from 8 KiB on
        with _backend(backend), _tables(tables, 8 << 10):
            for kind in sorted(_PARITY_INPUTS):
                x = _PARITY_INPUTS[kind](3000)
                table = _chunked_table(x, [1, 7, 100, 400, 1000, 1 << 20])
                assert np.array_equal(table, reference_prefix_costs(x)), (tables, kind)
    # six chunked extends and one pass per input, each bit taken in once per pass
    assert len(starts) == 2 * 7 * len(_PARITY_INPUTS) and max(starts) > 1000
    assert sum(taken) == 2 * 2 * 3000 * len(_PARITY_INPUTS)
    assert set(seen) == _MAPPED_PATHS


@pytest.mark.parametrize("backend", _BACKENDS)
def test_prefix_costs_refuse_a_table_the_walk_would_overrun(backend):
    x = BitString.from01("01101")
    for tables in _TABLES:  # mapped: every table, pairs too, however short
        with _backend(backend), _tables(tables, 1):
            for table in (array("q", [0]) * 5, array("i", [0]) * 6, array("d", [0]) * 6):
                costs = lz._PrefixCosts()
                with pytest.raises(ValueError,
                                   match=r"the walk writes 6 costs to an array\('q'\)"):
                    costs.extend(x, table)
                assert costs.total == 0 and set(table) == {0}
            costs.extend(x.prefix(2), array("q", [0]) * 3)  # room for the prefix taken
            assert costs.total == lz.code_length(x.prefix(2))
            assert isinstance(costs._table, memoryview) == (tables == "mapped")
            for pairs in (array("i", [0]) * 9, array("q", [0]) * 10, array("h", [0]) * 10,
                          bytearray(40), [0] * 10, memoryview(bytearray(40)),
                          memoryview(bytearray(40)).cast("q"),
                          memoryview(bytes(40)).cast("i"),  # read-only
                          memoryview(bytearray(80)).cast("i")[::2]):  # strided
                costs = lz._PrefixCosts()
                with pytest.raises(ValueError,
                                   match=r"the walk writes 10 pair entries to an array\('i'\)"):
                    costs.extend(x, array("q", [0]) * 6, pairs)
                assert costs.total == costs.seen == 0 and costs._table is None
                assert set(pairs) == {0}
            pairs = lz._allocate(4)  # room for the prefix taken: two literals
            pairs[:] = array("i", [-1]) * len(pairs)  # a mapping has room to the end of its page
            assert isinstance(pairs, memoryview) == (tables == "mapped")
            costs.extend(x.prefix(2), pairs=pairs)
            assert costs.total == lz.code_length(x.prefix(2))
            assert pairs.tolist() == [0, 0, 0, 1] + [-1] * (len(pairs) - 4)


@pytest.mark.parametrize("backend", _BACKENDS)
def test_a_resumed_walk_refuses_pairs_and_a_short_table(backend):
    x = BitString.from01("0110100110")
    with _backend(backend):
        walk = lz._PrefixCosts()
        walk.extend(x[:4])

        def held():
            return _columns(walk), [getattr(walk, name) for name, _ in walk._fields_]

        before = held()
        for costs, pairs, match in (
                (None, array("i", [0]) * 12, "^only a walk's first extend writes pairs; "
                                             "4 bits are taken in$"),
                (array("q", [0]) * 10, None, r"^the walk writes 11 costs to an array\('q'\)$")):
            with pytest.raises(ValueError, match=match):
                walk.extend(x[4:], costs, pairs)
            assert held() == before
            assert set(costs if pairs is None else pairs) == {0}
        table = array("q", [-1]) * 11
        walk.extend(x[4:], table)
        assert walk.total == lz.code_length(x)
        assert table.tolist() == [-1] * 5 + lz.prefix_code_lengths(x)[5:].tolist()


_CHUNK = 997  # bits a walk takes at a time where its running maximum is checked


@pytest.mark.parametrize("backend", _BACKENDS)
def test_the_walk_prices_and_folds_like_the_references(backend):
    samples = [*itertools.chain.from_iterable(map(all_bitstrings, range(13))),
               # all-zero and all-one strings: one literal, then one self-overlapping copy
               *(BitString(np.full(n, b, dtype=np.uint8)) for n in range(71) for b in (0, 1)),
               # a run of k zeros puts the best scale at k: every scale's arithmetic shows
               *(BitString.from01("0" * k + "10110") for k in range(40, 400)),
               *(random_bits(n, seed=n, p=p) for n in (1000, 1 << 16) for p in (0.5, 0.1)),
               *(_PARITY_INPUTS[kind](1 << 16) for kind in ("dup", "markov")),
               # 4096 uniform bits, then k zeros: the bound skips long stretches, and
               # the best scale leaves 1 once the zeros pay back the uniform bits' cost
               *(BitString.from01(random_bits(4096, seed=k).to01() + "0" * k)
                 for k in (16, 256, 4096, 16384)),
               # the best stays at scale 1 over every later scale
               _PARITY_INPUTS["uniform"](1 << 16)]
    with _backend(backend):
        for x in samples:
            costs = lz._PrefixCosts()
            table = array("q", [0]) * (len(x) + 1)
            costs.extend(x, table)
            reference = reference_prefix_costs(x).tolist()
            assert costs.total == lz.code_length(x) == reference[-1], x
            assert table.tolist() == reference, x
            running = reference_running_tau_k(x)
            assert (costs.best, costs.scale) == running[-1], x
            if len(x) > _CHUNK:  # the best after each chunk: a wrongly skipped scale shows
                chunked = _chunked_table(x, itertools.repeat(_CHUNK), running=running)
                assert chunked.tolist() == reference, x


def test_strided_views_give_the_results_of_a_contiguous_copy():
    # a step slice copies its bits, as the checking constructor does
    base = DuplicationSource(seed=13).bits(40000)
    for x in (base[::2], base[::-1]):
        copy = BitString(bit_array(x))
        assert x == copy and x._payload is not base._payload
        assert lz.code_length(x) == lz.code_length(copy)
        table = lz.prefix_code_lengths(copy)
        assert np.array_equal(lz.prefix_code_lengths(x), table)
        assert np.array_equal(_chunked_table(x, [100, 1000, 20000, 1 << 20]), table)
        got, want = (stats.PrefixScanTest("lz77", "tauk").reports(y, 0.01) for y in (x, copy))
        assert got == want and [r.detail for r in got] == [r.detail for r in want]


@pytest.mark.parametrize("backend", _BACKENDS)
def test_pinned_code_lengths_on_both_backends(backend):
    x = BernoulliSource(0.5, seed=7).bits(10 ** 5)
    base = BernoulliSource(0.5, seed=7).bits(2 ** 17)
    with _backend(backend):
        assert lz.code_length(x) == RANDOM_1E5_CODE_BITS
        assert lz.code_length(base) == BASE_2_17_CODE_BITS
        costs = lz._PrefixCosts()
        for piece in (base[:70001], base[70001:]):
            costs.extend(piece)
        assert costs.total == BASE_2_17_CODE_BITS


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=300), st.lists(st.integers(1, 60), max_size=10))
def test_backends_agree_property(backend, blob, sizes):
    x = BitString(np.frombuffer(blob, dtype=np.uint8) % 2)
    with python_loops():
        want = _columns(_one_pass(x))
        pairs = lz.parse(x).pairs
    reference = reference_prefix_costs(x)
    automaton = reference_automaton(bit_array(x).tobytes())
    with _backend(backend):
        assert _columns(_one_pass(x)) == want
        assert _columns(_chunked_automaton(x, sizes)) == want
        _assert_matches_reference(_one_pass(x), automaton)
        _assert_matches_reference(_chunked_automaton(x, sizes), automaton)
        assert lz.parse(x).pairs == pairs
        assert np.array_equal(_chunked_table(x, sizes + [len(x)]), reference)


class _Reported:
    """A payload that reports a length in bytes and holds no bits."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n


@pytest.mark.parametrize("backend", _BACKENDS)
def test_automaton_refuses_more_bits_than_int32_indexes(backend):
    with _backend(backend):
        automaton = _one_pass(BitString.from01("0110"))
        held = _columns(automaton), automaton.total
        for n in (1 << 30, lz._MAX_BITS - 3):  # bits beyond the 4 taken in
            with pytest.raises(OverflowError):
                automaton.extend(BitString._wrap(_Reported((n + 7) // 8), n))
        assert (_columns(automaton), automaton.total) == held
        assert lz._MAX_BITS == (2 ** 31 - 3) // 2


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=40), st.data())
def test_a_prefix_is_taken_in_to_its_length_and_no_further(blob, data):
    # every bit of the shared payload past the prefix is set
    n = data.draw(st.integers(0, 8 * len(blob) - 1))
    rest = 8 * len(blob) - n
    parent = BitString._wrap((int.from_bytes(blob, "big") | (1 << rest) - 1).to_bytes(
        len(blob), "big"), 8 * len(blob))
    x = parent.prefix(n)
    alone = BitString.from01(x.to01())  # a payload of its own, zero-padded
    sizes = data.draw(st.lists(st.integers(1, 40), max_size=10))
    for backend in _BACKENDS:
        with _backend(backend):
            want = _pass_states(alone)
            assert _pass_states(x) == want
            splits = sorted({m for m in itertools.accumulate(sizes) if m < n})
            assert _pass_states(x, *splits)[-1] == want[-1]
            assert _columns(_chunked_automaton(x, sizes)) == _columns(_one_pass(alone))


def _enomem(*args, **kwargs):
    raise OSError(errno.ENOMEM, "Cannot allocate memory")


class _Unadvised(mmap.mmap):
    """A mapping that takes no advice."""

    def madvise(self, *args):
        raise OSError(errno.EINVAL, "Invalid argument")


class _Fixed(mmap.mmap):
    """A mapping that cannot grow."""

    resize = _enomem


@pytest.mark.parametrize("backend", _BACKENDS)
def test_a_table_that_cannot_be_mapped_raises_memory_error(backend, monkeypatch):
    x = _PARITY_INPUTS["markov"](3000)
    with _backend(backend), mapped_tables(8 << 10):
        monkeypatch.setattr(mmap, "mmap", _enomem)
        for run in (lz.code_length, lz.parse, lz.encode, _one_pass,
                    lambda x: _chunked_automaton(x, [100])):  # an array that cannot move
            with pytest.raises(MemoryError, match="cannot map a table of"):
                run(x)
        monkeypatch.setattr(mmap, "mmap", _Fixed)
        with pytest.raises(MemoryError, match="cannot map a table of"):
            _chunked_automaton(x, [1000])  # a mapping that cannot grow


@pytest.mark.parametrize("backend", _BACKENDS)
def test_a_mapping_needs_no_advice_and_no_platform_needs_a_mapping(backend, monkeypatch):
    x = _PARITY_INPUTS["dup"](3000)
    with python_loops():
        want = _columns(_one_pass(x)), lz.parse(x), lz.encode(x)
    with _backend(backend), mapped_tables(1):
        monkeypatch.setattr(mmap, "mmap", _Unadvised)  # madvise fails: only advice
        automaton = _chunked_automaton(x, [1000])
        assert isinstance(automaton._table, memoryview)
        assert (_columns(automaton), lz.parse(x), lz.encode(x)) == want
        # where there is no MADV_HUGEPAGE, as off Linux, every table is an array,
        # and a growing one grows in place
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE")
        monkeypatch.setattr(mmap, "mmap", _enomem)
        seen = spy_on_tables(monkeypatch)
        automaton = _chunked_automaton(x, [1000])
        assert isinstance(automaton._table, array)
        assert set(seen) == {("none", "array"), ("array", "array")}
        assert (_columns(automaton), lz.parse(x), lz.encode(x)) == want


def _mapping_of(address: int) -> tuple[str, list[str]]:
    """The permissions and ``VmFlags`` of this process's mapping that holds ``address``."""
    held = False
    with open("/proc/self/smaps") as f:
        for line in f:
            if header := re.match(r"([0-9a-f]+)-([0-9a-f]+) (\S+)", line):
                held, perms = int(header[1], 16) <= address < int(header[2], 16), header[3]
            elif held and line.startswith("VmFlags:"):
                return perms, line.split()[1:]
    raise AssertionError(f"no mapping holds {address:#x}")


@pytest.mark.skipif(not (Path("/proc/self/smaps").exists()
                         and Path("/sys/kernel/mm/transparent_hugepage/enabled").exists()),
                    reason="no /proc/self/smaps, or no transparent huge pages")
def test_a_mapped_table_is_private_and_advised_huge_pages():
    # Python's default anonymous mapping is shared, and gets no huge pages
    with mapped_tables(1):
        automaton = _one_pass(random_bits(3000, seed=29))
    perms, flags = _mapping_of(lz._address(automaton._table))
    assert perms[3] == "p" and "hg" in flags


def test_every_mapping_is_a_whole_number_of_huge_pages(monkeypatch):
    # Linux aligns such a mapping to a huge page, so its last page is huge too
    lengths = []

    class Measured(mmap.mmap):
        def __new__(cls, fileno, length, *args, **kwargs):
            lengths.append(length)
            return super().__new__(cls, fileno, length, *args, **kwargs)

        def resize(self, length):
            lengths.append(length)
            super().resize(length)

    monkeypatch.setattr(mmap, "mmap", Measured)
    table = lz._allocate(4 * (2 * 2 ** 20 + 2))  # a 2^20-bit pass's: 32 bytes past 32 MiB
    assert isinstance(table, memoryview) and 4 * len(table) == 34 << 20
    table = lz._allocate(len(table) + 1, table)  # grown in place
    assert 4 * len(table) == 36 << 20 and table[-1] == 0
    table = lz._allocate(lz._MAP_BYTES // 4 + 1, array("i", [7]) * 10)  # an array that moves
    assert 4 * len(table) == lz._MAP_BYTES + (2 << 20) and table[:11].tolist() == [7] * 10 + [0]
    assert lengths == [34 << 20, 36 << 20, lz._MAP_BYTES + (2 << 20)]


def test_short_passes_make_no_mapping(monkeypatch):
    # the api-small bench's largest tables: 2^16-bit encodes, 2 MiB of automaton
    monkeypatch.setattr(mmap, "mmap", _enomem)
    x = random_bits(1 << 16, seed=29)
    assert lz.code_length(x) == len(lz.encode(x))


def test_an_empty_automaton_calls_no_kernel(monkeypatch):
    calls = []
    monkeypatch.setattr(lz, "_kernel", lambda: calls.append("kernel"))  # then Python loops
    automaton = lz._PrefixCosts()
    automaton.extend(BitString())
    assert calls == [] and automaton._table is None
    automaton.extend(BitString.from01("01"))
    assert calls == ["kernel"]


def _kernel_from(monkeypatch, source_dir) -> None:
    """Point ``lz`` at a copy of the kernel source in ``source_dir`` and forget
    the loaded library, so the next LZ call builds and loads it anew."""
    source = source_dir / "_lzkernel.c"
    source.write_bytes(Path(lz._KERNEL_SOURCE).read_bytes())
    monkeypatch.setattr(lz, "_KERNEL_SOURCE", source)
    monkeypatch.setattr(lz, "_kernel", functools.cache(lz._kernel.__wrapped__))


def _cached_name() -> str:
    """The kernel's file name in the cache: the source's content key and the extension suffix."""
    source = Path(lz._KERNEL_SOURCE).read_bytes()
    key = f"{zlib.crc32(source):08x}{zlib.adler32(source):08x}{len(source):x}"
    return f"_lzkernel.{key}{sysconfig.get_config_var('EXT_SUFFIX')}"


def test_cli_and_a_code_length_load_no_openssl():
    # hashlib maps OpenSSL, about 3 MB of every process; only digest() needs it
    src = str(Path(lz.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "import rngcal.cli\n"
            "from rngcal import lz\n"
            "from rngcal.bits import BitString\n"
            "print(lz.code_length(BitString.from01('0110')), '_hashlib' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [str(lz.code_length(BitString.from01("0110"))), "False"]


def test_kernel_builds_on_first_use_into_its_cache(monkeypatch, tmp_path):
    if shutil.which(shlex.split(sysconfig.get_config_var("CC") or "cc")[0]) is None:
        pytest.skip("no C compiler")
    _kernel_from(monkeypatch, tmp_path)
    assert not (tmp_path / "__pycache__").exists()
    assert lz.code_length(BernoulliSource(0.5, seed=7).bits(10 ** 5)) == RANDOM_1E5_CODE_BITS
    assert lz._kernel() is not None
    assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == [_cached_name()]


def test_kernel_compiles_clean_with_warnings_as_errors(tmp_path):
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(compiler[0]) is None:
        pytest.skip("no C compiler")
    run = subprocess.run([*compiler, *lz._KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror",
                          "-o", str(tmp_path / "_lzkernel.so"), str(lz._KERNEL_SOURCE), "-lm"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    library = ctypes.CDLL(str(tmp_path / "_lzkernel.so"))  # every loop is built
    assert library.lz_extend and library.lz_pack and library.lz_unpack and library.draw


@pytest.mark.parametrize("failure", ["no compiler", "compiler fails", "cache not writable",
                                     "library not loadable"])
def test_failed_build_falls_back_to_python(monkeypatch, tmp_path, failure):
    _kernel_from(monkeypatch, tmp_path)
    compilers = {"no compiler": str(tmp_path / "no-such-cc"),
                 "compiler fails": f"{shlex.quote(sys.executable)} -c 'raise SystemExit(1)'"}
    if failure in compilers:
        config = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: compilers[failure] if name == "CC" else config(name))
    elif failure == "cache not writable":
        (tmp_path / "__pycache__").write_bytes(b"")  # a file where the directory goes
    else:
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / _cached_name()).write_bytes(b"junk")
    x = BernoulliSource(0.5, seed=7).bits(10 ** 5)
    assert lz.code_length(x) == RANDOM_1E5_CODE_BITS
    assert lz._kernel() is None
    if failure in compilers:  # nothing is left behind
        assert list((tmp_path / "__pycache__").iterdir()) == []
    y = DuplicationSource(seed=13).bits(5000)
    assert np.array_equal(lz.prefix_code_lengths(y), reference_prefix_costs(y))


def test_code_lengths_by_bit_length_match_encoded_length():
    values = sorted({v for k in range(64) for v in (2 ** k - 1, 2 ** k, 2 ** k + 1) if v >= 1})
    assert len(lz._CODE_LENGTHS) == 64
    assert [lz._CODE_LENGTHS[v.bit_length()] for v in values if v < 2 ** 63] == [
        encoded_length(v) for v in values if v < 2 ** 63]


def test_random_data_expands_pinned():
    x = BernoulliSource(0.5, seed=7).bits(10 ** 5)
    assert lz.code_length(x) == RANDOM_1E5_CODE_BITS
    x = BernoulliSource(0.5, seed=7).bits(10 ** 6)
    clen = lz.code_length(x)
    assert clen == RANDOM_1E6_CODE_BITS
    # expansion factor at this scale; it shrinks toward 1 as n grows
    assert 1.6 < clen / 10 ** 6 < 1.9
    assert clen / 10 ** 6 < RANDOM_1E5_CODE_BITS / 10 ** 5


def test_duplication_prefixes_compress_below_their_length():
    dup = DuplicationSource(seed=7)
    ratios = []
    for n, pinned in DUP_BOUNDARY_CODE_BITS.items():
        clen = lz.code_length(dup.bits(n))
        assert clen == pinned
        ratios.append(clen / n)
    # ratio falls monotonically toward 1/2 as the doubled blocks grow
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 1.0
    base = BernoulliSource(0.5, seed=7).bits(2 ** 17)
    assert lz.code_length(base) == BASE_2_17_CODE_BITS
    assert ratios[-1] < BASE_2_17_CODE_BITS / 2 ** 17


def test_second_copy_costs_log_bits():
    for seed in range(25):
        x = BernoulliSource(0.5, seed=seed).bits(256 + 16 * seed)
        twice = BitString(np.concatenate([bit_array(x), bit_array(x)]))
        extra = lz.code_length(twice) - lz.code_length(x)
        assert extra <= (encoded_length(1) + encoded_length(len(x))
                         + DUPLICATION_SLACK_BITS)


def test_expansion_bound():
    for seed in range(10):
        for n in (64, 512, 4096):
            x = random_bits(n, seed=1000 + seed)
            parsed = lz.parse(x)
            clen = lz.pairs_cost(parsed.pairs)
            assert clen <= n + EXPANSION_BETA * len(parsed.pairs) * math.log2(n)


def test_decode_rejects_bad_source_position():
    # C(3) = "0101" claims a copy from position 2 with nothing decoded yet
    stream = BitString.from01("0101")
    with pytest.raises(DecodeError):
        lz.decode(stream)


def test_decode_rejects_truncation():
    # "0000" encodes to literal + copy pair; cutting into the final length
    # codeword leaves a dangling partial integer
    bits = lz.encode(BitString.from01("0000")).bits
    with pytest.raises(DecodeError) as err:
        lz.decode(bits.prefix(len(bits) - 2))
    assert err.value.bit_offset >= 0


def _stream(*fields: str | int) -> BitString:
    """Digits as they are and integers as their codewords, one stream."""
    w = BitWriter()
    for field in fields:
        if isinstance(field, str):
            for bit in field:
                w.write(int(bit), 1)
        else:
            write_integer(w, field)
    return w.to_bitstring()


def _copy_bomb(copy_bits: int) -> BitString:
    """A literal, then one copy of ``copy_bits`` bits from position 1."""
    return _stream(1, "0", 2, copy_bits)


def _decode_peak_bytes(c) -> int:
    """Peak bytes allocated while ``lz.decode(c)`` raises DecodeError."""
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError):
            lz.decode(c)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_refuses_codeword_bomb():
    bomb = _copy_bomb(1 << 22)
    assert len(bomb) == 37
    assert _decode_peak_bytes(Codeword(bits=bomb, source_length=5)) < 1 << 20


@pytest.mark.parametrize("backend", _BACKENDS)
def test_decode_refuses_a_source_length_past_what_encode_takes(backend):
    # a copy of 2^40 bits that the codeword claims: refused before any pair is read
    bomb = _copy_bomb(1 << 40)
    assert len(bomb) == 57
    with _backend(backend):
        assert _decode_peak_bytes(Codeword(bits=bomb, source_length=2 ** 41)) < 1 << 20
        for wrong in (lz._MAX_BITS + 1, -1):
            with pytest.raises(DecodeError, match=f"source_length {wrong} is outside") as err:
                lz.decode(Codeword(bits=bomb, source_length=wrong))
            assert err.value.bit_offset == 0
        # at the bound the pair itself is refused
        with pytest.raises(DecodeError, match=f"past the bound of {lz._MAX_BITS} bits"):
            lz.decode(Codeword(bits=bomb, source_length=lz._MAX_BITS))


def test_decode_refuses_bare_bomb_past_the_memory_cap():
    bomb = _copy_bomb(lz.DEFAULT_MEMORY_CAP_BITS)  # the literal makes it one bit too many
    assert _decode_peak_bytes(bomb) < 1 << 20


def test_failing_decode_of_a_long_bare_stream_holds_one_byte_per_bit():
    # a bit list would take 8 B per bit, 32 MiB here
    assert _decode_peak_bytes(random_bits(1 << 22, seed=8)) < 6 << 20


def _decoding_peak_bytes(c: Codeword) -> tuple[BitString, int]:
    """What ``lz.decode(c)`` returns, and the peak bytes it allocates."""
    tracemalloc.start()
    try:
        y = lz.decode(c)
        return y, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_decode_holds_about_one_byte_per_bit():
    # the Python loop: one digit per bit while it copies, then the packed result
    x = random_bits(1 << 20, seed=9)
    c = lz.encode(x)
    with python_loops():
        y, peak = _decoding_peak_bytes(c)
    assert y == x
    assert peak < 1.45 * len(x), f"{peak / len(x):.3f} bytes per bit"


def test_a_kernel_decode_holds_its_packed_result_alone():
    x = random_bits(1 << 20, seed=9)
    c = lz.encode(x)
    with _backend("native"):
        y, peak = _decoding_peak_bytes(c)
    assert y == x
    assert peak < 0.13 * len(x), f"{peak / len(x):.3f} bytes per bit"


def test_decode_checks_codeword_length():
    c = lz.encode(BitString.from01("0110"))
    for wrong in (3, 5):
        with pytest.raises(DecodeError):
            lz.decode(Codeword(bits=c.bits, source_length=wrong))
    assert lz.decode(c) == lz.decode(c.bits) == BitString.from01("0110")


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=40), st.integers(0, 64))
def test_decode_fuzz_stays_bounded(blob, source_length):
    stream = BitString(np.unpackbits(np.frombuffer(blob, dtype=np.uint8)))
    try:
        assert len(lz.decode(stream)) <= lz.DEFAULT_MEMORY_CAP_BITS
    except DecodeError:
        pass
    try:
        assert len(lz.decode(Codeword(bits=stream, source_length=source_length))) == source_length
    except DecodeError:
        pass


def _run_bits(period: int, ell: int) -> tuple[BitString, BitString]:
    """A stream of ``period`` literals and then one copy of ``ell`` bits from
    position 1, and the run it decodes to."""
    pattern = random_bits(period, seed=period).to01()
    literals = itertools.chain.from_iterable((1, bit) for bit in pattern)
    run = (pattern * (ell // period + 2))[:period + ell]
    return _stream(*literals, 2, ell), BitString.from01(run)


def _copy_pieces(stream: BitString) -> int:
    """The pieces that the Python loop of ``lz.decode`` appends while it
    decodes ``stream``: the line events of its ``out += piece``."""
    lines, first = inspect.getsourcelines(lz.decode)
    marker = first + next(i for i, line in enumerate(lines) if line.strip() == "out += piece")
    code, count = lz.decode.__code__, 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno == marker
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        with python_loops():
            lz.decode(stream)
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("backend", _BACKENDS)
def test_an_overlapping_copy_doubles_its_piece(backend):
    for period in range(1, 18):
        for ell in sorted({period * 2 ** k + d for k in range(12) for d in (-1, 0, 1)} - {0}):
            stream, run = _run_bits(period, ell)
            with _backend(backend):
                assert lz.decode(stream) == run, (period, ell)
                assert lz.decode(Codeword(bits=stream, source_length=len(run))) == run
            if backend == "python":  # d, 2d, 4d, ... bits: the first k pieces copy d (2^k - 1)
                pieces = next(k for k in itertools.count(1) if period * (2 ** k - 1) >= ell)
                assert _copy_pieces(stream) == pieces, (period, ell)


def _decoded(c: Codeword | BitString) -> BitString | tuple[str, int]:
    """``lz.decode(c)``, or the text and offset of the DecodeError it raises."""
    try:
        return lz.decode(c)
    except DecodeError as exc:
        return str(exc), exc.bit_offset


def _assert_codecs_agree(stream: BitString, source_length: int) -> None:
    """The kernel's decode of ``stream``, bare and as a codeword of
    ``source_length`` bits, is the Python loop's, or its DecodeError."""
    if lz._kernel() is None:
        pytest.skip("the C kernel does not build here")
    for c in (stream, Codeword(bits=stream, source_length=source_length)):
        with python_loops():
            want = _decoded(c)
        assert _decoded(c) == want, c


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=48), st.integers(0, 7), st.integers(0, 400))
def test_kernel_decodes_random_streams_as_python_does(blob, cut, source_length):
    stream = BitString.from01("".join(f"{b:08b}" for b in blob)[:len(blob) * 8 - cut])
    _assert_codecs_agree(stream, source_length)
    with python_loops():
        decoded = _decoded(stream)
    if isinstance(decoded, BitString):
        _assert_codecs_agree(stream, len(decoded))


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=120), st.data())
def test_kernel_codec_agrees_on_cut_and_flipped_codewords(blob, data):
    x = BitString(np.frombuffer(blob, dtype=np.uint8) % 3 % 2)
    c = lz.encode(x)
    with python_loops():
        assert lz.encode(x) == c
    assert lz.decode(c) == x
    _assert_codecs_agree(c.bits, len(x))
    cut = data.draw(st.integers(0, len(c)), label="cut")
    _assert_codecs_agree(c.bits.prefix(cut), len(x))
    if len(c):
        i = data.draw(st.integers(0, len(c) - 1), label="flip")
        digits = c.bits.to01()
        flipped = BitString.from01(digits[:i] + "10"[int(digits[i])] + digits[i + 1:])
        _assert_codecs_agree(flipped, len(x))


@pytest.mark.parametrize("stream", [
    _stream("0" * 5), _stream("0" * 6), _stream("0" * 64 + "1"), _stream("0" * 65),
    _stream(1, "1", 2), _stream(1, "1", 2, "0001"), _stream(1),
    _stream(1, "0", 2, 2 ** 60), _stream(1, "0", 2, 2 ** 61 - 1), _stream(1, "0", 2, 2 ** 61),
    _stream(1, "0", 2, 2 ** 62 + 5), _stream(1, "0", 2 ** 61), _stream(1, "0", 2 ** 63 + 1),
    _stream(1, "0", 2, lz.DEFAULT_MEMORY_CAP_BITS - 1, 1, "1"), _stream(1, "1", 3, 1),
    _stream(1, "0", 2, "0" * 8 + "10000" + "0" * 15), _stream(1, "1", 2, "0" * 7 + "1" + "0" * 40),
    _stream(1, "1", 1, "0", 3, 5, 2, 1),
], ids=lambda stream: f"{len(stream)}-bits")
def test_kernel_refuses_hostile_streams_as_python_does(stream):
    for source_length in (0, 3, 7, lz.DEFAULT_MEMORY_CAP_BITS, lz._MAX_BITS):
        _assert_codecs_agree(stream, source_length)


def test_bounded_window_mode_prices_each_window_apart():
    x = random_bits(4096, seed=12)
    priced = {}
    for window in (1, 7, 512, len(x), len(x) + 1):
        report = stats.PrefixScanTest("lz77", window_bits=window).reports(x, 0.01)[0]
        want = sum(lz.code_length(x[i:i + window]) for i in range(0, len(x), window))
        assert report.detail["code_bits"] == want, window
        assert report.statistic_bits == len(x) - want
        priced[window] = want
    full = lz.code_length(x)
    assert priced[len(x)] == priced[len(x) + 1] == full
    assert priced[512] >= full * 0.9  # restarting context cannot help much
    for window, tests in ((0, ("lz77",)), (512, ("tauk",)), (512, ("lz77", "tauk")),
                          (None, ("nope",)), (None, ())):
        with pytest.raises(ValueError):
            stats.PrefixScanTest(*tests, window_bits=window)
