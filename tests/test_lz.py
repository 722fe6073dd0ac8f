from __future__ import annotations

import contextlib
import functools
import itertools
import math
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rngcal import lz, stats
from rngcal.bits import BitString
from rngcal.codes import BitWriter, Codeword, encoded_length, write_integer
from rngcal.errors import DecodeError
from rngcal.sources import BernoulliSource, DuplicationSource, MarkovSource

from helpers import (all_bitstrings, brute_lz77_pairs, python_loops, random_bits,
                     reference_compression_test, reference_factorize, reference_prefix_costs)

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


def test_empty_input():
    assert lz.parse(BitString()).pairs == []
    assert lz.code_length(BitString()) == 0
    assert lz.decode(lz.encode(BitString())) == BitString()


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
        return BitString(np.concatenate([u.array, u.array]))

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


def test_code_length_agrees_with_encode():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(0, 300))
        x = BitString(rng.integers(0, 2, n).astype(np.uint8))
        assert lz.code_length(x) == len(lz.encode(x))


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
        assert table.shape == (n + 1,)
        for m in range(n + 1):
            assert table[m] == lz.code_length(x.prefix(m)), m
    y = DuplicationSource(seed=3).bits(600)
    table = lz.prefix_code_lengths(y)
    for m in range(601):
        assert table[m] == lz.code_length(y.prefix(m)), m


def _chunked_table(x: BitString, chunks, unread=()) -> np.ndarray:
    """The costs a _PrefixCosts returns when fed the prefixes of ``x`` that end
    each of consecutive chunks; the blocks of the chunks whose indices are
    in ``unread`` are left unread, and their entries -1."""
    costs = lz._PrefixCosts()
    table = np.full(len(x) + 1, -1, dtype=np.int64)
    table[0] = 0
    taken = 0
    for i, size in enumerate(chunks):
        if taken >= len(x):
            break
        taken = min(len(x), taken + size)
        blocks = costs.extend(x.prefix(taken))
        if i in unread:
            assert costs.total == lz.code_length(x.prefix(taken))
            continue
        for lo, block in blocks:
            table[lo:lo + len(block)] = block
        assert costs.total == table[taken]
    assert (0 if costs._automaton is None else costs._automaton.size) == len(x)
    return table


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


# longer than one pricing block, with chunk ends inside blocks
_MULTI_BLOCK_BITS = (1 << 16) + (1 << 14) + 3


@pytest.mark.parametrize("kind", sorted(_PARITY_INPUTS))
def test_table_matches_per_bit_reference(kind):
    x = _PARITY_INPUTS[kind](_MULTI_BLOCK_BITS)
    reference = reference_prefix_costs(x)
    assert np.array_equal(lz.prefix_code_lengths(x), reference)
    assert np.array_equal(_chunked_table(x, [5000, 70001, 1 << 20]), reference)
    assert reference[-1] == lz.code_length(x)
    # chunk 2 spans two blocks; the blocks of chunks 1 and 3 are never read
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
    assert list(costs.extend(x.prefix(0))) == [] and costs.total == 0
    costs.extend(x.prefix(6))
    assert list(costs.extend(x.prefix(6))) == []  # nothing new: nothing to price
    assert costs.total == lz.code_length(x.prefix(6))
    assert [b.tolist() for _, b in costs.extend(x)] == [
        lz.prefix_code_lengths(x)[7:].tolist()]


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


def _columns(automaton: lz._SuffixAutomaton) -> tuple:
    """The five columns over the states in use, then ``states``, ``last`` and ``size``."""
    k = automaton.states
    return (*(getattr(automaton, name)[:k] for name in lz._SuffixAutomaton.__slots__[:5]),
            automaton.states, automaton.last, automaton.size)


def _chunked_automaton(bits: bytes, sizes) -> lz._SuffixAutomaton:
    """An automaton extended by chunks of ``bits`` of the given sizes, then by the rest."""
    automaton = lz._SuffixAutomaton()
    for size in sizes:
        automaton.extend(bits[automaton.size:automaton.size + size])
    automaton.extend(bits[automaton.size:])
    return automaton


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("kind", sorted(_PARITY_INPUTS))
def test_automaton_columns_match_the_python_build(kind, backend):
    bits = _PARITY_INPUTS[kind](_MULTI_BLOCK_BITS).array.tobytes()
    with python_loops():
        want = _columns(lz._SuffixAutomaton(bits))
    with _backend(backend):
        assert _columns(lz._SuffixAutomaton(bits)) == want
        for size in (1, 7, 5000, 70001):
            chunks = itertools.repeat(size, len(bits) // size)
            assert _columns(_chunked_automaton(bits, chunks)) == want, size


def _reference_walk(bits, automaton: lz._SuffixAutomaton, start: int) -> tuple:
    """What ``lz._factorize`` returns, from the per-position ends of
    ``reference_factorize``: the bounds, each factor's end (its ``ends``
    entry at its stop) and, at each position, the bit length of
    ``ends - len + 3`` for the factor truncated there (1 for a literal,
    whose end is -1)."""
    bounds, ends = reference_factorize(bits, automaton, start)
    widths = np.zeros(len(ends), dtype=np.uint8)
    for i, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        for m in range(i + 1, stop + 1):
            widths[m - start] = (int(ends[m - start]) - (m - i) + 3).bit_length()
    return bounds, ends[bounds[1:] - start], widths


def _assert_walk(got: tuple, want: tuple, label) -> None:
    for name, a, b in zip(("bounds", "ends", "widths"), got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b), (label, name)


# Rooms of factors per C walk call: 1 and 3 make the walk resume often.
_ROOMS = (1, 3, lz._ROOM)


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("kind", sorted(_PARITY_INPUTS))
def test_factorize_from_a_start_matches_the_python_walk(kind, backend, monkeypatch):
    bits = _PARITY_INPUTS[kind](_MULTI_BLOCK_BITS).array.tobytes()
    n = len(bits)
    with python_loops():
        automaton = lz._SuffixAutomaton(bits)
    whole = _reference_walk(bits, automaton, 0)
    resumed = whole[0][[1, len(whole[0]) // 2, -2]].tolist()
    starts = (0, 1, 7, 5000, 70001, n - 1, n, *resumed)
    want = {start: _reference_walk(bits, automaton, start) for start in starts}
    # resumed at a factor start, the walk continues the whole parse
    for start in resumed:
        bounds, _, widths = want[start]
        assert np.array_equal(bounds, whole[0][whole[0] >= start]), start
        assert np.array_equal(widths[1:], whole[2][start + 1:]), start
    with _backend(backend):
        for room in _ROOMS if backend == "native" else (lz._ROOM,):
            monkeypatch.setattr(lz, "_ROOM", room)
            for start in starts:
                _assert_walk(lz._factorize(bits, automaton, start), want[start], (start, room))


@pytest.mark.parametrize("backend", _BACKENDS)
def test_walks_of_chunked_extends_match_the_reference(backend, monkeypatch):
    walk = lz._factorize
    starts = []

    def checked(bits, automaton, start):
        got = walk(bits, automaton, start)
        _assert_walk(got, _reference_walk(bits, automaton, start), (len(bits), start))
        starts.append(start)
        return got

    monkeypatch.setattr(lz, "_factorize", checked)
    with _backend(backend):
        for room in _ROOMS:
            monkeypatch.setattr(lz, "_ROOM", room)
            for kind in sorted(_PARITY_INPUTS):
                x = _PARITY_INPUTS[kind](3000)
                table = _chunked_table(x, [1, 7, 100, 400, 1000, 1 << 20])
                assert np.array_equal(table, reference_prefix_costs(x)), (kind, room)
    assert len(starts) == 6 * len(_ROOMS) * len(_PARITY_INPUTS) and max(starts) > 1000


def test_strided_views_give_the_results_of_a_contiguous_copy():
    base = DuplicationSource(seed=13).bits(40000)
    for x in (base[::2], base[::-1]):
        copy = BitString(x.array)
        assert not x.array.flags.c_contiguous and copy.array.flags.c_contiguous
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
        for m in (70001, 2 ** 17):
            list(costs.extend(base.prefix(m)))
        assert costs.total == BASE_2_17_CODE_BITS


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=300), st.lists(st.integers(1, 60), max_size=10))
def test_backends_agree_property(backend, blob, sizes):
    x = BitString(np.frombuffer(blob, dtype=np.uint8) % 2)
    bits = x.array.tobytes()
    with python_loops():
        want = _columns(lz._SuffixAutomaton(bits))
        pairs = lz.parse(x).pairs
    reference = reference_prefix_costs(x)
    with _backend(backend):
        assert _columns(lz._SuffixAutomaton(bits)) == want
        assert _columns(_chunked_automaton(bits, sizes)) == want
        assert lz.parse(x).pairs == pairs
        assert np.array_equal(_chunked_table(x, sizes + [len(x)]), reference)


class _Reported:
    """A bit sequence that reports a length and holds no bits."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n


@pytest.mark.parametrize("backend", _BACKENDS)
def test_automaton_refuses_more_bits_than_int32_indexes(backend):
    with _backend(backend):
        automaton = lz._SuffixAutomaton(bytes([0, 1, 1, 0]))
        held = _columns(automaton)
        for n in (1 << 30, lz._MAX_BITS - 3):
            with pytest.raises(OverflowError):
                automaton.extend(_Reported(n))
        assert _columns(automaton) == held
        assert lz._MAX_BITS == (2 ** 31 - 3) // 2


def test_an_empty_automaton_calls_no_kernel(monkeypatch):
    calls = []
    monkeypatch.setattr(lz, "_kernel", lambda: calls.append("kernel"))  # then Python loops
    automaton = lz._SuffixAutomaton()
    lz._PrefixCosts()
    automaton.extend(b"")
    assert calls == []
    automaton.extend(bytes([0, 1]))
    assert calls == ["kernel"]


def _kernel_from(monkeypatch, source_dir) -> None:
    """Point ``lz`` at a copy of the kernel source in ``source_dir`` and forget
    the loaded library, so the next LZ call builds and loads it anew."""
    source = source_dir / "_lzkernel.c"
    source.write_bytes(lz._KERNEL_SOURCE.read_bytes())
    monkeypatch.setattr(lz, "_KERNEL_SOURCE", source)
    monkeypatch.setattr(lz, "_kernel", functools.cache(lz._kernel.__wrapped__))


def _cached_name() -> str:
    """The kernel's file name in the cache: the source's content key and the extension suffix."""
    source = lz._KERNEL_SOURCE.read_bytes()
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


def test_vectorized_delta_lengths_match_encoded_length():
    values = sorted({v for k in range(32) for v in (2 ** k - 1, 2 ** k, 2 ** k + 1) if v >= 1})
    got = lz._delta_lengths(np.array(values, dtype=np.int64))
    assert got.tolist() == [encoded_length(v) for v in values]


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
        extra = lz.code_length(BitString(np.concatenate([x.array, x.array]))) - lz.code_length(x)
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


def _copy_bomb(copy_bits: int) -> BitString:
    """A literal, then one copy of ``copy_bits`` bits from position 1."""
    w = BitWriter()
    write_integer(w, 1)
    w.write(0, 1)
    write_integer(w, 2)
    write_integer(w, copy_bits)
    return w.to_bitstring()


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


def test_decode_refuses_bare_bomb_past_the_memory_cap():
    bomb = _copy_bomb(lz.DEFAULT_MEMORY_CAP_BITS)  # the literal makes it one bit too many
    assert _decode_peak_bytes(bomb) < 1 << 20


def test_failing_decode_of_a_long_bare_stream_holds_one_byte_per_bit():
    # a bit list would take 8 B per bit, 32 MiB here
    assert _decode_peak_bytes(random_bits(1 << 22, seed=8)) < 6 << 20


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
    engine = stats.PrefixScanTest("lz77", window_bits=512)
    engine.reports(x, 0.01)
    with pytest.raises(ValueError, match="must extend"):  # it fills no window taken in
        engine.reports(x.prefix(1000), 0.01)
    for window, tests in ((0, ("lz77",)), (512, ("tauk",)), (512, ("lz77", "tauk"))):
        with pytest.raises(ValueError):
            stats.PrefixScanTest(*tests, window_bits=window)
