from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import mmap
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rngcal
from rngcal import lz, sources, stats
from rngcal.bits import BitString, decode_bits, encode_bits, read_bit_file, write_bit_file
from rngcal.cli import main
from rngcal.lz import DEFAULT_MEMORY_CAP_BITS

from helpers import (Pipe, mapped_tables, packed_bits, python_loops, reference_compression_test,
                     reference_scan, reference_tau_k_test)

DIGEST_BERNOULLI_05_SEED7_1024 = (
    "2db8ca59e8ff6d81ac7a0b30e2d35769ffee63cc33a1d55ecad6979f920ed8c8")


def run_cli(*argv):
    """The exit status: what ``main`` returns, or the code of the
    ``SystemExit`` that argparse raises for a flag error."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_gen_ascii_degenerate(capsys):
    assert run_cli("gen", "bernoulli:1.0:seed=1", "--bits", "8",
                   "--format", "ascii") == 0
    assert capsys.readouterr().out.strip() == "11111111"


def test_gen_raw_file_digest(tmp_path):
    out = tmp_path / "sample.bin"
    assert run_cli("gen", "bernoulli:0.5:seed=7", "--bits", "1024",
                   "--output", str(out)) == 0
    bits = read_bit_file(out)
    assert len(bits) == 1024
    assert bits.digest() == DIGEST_BERNOULLI_05_SEED7_1024


def test_gen_dup_delegates_to_construction(capsys):
    assert run_cli("gen", "dup:seed=7", "--bits", "28", "--format", "ascii") == 0
    printed = BitString.from01(capsys.readouterr().out)
    assert printed == sources.DuplicationSource(seed=7).bits(28)


def test_gen_seed_override(capsys):
    assert run_cli("gen", "bernoulli:0.5:seed=1", "--bits", "64",
                   "--format", "ascii", "--seed", "7") == 0
    printed = BitString.from01(capsys.readouterr().out)
    assert printed == sources.BernoulliSource(0.5, seed=7).bits(64)


def test_gen_bad_spec_exits_2(capsys):
    assert run_cli("gen", "noise:1:seed=0", "--bits", "8") == 2
    err = capsys.readouterr().err
    assert "bernoulli" in err and "dup" in err  # usage error lists valid kinds


def test_gen_seed_override_keeps_a_bad_spec_bad(capsys):
    # the spec is checked as given, before --seed replaces its seed
    for spec in ("bernoulli:0.5:seed=3:extra", "bernoulli:0.5:seed=oops"):
        assert run_cli("gen", spec, "--bits", "8", "--format", "ascii", "--seed", "9") == 2
        assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("gen", "SPEC", "--bits", "64", "--format", "ascii"),
    ("test", "--source", "SPEC", "--max-bits", "1024"),
    ("scan", "--source", "SPEC", "--budget", "2048"),
], ids=["gen", "test", "scan"])
def test_seed_override_of_a_spec_in_whitespace(argv, capsys):
    # the spec parses stripped, and --seed replaces the seed of the stripped spec
    for spec in ("dup ", " dup:seed=3\t"):
        assert run_cli(*(spec if a == "SPEC" else a for a in argv), "--seed", "5") == 0
        with_seed = capsys.readouterr()
        assert run_cli(*("dup:seed=5" if a == "SPEC" else a for a in argv)) == 0
        assert with_seed == capsys.readouterr()


def test_gen_to_a_text_only_stdout():
    argv = ["gen", "bernoulli:0.5:seed=1", "--bits", "8"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv + ["--format", "ascii"]) == 0
        assert main(argv) == 2
    assert out.getvalue() == sources.generate("bernoulli:0.5:seed=1", 8).to01() + "\n"
    assert err.getvalue().count("\n") == 1 and "--output" in err.getvalue()


def test_zeros_are_rejected(tmp_path, capsys):
    path = tmp_path / "zeros.bin"
    assert run_cli("gen", "bernoulli:0.0:seed=1", "--bits", str(2 ** 14),
                   "--output", str(path)) == 0
    status = run_cli("test", "--input", str(path), "--tests", "lz77",
                     "--alpha", "0.01")
    assert status == 1
    out = capsys.readouterr().out
    assert "REJECT" in out


def test_random_sample_is_accepted(tmp_path, capsys):
    path = tmp_path / "random.bin"
    run_cli("gen", "bernoulli:0.5:seed=7", "--bits", str(2 ** 14),
            "--output", str(path))
    status = run_cli("test", "--input", str(path), "--tests", "lz77",
                     "--alpha", "0.01")
    assert status == 0
    assert "ACCEPT" in capsys.readouterr().out


def test_source_input_and_json_report(capsys):
    status = run_cli("test", "--source", "bernoulli:0.5:seed=3",
                     "--max-bits", "4096", "--report", "json")
    assert status == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"statistic_bits", "p_value", "p_value_kind", "alpha",
                        "decision", "components", "input", "config",
                        "tool_version", "timestamp"}
    assert doc["decision"] == "accept"
    assert doc["config"]["tests"] == ["lz77"]
    assert doc["config"]["mode"] == "full-window"


def test_battery_combination_matches_hand_arithmetic(capsys):
    args = ("test", "--source", "bernoulli:0.5:seed=11", "--max-bits", "4096",
            "--tests", "lz77,tauk", "--alpha", "0.05", "--report", "json")
    assert run_cli(*args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["test_id"] for c in doc["components"]] == ["lz77", "tauk"]
    p1, p2 = (c["p_value"] for c in doc["components"])
    x = sources.generate("bernoulli:0.5:seed=11", 4096)
    assert p1 == reference_compression_test(x, 0.05).p_value
    assert p2 == reference_tau_k_test(x, 0.05).p_value
    assert doc["p_value"] == pytest.approx(min(1.0, p1 / 0.5, p2 / (1 / 6)))


def test_json_reports_are_reproducible_modulo_timestamp(capsys):
    args = ("test", "--source", "dup:seed=5", "--max-bits", "2048",
            "--report", "json")
    run_cli(*args)
    first = json.loads(capsys.readouterr().out)
    run_cli(*args)
    second = json.loads(capsys.readouterr().out)
    first.pop("timestamp")
    second.pop("timestamp")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_scan_duplication_stream(capsys):
    status = run_cli("scan", "--source", "dup:seed=7", "--tests", "lz77",
                     "--alpha", "1e-6", "--start-bits", "1024",
                     "--budget", str(2 ** 20), "--report", "json")
    assert status == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["first_rejection_bits"] == 131072
    assert doc["steps"][-1]["decision"] == "reject"
    assert all(s["decision"] == "accept" for s in doc["steps"][:-1])


def test_scan_random_stream_reports_none(capsys):
    status = run_cli("scan", "--source", "bernoulli:0.5:seed=2",
                     "--tests", "lz77", "--alpha", "1e-6",
                     "--budget", str(2 ** 16))
    assert status == 0
    assert "none within budget" in capsys.readouterr().out


def test_a_scan_of_a_source_draws_its_bits_once(monkeypatch, capsys):
    # each step is a prefix of the one sample: no step draws its bits again
    drawn, bits = [], sources.Source.bits

    def counted(self, n):
        drawn.append(n)
        return bits(self, n)

    monkeypatch.setattr(sources.Source, "bits", counted)
    assert run_cli("scan", "--source", "bernoulli:0.5:seed=2", "--budget", "8192") == 0
    assert "prefixes 1024 x 2^k up to 8192" in capsys.readouterr().out
    assert drawn == [8192]


@pytest.mark.parametrize("spec,test_id,budget", [
    ("bernoulli:0.5:seed=21", "lz77", 2 ** 14),
    ("bernoulli:0.5:seed=22", "tauk", 2 ** 14),
    ("bernoulli:0.1:seed=23", "tauk", 2 ** 14),
    ("markov:0.9,0.1,0.2,0.8:seed=24", "lz77", 2 ** 14),
    ("dup:seed=7", "lz77", 2 ** 17),
    ("dup:seed=25", "tauk", 2 ** 13),
])
def test_scan_steps_equal_from_scratch_scan(spec, test_id, budget, capsys):
    status = run_cli("scan", "--source", spec, "--tests", test_id, "--alpha", "1e-6",
                     "--start-bits", "512", "--budget", str(budget), "--report", "json")
    doc = json.loads(capsys.readouterr().out)
    test = reference_compression_test if test_id == "lz77" else reference_tau_k_test
    ref = reference_scan(sources.parse_source_spec(spec).bits(budget), test, 1e-6, 512)
    assert status == int(ref.rejected)
    assert doc["first_rejection_bits"] == ref.first_rejection_bits
    assert doc["p_value"] == ref.p_value
    assert [s["bits"] for s in doc["steps"]] == [s.bits for s in ref.steps]
    for got, want in zip(doc["steps"], ref.steps):
        assert got["statistic_bits"] == want.report.statistic_bits
        assert got["p_value"] == want.report.p_value
        assert got["alpha"] == want.report.alpha
        assert got["decision"] == want.report.decision


@pytest.mark.parametrize("tests", ["lz77,tauk", "tauk,lz77", "tauk"])
def test_battery_components_equal_standalone_tests(tests, capsys):
    spec = "bernoulli:0.05:seed=26"
    assert run_cli("test", "--source", spec, "--max-bits", "3000", "--tests", tests,
                   "--alpha", "0.05", "--report", "json") == 1
    doc = json.loads(capsys.readouterr().out)
    x = sources.generate(spec, 3000)
    standalone = {"lz77": reference_compression_test(x, 0.05),
                  "tauk": reference_tau_k_test(x, 0.05)}
    ids = tests.split(",")
    got = doc["components"] if len(ids) > 1 else [dict(doc, test_id=ids[0])]
    assert [c["test_id"] for c in got] == ids
    for comp in got:
        want = standalone[comp["test_id"]]
        assert comp["statistic_bits"] == want.statistic_bits
        assert comp["p_value"] == want.p_value


_GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", _GOLDEN, ids=[case["name"] for case in _GOLDEN])
def test_cli_output_matches_golden(case, capsys):
    # whole outputs and exit statuses, JSON byte for byte apart from the
    # timestamp, on the C kernel and on the Python loops
    for loops in (contextlib.nullcontext, python_loops):
        with loops():
            status = run_cli(*case["argv"])
        out = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "*"', capsys.readouterr().out)
        assert (status, out) == (case["status"], case["stdout"]), loops.__name__


def test_scan_takes_exactly_one_test(capsys):
    assert run_cli("scan", "--source", "dup:seed=1",
                   "--tests", "lz77,tauk") == 2


def test_ascii_input(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text(sources.BernoulliSource(0.5, seed=4).bits(2048).to01())
    assert run_cli("test", "--input", str(path), "--input-format", "ascii") == 0


def test_max_bits_caps_file_input(tmp_path, capsys):
    path = tmp_path / "sample.bin"
    run_cli("gen", "bernoulli:0.5:seed=6", "--bits", "8192", "--output", str(path))
    run_cli("test", "--input", str(path), "--max-bits", "1024",
            "--report", "json")
    doc = json.loads(capsys.readouterr().out)
    x = sources.BernoulliSource(0.5, seed=6).bits(1024)
    assert doc["statistic_bits"] == reference_compression_test(x, 0.01).statistic_bits


def test_window_mode_flagged_and_lz_only(capsys):
    status = run_cli("test", "--source", "bernoulli:0.5:seed=8",
                     "--max-bits", "4096", "--window-bits", "1024",
                     "--report", "json")
    assert status == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["mode"] == "bounded-window (non-consistent) mode"
    # the text reports name the mode on their first line
    for argv, head in ((("test", "--max-bits", "4096"), "input: bernoulli:0.5:seed=8 (4096 bits)"),
                       (("scan", "--budget", "4096"),
                        "scan: lz77, alpha 0.01, prefixes 1024 x 2^k up to 4096")):
        assert run_cli(*argv, "--source", "bernoulli:0.5:seed=8", "--window-bits", "1024") == 0
        assert capsys.readouterr().out.startswith(
            f"{head}, bounded-window (non-consistent) mode\n")
    assert run_cli("test", "--source", "bernoulli:0.5:seed=8",
                   "--tests", "tauk", "--window-bits", "1024") == 2


@pytest.mark.parametrize("argv", [
    ("test", "--source", "bernoulli:0.5:seed=1", "--alpha", "1.5"),
    ("test", "--source", "bernoulli:0.5:seed=1", "--tests", "nope"),
    ("test", "--input", "/nonexistent/path.bin"),
    ("test",),  # neither --input nor --source
    ("test", "--source", "bernoulli:0.5:seed=1", "--input", "x.bin"),
    ("test", "--source", "bad:spec"),
    ("test", "--source", "bernoulli:0.5:seed=3:extra", "--max-bits", "1024", "--seed", "9"),
    ("test", "--source", "bernoulli:0.5:seed=oops", "--max-bits", "1024", "--seed", "9"),
    ("gen", "dup:", "--bits", "8"),
    ("gen", "dup::seed=3", "--bits", "8"),
    ("test", "--source", "bernoulli:0.5:seed=-1"),
])
def test_usage_errors_exit_2(argv, capsys):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err


def test_unexpected_exception_fails_closed(monkeypatch, capsys):
    def exhausted(self, n):
        raise MemoryError("cannot allocate the sample")

    monkeypatch.setattr(sources.Source, "bits", exhausted)
    for argv in (("gen", "bernoulli:0.5:seed=1", "--bits", "64"),
                 ("test", "--source", "bernoulli:0.5:seed=1"),
                 ("scan", "--source", "bernoulli:0.5:seed=1", "--budget", "2048")):
        assert run_cli(*argv) == 2  # never 1, which would read as a rejection
        err = capsys.readouterr().err
        assert err == "rngcal: error: MemoryError: cannot allocate the sample\n"


def test_a_table_that_cannot_be_mapped_fails_closed(monkeypatch, capsys):
    def enomem(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", enomem)
    with mapped_tables(1):  # every table in a mapping, which cannot be had
        assert run_cli("test", "--source", "bernoulli:0.5:seed=1", "--max-bits", "4096") == 2
    err = capsys.readouterr().err
    assert err.startswith("rngcal: error: MemoryError: cannot map a table of ")
    assert err.count("\n") == 1 and err.endswith("\n")


def _refuse_to_draw(monkeypatch):
    def draw(source, n):  # every kind, dup's base included, draws here
        raise AssertionError("drew bits before checking the memory cap")

    monkeypatch.setattr(sources.Source, "bits", draw)


_INPUT_OVER_CAP = f"input of {2 ** 24} bits"
_WINDOW_OVER_CAP = f"window of {2 ** 24} bits"


@pytest.mark.parametrize("argv,message", [
    (("test", "--source", "bernoulli:0.5", "--max-bits", str(2 ** 24)), _INPUT_OVER_CAP),
    (("scan", "--source", "bernoulli:0.5", "--budget", str(2 ** 24)), _INPUT_OVER_CAP),
    (("test", "--input", "RAW"), _INPUT_OVER_CAP),
    (("scan", "--input", "RAW", "--budget", str(2 ** 25)), _INPUT_OVER_CAP),
    (("test", "--input", "-"), _INPUT_OVER_CAP),
    (("test", "--input", "RAW", "--window-bits", str(2 ** 24)), _WINDOW_OVER_CAP),
    (("scan", "--input", "RAW", "--budget", str(2 ** 25), "--window-bits", str(2 ** 24)),
     _WINDOW_OVER_CAP),
], ids=[f"argv{i}" for i in range(7)])
def test_memory_cap_is_checked_before_drawing(argv, message, tmp_path, monkeypatch, capsys):
    raw = tmp_path / "big.bin"  # 2^24 bits, sized from its header
    raw.write_bytes((2 ** 24).to_bytes(8, "little") + bytes(2 ** 21))
    read = []

    class Counted(io.BufferedReader):  # a raw input, as a path or as standard input
        def read(self, size=-1):
            data = super().read(size)
            read.append(len(data))
            return data

    _refuse_to_draw(monkeypatch)
    monkeypatch.setattr(rngcal.bits, "open", lambda path, mode: Counted(io.FileIO(path, mode)),
                        raising=False)
    with Counted(io.FileIO(raw)) as stdin:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
        assert run_cli(*(str(raw) if a == "RAW" else a for a in argv)) == 2
    assert sum(read) <= 8, "read the payload before checking the memory cap"  # the header
    err = capsys.readouterr().err
    assert err.startswith(f"rngcal: error: {message} exceeds the full-window "
                          f"memory cap ({2 ** 23} bits)")


def _raised(call) -> str:
    """The ``ValueError`` text that ``call()`` raises."""
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


_ONE_TEST_WEIGHTS = "--weights weighs the tests of a battery; pass at least two --tests ids"


@pytest.mark.parametrize("argv,message", [
    # the weights are omega_star's unless --weights lists others: no flag names them, and
    # any --schedule is refused; the two "bogus" ids keep the names these cases had while
    # --schedule was a flag that argparse refused as an invalid choice
    pytest.param(("test", "--max-bits", "4096", "--schedule", "bogus"),
                 "unrecognized arguments: --schedule bogus",
                 id="argv0-argument --schedule: invalid choice: 'bogus'"),
    (("test", "--max-bits", "4096", "--weights", "5,-1"), "schedule weights must be positive"),
    (("scan", "--budget", "4096", "--weights", "9"), "schedule weights sum to 9.0"),
    pytest.param(("scan", "--budget", "4096", "--schedule", "bogus"),
                 "unrecognized arguments: --schedule bogus",
                 id="argv3-argument --schedule: invalid choice: 'bogus'"),
    (("test", "--max-bits", "4096", "--weights", "nan,0.5"), "schedule weights must be positive"),
    (("test", "--max-bits", "4096", "--tests", "lz77,tauk", "--weights", "0.5"),
     "schedule 'custom' has no weight for component 2"),
    pytest.param(("test", "--max-bits", "4096", "--schedule", "omega_star"),
                 "unrecognized arguments: --schedule omega_star", id="schedule-omega-star"),
    # weights weigh the tests of a battery: one test would silently ignore them
    pytest.param(("test", "--max-bits", "4096", "--weights", "0.001"), _ONE_TEST_WEIGHTS,
                 id="weights-one-test"),
    pytest.param(("test", "--max-bits", "4096", "--tests", "tauk", "--weights", "1"),
                 _ONE_TEST_WEIGHTS, id="weights-tauk"),
    pytest.param(("scan", "--budget", "4096", "--weights", "0.5"), _ONE_TEST_WEIGHTS,
                 id="weights-scan"),
    # rules of the test run itself: the CLI prints what stats raises
    pytest.param(("test", "--max-bits", "4096", "--tests", "bogus"),
                 lambda: stats.PrefixScanTest("bogus"), id="unknown-test"),
    pytest.param(("scan", "--budget", "4096", "--tests", ","),
                 lambda: stats.PrefixScanTest(), id="no-test"),
    pytest.param(("test", "--max-bits", "4096", "--window-bits", "0"),
                 lambda: stats.PrefixScanTest("lz77", window_bits=0), id="window-0"),
    pytest.param(("scan", "--budget", "4096", "--tests", "tauk", "--window-bits", "8"),
                 lambda: stats.PrefixScanTest("tauk", window_bits=8), id="window-tauk"),
    pytest.param(("test", "--max-bits", "4096", "--alpha", "1.5"),
                 lambda: stats.compression_test(BitString.zeros(8), 1.5), id="alpha"),
    pytest.param(("test", "--max-bits", "4096", "--weights", "a,b"),
                 "argument --weights: invalid weights value: 'a,b'", id="weights-malformed"),
    pytest.param(("scan", "--start-bits", "4096", "--budget", "2048"),
                 lambda: stats.consistency_scan(BitString.zeros(2048), stats.PrefixScanTest("lz77"),
                                                0.01, start_bits=4096),
                 id="start-past-budget"),
    pytest.param(("scan", "--start-bits", "0"),
                 lambda: stats.consistency_scan(BitString.zeros(2 ** 20),
                                                stats.PrefixScanTest("lz77"), 0.01, start_bits=0),
                 id="start-0"),
])
def test_schedule_is_checked_before_reading_input(argv, message, monkeypatch, capsys):
    _refuse_to_draw(monkeypatch)
    assert run_cli(*argv, "--source", "bernoulli:0.5:seed=1", "--report", "json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if callable(message):
        assert captured.err == f"rngcal: error: {_raised(message)}\n"
    elif message.startswith("argument "):  # argparse: usage, then the error
        assert captured.err.startswith(f"usage: rngcal {argv[0]} ")
        assert f"\nrngcal {argv[0]}: error: {message}" in captured.err
    elif message.startswith("unrecognized "):  # the top parser collects extra arguments
        assert captured.err.startswith("usage: rngcal ")
        assert captured.err.endswith(f"\nrngcal: error: {message}\n")
    else:
        assert captured.err.startswith(f"rngcal: error: {message}")


@pytest.mark.parametrize("argv,message", [
    (("test",), "one of the arguments --input --source is required"),
    (("scan", "--budget", "4096"), "one of the arguments --input --source is required"),
    (("test", "--input", "RAW", "--source", "bernoulli:0.5:seed=1"),
     "argument --source: not allowed with argument --input"),
    (("scan", "--source", "bernoulli:0.5:seed=1", "--input", "RAW"),
     "argument --input: not allowed with argument --source"),
])
def test_the_parser_takes_one_of_input_or_source(argv, message, tmp_path, monkeypatch, capsys):
    # exit status 2 with argparse's usage message, before any bit is read or drawn
    raw = tmp_path / "sample.bin"
    write_bit_file(raw, BitString.zeros(64))
    _refuse_to_draw(monkeypatch)
    monkeypatch.setattr(rngcal.cli, "read_bit_file", lambda *a, **k: pytest.fail("read input"))
    with pytest.raises(SystemExit) as exc:
        main([str(raw) if a == "RAW" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: rngcal {argv[0]} ")
    assert captured.err.endswith(f"\nrngcal {argv[0]}: error: {message}\n")


def test_every_flag_with_choices_offers_a_choice():
    # a flag that can take one value is a constant: it belongs in the code
    parser = rngcal.cli.build_parser()
    subparsers, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == {"gen", "test", "scan"}
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.choices is not None:
                assert len(action.choices) >= 2, (name, action.option_strings)


# Peak RSS of a full-window test at the memory cap, interpreter included, in
# bytes per bit (35.1 measured: the automaton's 32, the sample's 1 and the
# interpreter's 2); the comment on lz.DEFAULT_MEMORY_CAP_BITS states it too.
CAP_PEAK_BYTES_PER_BIT = 36


# A child's peak RSS counts the peak of the process it was forked from, so
# the CLI runs under a small interpreter that waits for it and reports.
_WAIT4 = ("import os, subprocess, sys\n"
          "child = subprocess.Popen(sys.argv[1:], stderr=subprocess.DEVNULL)\n"
          "_, status, usage = os.wait4(child.pid, 0)\n"
          "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)\n")


def _run_child(tmp_path, *argv: str, stdin=None) -> tuple[int, bytes, int]:
    """Exit status, stdout and peak RSS in bytes of ``python -m rngcal.cli argv``.

    ``stdin`` is a file to redirect standard input from, or bytes to pipe in.
    """
    # the child imports the rngcal under test, installed or not
    src = str(Path(rngcal.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    feed = {"input": stdin} if isinstance(stdin, bytes) else {"stdin": stdin}
    with open(tmp_path / "out", "w+b") as out:
        run = subprocess.run([sys.executable, "-c", _WAIT4, sys.executable, "-m", "rngcal.cli",
                              *argv], stdout=out, stderr=subprocess.PIPE, env=env, check=True,
                             **feed)
        out.seek(0)
        status, peak = map(int, run.stderr.split())
        return status, out.read(), peak * 1024  # KiB on Linux


def test_full_window_test_at_the_cap_stays_within_its_bytes_per_bit(tmp_path):
    n = DEFAULT_MEMORY_CAP_BITS
    path = tmp_path / "cap.bin"
    write_bit_file(path, packed_bits(np.random.default_rng(23).integers(0, 2, n, dtype=np.uint8)))
    status, out, peak = _run_child(tmp_path, "test", "--input", str(path),
                                   "--tests", "lz77,tauk", "--report", "json")
    assert status == 0 and json.loads(out)["decision"] == "accept"
    assert peak <= CAP_PEAK_BYTES_PER_BIT * n, f"{peak / n:.1f} bytes per bit"


# Peak RSS, interpreter included, of a run that reads the header of a large
# raw file and at most a few of its bits: unpacking all 2^26 took 174 MiB,
# and reading all of standard input before sizing it 101 MiB.
SIZED_READ_PEAK_BYTES = 48 << 20


@pytest.mark.parametrize("feed,argv,status", [
    pytest.param(feed, argv, status, id=prefix + name)
    for feed, prefix in [("path", ""), ("redirected", "stdin-"), ("piped", "pipe-")]
    for argv, status, name in [((), 2, "refused"), (("--max-bits", "4096"), 0, "max-bits")]])
def test_a_raw_file_is_sized_from_its_header(feed, argv, status, tmp_path):
    n = 1 << 26  # eight times the memory cap
    path = tmp_path / "big.bin"
    path.write_bytes(n.to_bytes(8, "little") + np.random.default_rng(24).bytes(n // 8))
    with open(path, "rb") as f:
        if feed == "path":
            got, _, peak = _run_child(tmp_path, "test", "--input", str(path), *argv)
        else:
            got, _, peak = _run_child(tmp_path, "test", "--input", "-", *argv,
                                      stdin=f if feed == "redirected" else f.read())
    assert got == status
    assert peak <= SIZED_READ_PEAK_BYTES, f"{peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("argv,status", [((), 2), (("--max-bits", "4096"), 0)],
                         ids=["refused", "max-bits"])
def test_an_ascii_file_is_read_in_pieces(argv, status, tmp_path):
    n = 1 << 26  # eight times the memory cap, one line of 64 digits at a time
    path = tmp_path / "big.txt"
    rng = np.random.default_rng(26)
    with open(path, "wb") as f:
        for _ in range(8):
            digits = rng.integers(0, 2, (n // 8 // 64, 64), dtype=np.uint8) + ord("0")
            f.write(np.hstack([digits, np.full((len(digits), 1), ord("\n"), np.uint8)]).tobytes())
    got, _, peak = _run_child(tmp_path, "test", "--input", str(path), "--input-format", "ascii",
                              *argv)
    assert got == status
    assert peak <= SIZED_READ_PEAK_BYTES, f"{peak / 2 ** 20:.1f} MiB"


# Peak RSS, interpreter included, of a scan that stops at 131072 bits, whose
# table moves into a mapping with 16 MiB of room at its first growth: that
# room is resident only where it is written (20.1-20.2 MiB measured; over 30
# if the room were resident).
EARLY_SCAN_PEAK_BYTES = 24 << 20


def test_an_early_stopping_scan_holds_only_the_table_it_writes(tmp_path):
    status, out, peak = _run_child(tmp_path, "scan", "--source", "dup:seed=7", "--tests", "lz77",
                                   "--alpha", "1e-6", "--report", "json")
    assert status == 1 and json.loads(out)["first_rejection_bits"] == 131072
    assert peak <= EARLY_SCAN_PEAK_BYTES, f"{peak / 2 ** 20:.1f} MiB"


def test_scan_cap_counts_the_bits_a_file_holds(tmp_path, capsys):
    path = tmp_path / "short.bin"
    run_cli("gen", "bernoulli:0.5:seed=4", "--bits", "4096", "--output", str(path))
    assert run_cli("scan", "--input", str(path), "--budget", str(2 ** 30)) == 0
    out = capsys.readouterr().out
    assert out.startswith("scan: lz77, alpha 0.01, prefixes 1024 x 2^k up to 4096\n")
    assert "none within budget" in out


@pytest.mark.parametrize("window", [(), ("--window-bits", "256")])
def test_scan_of_a_file_shorter_than_start_bits_is_an_error(window, tmp_path, capsys):
    path = tmp_path / "short.bin"
    run_cli("gen", "bernoulli:0.0:seed=1", "--bits", "500", "--output", str(path))
    with mock.patch.object(stats.PrefixScanTest, "reports") as analysis, \
            mock.patch.object(stats, "compression_test") as test:
        assert run_cli("scan", "--input", str(path), *window) == 2
    assert not analysis.called and not test.called
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("rngcal: error: need 1 <= start_bits <= max_bits, "
                            "got start_bits 1024 and max_bits 500\n")


@pytest.mark.parametrize("fmt,data", [("raw", bytes(8)), ("ascii", b" \n")])
@pytest.mark.parametrize("argv", [(), ("--tests", "lz77,tauk"), ("--window-bits", "8")])
def test_an_input_with_no_bits_is_an_error(fmt, data, argv, tmp_path, capsys):
    path = tmp_path / "empty"
    path.write_bytes(data)
    assert run_cli("test", "--input", str(path), "--input-format", fmt, *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rngcal: error: input has no bits\n"


def test_a_test_or_scan_of_a_file_imports_no_numpy(tmp_path):
    # numpy costs a CLI child about 0.13 s and 13 MiB, and no run needs it
    path = tmp_path / "sample.bin"
    sample = sources.BernoulliSource(0.5, seed=31).bits(4096)
    write_bit_file(path, sample)
    src = str(Path(rngcal.__file__).parent.parent)
    code = (f"import contextlib, io, sys; sys.path.insert(0, {src!r})\n"
            "from rngcal.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    runs = [main(['test', '--input', {str(path)!r}, '--tests', 'lz77,tauk',\n"
            "                  '--report', 'json'])]\n"
            f"    sys.stdin = io.TextIOWrapper(io.BytesIO({encode_bits(sample, 'ascii')!r}))\n"
            "    runs.append(main(['test', '--input', '-', '--input-format', 'ascii']))\n"
            f"    runs.append(main(['scan', '--input', {str(path)!r}, '--tests', 'tauk']))\n"
            "    numpy = 'numpy' in sys.modules\n"
            "    runs.append(main(['test', '--source', 'bernoulli:0.5:seed=1']))\n"
            "print(runs, numpy)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[0] == "[0, 0, 0, 0] False"


@pytest.mark.parametrize("argv,status", [
    (["gen", "markov:0.9,0.1,0.2,0.8:seed=1", "--bits", "65536", "--output", "OUT"], 0),
    (["test", "--source", "bernoulli:0.5:seed=1", "--tests", "lz77,tauk"], 0),
    (["scan", "--source", "dup:seed=7", "--alpha", "1e-6"], 1),
], ids=["gen", "test", "scan"])
def test_a_source_draws_without_numpy(argv, status, tmp_path):
    # numpy costs a CLI child about 76 ms and 12.5 MiB, and no command needs it
    argv = [str(tmp_path / "out.bin") if a == "OUT" else a for a in argv]
    src = str(Path(rngcal.__file__).parent.parent)
    code = (f"import contextlib, io, sys; sys.path.insert(0, {src!r})\n"
            "from rngcal.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = main({argv!r})\n"
            "print(status, 'numpy' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"{status} False\n"


def test_a_test_or_scan_of_a_file_loads_only_the_modules_it_uses(tmp_path):
    # dataclasses (with inspect, ast, dis and tokenize) and sysconfig cost a CLI child about
    # a quarter of its start-up, no run needs typing, and only a JSON report writes json or a date
    path = tmp_path / "sample.bin"
    write_bit_file(path, sources.BernoulliSource(0.5, seed=31).bits(4096))
    unused = {"dataclasses", "inspect", "ast", "sysconfig", "typing"}
    if lz._kernel() is None:  # each run tries to build the kernel, and a build needs sysconfig
        unused.remove("sysconfig")
    src = str(Path(rngcal.__file__).parent.parent)
    code = ("import contextlib, io, sys\n"
            "start = set(sys.modules)\n"  # what this interpreter loads before rngcal
            f"sys.path.insert(0, {src!r})\n"
            "from rngcal.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    runs = [main(['test', '--input', {str(path)!r}])]\n"
            "    text = set(sys.modules) - start\n"
            f"    runs.append(main(['test', '--input', {str(path)!r}, '--tests', 'lz77,tauk',\n"
            "                      '--report', 'json']))\n"
            f"    runs.append(main(['scan', '--input', {str(path)!r}]))\n"
            f"print(runs, sorted((set(sys.modules) - start).intersection({sorted(unused)!r})),\n"
            "      sorted(text & {'json', 'datetime'}))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[0] == "[0, 0, 0] [] []"


def test_console_script_stdin_roundtrip(tmp_path):
    # the children import the rngcal under test, installed or not
    src = str(Path(rngcal.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    sample = sources.BernoulliSource(0.5, seed=9).bits(4096)
    gen = subprocess.run(
        [sys.executable, "-m", "rngcal.cli", "gen", "bernoulli:0.5:seed=9",
         "--bits", "4096"],
        capture_output=True, check=True, env=env)
    assert decode_bits(gen.stdout) == sample
    test = subprocess.run(
        [sys.executable, "-m", "rngcal.cli", "test", "--input", "-"],
        input=gen.stdout, capture_output=True, env=env)
    assert test.returncode == 0, test.stderr.decode()


def test_help_lists_subcommands():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def _run_with_stdin(data: bytes, *argv: str, stream=io.BytesIO) -> tuple[int, str]:
    """Exit status and stdout of ``rngcal argv`` reading ``data`` from stdin,
    a ``stream`` of it."""
    stdin = io.TextIOWrapper(stream(data))
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(list(argv))
    return status, out.getvalue()


def _test_stdin(data: bytes, *argv: str) -> int:
    """Exit status of ``rngcal test --input -`` reading ``data`` from stdin."""
    return _run_with_stdin(data, "test", "--input", "-", *argv)[0]


_MALFORMED_RAW = st.one_of(
    st.binary(max_size=7),  # shorter than the 8-byte header
    st.tuples(st.integers(0, 600) | st.integers(0, (1 << 64) - 1), st.binary(max_size=80))
    .filter(lambda t: t[0] == 0 or len(t[1]) != (t[0] + 7) // 8)  # no bits, or a wrong payload
    .map(lambda t: t[0].to_bytes(8, "little") + t[1]),
)


@settings(max_examples=100, deadline=None)
@given(_MALFORMED_RAW)
def test_malformed_raw_stdin_exits_2(data):
    assert _test_stdin(data) == 2


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=40), st.integers(0x80, 0xFF), st.binary(max_size=40))
def test_non_ascii_stdin_exits_2(head, byte, tail):
    assert _test_stdin(head + bytes([byte]) + tail, "--input-format", "ascii") == 2


_ASCII_BYTES = st.lists(st.sampled_from([b"0", b"1", b" ", b"\t", b"\n", b"\r", b"\x0b",
                                         b"\x0c", b"\x1c", b"\x85", b"\xa0", b"\xc2",
                                         b"\xef\xbb\xbf", b"2", b"\x00"]),
                        max_size=300).map(b"".join)
_RAW_BYTES = st.one_of(
    st.lists(st.integers(0, 1), max_size=300).map(lambda b: encode_bits(BitString(b))),
    _MALFORMED_RAW)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(st.just("ascii"), _ASCII_BYTES),
                 st.tuples(st.just("raw"), _RAW_BYTES)))
@example(("ascii", b"0\xc2\xa01\n"))  # a UTF-8 no-break space is not ASCII whitespace
@example(("ascii", b"\xef\xbb\xbf0101\n"))  # nor is a byte-order mark
@example(("ascii", b"0110 1\r\n\x0b\x0c0"))
def test_file_and_stdin_give_the_same_result(case):
    fmt, data = case
    argv = ("--input-format", fmt, "--tests", "lz77,tauk", "--report", "json")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sample")
        Path(path).write_bytes(data)
        from_file = _run_with_stdin(b"", "test", "--input", path, *argv)
    from_stdin = _run_with_stdin(data, "test", "--input", "-", *argv)
    from_pipe = _run_with_stdin(data, "test", "--input", "-", *argv, stream=Pipe)

    def masked(result):
        status, out = result
        out = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "*"', out)
        return status, re.sub(r'"input": "[^"]*"', '"input": "*"', out)

    assert masked(from_file) == masked(from_stdin) == masked(from_pipe)


@pytest.mark.parametrize("fmt", ["raw", "ascii"])
@pytest.mark.parametrize("spec,n", [("markov:0.9,0.1,0.3,0.7:seed=2", 1000), ("dup:seed=3", 0)])
def test_gen_to_file_and_to_stdout_write_the_same_bytes(fmt, spec, n, tmp_path, capsysbinary):
    path = tmp_path / "sample"
    assert run_cli("gen", spec, "--bits", str(n), "--format", fmt, "--output", str(path)) == 0
    assert run_cli("gen", spec, "--bits", str(n), "--format", fmt) == 0
    assert capsysbinary.readouterr().out == path.read_bytes()
