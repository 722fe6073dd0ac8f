from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rngcal
from rngcal import sources, stats
from rngcal.bits import BitString, read_bit_file, unpack
from rngcal.cli import main

DIGEST_BERNOULLI_05_SEED7_1024 = (
    "2db8ca59e8ff6d81ac7a0b30e2d35769ffee63cc33a1d55ecad6979f920ed8c8")


def run_cli(*argv):
    return main(list(argv))


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
            "--tests", "lz77,tauk", "--schedule", "omega_star",
            "--alpha", "0.05", "--report", "json")
    assert run_cli(*args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["test_id"] for c in doc["components"]] == ["lz77", "tauk"]
    p1, p2 = (c["p_value"] for c in doc["components"])
    x = sources.generate("bernoulli:0.5:seed=11", 4096)
    assert p1 == stats.compression_test(x, 0.05).p_value
    assert p2 == stats.tau_k_test(x, alpha=0.05).p_value
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
    test = (stats.compression_test if test_id == "lz77"
            else lambda x, alpha: stats.tau_k_test(x, alpha=alpha))
    ref = stats.consistency_scan(sources.parse_source_spec(spec), test, 1e-6,
                                 start_bits=512, max_bits=budget)
    assert status == int(ref.rejected)
    assert doc["first_rejection_bits"] == ref.first_rejection_bits
    assert [s["bits"] for s in doc["steps"]] == [s.bits for s in ref.steps]
    for got, want in zip(doc["steps"], ref.steps):
        assert got["statistic_bits"] == want.report.statistic_bits
        assert got["p_value"] == want.report.p_value
        assert got["decision"] == want.report.decision


@pytest.mark.parametrize("tests", ["lz77,tauk", "tauk,lz77", "tauk"])
def test_battery_components_equal_standalone_tests(tests, capsys):
    spec = "bernoulli:0.05:seed=26"
    assert run_cli("test", "--source", spec, "--max-bits", "3000", "--tests", tests,
                   "--alpha", "0.05", "--report", "json") == 1
    doc = json.loads(capsys.readouterr().out)
    x = sources.generate(spec, 3000)
    standalone = {"lz77": stats.compression_test(x, 0.05),
                  "tauk": stats.tau_k_test(x, alpha=0.05)}
    ids = tests.split(",")
    got = doc["components"] if len(ids) > 1 else [dict(doc, test_id=ids[0])]
    assert [c["test_id"] for c in got] == ids
    for comp in got:
        want = standalone[comp["test_id"]]
        assert comp["statistic_bits"] == want.statistic_bits
        assert comp["p_value"] == want.p_value


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
    assert doc["statistic_bits"] == stats.compression_test(x, 0.01).statistic_bits


def test_window_mode_flagged_and_lz_only(capsys):
    status = run_cli("test", "--source", "bernoulli:0.5:seed=8",
                     "--max-bits", "4096", "--window-bits", "1024",
                     "--report", "json")
    assert status == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["mode"] == "bounded-window (non-consistent) mode"
    assert run_cli("test", "--source", "bernoulli:0.5:seed=8",
                   "--tests", "tauk", "--window-bits", "1024") == 2


@pytest.mark.parametrize("argv", [
    ("test", "--source", "bernoulli:0.5:seed=1", "--alpha", "1.5"),
    ("test", "--source", "bernoulli:0.5:seed=1", "--tests", "nope"),
    ("test", "--input", "/nonexistent/path.bin"),
    ("test",),  # neither --input nor --source
    ("test", "--source", "bernoulli:0.5:seed=1", "--input", "x.bin"),
    ("test", "--source", "bad:spec"),
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


def _refuse_to_draw(monkeypatch):
    def draw(self, n):
        raise AssertionError(f"drew {n} bits before checking the memory cap")

    monkeypatch.setattr(sources.Source, "bits", draw)


@pytest.mark.parametrize("argv", [
    ("test", "--source", "bernoulli:0.5", "--max-bits", str(2 ** 24)),
    ("scan", "--source", "bernoulli:0.5", "--budget", str(2 ** 24)),
])
def test_memory_cap_is_checked_before_drawing(argv, monkeypatch, capsys):
    _refuse_to_draw(monkeypatch)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rngcal: error: input of {2 ** 24} bits exceeds the full-window "
                          f"memory cap ({2 ** 23} bits)")


def test_scan_cap_counts_the_bits_a_file_holds(tmp_path, capsys):
    path = tmp_path / "short.bin"
    run_cli("gen", "bernoulli:0.5:seed=4", "--bits", "4096", "--output", str(path))
    assert run_cli("scan", "--input", str(path), "--budget", str(2 ** 30)) == 0
    assert "none within budget" in capsys.readouterr().out


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
    assert unpack(gen.stdout) == sample
    test = subprocess.run(
        [sys.executable, "-m", "rngcal.cli", "test", "--input", "-"],
        input=gen.stdout, capture_output=True, env=env)
    assert test.returncode == 0, test.stderr.decode()


def test_help_lists_subcommands():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def _test_stdin(data: bytes, *argv: str) -> int:
    """Exit status of ``rngcal test --input -`` reading ``data`` from stdin."""
    stdin = io.TextIOWrapper(io.BytesIO(data))
    with mock.patch.object(sys, "stdin", stdin), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["test", "--input", "-", *argv])


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
