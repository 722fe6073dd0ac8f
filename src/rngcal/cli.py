"""Command-line front end.

Subcommands:

* ``gen``  — emit bits from a source spec (see :mod:`rngcal.sources`);
* ``test`` — run one or more tests on a file, stdin, or a generated stream;
* ``scan`` — evaluate a test on doubling prefixes and report the first
  rejection length.

Exit status: 0 the sample is accepted, 1 it is rejected, 2 usage or I/O
error.  With several tests selected, their p-values are combined through
the weight schedule into a single battery decision; weights are assigned to
tests by position, so the order of ``--tests`` matters.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys
from dataclasses import dataclass

from . import __version__, lz, sources, stats
from .bits import BitString, pack, read_bit_file, unpack
from .lz import DEFAULT_MEMORY_CAP_BITS

TEST_IDS = ("lz77", "tauk")
DEFAULT_ALPHA = 0.01

_EXIT_ACCEPT = 0
_EXIT_REJECT = 1
_EXIT_ERROR = 2


class CliError(Exception):
    """Configuration or I/O problem; maps to exit status 2."""


@dataclass
class RunConfig:
    """Validated settings for ``test`` and ``scan``."""

    tests: list[str]
    alpha: float = DEFAULT_ALPHA
    schedule_name: str = "omega_star"
    weights: list[float] | None = None
    input_format: str = "raw"
    source_spec: str | None = None
    max_bits: int | None = None
    window_bits: int | None = None
    report_format: str = "text"
    start_bits: int = 1024
    budget_bits: int = 1 << 20
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise CliError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.tests:
            raise CliError("at least one test must be selected")
        for t in self.tests:
            if t not in TEST_IDS:
                raise CliError(f"unknown test {t!r}; available: {', '.join(TEST_IDS)}")
        if self.max_bits is not None and self.max_bits < 1:
            raise CliError(f"max bits must be >= 1, got {self.max_bits}")
        if self.window_bits is not None:
            if self.window_bits < 1:
                raise CliError(f"window bits must be >= 1, got {self.window_bits}")
            if any(t != "lz77" for t in self.tests):
                raise CliError("bounded-window mode is only available for the lz77 test")
        if self.start_bits < 1 or self.budget_bits < self.start_bits:
            raise CliError(f"need 1 <= start bits <= budget, got start {self.start_bits} "
                           f"and budget {self.budget_bits}")

    def schedule(self) -> stats.WeightSchedule:
        if self.weights is not None:
            return stats.WeightSchedule.from_weights(self.weights)
        if self.schedule_name == "omega_star":
            return stats.OMEGA_STAR
        raise CliError(f"unknown schedule {self.schedule_name!r}; "
                       f"available: omega_star (or pass --weights)")

    def to_dict(self) -> dict:
        return {
            "tests": list(self.tests),
            "alpha": self.alpha,
            "schedule": self.schedule_name if self.weights is None else "custom",
            "weights": self.weights,
            "input_format": self.input_format,
            "source": self.source_spec,
            "max_bits": self.max_bits,
            "window_bits": self.window_bits,
            "mode": ("bounded-window (non-consistent) mode"
                     if self.window_bits is not None else "full-window"),
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# input plumbing


def _apply_seed(spec: str, seed: int | None) -> str:
    if seed is None:
        return spec
    base = spec.split(":seed=")[0]
    return f"{base}:seed={seed}"


def _open_input(args) -> tuple[BitString | sources.Source, str]:
    """The stream named by ``--input`` or ``--source``, and its label.

    A file or stdin is read whole; a source spec is only parsed, so the
    caller can check the sample size before any bit is drawn.
    """
    if (args.source is None) == (args.input is None):
        raise CliError("exactly one of --input or --source is required")
    if args.source is not None:
        spec = _apply_seed(args.source, args.seed)
        try:
            return sources.parse_source_spec(spec), spec
        except ValueError as exc:
            raise CliError(str(exc)) from None
    label = "stdin" if args.input == "-" else args.input
    try:
        if args.input == "-":
            data = sys.stdin.buffer.read()
            bits = (unpack(data) if args.input_format == "raw"
                    else BitString.from01(data.decode("ascii", errors="strict")))
        else:
            bits = read_bit_file(args.input, fmt=args.input_format)
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {label}: {exc}") from None
    return bits, label


def _check_memory_cap(n_bits: int) -> None:
    """A full-window analysis holds a suffix automaton of all its bits at once."""
    cap = DEFAULT_MEMORY_CAP_BITS
    if n_bits > cap:
        raise CliError(
            f"input of {n_bits} bits exceeds the full-window memory cap "
            f"({cap} bits); pass --window-bits to use bounded-window mode")


def _lz77_test(window_bits: int | None):
    if window_bits is None:
        return functools.partial(stats.compression_test, test_id="lz77")
    code = functools.partial(lz.block_code_length, block_bits=window_bits)
    return functools.partial(stats.compression_test, code=code, test_id="lz77")


def _run_tests(bits: BitString, config: RunConfig) -> stats.TestReport:
    if len(bits) < 1:
        raise CliError("input has no bits")
    if config.window_bits is None and "tauk" in config.tests:
        # tau_k needs the prefix-cost table, which also holds the lz77 code length
        table = lz.prefix_code_lengths(bits)
        reports = stats.prefix_cost_reports(table, config.tests, config.alpha)
    else:
        test = _lz77_test(config.window_bits)
        reports = [test(bits, config.alpha) for _ in config.tests]
    if len(reports) == 1:
        return reports[0]
    return stats.battery_report(reports, config.tests, config.alpha, config.schedule())


# ---------------------------------------------------------------------------
# output plumbing


def _json_document(payload: dict, config: RunConfig, input_label: str) -> str:
    document = dict(payload)
    document["input"] = input_label
    document["config"] = config.to_dict()
    document["tool_version"] = __version__
    document["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return json.dumps(document, sort_keys=True, separators=(", ", ": "))


def _print_report_text(report: stats.TestReport, input_label: str, n_bits: int) -> None:
    print(f"input: {input_label} ({n_bits} bits)")
    if report.components:
        for comp in report.components:
            print(f"  {comp.test_id}: statistic {comp.statistic_bits:g} bits, "
                  f"p-value {comp.p_value:.6g}")
        print(f"battery p-value: {report.p_value:.6g} ({report.p_value_kind})")
    else:
        name = report.detail.get("test_id", "test")
        print(f"  {name}: statistic {report.statistic_bits:g} bits, "
              f"p-value {report.p_value:.6g} ({report.p_value_kind})")
    print(f"alpha: {report.alpha:g}")
    print(f"decision: {report.decision.upper()}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    spec = _apply_seed(args.spec, args.seed)
    try:
        bits = sources.generate(spec, args.bits)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.output == "-":
        if args.format == "raw":
            sys.stdout.buffer.write(pack(bits))
        else:
            sys.stdout.write(bits.to01() + "\n")
    else:
        try:
            from .bits import write_bit_file
            write_bit_file(args.output, bits, fmt=args.format)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc}") from None
    return _EXIT_ACCEPT


def cmd_test(args) -> int:
    config = RunConfig(
        tests=[t.strip() for t in args.tests.split(",") if t.strip()],
        alpha=args.alpha,
        schedule_name=args.schedule,
        weights=_parse_weights(args.weights),
        input_format=args.input_format,
        source_spec=args.source,
        max_bits=args.max_bits,
        window_bits=args.window_bits,
        report_format=args.report,
        seed=args.seed,
    )
    stream, label = _open_input(args)
    if isinstance(stream, BitString):
        n = len(stream) if args.max_bits is None else min(args.max_bits, len(stream))
    else:
        n = 1 << 16 if args.max_bits is None else args.max_bits
    if config.window_bits is None:
        _check_memory_cap(n)
    bits = stream.prefix(n) if isinstance(stream, BitString) else stream.bits(n)
    report = _run_tests(bits, config)
    if config.report_format == "json":
        print(_json_document(report.to_dict(), config, label))
    else:
        _print_report_text(report, label, len(bits))
    return _EXIT_REJECT if report.rejected else _EXIT_ACCEPT


def cmd_scan(args) -> int:
    config = RunConfig(
        tests=[t.strip() for t in args.tests.split(",") if t.strip()],
        alpha=args.alpha,
        schedule_name=args.schedule,
        weights=_parse_weights(args.weights),
        input_format=args.input_format,
        source_spec=args.source,
        window_bits=args.window_bits,
        report_format=args.report,
        start_bits=args.start_bits,
        budget_bits=args.budget,
        seed=args.seed,
    )
    if len(config.tests) != 1:
        raise CliError("scan drives a single test; pass exactly one --tests id")
    stream, label = _open_input(args)
    if config.window_bits is None:
        # one automaton lives for the whole scan, up to the last prefix
        limit = config.budget_bits
        if isinstance(stream, BitString):
            limit = min(limit, len(stream))
        _check_memory_cap(limit)
        runner = stats.PrefixScanTest(config.tests[0])
    else:
        runner = _lz77_test(config.window_bits)
    result = stats.consistency_scan(stream, runner, config.alpha,
                                    start_bits=config.start_bits,
                                    max_bits=config.budget_bits)
    if config.report_format == "json":
        payload = {
            "first_rejection_bits": result.first_rejection_bits,
            "steps": [{"bits": s.bits, **s.report.to_dict()} for s in result.steps],
        }
        print(_json_document(payload, config, label))
    else:
        print(f"scan: {config.tests[0]}, alpha {config.alpha:g}, prefixes "
              f"{config.start_bits} x 2^k up to {config.budget_bits}")
        for step in result.steps:
            r = step.report
            print(f"  {step.bits:>9} bits: statistic {r.statistic_bits:>12g} bits, "
                  f"p-value {r.p_value:.6g}, {r.decision}")
        if result.first_rejection_bits is None:
            print("first rejection: none within budget")
        else:
            print(f"first rejection: {result.first_rejection_bits} bits")
    return _EXIT_REJECT if result.rejected else _EXIT_ACCEPT


def _parse_weights(raw: str | None) -> list[float] | None:
    if raw is None:
        return None
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError:
        raise CliError(f"malformed --weights {raw!r}") from None


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rngcal",
        description="Compression-based randomness testing for bit streams.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate bits from a source spec")
    gen.add_argument("spec", help="source spec, e.g. bernoulli:0.5:seed=7 or dup:seed=7")
    gen.add_argument("--bits", type=int, required=True, help="number of bits to emit")
    gen.add_argument("--format", choices=("raw", "ascii"), default="raw")
    gen.add_argument("--output", default="-", help="output path, '-' for stdout")
    gen.add_argument("--seed", type=int, default=None,
                     help="override the seed embedded in the spec")
    gen.set_defaults(func=cmd_gen)

    def common_test_args(p):
        p.add_argument("--input", default=None, help="input path, '-' for stdin")
        p.add_argument("--source", default=None, help="generate the sample instead")
        p.add_argument("--input-format", choices=("raw", "ascii"), default="raw")
        p.add_argument("--tests", default="lz77",
                       help=f"comma-separated test ids from: {', '.join(TEST_IDS)}")
        p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
        p.add_argument("--schedule", default="omega_star")
        p.add_argument("--weights", default=None,
                       help="custom battery weights, comma separated")
        p.add_argument("--window-bits", type=int, default=None,
                       help="bounded-window (non-consistent) mode block size")
        p.add_argument("--report", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed embedded in --source")

    test = sub.add_parser("test", help="run tests on a sample")
    common_test_args(test)
    test.add_argument("--max-bits", type=int, default=None,
                      help="cap the sample length (bits drawn when --source is "
                           "used; default 65536 there)")
    test.set_defaults(func=cmd_test)

    scan = sub.add_parser("scan", help="first rejection length over doubling prefixes")
    common_test_args(scan)
    scan.add_argument("--start-bits", type=int, default=1024)
    scan.add_argument("--budget", type=int, default=1 << 20,
                      help="largest prefix length to evaluate")
    scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"rngcal: error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    except BrokenPipeError:
        return _EXIT_ERROR
    except Exception as exc:
        # Fail closed: exit status 1 means "reject", so a crash or an
        # exhausted resource must not end with it.
        message = " ".join(str(exc).split())
        print(f"rngcal: error: {type(exc).__name__}{': ' if message else ''}{message}",
              file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
