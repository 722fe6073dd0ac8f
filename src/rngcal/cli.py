"""Command-line front end.

Subcommands:

* ``gen``  — emit bits from a source spec (see :mod:`rngcal.sources`);
* ``test`` — run one or more tests on a file, stdin, or a generated stream;
* ``scan`` — evaluate a test on doubling prefixes and report the first
  rejection length.

Exit status: 0 the sample is accepted, 1 it is rejected, 2 usage or I/O
error.  With several tests selected, their p-values are combined through
``omega_star``, or the ``--weights`` given, into a single battery decision;
weights are assigned to tests by position, so the order of ``--tests`` matters.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, stats
from .bits import BitString, encode_bits, read_bit_file, write_bit_file
from .lz import DEFAULT_MEMORY_CAP_BITS

DEFAULT_ALPHA = 0.01
_WINDOWED = "bounded-window (non-consistent) mode"

_EXIT_ACCEPT = 0
_EXIT_REJECT = 1
_EXIT_ERROR = 2


class CliError(Exception):
    """Configuration or I/O problem; maps to exit status 2."""


def _check_args(args) -> stats.PrefixScanTest:
    """Check the options of ``test`` and ``scan`` before any input is read.

    Returns the run's engine.
    ``stats`` checks the rules of the test run itself (alpha, test ids,
    window, weights, the scan's grid), and the parser the syntax and choices
    of each flag; the checks here name the CLI's own flags.
    """
    stats._check_alpha(args.alpha)
    engine = stats.PrefixScanTest(*args.tests, window_bits=args.window_bits)
    if args.command == "scan":
        if len(args.tests) != 1:
            raise CliError("scan drives a single test; pass exactly one --tests id")
        stats._check_grid(args.start_bits, args.budget)
    max_bits = getattr(args, "max_bits", None)
    if max_bits is not None and max_bits < 1:
        raise CliError(f"max bits must be >= 1, got {max_bits}")
    stats._battery_weights(args.weights, len(args.tests))  # bad --weights: that error first
    if len(args.tests) == 1 and args.weights is not None:
        raise CliError("--weights weighs the tests of a battery; pass at least two --tests ids")
    return engine


def _config(args) -> dict:
    """The ``config`` block of a JSON report."""
    return {
        "tests": args.tests,
        "alpha": args.alpha,
        "schedule": "omega_star" if args.weights is None else "custom",
        "weights": args.weights,
        "input_format": args.input_format,
        "source": args.source,
        "max_bits": getattr(args, "max_bits", None),
        "window_bits": args.window_bits,
        "mode": "full-window" if args.window_bits is None else _WINDOWED,
        "seed": args.seed,
    }


# ---------------------------------------------------------------------------
# input plumbing


def _resolve_sample(args, limit: int | None) -> tuple[BitString, str]:
    """The sample named by ``--input`` or ``--source``: ``(bits, label)``.

    ``bits`` holds ``limit`` bits capped at the bits the input holds (a
    source draws 2^16 bits when ``limit`` is None); that length, or a window
    of it, is checked against the memory cap before any bit is drawn, and
    before a raw input's payload is read.
    """
    def size(count: int) -> int:
        n = count if limit is None else min(limit, count)
        # an analysis holds a suffix automaton of all the bits of a window at once
        if args.window_bits is None and n > DEFAULT_MEMORY_CAP_BITS:
            raise CliError(f"input of {n} bits exceeds the full-window memory cap "
                           f"({DEFAULT_MEMORY_CAP_BITS} bits); pass --window-bits to use "
                           f"bounded-window mode")
        if args.window_bits is not None and min(n, args.window_bits) > DEFAULT_MEMORY_CAP_BITS:
            raise CliError(f"window of {min(n, args.window_bits)} bits exceeds the "
                           f"full-window memory cap ({DEFAULT_MEMORY_CAP_BITS} bits)")
        return n

    if args.source is not None:
        from . import sources  # here: it needs numpy, which a file does not

        try:
            label = sources.apply_seed(args.source, args.seed)
            source = sources.parse_source_spec(label)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        return source.bits(size(1 << 16 if limit is None else limit)), label
    label = "stdin" if args.input == "-" else args.input
    try:
        bits = read_bit_file(sys.stdin.buffer if args.input == "-" else args.input,
                             fmt=args.input_format, take=size)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {label}: {exc}") from None
    return bits, label


# ---------------------------------------------------------------------------
# output plumbing


def _json_document(payload: dict, args, input_label: str) -> str:
    import datetime  # here: a text report needs neither, and they cost every run
    import json

    document = dict(payload)
    document["input"] = input_label
    document["config"] = _config(args)
    document["tool_version"] = __version__
    document["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return json.dumps(document, sort_keys=True, separators=(", ", ": "))


def _mode_note(args) -> str:
    """What a text report's first line ends with: the mode of a windowed run."""
    return "" if args.window_bits is None else f", {_WINDOWED}"


def _print_report_text(report: stats.TestReport, head: str) -> None:
    print(f"input: {head}")
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
    from . import sources
    # a text-only stdout (one without a byte buffer) takes ascii, never raw bytes
    binary_out = getattr(sys.stdout, "buffer", None)
    if args.output == "-" and binary_out is None and args.format == "raw":
        raise CliError("standard output takes only text; write raw bits with --output PATH")
    try:
        bits = sources.generate(sources.apply_seed(args.spec, args.seed), args.bits)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.output == "-":
        data = encode_bits(bits, args.format)
        if binary_out is None:
            sys.stdout.write(data.decode("ascii"))
        else:
            binary_out.write(data)
        return _EXIT_ACCEPT
    try:
        write_bit_file(args.output, bits, fmt=args.format)
    except OSError as exc:
        raise CliError(f"cannot write {args.output}: {exc}") from None
    return _EXIT_ACCEPT


def cmd_test(args) -> int:
    engine = _check_args(args)
    bits, label = _resolve_sample(args, args.max_bits)
    reports = engine.reports(bits, args.alpha)
    report = (reports[0] if len(reports) == 1
              else stats.battery_report(reports, args.tests, args.alpha, args.weights))
    if args.report == "json":
        print(_json_document(report.to_dict(), args, label))
    else:
        _print_report_text(report, f"{label} ({len(bits)} bits){_mode_note(args)}")
    return _EXIT_REJECT if report.rejected else _EXIT_ACCEPT


def cmd_scan(args) -> int:
    engine = _check_args(args)
    bits, label = _resolve_sample(args, args.budget)
    n = len(bits)  # drawn or read once: a scan's steps are its prefixes
    result = stats.consistency_scan(bits.prefix, engine, args.alpha,
                                    start_bits=args.start_bits, max_bits=n)
    if args.report == "json":
        payload = {
            "first_rejection_bits": result.first_rejection_bits,
            "steps": [{"bits": s.bits, **s.report.to_dict()} for s in result.steps],
        }
        print(_json_document(payload, args, label))
    else:
        print(f"scan: {args.tests[0]}, alpha {args.alpha:g}, prefixes "
              f"{args.start_bits} x 2^k up to {n}{_mode_note(args)}")
        for step in result.steps:
            r = step.report
            print(f"  {step.bits:>9} bits: statistic {r.statistic_bits:>12g} bits, "
                  f"p-value {r.p_value:.6g}, {r.decision}")
        if result.first_rejection_bits is None:
            print("first rejection: none within budget")
        else:
            print(f"first rejection: {result.first_rejection_bits} bits")
    return _EXIT_REJECT if result.rejected else _EXIT_ACCEPT


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

    def weights(raw: str) -> list[float]:  # argparse names it in a malformed value's error
        return [float(v) for v in raw.split(",")]

    def common_test_args(p):
        sample = p.add_mutually_exclusive_group(required=True)
        sample.add_argument("--input", help="input path, '-' for stdin")
        sample.add_argument("--source", help="generate the sample instead")
        p.add_argument("--input-format", choices=("raw", "ascii"), default="raw")
        p.add_argument("--tests", default="lz77",  # argparse parses a str default too
                       type=lambda raw: [t.strip() for t in raw.split(",") if t.strip()],
                       help=f"comma-separated test ids from: {', '.join(stats.TEST_IDS)}")
        p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
        p.add_argument("--weights", type=weights, default=None,
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
