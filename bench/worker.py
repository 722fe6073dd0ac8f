"""Child process that runs rngcal calls in-process.

    worker.py api api-small SEED DIR --seconds S [--smoke]  timed api-small cycles
    worker.py trace WORKLOAD SEED DIR --seconds S [--smoke] pairs of one untraced
                                                            and one traced cycle

``run.py`` starts it with ``PYTHONPATH`` set to the checkout's ``src``, after
``setup_inputs.py`` has written the inputs.  It prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import rngcal
from rngcal import bits, cli, lz, reference, stats

import spans
import speed
import workloads
from setup_inputs import check_package_origin, write_inputs
from workloads import MC_ALPHA, Call, Input, input_path


def load_inputs(items: list[Input], input_dir: Path) -> dict:
    return {item.key: bits.read_bit_file(input_path(input_dir, item.key)) for item in items}


# ---------------------------------------------------------------------------
# api-small


def lz77_statistic(y) -> int:
    """Bits saved by the LZ77 code: the statistic of the compression test."""
    return len(y) - lz.code_length(y)


def api_cycle(calls: list[Call], xs: dict, marks: speed.Marks,
              tracer=None) -> list[tuple[Call, float, object, float]]:
    """One pass over the api-small batch: (call, seconds, result or exception,
    start), with ``perf_counter`` times.  ``marks`` gets a mark before each
    call that is due one."""
    codewords = {}
    out = []
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call = i
        marks.mark_if_due()
        x = xs[call.input]
        t0 = perf_counter()
        try:
            if call.mode == "exact":
                value = stats.exact_p_value(x, lz77_statistic)
            elif call.mode == "mc":
                value = stats.compression_test(x, MC_ALPHA)
            elif call.mode == "encode":
                value = codewords[call.input] = lz.encode(x)
            else:
                value = lz.decode(codewords[call.input])
        except Exception as exc:  # a failing call is counted, the batch goes on
            value = exc
        out.append((call, perf_counter() - t0, value, t0))
    return out


def _observe(call: Call, value) -> object:
    """The JSON form of a result that the pins and the cross-cycle comparison use."""
    if isinstance(value, Exception):
        return f"error: {value!r}"
    if call.mode == "exact":
        return value
    if call.mode == "mc":
        return [value.statistic_bits, value.decision]
    if call.mode == "encode":
        return [len(value), value.bits.digest()]
    return [len(value), value.digest()]


def exhaustive_table(n: int):
    """The oracle's exact p-value of the lz77 statistic for every n-bit string.

    ``reference`` guards its enumeration at 14 bits; the workload's exact
    p-values are at 16, so the guard is raised for this one enumeration."""
    guard = reference._ENUMERATION_GUARD
    reference._ENUMERATION_GUARD = max(guard, n)
    try:
        return reference.exhaustive_p_values(lz77_statistic, n)
    finally:
        reference._ENUMERATION_GUARD = guard


def check_api(results, xs: dict, full: bool) -> tuple[dict, dict]:
    """Observed values of one cycle and, per call key, the problems found."""
    observed, problems = {}, {}
    table = None
    for call, _seconds, value, _start in results:
        observed[call.key] = _observe(call, value)
        found = problems[call.key] = []
        if isinstance(value, Exception):
            found.append(repr(value))
            continue
        x = xs[call.input]
        if call.mode == "exact":
            if table is None:
                table = exhaustive_table(len(x))
            if value != table[x.to_int()]:
                found.append(f"exact p-value {value} differs from the oracle's {table[x.to_int()]}")
            if value > min(1.0, 2.0 ** -lz77_statistic(x)):
                found.append(f"exact p-value {value} exceeds its Kraft bound")
        elif call.mode == "mc":
            saved = lz77_statistic(x)
            if value.statistic_bits != saved:
                found.append(f"statistic {value.statistic_bits}, code length gives {saved}")
            if value.rejected != (value.p_value <= MC_ALPHA):
                found.append(f"decision {value.decision} does not follow from {value.p_value}")
            if full and value.rejected:
                found.append("a 10^4-bit uniform sample was rejected")
        elif call.mode == "encode":
            if len(value) != lz.code_length(x) or value.source_length != len(x):
                found.append(f"codeword of {len(value)} bits, code_length says {lz.code_length(x)}")
        elif value != x:
            found.append("decode(encode(x)) != x")
    return observed, problems


def run_api(seed: int, scale: workloads.Scale, input_dir: Path, seconds: float) -> dict:
    calls = workloads.cycle("api-small", scale)
    xs = load_inputs(workloads.inputs("api-small", seed, scale), input_dir)
    marks = speed.Marks()
    timed = []
    start = perf_counter()
    while True:
        timed.append(api_cycle(calls, xs, marks))
        if perf_counter() - start >= seconds:
            break
    marks.mark()
    return {"marks": marks.to_json(), **api_outcome(timed, xs, scale)}


def api_outcome(timed: list, xs: dict, scale: workloads.Scale) -> dict:
    """Checks the first cycle in full; every later cycle must repeat its results.
    Rows are [key, seconds, ok, start]."""
    observed, problems = check_api(timed[0], xs, scale is workloads.FULL)
    rows = []
    for results in timed:
        for call, secs, value, t0 in results:
            same = _observe(call, value) == observed[call.key]
            if not same:
                problems[call.key].append("result differs between cycles")
            rows.append([call.key, secs, same and not problems[call.key], t0])
    return {"calls": rows, "observed": observed, "problems": problems}


# ---------------------------------------------------------------------------
# CLI calls in-process (traced runs only; untraced runs start child processes)


def cli_cycle(calls: list[Call], argvs: list[list[str]], marks: speed.Marks,
              tracer=None) -> list[list]:
    """One pass of ``rngcal.cli.main(argv)``: [key, seconds, exit, stdout,
    start].  ``marks`` as for ``api_cycle``."""
    out = []
    for i, (call, argv) in enumerate(zip(calls, argvs)):
        if tracer is not None:
            tracer.call = i
        marks.mark_if_due()
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a failing call is counted, the batch goes on
            code, buf = None, io.StringIO(repr(exc))
        out.append([call.key, perf_counter() - t0, code, buf.getvalue(), t0])
    return out


def input_properties(items: list[Input], xs: dict) -> list[dict]:
    """Per-input properties a change may depend on, from one greedy parse."""
    rows = []
    for item in items:
        x = xs[item.key]
        pairs = lz.parse(x).pairs
        literals = sum(1 for p in pairs if p.is_literal)
        rows.append({"key": item.key, "spec": item.spec, "bits": len(x),
                     "factors_per_kbit": 1000.0 * len(pairs) / len(x),
                     "literal_share": literals / len(pairs),
                     "bits_saved": len(x) - lz.pairs_cost(pairs)})
    return rows


def run_trace(workload: str, seed: int, scale: workloads.Scale, input_dir: Path,
              spans_path: Path, seconds: float) -> dict:
    """Pairs of one untraced and one traced cycle until ``seconds`` have
    passed (at least one pair).  The layer metrics come from the first
    traced cycle, which also traces the set-up; the overhead compares the
    medians of the pairs' drift-corrected wall times."""
    items = workloads.inputs(workload, seed, scale)
    calls = workloads.cycle(workload, scale)
    is_cli = workloads.is_cli(workload)
    argvs = [workloads.cli_argv(c, input_dir, scale) for c in calls] if is_cli else []
    xs = {} if is_cli else load_inputs(items, input_dir)

    marks = speed.Marks()

    def run_cycle(tracer=None):
        if is_cli:
            return cli_cycle(calls, argvs, marks, tracer)
        return api_cycle(calls, xs, marks, tracer)

    pairs = []
    first_tracer = None
    start = perf_counter()
    while True:
        untraced = run_cycle()
        tracer = spans.Tracer()
        tracer.install(rngcal)
        try:
            if first_tracer is None:
                write_inputs(items, input_dir)
                if not is_cli:
                    xs.update(load_inputs(items, input_dir))
            traced = run_cycle(tracer)
        finally:
            tracer.uninstall()
        if first_tracer is None:
            first_tracer = tracer
        pairs.append((untraced, traced))
        if perf_counter() - start >= seconds:
            break
    marks.mark()
    first_tracer.write(spans_path)

    def wall(cycle, corrected: bool) -> float:
        """A cycle's wall time: the sum of its calls' times (rows end with the start)."""
        return sum(row[1] * (marks.factor(row[-1], row[-1] + row[1]) if corrected else 1.0)
                   for row in cycle)

    walls = {}
    for k, kind in enumerate(("untraced", "traced")):
        walls[kind + "_wall_s"] = statistics.median(wall(p[k], False) for p in pairs)
        walls[kind + "_corrected_s"] = statistics.median(wall(p[k], True) for p in pairs)
    first_pair = pairs[0]
    lz_by_call = spans.per_call_lz(first_tracer.spans)
    per_call = []
    for i, call in enumerate(calls):
        analysed, sample = lz_by_call.get(i, (0, 0))
        per_call.append({"key": call.key, "untraced_s": first_pair[0][i][1],
                         "traced_s": first_pair[1][i][1], "lz_bits": analysed,
                         "sample_bits": sample,
                         "lz_bits_per_sample_bit": analysed / sample if sample else None})
    out = {
        "layers": spans.layer_metrics(first_tracer.spans),
        "tracing": {"pairs": len(pairs), "spans": len(first_tracer.spans), **walls,
                    "overhead_s": walls["traced_corrected_s"] - walls["untraced_corrected_s"]},
        "per_call": per_call,
    }
    cycles = [cycle for pair in pairs for cycle in pair]
    if is_cli:
        out["cli"] = [[row[:4] for row in cycle] for cycle in cycles]
        xs.update(load_inputs(items, input_dir))
    else:
        out.update(api_outcome(cycles, xs, scale))
    out["properties"] = input_properties(items, xs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("api", "trace"))
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("dir", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    check_package_origin()
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    input_dir = args.dir / "inputs"
    if args.mode == "api":
        out = run_api(args.seed, scale, input_dir, args.seconds)
    else:
        out = run_trace(args.workload, args.seed, scale, input_dir, args.dir / "spans.jsonl.gz",
                        args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
