"""rngcal benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload cli-test --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout; it imports rngcal from the checkout's
``src`` and writes only under ``.bench_run/``.  Each run generates its inputs
from ``--seed``, times whole cycles of the workload's fixed batch of calls
until ``--seconds`` have passed (at least one cycle), checks every output,
and prints a summary followed by one JSON line with the metrics that
``BENCHMARK.json`` lists: the ``end_to_end`` ones with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``.  End-to-end times are drift-corrected
(``speed.py``) and kept raw in ``result.json``.  ``--smoke`` runs the same
code path on tiny inputs.  See ``bench/README.md`` for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import speed
import workloads
from workloads import FULL, SMOKE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
DEADLINE_S = 175  # the contract allows 180 s per run


class BenchError(Exception):
    """The run cannot produce a result."""


def _on_alarm(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S} s")


@dataclass
class Finished:
    start: float  # perf_counter()
    seconds: float
    exit_code: int
    stdout: str
    stderr: str
    max_rss_mb: float


class Children:
    """Runs one child process at a time and reaps it with ``wait4``, which
    gives that child's own peak RSS and nothing else's.  Before a child
    starts, ``marks`` times the reference loop if a mark is due (``speed.py``)."""

    def __init__(self, run_dir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.run_dir = run_dir
        self.peak_rss_mb = 0.0
        self.started = 0
        self.marks = speed.Marks()

    def run(self, argv: list[str]) -> Finished:
        with open(self.run_dir / "child.out", "w+b") as out, \
                open(self.run_dir / "child.err", "w+b") as err:
            self.marks.mark_if_due()
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=ROOT, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", errors="replace")
            stderr = err.read().decode("utf-8", errors="replace")
        self.started += 1
        rss = usage.ru_maxrss / 1024.0  # KiB on Linux
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return Finished(t0, seconds, proc.returncode, stdout, stderr, rss)

    def corrected(self, start: float, seconds: float, marks: speed.Marks | None = None) -> float:
        """``seconds`` drift-corrected by ``marks``, by default this process's own;
        take a mark after the last call first."""
        return seconds * (marks or self.marks).factor(start, start + seconds)

    def script(self, script: str, args, *extra: str) -> tuple[Finished, dict]:
        """Runs one of the benchmark's own scripts; returns its JSON line."""
        argv = [sys.executable, str(BENCH / script), *extra, args.workload, str(args.seed),
                str(self.run_dir)] + (["--smoke"] if args.smoke else [])
        done = self.run(argv)
        if done.exit_code != 0:
            raise BenchError(f"{' '.join(extra + (script,))} exited {done.exit_code}: "
                             f"{done.stderr[-2000:]}")
        return done, json.loads(done.stdout.splitlines()[-1])


def environment(setup_out: dict) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rngcal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": setup_out["numpy"],
        "rngcal": setup_out["rngcal"],
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "RNGCAL_THREADS": os.environ.get("RNGCAL_THREADS"),
        "machine": platform.machine(),
    }


def load_pins(args) -> dict | None:
    if args.seed != workloads.DEFAULT_SEED or args.smoke:
        return None
    return json.loads((BENCH / "pinned.json").read_text())[args.workload]


# ---------------------------------------------------------------------------
# checking outputs


def evaluate_cli(args, scale, calls, cycles_out, pins) -> tuple[list, dict, list]:
    """Checks every CLI output; returns ([key, seconds, ok] rows, the first
    cycle's observed values, and the problems found in each cycle)."""
    mode = {c.key: c.mode for c in calls}
    rows, found, first = [], [], None
    for c, outputs in enumerate(cycles_out):
        observed, problems = {}, {call.key: [] for call in calls}
        for key, _seconds, code, stdout in outputs:
            observed[key], problems[key] = checks.check_cli_call(
                mode[key], code, stdout, scale.cli_bits, float(workloads.SCAN_ALPHA))
        checks.check_cli_cycle(calls, observed, problems)
        if scale is FULL:
            checks.check_expected(workloads.EXPECTED_FULL[args.workload], observed, problems)
        if pins is not None:
            checks.check_pins(pins, observed, problems)
        if first is None:
            first = observed
        for key in observed:
            if observed[key] != first[key]:
                problems[key].append(f"output differs from cycle 0: {observed[key]}")
        rows += [[key, seconds, not problems[key]] for key, seconds, _code, _out in outputs]
        found.append({k: v for k, v in problems.items() if v})
    return rows, first, found


def evaluate_api(data: dict, pins) -> tuple[list, dict, dict]:
    problems = data["problems"]
    if pins is not None:
        checks.check_pins(pins, data["observed"], problems)
    rows = [[key, seconds, ok and not problems[key], start]
            for key, seconds, ok, start in data["calls"]]
    return rows, data["observed"], [{k: v for k, v in problems.items() if v}]


def cheap_properties(items, observed: dict) -> list[dict]:
    """Input properties read off the outputs; the traced run adds the parse.
    A failed call's output contributes nothing."""
    names = {"lz77": "bits_saved", "scan-lz77": "bits_saved_at_last_prefix",
             "scan-tauk": "tauk_evidence_at_last_prefix"}
    rows = []
    for item in items:
        row = {"key": item.key, "spec": item.spec, "bits": item.bits}
        for key, obs in observed.items():
            name, mode = key.split("/")
            if name != item.key:
                continue
            stat = obs.get("statistic_bits") if isinstance(obs, dict) else None
            if mode in names and stat not in (None, []):
                row[names[mode]] = stat[-1] if isinstance(stat, list) else stat
            elif mode in ("mc", "encode") and isinstance(obs, list):
                row["bits_saved"] = obs[0] if mode == "mc" else item.bits - obs[0]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# the two kinds of run


def run_untraced(args, scale, children: Children, calls, pins) -> dict:
    """Times set-ups and cycles; every time is drift-corrected (``speed.py``)
    and kept raw as well."""
    setups = [children.script("setup_inputs.py", args) for _ in range(SETUP_REPEATS)]
    out = {"setup_out": setups[0][1]}
    if workloads.is_cli(args.workload):
        input_dir = children.run_dir / "inputs"
        argvs = [[sys.executable, "-m", "rngcal.cli", *workloads.cli_argv(c, input_dir, scale)]
                 for c in calls]
        cycles_out, timings, rss = [], [], []
        start = perf_counter()
        while True:
            outputs = []
            for call, argv in zip(calls, argvs):
                done = children.run(argv)
                outputs.append([call.key, done.seconds, done.exit_code, done.stdout])
                timings.append((done.start, done.seconds))
                rss.append(done.max_rss_mb)
            cycles_out.append(outputs)
            if perf_counter() - start >= args.seconds:
                break
        rows, observed, problems = evaluate_cli(args, scale, calls, cycles_out, pins)
        for row, mb in zip(rows, rss):
            row.append(mb)
        call_marks = children.marks
    else:
        _, data = children.script("worker.py", args, "api", "--seconds", str(args.seconds))
        rows, observed, problems = evaluate_api(data, pins)
        timings = [(row.pop(), row[1]) for row in rows]
        call_marks = speed.Marks(**data["marks"])
    children.marks.mark()
    raw_calls = [row[1] for row in rows]
    for row, (t0, secs) in zip(rows, timings):
        row[1] = children.corrected(t0, secs, call_marks)
    per_cycle = len(calls)
    cycles = [sum(r[1] for r in rows[i:i + per_cycle]) for i in range(0, len(rows), per_cycle)]
    raw_cycles = [sum(raw_calls[i:i + per_cycle]) for i in range(0, len(rows), per_cycle)]
    out.update(cycles=cycles, rows=rows, observed=observed, problems=problems,
               metrics={"setup_s": statistics.median(children.corrected(d.start, d.seconds)
                                                     for d, _ in setups),
                        "wall_s": statistics.median(cycles),
                        "call_s_p50": statistics.median(r[1] for r in rows),
                        "peak_rss_mb": children.peak_rss_mb},
               raw={"setup_s": statistics.median(d.seconds for d, _ in setups),
                    "wall_s": statistics.median(raw_cycles),
                    "call_s_p50": statistics.median(raw_calls), "cycles": raw_cycles,
                    "calls": raw_calls, "starts": [t0 for t0, _ in timings],
                    "setups": [[d.start, d.seconds] for d, _ in setups]},
               speed={"ref_s": speed.REF_S, "main": children.marks.summary(),
                      "calls": call_marks.summary(), "main_marks": children.marks.to_json(),
                      "call_marks": call_marks.to_json()})
    return out


def run_traced(args, scale, children: Children, calls, pins) -> dict:
    _, setup_out = children.script("setup_inputs.py", args)
    _, data = children.script("worker.py", args, "trace", "--seconds", str(args.seconds))
    imports = [children.run([sys.executable, "-c", "import rngcal.cli"])
               for _ in range(IMPORT_REPEATS)]
    if any(done.exit_code for done in imports):
        raise BenchError(f"import rngcal.cli failed: {imports[0].stderr[-2000:]}")
    if workloads.is_cli(args.workload):
        rows, observed, problems = evaluate_cli(args, scale, calls, data.pop("cli"), pins)
    else:
        rows, observed, problems = evaluate_api(data, pins)
        rows = [row[:3] for row in rows]
    tracing = data["tracing"]
    metrics = dict(data.pop("layers"))
    metrics["proc.import_s"] = statistics.median(done.seconds for done in imports)
    metrics["trace.overhead_s"] = tracing["overhead_s"]
    return {"setup_out": setup_out, "rows": rows, "observed": observed, "problems": problems,
            "metrics": metrics, "tracing": tracing, "per_call": data["per_call"],
            "properties": data["properties"]}


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: the same code path, finishing in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def report(args, scale, spec: dict, out: dict, run_dir: Path) -> dict:
    rows = out["rows"]
    failed = sum(1 for r in rows if not r[2])
    kind = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[kind] if m["name"] not in out["metrics"]]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    metrics = {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    items = workloads.inputs(args.workload, args.seed, scale)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "scale": scale.name,
        "environment": environment(out["setup_out"]),
        "metrics": metrics,
        "failed_frac": failed / len(rows), "attempted": len(rows), "failed": failed,
        "calls": rows, "problems": out["problems"], "observed": out["observed"],
        "inputs": out.get("properties") or cheap_properties(items, out["observed"]),
    }
    for key in ("cycles", "raw", "speed", "tracing", "per_call"):
        if key in out:
            result[key] = out[key]
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"rngcal benchmark: {args.workload}, seed {args.seed}, {scale.name} scale, "
          f"{'traced' if args.trace else 'untraced'}, {len(rows)} calls")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  setup_s: median of {SETUP_REPEATS} set-ups; wall_s: median of "
              f"{len(out['cycles'])} cycle(s); call_s_p50: median of {len(rows)} calls; "
              f"peak_rss_mb: highest of {out['children']} child processes")
        raw, run_speed = out["raw"], out["speed"]["calls"]
        print(f"  times above are drift-corrected (bench/speed.py); raw: setup_s "
              f"{raw['setup_s']:.4g}, wall_s {raw['wall_s']:.4g}, call_s_p50 "
              f"{raw['call_s_p50']:.4g}; reference loop {run_speed['ref_s_min']:.4f}.."
              f"{run_speed['ref_s_max']:.4f} s (median {run_speed['ref_s_median']:.4f} of "
              f"{run_speed['marks']} marks between calls, reference {speed.REF_S})")
    else:
        t = out["tracing"]
        print(f"  tracing: untraced cycle {t['untraced_wall_s']:.3f} s, traced "
              f"{t['traced_wall_s']:.3f} s ({t['untraced_corrected_s']:.3f} s and "
              f"{t['traced_corrected_s']:.3f} s drift-corrected; medians of {t['pairs']} "
              f"pair(s)), {t['spans']} spans in the first traced cycle")
        for row in out["per_call"]:
            if row["lz_bits_per_sample_bit"] is not None:
                print(f"  lz.bits_per_sample_bit {row['key']:<24} "
                      f"{row['lz_bits_per_sample_bit']:.4f}")
    print(f"  {'failed_frac':<32} {failed / len(rows):>14.6g} ratio ({failed} of {len(rows)} "
          f"calls)")
    for c, problems in enumerate(out["problems"]):
        for key, found in problems.items():
            print(f"  FAILED {key} (cycle {c}): {'; '.join(found)}")
    env = result["environment"]
    print(f"  env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"git {env['git_sha']}, RNGCAL_THREADS {env['RNGCAL_THREADS']}")
    print(f"  results: {(run_dir / 'result.json').relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": len(rows), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rngcal" / "__init__.py").is_file():
        print(f"run.py: no rngcal package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scale = SMOKE if args.smoke else FULL
    run_dir = ROOT / ".bench_run" / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                     + ("-smoke" if args.smoke else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    children = Children(run_dir)
    calls = workloads.cycle(args.workload, scale)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        pins = load_pins(args)
        out = (run_traced if args.trace else run_untraced)(args, scale, children, calls, pins)
        out["children"] = children.started
        line = report(args, scale, spec, out, run_dir)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
