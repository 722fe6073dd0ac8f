"""Self-test of the benchmark, in about half a minute.

    python3 bench/selftest.py

Runs every workload in smoke mode (tiny inputs, same code path), untraced and
traced, and requires a correct result that carries every metric
``BENCHMARK.json`` lists.  Then copies only ``BENCHMARK.json`` and ``bench/``
into ``.bench_run/stripped`` and requires the benchmark to fail there without
printing a result, since that copy holds no rngcal to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, workload, trace)
            try:
                line = json.loads(done.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                line = {}
            names = [m["name"] for m in spec[kind]]
            ok = (done.returncode == 0 and line.get("correct") is True
                  and line.get("failed") == 0 and list(line.get("metrics", {})) == names)
            print(f"{'ok  ' if ok else 'FAIL'} smoke {workload} --trace {trace}")
            if not ok:
                failures.append(f"{workload} trace {trace}: "
                                f"{done.stdout[-1500:]}{done.stderr[-1500:]}")

    stripped = ROOT / ".bench_run" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(BENCH, stripped / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    done = run(stripped, "cli-test", 0)
    ok = done.returncode != 0 and '"correct"' not in done.stdout
    print(f"{'ok  ' if ok else 'FAIL'} refuses to run without src/rngcal")
    if not ok:
        failures.append(f"stripped copy: exit {done.returncode}, stdout {done.stdout[-500:]}")
    shutil.rmtree(stripped)

    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
