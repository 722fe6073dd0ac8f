"""Set-up of one run: import rngcal, then generate and write the workload's inputs.

    setup_inputs.py WORKLOAD SEED DIR [--smoke]

``run.py`` times this process from start to exit as the run's set-up, so it
imports nothing beyond what set-up needs.  Prints one JSON line with the
numpy and rngcal versions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy

import rngcal
from rngcal import bits, sources

import workloads
from workloads import Input, input_path

ROOT = Path(__file__).resolve().parent.parent


def write_inputs(items: list[Input], input_dir: Path) -> None:
    input_dir.mkdir(parents=True, exist_ok=True)
    for item in items:
        bits.write_bit_file(input_path(input_dir, item.key), sources.generate(item.spec, item.bits))


def check_package_origin() -> None:
    """Refuses to run against any rngcal but the checkout's own."""
    package = Path(rngcal.__file__).resolve()
    if ROOT / "src" not in package.parents:
        sys.exit(f"rngcal imported from {package}, not from {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("dir", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    check_package_origin()
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    write_inputs(workloads.inputs(args.workload, args.seed, scale), args.dir / "inputs")
    print(json.dumps({"numpy": numpy.__version__, "rngcal": rngcal.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
