"""Workload definitions shared by ``run.py`` and its worker.

Pure Python: importing this module does not import rngcal, so ``run.py`` can
plan a run without loading the package under test.  Every input is a source
spec whose seed is derived from the benchmark seed, so the same seed gives
the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cli-test", "cli-scan", "api-small")
DEFAULT_SEED = 0
SCAN_ALPHA = "1e-6"
MC_ALPHA = 0.01


@dataclass(frozen=True)
class Scale:
    """Input sizes; the smoke scale runs the same code path in seconds."""

    name: str
    cli_bits: int        # bits per cli-test / cli-scan input file
    exact_bits: int      # n of the exact p-value enumeration (2**n strings)
    mc_bits: int         # bits per Monte-Carlo compression_test sample
    mc_samples: int
    roundtrip_bits: int  # bits per encode -> decode sample


FULL = Scale("full", cli_bits=1 << 20, exact_bits=16, mc_bits=10 ** 4, mc_samples=32,
             roundtrip_bits=1 << 16)
SMOKE = Scale("smoke", cli_bits=1 << 12, exact_bits=8, mc_bits=1000, mc_samples=4,
              roundtrip_bits=1 << 10)


@dataclass(frozen=True)
class Input:
    key: str    # file stem under the run's input directory
    spec: str   # rngcal source spec, seed included
    bits: int


@dataclass(frozen=True)
class Call:
    """One timed call: a CLI child process or one top-level library call."""

    key: str    # stable id, used by the pins: "<input key>/<mode>"
    input: str  # key of the Input it reads
    mode: str   # lz77 | battery | scan-lz77 | scan-tauk | exact | mc | encode | decode


_UNIFORM = "bernoulli:0.5"
_BERN01 = "bernoulli:0.1"
_MARKOV = "markov:0.9,0.1,0.2,0.8"
_DUP = "dup"


def _spec(kind: str, seed: int, k: int) -> str:
    return f"{kind}:seed={seed * 1000 + k}"


def inputs(workload: str, seed: int, scale: Scale) -> list[Input]:
    """The inputs a workload's set-up generates and writes."""
    n = scale.cli_bits
    if workload == "cli-test":
        return [Input("uniform", _spec(_UNIFORM, seed, 1), n),
                Input("bern01", _spec(_BERN01, seed, 2), n),
                Input("markov", _spec(_MARKOV, seed, 3), n)]
    if workload == "cli-scan":
        return [Input("uniform-a", _spec(_UNIFORM, seed, 4), n),
                Input("dup", _spec(_DUP, seed, 5), n),
                Input("uniform-b", _spec(_UNIFORM, seed, 6), n)]
    if workload == "api-small":
        items = [Input("exact", _spec(_UNIFORM, seed, 7), scale.exact_bits)]
        items += [Input(f"mc-{i:02d}", _spec(_UNIFORM, seed, 100 + i), scale.mc_bits)
                  for i in range(scale.mc_samples)]
        items += [Input(f"rt-{name}", _spec(kind, seed, 10 + k), scale.roundtrip_bits)
                  for k, (name, kind) in enumerate((("uniform", _UNIFORM), ("bern01", _BERN01),
                                                    ("markov", _MARKOV), ("dup", _DUP)))]
        return items
    raise ValueError(f"unknown workload {workload!r}")


def cycle(workload: str, scale: Scale) -> list[Call]:
    """The fixed batch of calls a run repeats; a run times whole cycles."""
    if workload == "cli-test":
        # lz77 text reports alternate with lz77,tauk JSON batteries, and each
        # input gets both within one cycle.
        order = [("uniform", "lz77"), ("bern01", "battery"), ("markov", "lz77"),
                 ("uniform", "battery"), ("bern01", "lz77"), ("markov", "battery")]
        return [Call(f"{i}/{m}", i, m) for i, m in order]
    if workload == "cli-scan":
        order = [("uniform-a", "scan-lz77"), ("dup", "scan-lz77"), ("uniform-b", "scan-tauk")]
        return [Call(f"{i}/{m}", i, m) for i, m in order]
    if workload == "api-small":
        calls = [Call("exact/exact", "exact", "exact")]
        calls += [Call(f"mc-{i:02d}/mc", f"mc-{i:02d}", "mc") for i in range(scale.mc_samples)]
        for name in ("uniform", "bern01", "markov", "dup"):
            calls += [Call(f"rt-{name}/encode", f"rt-{name}", "encode"),
                      Call(f"rt-{name}/decode", f"rt-{name}", "decode")]
        return calls
    raise ValueError(f"unknown workload {workload!r}")


def is_cli(workload: str) -> bool:
    return workload in ("cli-test", "cli-scan")


def input_path(input_dir: Path, key: str) -> Path:
    return input_dir / f"{key}.bin"


def cli_argv(call: Call, input_dir: Path, scale: Scale) -> list[str]:
    """Arguments after ``rngcal`` for a CLI call."""
    path = str(input_path(input_dir, call.input))
    if call.mode == "lz77":
        return ["test", "--input", path]
    if call.mode == "battery":
        return ["test", "--input", path, "--tests", "lz77,tauk", "--report", "json"]
    scan = ["scan", "--input", path, "--alpha", SCAN_ALPHA, "--budget", str(scale.cli_bits),
            "--report", "json"]
    if call.mode == "scan-lz77":
        return scan
    if call.mode == "scan-tauk":
        return scan + ["--tests", "tauk"]
    raise ValueError(f"not a CLI call: {call.mode!r}")


# Decisions that hold for every seed at full scale, by the size of the
# effects: at 2**20 bits a uniform stream expands by ~80% under the LZ77
# code, Bernoulli(0.1) and the Markov chain save 2e4..1.3e5 bits, and the
# duplication stream saves ~6900 bits at its 131072-bit block boundary
# (README, "Performance envelope").  Each maps a call key to (exit code,
# first rejection length or None for tests that are not scans).
EXPECTED_FULL = {
    "cli-test": {
        "uniform/lz77": (0, None), "uniform/battery": (0, None),
        "bern01/lz77": (1, None), "bern01/battery": (1, None),
        "markov/lz77": (1, None), "markov/battery": (1, None),
    },
    "cli-scan": {
        "uniform-a/scan-lz77": (0, None),
        "dup/scan-lz77": (1, 131072),
        "uniform-b/scan-tauk": (0, None),
    },
}
