"""The benchmark's hooks into the package, checked without running a benchmark.

``bench/spans.py`` wraps the package's functions by name for traced runs
(``bench/run.py --trace 1``), where its callers look them up, so a rename in
the package would break those runs and nothing else.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import rngcal
import rngcal.cli  # noqa: F401  (the tracer wraps its names)
from rngcal import lz
from rngcal.bits import BitString

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bench_tracer_installs_and_uninstalls_on_the_package():
    tracer = _spans().Tracer()
    x = BitString.from01("0110100110010110")
    try:
        tracer.install(rngcal)  # a name it wraps that is gone raises KeyError
        patched = {(owner.__name__, attr): raw for owner, attr, raw in tracer._patches}
        assert {("rngcal.lz", "write_integer"), ("rngcal.lz", "read_integer"),
                ("rngcal.lz", "encode"), ("rngcal.lz", "decode")} <= set(patched)
        assert all(vars(owner)[attr] is not raw for owner, attr, raw in tracer._patches)
        assert lz.decode(lz.encode(x)) == x
        assert {"lz.encode", "lz.decode"} <= {span[0] for span in tracer.spans}
    finally:
        patches = list(tracer._patches)
        tracer.uninstall()
    assert patches and all(vars(owner)[attr] is raw for owner, attr, raw in patches)
