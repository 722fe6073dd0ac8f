"""In-memory spans around calls into rngcal's public functions.

Each wrapper is installed where the caller looks the function up (a module
or class attribute) and removed afterwards, so the package is not modified.
A span is ``[name, start, end, parent, call, size]``: ``parent`` indexes the
enclosing span (-1 at top level), ``call`` is the id of the benchmark call it
belongs to (-1 during set-up), and ``size`` is a per-name quantity such as
bits analysed, bytes read or scan steps.
"""

from __future__ import annotations

import gzip
import json
import os
from collections import defaultdict
from time import perf_counter

# Functions whose input is one LZ analysis (one suffix automaton build).
LZ_ANALYSES = ("lz.code_length", "lz.prefix_code_lengths", "lz.encode")


def _input_bits(args, result):
    return len(args[0])


def _output_bits(args, result):
    return len(result)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _scan_steps(args, result):
    return len(result.steps)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.call = -1
        self._open = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, size):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1], self.call, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        raw = vars(owner)[attr]
        wrapped = self._wrap(name, getattr(owner, attr), size)
        setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)
        self._patches.append((owner, attr, raw))

    def install(self, rngcal) -> None:
        """Wrap each layer's public functions at the places callers find them:
        ``cli`` binds ``read_bit_file`` by name and ``lz`` binds the integer
        coder's ``write_integer``/``read_integer`` by name; everything else is
        reached through its module or class."""
        bits, cli, lz, sources, stats = (rngcal.bits, rngcal.cli, rngcal.lz, rngcal.sources,
                                         rngcal.stats)
        self.patch(sources, "generate", "sources.generate")
        self.patch(bits, "write_bit_file", "bits.write")
        self.patch(bits, "read_bit_file", "bits.read", _file_bytes)
        self.patch(cli, "read_bit_file", "bits.read", _file_bytes)
        self.patch(bits.BitString, "from_int", "bits.from_int")
        self.patch(lz, "write_integer", "codes.write_integer")
        self.patch(lz, "read_integer", "codes.read_integer")
        self.patch(lz, "code_length", "lz.code_length", _input_bits)
        self.patch(lz, "prefix_code_lengths", "lz.prefix_code_lengths", _input_bits)
        self.patch(lz, "encode", "lz.encode", _input_bits)
        self.patch(lz, "decode", "lz.decode", _output_bits)
        self.patch(stats, "compression_test", "stats.compression_test")
        self.patch(stats, "tau_k_test", "stats.tau_k_test")
        self.patch(stats, "battery_report", "stats.battery_report")
        self.patch(stats, "consistency_scan", "stats.consistency_scan", _scan_steps)
        self.patch(stats, "exact_p_value", "stats.exact_p_value")
        self.patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            for name, start, end, parent, call, size in self.spans:
                f.write(json.dumps([name, start - t0, end - t0, parent, call, size]))
                f.write("\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals; self time is a span's duration less its direct children's."""
    total = defaultdict(float)
    self_s = defaultdict(float)
    count = defaultdict(int)
    size = defaultdict(int)
    children = [0.0] * len(spans)
    for name, start, end, parent, _call, n in spans:
        total[name] += end - start
        count[name] += 1
        size[name] += n or 0
        if parent >= 0:
            children[parent] += end - start
    for span, inner in zip(spans, children):
        self_s[span[0]] += span[2] - span[1] - inner
    lz_bits, sample_bits = 0, 0
    for analysed, sample in per_call_lz(spans).values():
        lz_bits += analysed
        sample_bits += sample
    return {
        "sources.generate.calls": count["sources.generate"],
        "sources.generate.s": total["sources.generate"],
        "bits.write.s": total["bits.write"],
        "bits.read.s": total["bits.read"],
        "bits.read.bytes": size["bits.read"],
        "bits.from_int.calls": count["bits.from_int"],
        "bits.from_int.s": total["bits.from_int"],
        "codes.write_integer.calls": count["codes.write_integer"],
        "codes.read_integer.calls": count["codes.read_integer"],
        "codes.s": total["codes.write_integer"] + total["codes.read_integer"],
        "lz.code_length.calls": count["lz.code_length"],
        "lz.code_length.s": total["lz.code_length"],
        "lz.code_length.bits": size["lz.code_length"],
        "lz.prefix_code_lengths.calls": count["lz.prefix_code_lengths"],
        "lz.prefix_code_lengths.s": total["lz.prefix_code_lengths"],
        "lz.prefix_code_lengths.bits": size["lz.prefix_code_lengths"],
        "lz.encode.s": total["lz.encode"],
        "lz.decode.s": total["lz.decode"],
        "lz.decode.bits_out": size["lz.decode"],
        "lz.bits_per_sample_bit": lz_bits / sample_bits if sample_bits else 0.0,
        "stats.compression_test.self_s": self_s["stats.compression_test"],
        "stats.tau_k_test.self_s": self_s["stats.tau_k_test"],
        "stats.battery_report.s": total["stats.battery_report"],
        "stats.consistency_scan.steps": size["stats.consistency_scan"],
        "stats.consistency_scan.self_s": self_s["stats.consistency_scan"],
        "stats.exact_p_value.self_s": self_s["stats.exact_p_value"],
        "cli.main.s": total["cli.main"],
        "cli.self_s": self_s["cli.main"],
    }


def per_call_lz(spans: list[list]) -> dict[int, tuple[int, int]]:
    """For each benchmark call: (bits through LZ analyses, sample bits).

    A call's sample is its largest LZ input: the file for ``test``, the
    largest prefix evaluated for ``scan``, the n-bit string for an exact
    p-value.  Their ratio is the wasted-work ratio, 1.0 when every sample
    bit is analysed once.
    """
    out: dict[int, tuple[int, int]] = {}
    for name, _start, _end, _parent, call, n in spans:
        if call >= 0 and name in LZ_ANALYSES:
            analysed, sample = out.get(call, (0, 0))
            out[call] = (analysed + n, max(sample, n))
    return out
