"""Compression-based randomness testing for bit streams.

The package provides a prefix-free integer code, an LZ77 bit-string codec
built on it, compression and prefix-scanning ensemble tests with sound
(conservative) p-value bounds, battery combination arithmetic, seeded
sequence generators including non-stationary deviants, brute-force
reference oracles, and a command-line front end (``rngcal``).
"""

__version__ = "0.1.0"

from .bits import BitString
from .codes import Codeword, decode_integer, encode_integer, encoded_length, kraft_sum
from .errors import DecodeError, InfeasibleError
from .lz import Lz77Pair, Lz77Parse
from .stats import (
    TestReport,
    battery_p_value,
    battery_report,
    compression_test,
    consistency_scan,
    exact_p_value,
    omega_star,
    tau_k_test,
)

__all__ = [
    "BitString",
    "Codeword",
    "DecodeError",
    "InfeasibleError",
    "Lz77Pair",
    "Lz77Parse",
    "encode_integer",
    "decode_integer",
    "encoded_length",
    "kraft_sum",
    "Source",
    "BernoulliSource",
    "MarkovSource",
    "DriftingBiasSource",
    "RegimeSwitchSource",
    "DuplicationSource",
    "duplication_construction",
    "required_base_length",
    "parse_source_spec",
    "generate",
    "TestReport",
    "compression_test",
    "exact_p_value",
    "battery_p_value",
    "battery_report",
    "omega_star",
    "tau_k_test",
    "consistency_scan",
    "__version__",
]

# The generators need numpy, which a test or scan of a file does without:
# ``sources`` and its names are imported when first asked for.
_SOURCE_NAMES = ("Source", "BernoulliSource", "MarkovSource", "DriftingBiasSource",
                 "RegimeSwitchSource", "DuplicationSource", "duplication_construction",
                 "required_base_length", "parse_source_spec", "generate")


def __getattr__(name: str):
    if name == "sources" or name in _SOURCE_NAMES:
        import importlib

        sources = importlib.import_module(".sources", __name__)
        return sources if name == "sources" else getattr(sources, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
