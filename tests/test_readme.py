"""The README's code runs as documented."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_block_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    namespace: dict = {}
    exec(compile(code, f"{README.name}, ## Library", "exec"), namespace)
    assert namespace["report"].decision in ("accept", "reject")
    assert namespace["p"] == 0.008
    assert namespace["scan"].steps[0].bits == 1024
