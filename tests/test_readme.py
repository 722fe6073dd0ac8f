"""The README's code runs as documented."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from rngcal.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_the_library_block_runs():
    (code,) = re.findall(r"^```python\n(.*?)^```$", _section("Library"), re.M | re.S)
    namespace: dict = {}
    exec(compile(code, f"{README.name}, ## Library", "exec"), namespace)
    assert namespace["report"].decision in ("accept", "reject")
    assert namespace["p"] == 0.008
    assert namespace["scan"].steps[0].bits == 1024


def test_the_cli_block_runs(tmp_path, monkeypatch, capsys):
    # each command with its comment; continuation lines joined
    (block,) = re.findall(r"^```sh\n(.*?)^```$", _section("CLI"), re.M | re.S)
    commands = re.findall(r"((?:^#.*\n)*)^rngcal (.*)$", block.replace("\\\n", " "), re.M)
    monkeypatch.chdir(tmp_path)  # the commands write and read zeros.bin here
    runs = [(re.findall(r"exit status (\d)", comment), main(shlex.split(argv)))
            for comment, argv in commands]
    capsys.readouterr()
    assert [status for _, status in runs] == [0, 1, 0, 1, 1]
    assert all([str(status)] == stated for stated, status in runs if stated)
