"""The README's library quick start and its `check-family` console lines
run and print what they promise."""

import contextlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

from pliablecover.cli import main as cli_main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_its_documented_lines():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == ["(0, 1) 2", "True 7"]


def test_check_family_console_lines_print_their_documented_output(monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    runs = re.findall(
        r"^\$ echo '(.*)' \| pliablecover (check-family .*)\n(.*)$", text, re.M
    )
    assert len(runs) >= 2
    for family, command, expected in runs:
        monkeypatch.setattr(sys, "stdin", io.StringIO(family))
        code = cli_main(shlex.split(command))
        assert capsys.readouterr().out == expected + "\n", command
        assert code == (0 if json.loads(expected)["holds"] else 1), command
