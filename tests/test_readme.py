"""The README's library quick start and its console samples run and print
what they promise."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pliablecover
from pliablecover.cli import main as cli_main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = os.path.dirname(os.path.dirname(os.path.abspath(pliablecover.__file__)))


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


def test_pipeline_console_samples_print_their_documented_output(tmp_path):
    """Each `$ pliablecover …` sample, run in a shell next to the README's
    example instance saved as inst.json; `…` in a sample stands for any text."""
    text = README.read_text(encoding="utf-8")
    instance = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    (tmp_path / "inst.json").write_text(instance)
    runs = re.findall(r"^\$ (pliablecover .*)\n(.*)$", text, re.M)
    assert len(runs) == 3
    python = shlex.quote(sys.executable)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    # one pass, so an interpreter path that ends in python3 is not rewritten again
    words = {"pliablecover": f"{python} -m pliablecover ", "python3": f"{python} "}
    for command, expected in runs:
        shell = re.sub(r"\b(pliablecover|python3) ", lambda m: words[m[1]], command)
        r = subprocess.run(shell, shell=True, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert r.returncode == 0, (command, r.stderr)
        pattern = ".*".join(re.escape(part) for part in expected.split("…"))
        assert re.fullmatch(pattern, r.stdout.rstrip("\n"), re.S), (command, r.stdout)
