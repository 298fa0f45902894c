"""The README's examples run: every `hookexp ...` line of its sh blocks
goes through cli.main in-process, and its Library block is executed."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from hookexp.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
SH_LINES = [line for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines()]
COMMANDS = [line for line in SH_LINES if line.startswith("hookexp ")]


def _run(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(shlex.split(line)[1:])
    return code, out.getvalue()


def test_the_readme_shows_its_commands():
    assert len(COMMANDS) == 13


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(monkeypatch, line):
    monkeypatch.delenv("HOOKEXP_WORKERS", raising=False)
    monkeypatch.delenv("HOOKEXP_MAX_PARTITIONS", raising=False)
    code, out = _run(line)
    # the registry's prop-6-12 fails by design (README, Tests), so every
    # whole-registry run exits 1
    assert code == (1 if "verify --all" in line else 0), line
    assert out, line


def test_readme_bfile_lines_are_printed():
    at = next(i for i, line in enumerate(SH_LINES)
              if line.startswith("hookexp expand --exponent 24"))
    shown = []
    for line in SH_LINES[at + 1:]:
        match = re.fullmatch(r"# (\d+ -?\d+)", line)
        if not match:
            break
        shown.append(match.group(1))
    assert len(shown) >= 3
    code, out = _run(SH_LINES[at])
    assert code == 0
    assert out.splitlines()[:len(shown)] == shown


def test_readme_library_block_runs():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
