"""The README's examples run as shown.

Every ``$ abhk ...`` line whose output the README shows is replayed
in-process; its stdout must be the shown lines, where a line ``...``
stands for any number of printed lines. The README's Python block runs
as written.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from abhk.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def _transcripts() -> list[tuple[str, list[str]]]:
    """(command, shown output lines) for each ``$ abhk`` line that shows
    output, with a trailing ``# comment`` dropped from the command."""
    out = []
    for _, body in BLOCKS:
        command = None
        for line in body.splitlines():
            if line.startswith("$ "):
                command = line[2:].split("#", 1)[0].strip()
                if command.startswith("abhk "):
                    out.append((command, []))
                else:
                    command = None
            elif command is not None:
                out[-1][1].append(line)
    return [(command, shown) for command, shown in out if shown]


TRANSCRIPTS = _transcripts()


def _matches(shown: list[str], printed: str) -> bool:
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                      for line in shown)
    return re.fullmatch(pattern, printed) is not None


def test_the_readme_shows_transcripts_and_python():
    assert len(TRANSCRIPTS) >= 4
    assert [lang for lang, _ in BLOCKS].count("python") == 1


@pytest.mark.parametrize("command, shown", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_readme_transcript(capsys, monkeypatch, command, shown):
    monkeypatch.chdir(ROOT)  # the README's spec paths are relative to the repository
    assert main(shlex.split(command)[1:]) == 0
    printed = capsys.readouterr().out
    assert _matches(shown, printed), printed


def test_readme_python_block():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
