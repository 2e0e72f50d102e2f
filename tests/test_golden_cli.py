"""Byte-exact CLI output against the recorded goldens.

``bench/golden/cli.json`` holds the exit code and stdout of every CLI
command (both formats, every corpus spec, the spec's own expressions) and
of ``abhk examples``. This test replays each one in-process and compares
both byte for byte; it only reads the file. Regenerate the goldens only on
purpose, with ``python3 bench/make_goldens.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from abhk.cli import corpus_dir, main

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "golden" / "cli.json"
GOLDENS = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
SPECS = sorted({key.split("|")[2] for key in GOLDENS["commands"]})


def command_argv(key: str) -> list:
    """``fmt|cmd|spec[|expr]`` -> the argv of that command."""
    fmt, cmd, spec, *expr = key.split("|", 3)
    return ["--format", fmt, cmd, str(corpus_dir() / f"{spec}.abhk")] + expr


def replay(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("spec", SPECS)
def test_commands_match_goldens(capsys, spec):
    mismatches = []
    for key, want in GOLDENS["commands"].items():
        if key.split("|")[2] != spec:
            continue
        code, out = replay(capsys, command_argv(key))
        if (code, out) != (want["exit"], want["stdout"]):
            mismatches.append(f"{key}: exit {code} (want {want['exit']})\n{out!r}\n"
                              f"want {want['stdout']!r}")
    assert not mismatches, "\n".join(mismatches[:5])


def test_examples_match_golden(capsys):
    want = GOLDENS["examples"]
    assert replay(capsys, ["examples"]) == (want["exit"], want["stdout"])


def test_goldens_cover_every_corpus_spec():
    assert SPECS == sorted(path.stem for path in corpus_dir().glob("*.abhk"))
