"""Regenerate ``golden/cli.json``: the exit code and stdout of every
cli-corpus command and of ``abhk examples``, from the library in ``src/``.

Regenerate only on purpose (the goldens are what the benchmark checks the
CLI against) and record the reason in CHANGES.md:

    python3 bench/make_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    lib = workloads.load_library(ROOT)
    commands = {}
    for command in workloads.cli_commands(lib, ROOT):
        code, out, _ = workloads.call_cli(lib, workloads.command_argv(ROOT, command))
        commands[workloads.command_key(command)] = {"exit": code, "stdout": out}
    code, out, _ = workloads.run_cli_subprocess(ROOT, ["examples"], timeout=120)
    golden = {"examples": {"exit": code, "stdout": out}, "commands": commands}
    workloads.GOLDEN_PATH.parent.mkdir(exist_ok=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(f"wrote {len(commands)} command goldens to {workloads.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
