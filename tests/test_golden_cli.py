"""Replay the golden CLI transcript ``golden_cli.txt`` through ``cli.main``.

Each case in the transcript is a ``$ cmc ...`` line (shell-quoted argv), an
``exit: <code>`` line and the exact stdout, one ``| `` line per output line
(a bare ``|`` for an empty one).  To record the transcript again from the
current code, for a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

import pytest

from cmc.cli import _COMMANDS, main

GOLDEN = Path(__file__).with_name("golden_cli.txt")


def _cases():
    cases = []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ "):
            cases.append([shlex.split(line[2:])[1:], None, ""])
        elif line.startswith("exit: "):
            cases[-1][1] = int(line[len("exit: ") :])
        elif line.startswith("|"):
            cases[-1][2] += line[2:] + "\n"
    return cases


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv, code, stdout", [pytest.param(*c, id=shlex.join(c[0])) for c in _cases()])
def test_golden_cli(monkeypatch, argv, code, stdout):
    monkeypatch.delenv("CMC_DEFAULT_BUDGET", raising=False)
    assert _run(argv) == (code, stdout)


def test_every_command_has_a_golden_case():
    argvs = [argv for argv, _, _ in _cases()]
    commands = [name.split() for name, _, _, call in _COMMANDS if call is not None]
    assert ["family", "build"] in commands
    assert [c for c in commands if not any(argv[: len(c)] == c for argv in argvs)] == []


def _record():
    os.environ.pop("CMC_DEFAULT_BUDGET", None)
    head = []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            break
        head.append(line)
    lines = head
    for argv, _, _ in _cases():
        code, stdout = _run(argv)
        assert stdout == "" or stdout.endswith("\n"), argv
        lines += [f"$ {shlex.join(['cmc'] + argv)}", f"exit: {code}"]
        lines += [f"| {s}" if s else "|" for s in stdout.splitlines()]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(_record())
