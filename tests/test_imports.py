"""What the package imports: only the standard library, and for the CLI no
``dataclasses`` or ``inspect`` (together about 10 ms of every CLI process).
Also the package's one layout rule: no source line is over 100 columns."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a set difference: the interpreter's start-up may already hold some modules
    script = (
        "import sys; before = set(sys.modules); import cmc.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "cmc.cli" in out
    assert not {"dataclasses", "inspect"} & set(out)


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted((SRC / "cmc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stdlib = sys.stdlib_module_names
            outside += [(path.name, n) for n in names if n.split(".")[0] not in stdlib]
    assert outside == []


def test_no_source_line_is_over_100_columns():
    long = [
        (path.name, number)
        for path in sorted((SRC / "cmc").glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []
