"""The public surface: every export and every public module-level name
has a reader in the package, and the README's library example runs as
printed.

A public name that only tests read is a second entry point to keep in
step with the first; the scan below finds them by parsing the package's
own modules, and it allows no exceptions.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import recmono

PACKAGE = Path(recmono.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _names_read_by_package() -> set[str]:
    """Every Name and Attribute loaded in the package outside __init__."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _public_module_names() -> set[str]:
    """Every public def, class or assignment at module level in the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def _modules_after(code: str) -> set[str]:
    """Names in sys.modules once a fresh isolated interpreter has run code."""
    run = subprocess.run(
        [sys.executable, "-I", "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(run.stdout.split())


def test_cli_import_loads_no_introspection_modules():
    # every record is a NamedTuple or a plain class: importing the CLI
    # loads no dataclasses, nor the modules dataclasses pulls in
    bare = _modules_after("pass")
    cli = _modules_after(f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
                         "import recmono.cli")
    assert "recmono.cli" in cli
    assert (cli - bare) & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def test_every_export_has_a_reader_in_the_package():
    unread = (set(recmono.__all__) | _public_module_names()) - _names_read_by_package()
    assert unread == set(), (
        "public names that only tests read: give them a consumer in the "
        "package or move them into the tests"
    )


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    n0_line = next(i for i, line in enumerate(prints) if "n0" in line)
    assert out.getvalue().splitlines()[n0_line] == "1"
