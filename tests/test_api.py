"""The public surface and the source rules.

Every export and every public module-level name has a reader in the
package, and the README's library example runs as printed.  A public
name that only tests read is a second entry point to keep in step with
the first; the scan below finds them by parsing the package's own
modules, and it allows no exceptions.

The source rules: the package imports only the standard library and
holds no float; no module of the package or the tests imports a name it
never uses; the tests import only what '.[test]' installs and never read
source lines or frames; the oracle's route stays apart from the
decisions', and the tests' exact reference apart from the package's
roots and signs; and the decisions read the spec's integer form, never
a root.  Each source file is parsed once per session, by _tree.

The package's total of code lines (less blank lines, comment lines and
docstrings) is pinned as an upper bound, PACKAGE_CODE_LINES.

Run as a script, it prints each package module's code lines next to its
wc -l count, the median launch time of the installed recmono next to a
bare interpreter's (skipped where the script is not installed), and the
modules that importing the CLI adds; these figures are reported, not
gated:

    python tests/test_api.py
"""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import recmono

PACKAGE = Path(recmono.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
README = ROOT / "README.md"
PACKAGE_SOURCES = sorted(PACKAGE.glob("*.py"))
TEST_SOURCES = sorted(TESTS.glob("*.py"))


@functools.cache
def _tree(path: Path) -> ast.Module:
    """The syntax tree of a source file, parsed once per session."""
    return ast.parse(path.read_text(encoding="utf-8"))


def _names_read_by_package() -> set[str]:
    """Every Name and Attribute loaded in the package outside __init__."""
    read = set()
    for path in PACKAGE_SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _public_module_names() -> set[str]:
    """Every public def, class or assignment at module level in the package."""
    names = set()
    for path in PACKAGE_SOURCES:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def _package_imports(path: Path) -> set[str]:
    """Each name a module imports from the package, as 'module.name'
    relative to the package ('oracle' for `from . import oracle`)."""
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "recmono"):
            module = (node.module or "").removeprefix("recmono").lstrip(".")
            found |= {f"{module}.{alias.name}".lstrip(".") for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("recmono.") for alias in node.names
                      if alias.name.startswith("recmono.")}
    return found


def _modules_after(code: str) -> set[str]:
    """Names in sys.modules once a fresh isolated interpreter, with the
    package on its path, has run code."""
    run = subprocess.run(
        [sys.executable, "-I", "-c",
         f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n{code}\n"
         "print(*sys.modules)"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(run.stdout.split())


def test_cli_import_loads_no_introspection_modules():
    # every record is a NamedTuple or a plain class: importing the CLI
    # loads no dataclasses, nor the modules dataclasses pulls in; and the
    # JSON writer takes its escaper from _json, so no json package either
    bare = _modules_after("pass")
    cli = _modules_after("import recmono.cli")
    assert "recmono.cli" in cli
    assert (cli - bare) & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
    assert "json" not in cli


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


def test_package_imports_only_the_standard_library():
    # in a fresh interpreter: this one has pytest and hypothesis loaded
    # already, so a diff of its own sys.modules would pass whatever the
    # package imports
    modules = "".join(f"import recmono.{path.stem}\n" for path in PACKAGE_SOURCES
                      if path.name != "__init__.py")
    added = _modules_after(modules) - _modules_after("pass")
    outside = ({name.partition(".")[0] for name in added}
               - set(sys.stdlib_module_names) - {"recmono"})
    assert outside == set(), f"imports outside the standard library: {sorted(outside)}"


def test_no_float_in_the_package():
    # every value is exact and every decimal is rounded on integers;
    # words in docstrings are strings, not names, and pass
    bad = []
    for path in PACKAGE_SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found = repr(node.value)
            elif isinstance(node, ast.Name) and node.id in ("float", "float_info"):
                found = node.id
            elif isinstance(node, ast.Attribute) and node.attr == "float_info":
                found = node.attr
            elif isinstance(node, ast.alias) and node.name == "float_info":
                found = node.name
            else:
                continue
            bad.append(f"{path.name}:{node.lineno}: {found}")
    assert bad == [], f"float in the package: {bad}"


def test_no_unused_import_in_the_package_or_the_tests():
    # a name imported into a module is read there or re-exported in its
    # __all__; `from __future__` imports are directives and pass
    bad = []
    for path in PACKAGE_SOURCES + TEST_SOURCES:
        tree = _tree(path)
        imported, exported = {}, set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bad += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                if name not in used | exported]
    assert bad == [], f"imported and never used: {bad}"


def test_tests_import_only_the_test_extras():
    # the standard library, pytest, hypothesis, recmono and the tests'
    # own modules: what '.[test]' installs
    allowed = set(sys.stdlib_module_names) | {"pytest", "hypothesis", "recmono"}
    allowed |= {path.stem for path in TEST_SOURCES}
    bad = set()
    for path in TEST_SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad |= {f"{path.name}: {n}" for n in names if n.partition(".")[0] not in allowed}
    assert bad == set(), f"test imports outside the test extras: {sorted(bad)}"


def test_no_source_or_frame_reading_in_the_tests():
    # the tests see the oracle walk through its events, never through
    # its source lines, a line tracer or a frame's locals
    banned = {"settrace", "_getframe", "f_locals", "getsource", "getsourcelines"}
    bad = []
    for path in TEST_SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            bad += [f"{path.name}:{node.lineno}: {n}" for n in names if n in banned]
    assert bad == [], f"source or frame reading in the tests: {bad}"


def _root_names_read(path: Path, banned: set[str]) -> set[str]:
    """The names in `banned`, or starting with alpha, that a module reads."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(_tree(path)) if isinstance(node, (ast.Name, ast.Attribute))}
    return {name for name in read if name in banned or name.startswith("alpha")}


def test_oracle_route_is_independent_of_the_decisions():
    # the oracle checks each verdict by its own route: it reads the
    # carrier from index 0 and two root signs, never a root, the
    # decisions' Lucas jump or a verdict, and no decision reads it
    oracle = PACKAGE / "oracle.py"
    assert _package_imports(oracle) <= {
        "qfield.dominant_root_sign", "qfield.surd_sign",
        "recurrence.RecurrenceSpec", "recurrence.integer_carrier"}
    banned = {"roots", "_roots", "beta", "QuadElem", "quadratic_roots", "_carrier_jump"}
    assert _root_names_read(oracle, banned) == set()
    carriers = [node for node in ast.walk(_tree(oracle)) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "integer_carrier"]
    assert carriers and all(len(c.args) == 1 and not c.keywords for c in carriers)
    for name in ("decisions.py", "regions.py"):
        assert not {i for i in _package_imports(PACKAGE / name) if i.partition(".")[0] == "oracle"}


def test_decisions_read_only_the_integer_form():
    # every clause is a sign on the spec's integer form: the discriminant's
    # is that of A*A - 4*B*q, each root clause is one or two _gap_sign
    # calls, and no decision builds or reads a root or a QuadElem
    decisions = PACKAGE / "decisions.py"
    banned = {"QuadElem", "cmp_abs", "quadratic_roots"}
    assert {i for i in _package_imports(decisions) if i.partition(".")[2] in banned} == set()
    assert _root_names_read(decisions, banned | {"roots", "_roots", "beta"}) == set()


def test_reference_route_is_independent():
    # tests/reference.py builds its roots from (a, b) on a ring of its own:
    # it imports the spec, the term readers and the window records, and
    # reads no root, root sign, integer form, carrier or scan of the
    # package; its own names (its roots function among them) pass
    reference = TESTS / "reference.py"
    assert _package_imports(reference) <= {
        "RecurrenceSpec", "make_h_spec", "iterate", "term_minus_one",
        "oracle.OracleWindows", "WindowReport", "PropertyId"}
    banned = {"surd_sign", "dominant_root_sign", "quadratic_roots", "roots", "_roots",
              "_gap_sign", "_integers", "integer_carrier", "_carrier_jump", "_jump", "scan"}
    tree = _tree(reference)
    own = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} - own
    assert read & banned == set()


def _code_lines(path: Path) -> int:
    """A source file's code lines: less blank lines, comment lines and
    docstrings."""
    docs = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    text = path.read_text(encoding="utf-8")
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in docs and line.strip() and not line.strip().startswith("#"))


# the package's code lines may not grow past this; lowering it takes a
# line in CHANGES.md, and raising it a reason there
PACKAGE_CODE_LINES = 1459


def test_package_code_lines_stay_under_the_pin():
    total = sum(_code_lines(path) for path in PACKAGE_SOURCES)
    assert total <= PACKAGE_CODE_LINES, (
        f"the package has {total} code lines, over the pin of {PACKAGE_CODE_LINES}")


def main() -> int:
    total = lines = 0
    print("  code   wc -l")
    for path in PACKAGE_SOURCES:
        code = _code_lines(path)
        n = path.read_text(encoding="utf-8").count("\n")
        total, lines = total + code, lines + n
        print(f"{code:6d} {n:7d}  {path.relative_to(ROOT)}")
    print(f"{total:6d} {lines:7d}  total")

    def median_launch(argv: list[str]) -> float:
        times = []
        for _ in range(15):
            start = time.perf_counter()
            subprocess.run(argv, stdout=subprocess.DEVNULL, check=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1000

    if shutil.which("recmono") is None:
        print("median of 15 launches: skipped, the recmono script is not installed "
              "(pip install -e .)")
    else:
        cli = median_launch(["recmono", "characterize", "--scan-bound=1"])
        bare = median_launch([sys.executable, "-I", "-c", "pass"])
        print(f"median of 15 launches: recmono characterize --scan-bound=1 {cli:.1f} ms, "
              f"python -I -c pass {bare:.1f} ms")
    added = sorted(_modules_after("import recmono.cli") - _modules_after("pass"))
    print(f"import recmono.cli adds {len(added)} modules: {' '.join(added)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
