"""Every imported name in the package and the tests is used, every
private module-level name in the package is referenced, every optional
parameter of a public function is passed somewhere, every exported name
has a caller outside the tests, and importing the package loads no heavy
optional module."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports names only to re-export them.
PACKAGE = sorted((ROOT / "src" / "qrevival").glob("*.py"))
FILES = [p for p in PACKAGE if p.name != "__init__.py"] \
    + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_flags_unused_names():
    src = "import os\nimport numpy as np\nfrom a import b, c\nnp.sum(c)\n"
    assert _unused_imports(src) == ["b (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _references(tree: ast.AST) -> set[str]:
    """Names the tree loads, reads as attributes or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _orphans(sources: dict[str, str]) -> list[str]:
    """Module-level _private names that no module ever refers to."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_")
                        and not name.startswith("__")]
        used |= _references(tree)
    return [f"{module}.{name}" for module, name in defined
            if name not in used]


def test_scan_flags_orphaned_private_names():
    sources = {"a": "_CAP = 3\ndef _used(): return _CAP\ndef _dead(): pass\n"
                    "class _Gone: pass\n",
               "b": "from .a import _used\n_used()\n__all__ = []\n"}
    assert _orphans(sources) == ["a._dead", "a._Gone"]


def test_no_orphaned_private_names():
    assert _orphans({p.stem: p.read_text() for p in PACKAGE}) == []


def _settings_by_value(sources: dict[str, str]) -> list[str]:
    """ALL_CAPS names that a module imports from a sibling module: the
    reader keeps its own copy, which a monkeypatched setting never
    reaches."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{module}: {alias.name}" for alias in node.names
                          if alias.name.isupper()]
    return found


def test_scan_flags_settings_imported_by_value():
    sources = {"a": "CAP = 3\n_LOG = 2.0\ndef f(): return CAP\n",
               "b": "from .a import CAP, _LOG, f\nfrom . import a\n"
                    "from numpy import PINF\nprint(a.CAP, PINF)\n"}
    assert _settings_by_value(sources) == ["b: CAP", "b: _LOG"]


def test_no_settings_imported_by_value():
    assert _settings_by_value({p.stem: p.read_text() for p in PACKAGE}) == []


def _unset_options(package: dict[str, str], callers: list[str]) -> list[str]:
    """Optional parameters of public functions, and defaulted fields of
    public dataclasses, in ``package`` that no call in ``callers``
    passes, by position or by keyword.

    Calls are matched by the called name alone, and a call with *args
    or **kw passes everything, so the scan misses rather than invents.
    """
    optional = []  # (module, callee, parameter, position or None)
    for module, source in package.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                pos = node.args.posonlyargs + node.args.args
                first = len(pos) - len(node.args.defaults)
                optional += [(module, node.name, a.arg, i)
                             for i, a in enumerate(pos) if i >= first]
                optional += [(module, node.name, a.arg, None)
                             for a, d in zip(node.args.kwonlyargs,
                                             node.args.kw_defaults)
                             if d is not None]
            elif any("dataclass" in ast.dump(d) for d in node.decorator_list):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)]
                optional += [(module, node.name, s.target.id, i)
                             for i, s in enumerate(fields)
                             if s.value is not None]
    passed = {}  # called name -> (most positional arguments, keywords)
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            n, keywords = passed.get(name, (0, set()))
            n = max(n, len(node.args))
            if any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords):
                n = sys.maxsize
            passed[name] = (n, keywords | {k.arg for k in node.keywords})
    unset = []
    for module, callee, param, position in optional:
        n, keywords = passed.get(callee, (0, set()))
        if param not in keywords and (position is None or position >= n):
            unset.append(f"{module}.{callee}({param})")
    return unset


def test_scan_flags_unset_options():
    package = {"a": "def f(x, y=1, *, z=2): pass\n"
                    "def g(x, y=1): pass\n"
                    "def _h(x=1): pass\n"
                    "@dataclass(frozen=True)\n"
                    "class Spec:\n    n: int\n    m: int = 2\n"
                    "    k: float = 3.0\n"
                    "class Plain:\n    v: int = 1\n",
               "b": "@dataclass\nclass Cfg:\n    w: int = 0\n"}
    callers = ["f(1, 2)\nm.g(1)\nSpec(1, k=4.0)\nCfg(**kw)\ng(*args)\n"]
    assert _unset_options(package, callers) == [
        "a.f(z)", "a.Spec(m)"]


def test_no_unset_options():
    callers = [p.read_text() for d in ("src", "tests", "bench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert _unset_options({p.stem: p.read_text() for p in PACKAGE},
                          callers) == []


def _uncalled_exports(exports: list[str], sources: list[str],
                      texts: list[str]) -> list[str]:
    """Names in ``exports`` that no source in ``sources`` (package and
    benchmark modules) refers to in code, outside their own definitions,
    and no text in ``texts`` (the README) names as a whole word.  A name
    inside a string literal of a source is not a caller."""
    used = set().union(*(_references(ast.parse(s)) for s in sources))
    return [name for name in exports if name not in used
            and not any(re.search(rf"\b{name}\b", t) for t in texts)]


def test_scan_flags_uncalled_exports():
    sources = ["def f(): pass\ndef g(): return f()\nclass K: pass\n"
               "def h(): pass\n",
               "from .a import h\n",
               "import pkg\npkg.gx()\n"]
    texts = ["Build a `K` first.\n"]
    assert _uncalled_exports(["f", "g", "h", "K"], sources, texts) == ["g"]


def test_scan_ignores_names_in_bench_strings():
    # A CSV column header such as "p_inf (1/length)" calls nothing.
    sources = ["def p_inf(): pass\n",
               'table = read()\ncol = table["p_inf (1/length)"]\n']
    assert _uncalled_exports(["p_inf"], sources, []) == ["p_inf"]


def test_every_export_has_a_caller():
    # The package's own __init__ only re-exports, and tests do not count:
    # a public name serves the pipeline, the benchmark or the README.
    import qrevival
    sources = [p.read_text() for p in PACKAGE if p.name != "__init__.py"]
    sources += [p.read_text()
                for p in sorted((ROOT / "bench").rglob("*.py"))]
    texts = [(ROOT / "README.md").read_text()]
    assert _uncalled_exports(qrevival.__all__, sources, texts) == []


def test_import_loads_no_heavy_modules():
    # Each of these adds start-up time and resident memory to every run.
    code = ("import sys, qrevival; print(' '.join(sorted(m for m in "
            "sys.modules if m.split('.')[0] in ('scipy', 'mpmath') or "
            "m.startswith('numpy.polynomial'))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                               else []))
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert loaded.stdout.split() == []
