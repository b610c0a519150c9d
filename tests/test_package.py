import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _modules_with_all():
    """Every `hindcaus` module that assigns `__all__`, by dotted name."""
    src = ROOT / "src"
    modules = []
    for path in sorted(src.rglob("*.py")):
        if re.search(r"^__all__\b", path.read_text(), re.MULTILINE):
            parts = path.relative_to(src).with_suffix("").parts
            modules.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return modules


@pytest.mark.parametrize("module", _modules_with_all())
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_every_runtime_dependency_is_imported():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    sources = "\n".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        pattern = rf"^\s*(import|from)\s+{re.escape(name)}\b"
        assert re.search(pattern, sources, re.MULTILINE), f"{requirement!r} is never imported"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_every_console_script_target_imports_and_is_callable():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r}: {target!r} is not callable"


def _unused_imports(path):
    """Names that `path` imports but never reads; `__all__` entries count as
    reads, so a package can re-export what it imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    where = path.relative_to(ROOT)
    return [f"{where}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    files = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "tests").rglob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"


def _file_calls(path):
    """The calls in `path` that open, read or write a file, or replace one,
    as "file:line name"."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        f = node.func if isinstance(node, ast.Call) else None
        if isinstance(f, ast.Name) and f.id == "open":
            name = "open"
        elif isinstance(f, ast.Attribute) and f.attr in ("open", "read_bytes", "write_bytes", "write_text"):
            name = f".{f.attr}"
        elif isinstance(f, ast.Attribute) and f.attr == "replace" and getattr(f.value, "id", None) == "os":
            name = "os.replace"
        else:
            continue
        calls.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return calls


def test_only_fileio_opens_or_replaces_files():
    # Writes are atomic because every file goes through fileio: `write_atomic`
    # writes, `read_arrays` reads.
    modules = [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "fileio.py"]
    calls = [call for path in modules for call in _file_calls(path)]
    assert not calls, f"file access outside fileio.py: {calls}"
    assert _file_calls(ROOT / "src" / "hindcaus" / "fileio.py")  # the check sees fileio's own calls
