import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "module",
    ["hindcaus.env", "hindcaus.models", "hindcaus.numcore", "hindcaus.objective", "hindcaus.graph"],
)
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
