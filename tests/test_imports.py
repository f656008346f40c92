"""Source hygiene: every name a module imports is used in that module."""

import ast
import os

import pytest

import gkmcalc

SRC = os.path.dirname(gkmcalc.__file__)
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads.  An
    `import a.b` binds a; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_src_module_uses_every_import(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_check_catches_a_stray_name():
    source = "from .fgl import FormalGroupLaw, build_fgl\nimport os.path\n\nbuild_fgl(None)\n"
    assert unused_imports(source) == ["FormalGroupLaw", "os"]
