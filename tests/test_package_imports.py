"""Module boundaries: no module under ``src/blokit/`` uses another module's private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blokit"
SUBMODULES = {p.stem for p in PACKAGE.glob("*.py")}


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def package_module(node, own):
    """The package module an ``ImportFrom`` names ("" for the package itself), or None."""
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "blokit":
            return None
        parts = parts[1:]
    else:
        parts = (node.module or "").split(".") if node.module else []
    return ".".join(parts) if parts != [own] else None


def private_uses(source, own):
    """(line, name) for each private name taken from another package module."""
    tree = ast.parse(source)
    module_aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = package_module(node, own)
            if module is None:
                continue
            for alias in node.names:
                if module == "" and alias.name in SUBMODULES:
                    module_aliases.add(alias.asname or alias.name)
                elif is_private(alias.name):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "blokit" and alias.asname and parts[1:] not in ([], [own]):
                    module_aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and is_private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(path):
    assert private_uses(path.read_text(encoding="utf-8"), path.stem) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .store import _check_id", [(1, "_check_id")]),
        ("from blokit.bits import write_file, _pad", [(1, "_pad")]),
        ("from . import bits\nbits._MASK", [(2, "bits._MASK")]),
        ("import blokit.bits as b\nb._MASK", [(2, "b._MASK")]),
        ("from .store import TemplateStore, __doc__", []),
        ("from .cli import _Parser", []),  # a module's own names
        ("from os import _exit\nimport os\nos._exit", []),
    ],
)
def test_the_check_sees_each_import_form(source, expected):
    assert private_uses(source, "cli") == expected
