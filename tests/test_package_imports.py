"""Module boundaries: no module under ``src/blokit/`` uses another module's private names.

argparse's private names count too, and the private attributes of its
parsers, groups and actions: no Python release promises them.
"""

import argparse
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blokit"
SUBMODULES = {p.stem for p in PACKAGE.glob("*.py")}
# Outside modules whose private names the package must not use either.
GUARDED = {"argparse"}


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def argparse_private_names():
    parser = argparse.ArgumentParser()
    objects = (argparse, parser, parser.add_subparsers(), parser.add_mutually_exclusive_group(),
               parser.add_argument("--x"))
    return {name for obj in objects for name in dir(obj) if is_private(name)}


ARGPARSE_PRIVATE = argparse_private_names()


def package_module(node, own):
    """The package or guarded module an ``ImportFrom`` names ("" for the package itself), or None."""
    if node.level == 0:
        parts = (node.module or "").split(".")
        if node.module in GUARDED:
            return node.module
        if parts[0] != "blokit":
            return None
        parts = parts[1:]
    else:
        parts = (node.module or "").split(".") if node.module else []
    return ".".join(parts) if parts != [own] else None


def private_uses(source, own):
    """(line, name) for each private name taken from another package module or a guarded one."""
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
                elif alias.name in GUARDED:
                    module_aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        on_module = isinstance(node.value, ast.Name) and node.value.id in module_aliases
        if (on_module and is_private(node.attr)) or node.attr in ARGPARSE_PRIVATE:
            found.append((node.lineno, ast.unparse(node)))
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
        ("import argparse\nargparse._StoreAction", [(2, "argparse._StoreAction")]),
        ("import argparse as ap\nap._HelpAction", [(2, "ap._HelpAction")]),
        ("from argparse import ArgumentParser, _SubParsersAction", [(1, "_SubParsersAction")]),
        ("import argparse\nfrom argparse import Namespace\nargparse.SUPPRESS", []),
        ("parser._actions\nparser.add_mutually_exclusive_group()._group_actions",
         [(1, "parser._actions"), (2, "parser.add_mutually_exclusive_group()._group_actions")]),
        ("self._read_manifest()", []),
    ],
)
def test_the_check_sees_each_import_form(source, expected):
    assert private_uses(source, "cli") == expected
