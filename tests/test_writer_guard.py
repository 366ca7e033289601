"""Every file the package writes goes through ``bits.write_fd``, in place.

A writer that truncates on open, or appends, would bypass that protocol,
so no module under ``src/blokit/`` may open a file for writing with
``open()``, name ``O_TRUNC`` or call ``Path.write_bytes``/``write_text``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blokit"
WRITE_MODES = set("wax+")


def open_mode(call):
    """The mode a call to ``open``/``fdopen`` passes, "r" when it passes none."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r")
    )
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def stray_writers(source):
    """(line, what) for each write that bypasses ``write_fd``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name == "O_TRUNC" or name in ("write_bytes", "write_text"):
            found.append((node.lineno, name))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        receiver = getattr(getattr(func, "value", None), "id", None)
        # os.open takes integer flags, not a mode: it is how write_fd's callers open.
        if called == "fdopen" or (called == "open" and receiver != "os"):
            mode = open_mode(node)
            if mode is None or WRITE_MODES & set(mode):
                found.append((node.lineno, f"{called}(mode={mode!r})"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_write_goes_through_write_fd(path):
    assert stray_writers(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ('open(p, "wb")', [(1, "open(mode='wb')")]),
        ('open(p, mode="a")', [(1, "open(mode='a')")]),
        ('io.open(p, "r+b")', [(1, "open(mode='r+b')")]),
        ('os.fdopen(fd, "xb")', [(1, "fdopen(mode='xb')")]),
        ("open(p, m)", [(1, "open(mode=None)")]),
        ("os.open(p, os.O_WRONLY | os.O_TRUNC)", [(1, "O_TRUNC")]),
        ("flags = O_TRUNC", [(1, "O_TRUNC")]),
        ("Path(p).write_bytes(b)\np.write_text(t)", [(1, "write_bytes"), (2, "write_text")]),
        ('open(p)\nopen(p, "rb")\nopen(fd, "rb", buffering=0)', []),
        ("os.open(p, os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW, 0o666)", []),
    ],
)
def test_the_check_sees_each_writer(source, expected):
    assert stray_writers(source) == expected
