"""Every file the package reads goes through ``bits.read_fd``, or ``os.read`` for '.bits'.

A read through ``pathlib`` or an ``io`` file object costs several times
the os-level read and names a path its own way, so no module under
``src/blokit/`` may call ``Path.read_bytes``/``read_text`` or ``open()`` a
path.  ``open(fd, ..., closefd=False)`` opens a descriptor, never a path,
and ``os.open`` is how ``read_fd``'s callers and ``read_bits_file`` open.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blokit"


def opens_a_descriptor(call):
    """True when the call passes ``closefd=False``, which ``open`` refuses with a path."""
    return any(
        k.arg == "closefd" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in call.keywords
    )


def stray_readers(source):
    """(line, what) for each read that bypasses ``read_fd``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in ("read_bytes", "read_text"):
            found.append((node.lineno, name))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        receiver = getattr(getattr(func, "value", None), "id", None)
        if called == "open" and receiver != "os" and not opens_a_descriptor(node):
            found.append((node.lineno, "open"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_read_goes_through_read_fd(path):
    assert stray_readers(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("Path(p).read_bytes()", [(1, "read_bytes")]),
        ('p.read_text(encoding="utf-8")', [(1, "read_text")]),
        ("read = Path.read_bytes", [(1, "read_bytes")]),
        ('open(p, "rb")', [(1, "open")]),
        ("open(Path(p))", [(1, "open")]),
        ('io.open(p, "rb")', [(1, "open")]),
        ('Path(p).open("rb")', [(1, "open")]),
        ('with open(p, "rb", closefd=True) as f:\n    f.read()', [(1, "open")]),
        ('open(fd, "rb", buffering=0, closefd=False)', []),
        ("os.open(p, os.O_RDONLY)", []),
        ("read_fd(os.open(p, os.O_RDONLY | os.O_NONBLOCK))", []),
    ],
)
def test_the_check_sees_each_reader(source, expected):
    assert stray_readers(source) == expected
