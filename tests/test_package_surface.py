"""The package surface: ``blokit.__all__``, ``dir(blokit)`` and ``from blokit import *``.

``blokit`` imports ``bits``, ``errors`` and ``transform`` with the package
and resolves every other public name on first use, so these checks also
run in fresh interpreters, where no earlier test has loaded a module.
"""

import importlib
import subprocess
import sys

import pytest

import blokit

from conftest import fresh_env

# Each public name in ``__all__`` order, with the module that defines it.
GOLDEN = [
    ("AnalysisReport", "analysis"),
    ("BitString", "bits"),
    ("BlokitError", "errors"),
    ("CapacityError", "errors"),
    ("DimensionError", "errors"),
    ("EnrollmentRecord", "store"),
    ("FeatureVector", "bits"),
    ("IncomparableTemplatesError", "errors"),
    ("InvalidArgumentError", "errors"),
    ("MalformedInputError", "errors"),
    ("ManifestError", "errors"),
    ("MatchDecision", "matcher"),
    ("PaddingPolicy", "transform"),
    ("PreimageCount", "attack"),
    ("PreimageTable", "attack"),
    ("ProtectedTemplate", "transform"),
    ("RecordNotFoundError", "errors"),
    ("StorageError", "errors"),
    ("TemplateStore", "store"),
    ("TransformParams", "transform"),
    ("build_table", "attack"),
    ("census_fibers", "analysis"),
    ("complement", "bits"),
    ("count_preimages", "attack"),
    ("enumerate_preimages", "attack"),
    ("fiber_census", "analysis"),
    ("forge", "attack"),
    ("from_text", "bits"),
    ("hamming_distance", "bits"),
    ("invert_block", "attack"),
    ("linkability_study", "analysis"),
    ("match_templates", "matcher"),
    ("pack", "bits"),
    ("random_bits", "bits"),
    ("read_feature", "bits"),
    ("read_template_file", "transform"),
    ("recovery_probability", "analysis"),
    ("revocability_check", "analysis"),
    ("segment", "transform"),
    ("stream_rng", "bits"),
    ("to_text", "bits"),
    ("transform", "transform"),
    ("transform_block", "transform"),
    ("unpack", "bits"),
    ("write_feature", "bits"),
    ("write_template_file", "transform"),
]


def fresh(code):
    """Run ``code`` in a fresh interpreter that imports blokit from the checkout; return its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_golden_list_in_order():
    assert blokit.__all__ == [name for name, _ in GOLDEN]


def test_dir_lists_every_public_name():
    assert set(blokit.__all__) <= set(dir(blokit))


def test_star_import_binds_each_name_to_its_definition():
    namespace = {}
    exec("from blokit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(name for name, _ in GOLDEN)
    for name, module in GOLDEN:
        assert namespace[name] is getattr(importlib.import_module(f"blokit.{module}"), name), name


def test_dir_and_star_import_in_a_fresh_interpreter():
    code = (
        "import importlib\n"
        "import blokit\n"
        "assert set(blokit.__all__) <= set(dir(blokit))\n"
        "from blokit import *\n"
        "for name in blokit.__all__:\n"
        "    obj = globals()[name]\n"
        "    assert obj is getattr(importlib.import_module(obj.__module__), name), name\n"
        "print(len(blokit.__all__))\n"
    )
    assert fresh(code) == f"{len(GOLDEN)}\n"


def test_manifest_entry_resolves_but_is_not_listed():
    from blokit.store import ManifestEntry

    assert blokit.ManifestEntry is ManifestEntry
    assert "ManifestEntry" in dir(blokit)
    assert "ManifestEntry" not in blokit.__all__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        blokit.no_such_name
    assert not hasattr(blokit, "cli_main")
    with pytest.raises(ImportError):
        exec("from blokit import no_such_name", {})


@pytest.mark.parametrize("first", ["blokit", "blokit.cli", "blokit.store", "blokit.attack",
                                   "blokit.analysis"])
def test_transform_stays_the_function_whichever_module_loads_first(first):
    # A submodule's first import binds it onto the package under its own
    # name; for ``transform`` that name is also a public function.
    code = (
        "import importlib, sys\n"
        f"importlib.import_module({first!r})\n"
        "import blokit\n"
        "seen = [blokit.transform]\n"
        "for name in ('cli', 'store', 'attack', 'analysis', 'matcher'):\n"
        "    importlib.import_module('blokit.' + name)\n"
        "    seen.append(blokit.transform)\n"
        "from blokit import *\n"
        "seen.append(transform)\n"
        "function = sys.modules['blokit.transform'].transform\n"
        "print(all(obj is function for obj in seen), len(seen))\n"
    )
    assert fresh(code) == "True 7\n"
