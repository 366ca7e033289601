"""Block logic operation (BLO) template transform and its cryptanalysis.

The transform maps each odd-length block of a binary feature vector to a
one-bit-shorter block by XORing every bit with the middle bit and
dropping it.  This package implements the transform, the constructive
preimage attack that defeats it, and measurement studies of its fiber
structure, linkability, and revocability, all reproducible from seeds.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public module -> its public names.  bits, errors and transform load
# with the package; every other name loads, with its module, on first use
# (PEP 562) and is then kept in the package namespace.
_PUBLIC = {
    "bits": ("BitString", "FeatureVector", "complement", "from_text", "hamming_distance", "pack",
             "random_bits", "read_feature", "stream_rng", "to_text", "unpack", "write_feature"),
    "errors": ("BlokitError", "CapacityError", "DimensionError", "IncomparableTemplatesError",
               "InvalidArgumentError", "MalformedInputError", "ManifestError",
               "RecordNotFoundError", "StorageError"),
    # Eager because the first import of a submodule binds it onto the
    # package under its own name, here also a function's: loaded before the
    # names are set, the function wins, and a loaded module is not rebound.
    "transform": ("PaddingPolicy", "ProtectedTemplate", "TransformParams", "read_template_file",
                  "segment", "transform", "transform_block", "write_template_file"),
    "analysis": ("AnalysisReport", "census_fibers", "fiber_census", "linkability_study",
                 "recovery_probability", "revocability_check"),
    "attack": ("PreimageCount", "PreimageTable", "build_table", "count_preimages",
               "enumerate_preimages", "forge", "invert_block"),
    "matcher": ("MatchDecision", "match_templates"),
    "store": ("EnrollmentRecord", "TemplateStore"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)

# Importable from the package, but not listed in ``__all__``.
_HOME["ManifestEntry"] = "store"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> "list[str]":
    return sorted(globals().keys() | _HOME.keys())


for _name in _PUBLIC["bits"] + _PUBLIC["errors"] + _PUBLIC["transform"]:
    __getattr__(_name)
del _name
