"""The package surface: every module's __all__ names only what the module
defines, and lrpictures exports the documented list (see the README)."""

import importlib
import pkgutil

import lrpictures

DOCUMENTED = [
    # JSON value types
    "Cell",
    "CrystalPair",
    "Partition",
    "Picture",
    "SkewShape",
    "SkewTableau",
    "TwoRowedArray",
    # command-line operations
    "CorrespondenceContext",
    "enumerate_pictures",
    "full_c",
    "full_s",
    "lr_coefficient",
    "lr_routes",
    "rsk_forward",
    "rsk_inverse",
    # partition generators
    "partitions_in_box",
    "partitions_of",
    "subpartitions",
]

# __main__ runs the command line when imported, so it is left out.
MODULES = ["lrpictures"] + [
    f"lrpictures.{m.name}" for m in pkgutil.iter_modules(lrpictures.__path__)
    if m.name != "__main__"
]

# Every per-process memo, by defining module and name.
MEMOS = {
    "lrpictures.cli._parsed_argument",
    "lrpictures.crystal._lr_fillings_cached",
    "lrpictures.crystal.cached_ssyt",
    "lrpictures.shapes._shape_cached",
}


def test_every_module_star_imports():
    for name in MODULES:
        namespace = {}
        exec(f"from {name} import *", namespace)  # a stale __all__ entry raises here
        assert set(importlib.import_module(name).__all__) <= namespace.keys(), name


def test_package_exports_the_documented_list():
    assert lrpictures.__all__ == DOCUMENTED


def test_every_memo_is_listed_and_bounded():
    # module attributes, and the attributes of each module's classes
    found = {}
    for name in MODULES:
        for obj in vars(importlib.import_module(name)).values():
            for x in [obj, *(vars(obj).values() if isinstance(obj, type) else ())]:
                if hasattr(x, "cache_info"):
                    found[f"{x.__module__}.{x.__qualname__}"] = x
    assert found.keys() == MEMOS
    for name, memo in found.items():
        assert memo.cache_info().maxsize is not None, name
