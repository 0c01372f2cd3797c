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


def test_every_module_star_imports():
    # __main__ runs the command line when imported, so it is left out
    names = ["lrpictures"] + [
        f"lrpictures.{m.name}" for m in pkgutil.iter_modules(lrpictures.__path__)
        if m.name != "__main__"
    ]
    for name in names:
        namespace = {}
        exec(f"from {name} import *", namespace)  # a stale __all__ entry raises here
        assert set(importlib.import_module(name).__all__) <= namespace.keys(), name


def test_package_exports_the_documented_list():
    assert lrpictures.__all__ == DOCUMENTED
