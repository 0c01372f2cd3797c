"""The library names that perfbench/tracer.py and perfbench/workloads.py
reach, checked without running the benchmark.  The tracer is loaded by path
and only read."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from lrpictures import Partition, SkewShape, SkewTableau

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_function(name):
    module, fn = name.split(".")
    return getattr(importlib.import_module(f"lrpictures.{module}"), fn)


def test_every_traced_function_exists():
    tracer = load_tracer()
    for module, functions in tracer.TARGETS.items():
        for fn in functions:
            assert callable(library_function(f"{module}.{fn}")), f"{module}.{fn}"


def test_traced_generators_are_generator_functions():
    tracer = load_tracer()
    assert tracer.GENERATORS
    for name in tracer.GENERATORS:
        assert inspect.isgeneratorfunction(library_function(name)), name


def test_traced_cache_and_membership_keep_what_the_tracer_reads():
    tracer = load_tracer()
    assert hasattr(library_function(tracer.CACHE), "cache_info")
    lr_membership = library_function(tracer.MEMBERSHIP)
    witness = lr_membership(SkewTableau.straight(((1, 2),)), Partition((1,)), Partition((2, 1)))
    assert witness.member is True


def test_workloads_read_the_cell_set():
    shape = SkewShape(Partition((2, 1)), Partition((1,)))
    assert shape.cell_set() == frozenset(shape._j_order)
