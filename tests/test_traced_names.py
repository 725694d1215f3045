"""The benchmark's tracer wraps hypkm functions by name; every name it lists
must still resolve, so that deleting or renaming one fails here and not
only in a traced benchmark run."""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    # executed from source, so that nothing is imported or written under
    # perfbench/
    namespace: dict = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TRACED"]


@pytest.mark.parametrize("layer, qualname", [(layer, name) for layer, name, _ in _traced()])
def test_every_traced_name_resolves(layer, qualname):
    module = importlib.import_module(f"hypkm.{layer}")
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth))
    else:
        assert callable(getattr(module, qualname, None))


def test_the_interval_class_defines_mesh():
    # the tracer counts mesh calls by wrapping mesh where a class of
    # hypkm.spaces defines it; the benchmark's lifts mesh [0, 1]
    from hypkm import make_interval

    cls = type(make_interval(0.0, 1.0))
    assert cls.__module__ == "hypkm.spaces" and "mesh" in vars(cls)
