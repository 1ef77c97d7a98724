"""Every function the benchmark's tracer wraps still exists.

perfbench/tracer.py names its targets in SPANS as (module, attribute, ...);
a rename in the package would otherwise surface only as a crash of a traced
benchmark run.  The table is read, never installed.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in _spans()])
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(f"pdpairs.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__[meth])
    else:
        assert callable(getattr(owner, attr))
