"""The benchmark's tracer wraps mirank functions by attribute name from
outside the package; every name it patches must still resolve, so that a
rename in ``src/`` fails here rather than in a later traced benchmark run."""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_functions_resolve(tracer):
    for owner, attr, name, _ in tracer.timed_phase_patches() + tracer.setup_patches():
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no function {attr!r}"


def test_counted_properties_resolve(tracer):
    for owner, attr, _ in tracer.counted_properties():
        assert isinstance(owner.__dict__.get(attr), property), f"{owner.__name__}.{attr} is not a property"


def test_advance_entries_takes_the_counted_arguments(tracer):
    """The work counter unpacks seven positional arguments of each call."""
    import mirank.ranker

    inspect.signature(mirank.ranker.advance_entries).bind(*range(7))
