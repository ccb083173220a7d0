"""The benchmark tracer's layer bindings still resolve against the library.

``perfbench/tracer.py`` wraps every function named in its ``LAYERS`` table
and reads the library's caches from outside; a binding renamed or deleted
in ``src/`` would otherwise only show up in a traced benchmark run.  The
tracer is loaded by path, as a script, and nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves(tracer):
    assert tracer.LAYERS
    for name, (module_name, attr) in tracer.LAYERS.items():
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), name


def test_cache_counters_read(tracer):
    counters = tracer.cache_counters()
    for key in ("sigma_k", "prime_factors", "r4"):
        assert set(counters[key]) == {"hits", "misses", "entries"}
    assert counters["expansion_cache_entries"] >= 0
