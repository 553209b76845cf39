"""The benchmark tracer's contract with the package.

`bench/tracing.py` wraps every name in its `LAYERS` table at every binding
site. A name that no longer resolves breaks traced benchmark runs, and two
traced names bound to one function would be wrapped twice.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_distinct_functions():
    owners = {}
    for layer, names in load_tracing().LAYERS.items():
        module = importlib.import_module(f"lungmix.{layer}")
        for name in names:
            traced = f"lungmix.{layer}.{name}"
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), f"{traced} is not a function"
            owner = owners.setdefault(id(fn), traced)
            assert owner == traced, f"{traced} is the same function as {owner}"
