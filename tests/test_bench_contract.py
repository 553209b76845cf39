"""The benchmark tracer's contract with the package.

`bench/tracing.py` wraps every name in its `LAYERS` table at every binding
site. A name that no longer resolves breaks traced benchmark runs, and two
traced names bound to one function would be wrapped twice. Its per-call
counters read arguments by position or by parameter name, so both must
still name the same parameter of the traced function.
"""

import ast
import importlib
import importlib.util
import inspect
import textwrap
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


def test_counters_read_parameters_the_traced_functions_have():
    tracing = load_tracing()
    for traced, counter in tracing.COUNTERS.items():
        layer, name = traced.split(".")
        fn = getattr(importlib.import_module(f"lungmix.{layer}"), name)
        params = list(inspect.signature(fn).parameters)
        tree = ast.parse(textwrap.dedent(inspect.getsource(counter)))
        # each `_arg(args, kwargs, index, name)` call the counter makes
        reads = [
            (call.args[2].value, call.args[3].value)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"
        ]
        assert reads, f"the {traced} counter reads no argument"
        for index, param in reads:
            assert index < len(params) and params[index] == param, (
                f"the {traced} counter reads argument {index} as {param!r}, "
                f"but lungmix.{traced} has parameters {params}"
            )
