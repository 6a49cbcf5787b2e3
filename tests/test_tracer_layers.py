"""The traced benchmark patches library names it lists; a rename must fail here."""

import importlib
import importlib.util
from pathlib import Path

from triblucas.poly import IntPoly

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layer_names_exist():
    tracer = _tracer()
    for mod_name, fn_name in tracer.FUNCTION_LAYERS:
        module = importlib.import_module(f"triblucas.{mod_name}")
        assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)
    for method in tracer.METHOD_LAYERS:
        assert method in IntPoly.__dict__, method
    for sources in tracer.HIT_RATIO_SOURCES.values():
        for mod_name, fn_name in sources:
            module = importlib.import_module(f"triblucas.{mod_name}")
            assert callable(getattr(getattr(module, fn_name), "cache_info", None)), (
                mod_name, fn_name)
