"""Every function and method that the benchmark's tracer wraps still exists
in kocom under the name the tracer gives it."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_every_wrapped_name_resolves():
    wraps = load_wraps()
    assert wraps
    for module_name, attr, *_ in wraps:
        module = importlib.import_module(f"kocom.{module_name}")
        if "." in attr:
            class_name, method = attr.split(".")
            target = vars(getattr(module, class_name)).get(method)
        else:
            target = getattr(module, attr, None)
        assert target is not None, f"kocom.{module_name}.{attr}"
