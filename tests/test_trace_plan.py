"""The names the traced benchmark run patches must exist in the library.

`perfbench/tracing.py` looks each `PLAN` entry up by its string name when
`run.py --trace 1` installs its wrappers, so a rename in `omegadec` would
break the traced run without failing any other test. This test only reads
that file.
"""

import importlib
import importlib.util
import inspect
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_plan_entry_names_a_library_function():
    plan = load_tracing().PLAN
    assert plan
    for modname, attr, *_ in plan:
        mod = importlib.import_module(f"omegadec.{modname}")
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(mod, cls_name)
            assert name in owner.__dict__, f"{modname}.{attr}"
            fn = owner.__dict__[name]
            if isinstance(fn, classmethod):
                fn = fn.__func__
        else:
            fn = getattr(mod, attr, None)
        assert inspect.isfunction(fn), f"{modname}.{attr}"
