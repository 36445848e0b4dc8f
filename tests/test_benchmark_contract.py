"""The benchmark's span targets still name functions and methods of the package.

``perfbench/tracing.py`` records spans by rebinding the package attributes
listed in its ``TARGETS``; a renamed or deleted one would only fail when a
traced benchmark run installs the tracer. The file is loaded by path and
left as it is.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span,target", sorted(_targets().items()))
def test_tracing_target_resolves(span, target):
    mod_name, attr = target
    module = importlib.import_module(f"gmfkrylov.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(module, cls_name)
        assert inspect.isclass(owner), span
        assert inspect.isfunction(owner.__dict__.get(meth)), span
    else:
        assert inspect.isfunction(getattr(module, attr, None)), span
