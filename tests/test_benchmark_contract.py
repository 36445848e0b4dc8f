"""The benchmark's span targets still name functions and methods of the package.

``perfbench/tracing.py`` records spans by rebinding the package attributes
listed in its ``TARGETS``; a renamed or deleted one would only fail when a
traced benchmark run installs the tracer. The file is loaded by path and
left as it is. A traced ``harness.run`` must also show each engine it reaches
through the engine table as a span of its own.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

import gmfkrylov
from gmfkrylov import harness

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span,target", sorted(_tracing().TARGETS.items()))
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


# a table that stored the engines' function objects would hide them from the
# tracer, which rebinds module attributes
@pytest.mark.parametrize("overrides,m,spans", [
    ({"method": "rational_full", "poles": {"kind": "polynomial"}}, 12,
     {"rational.approximate"}),
    ({"method": "rational_short", "compare_full": True}, 12,
     {"short_recurrence.rgk_run", "rational.approximate"}),
    ({"method": "transpose_trick"}, 8,
     {"rectangular.gmf_via_transpose", "rational.approximate"}),
], ids=["golub_kahan", "rational_short_compare_full", "transpose_trick"])
def test_harness_run_records_engine_spans(tmp_path, overrides, m, spans):
    raw = {"name": "t", "seed": 3, "function": "sqrt", "k_max": 5,
           "poles": {"kind": "shift_invert"}, **overrides,
           "matrix": {"m": m, "n": 12, "profile": {"kind": "logspace", "lo": 0.5, "hi": 4.0}}}
    tracer = _tracing().Tracer(gmfkrylov)
    with tracer.installed():
        harness.run(harness.parse_config(raw), output_dir=str(tmp_path))
    assert spans <= {span[0] for span in tracer.spans}
