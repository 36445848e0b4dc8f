"""The benchmark's span targets still name functions and methods of the package.

``perfbench/tracing.py`` records spans by rebinding the package attributes
listed in its ``TARGETS``; a renamed or deleted one would only fail when a
traced benchmark run installs the tracer. The file is loaded by path and
left as it is. A traced ``harness.run`` must also show each engine it reaches
through the engine table as a span of its own, and each shift's LU factor must
run inside the span of that shift's first checked solve.
"""

import importlib
import importlib.util
import inspect
import os
import time

import numpy as np
import pytest

import gmfkrylov
from gmfkrylov import (PoleSequence, builtin, harness, rational_gmf_approximate, rgk_run,
                       si_optimal_pole)

from conftest import record_factors, seeded_problem

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


K = 8


# operators.first_solve_s sums the first solve span of each (operator, shift):
# it holds the factor only while the factor is made inside that
# solve_shifted_gram call, not when a solver is fetched before it
@pytest.mark.parametrize("engine,poles,solves", [
    (rgk_run, si_optimal_pole(0.5, 4.0, K), 2),
    (rational_gmf_approximate, PoleSequence(tuple(-np.geomspace(0.3, 9.0, K - 1))),
     2 * (K - 1)),
], ids=["short_si", "full_distinct"])
def test_each_factor_runs_in_its_first_solve_span(monkeypatch, engine, poles, solves):
    factored = record_factors(monkeypatch, time.perf_counter)
    op, b = seeded_problem(40, 40, "logspace", 0.5, 4.0, 11)
    tracer = _tracing().Tracer(gmfkrylov)
    with tracer.installed():
        assert len(engine(builtin("sqrt"), op, b, poles, K)[0]) == K
    spans = [span for span in tracer.spans if span[0] == "operators.solve"]
    assert len(spans) == solves
    first = {}
    for span in spans:
        first.setdefault(span[4], span)
    assert len(first) == len(set(poles)) == len(factored)
    for (_, start, end, _, _), t in zip(first.values(), factored):
        assert start <= t <= end
