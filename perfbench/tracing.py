"""Spans around calls into gmfkrylov's public functions, recorded from outside.

The package is not modified: ``Tracer.install`` rebinds each listed public
function in every ``gmfkrylov`` module namespace that holds it (and each
listed ``LinearOperator``/``GramLanczos`` method on its class, which covers
the operator ``transpose()`` returns), and ``uninstall`` restores the
originals. A span is ``[name, start, end, parent, key]``; ``key`` carries what
a metric needs about the call (the operator shape for products, the operator
and shift for solves). Spans stay in memory until ``write``.
"""

import contextlib
import functools
import gzip
import json
import statistics
import sys
import time

# span name -> (module, attribute); a dotted attribute is a class method
TARGETS = {
    "operators.apply": ("operators", "LinearOperator.apply"),
    "operators.applyt": ("operators", "LinearOperator.applyt"),
    "operators.gram_apply": ("operators", "LinearOperator.gram_apply"),
    "operators.norm_estimate": ("operators", "LinearOperator.norm_estimate"),
    "operators.solve": ("operators", "solve_shifted_gram"),
    "operators.synth": ("operators", "synthesize_test_matrix"),
    "reference.gmf_dense": ("reference", "gmf_dense"),
    "reference.oracle": ("reference", "gmf_apply_reference"),
    "golub_kahan.gk_step": ("golub_kahan", "gk_step"),
    "golub_kahan.gk_approximate": ("golub_kahan", "gk_approximate"),
    "rational.advance": ("rational", "GramLanczos.advance"),
    "rational.approximate": ("rational", "rational_gmf_approximate"),
    "short_recurrence.rgk_step": ("short_recurrence", "rgk_step"),
    "short_recurrence.reconstruct": ("short_recurrence", "reconstruct_dense"),
    "short_recurrence.rgk_run": ("short_recurrence", "rgk_run"),
    "bounds.polynomial": ("bounds", "polynomial_bound_curve"),
    "bounds.rational": ("bounds", "quasi_optimal_rational_bound"),
    "bounds.sample_h_sup": ("bounds", "sample_h_sup"),
    "bounds.si_closed_form": ("bounds", "si_closed_form_bound"),
    "rectangular.gmf_via_transpose": ("rectangular", "gmf_via_transpose"),
    "traces.emit_dat": ("traces", "emit_dat"),
    "harness.run": ("harness", "run"),
}

ENGINES = {"golub_kahan.gk_approximate", "rational.approximate",
           "short_recurrence.rgk_run"}


# what a span keeps about its call: the operator shape of a product (for the
# bytes it moves), the operator and shift of a solve (to find its first solve)
KEYS = {"operators.apply": lambda args: args[0].shape,
        "operators.applyt": lambda args: args[0].shape,
        "operators.solve": lambda args: (id(args[0]), float(args[1]))}


class Tracer:
    """Span recorder for one benchmark process (single-threaded)."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.roots = []            # (kind, span index) of each traced operation/setup
        self._stack = []
        self._keep = []            # operators named in solve keys stay alive, so ids stay unique
        self._undo = []

    def install(self):
        pkg_name = self.package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg_name or n.startswith(pkg_name + "."))]
        for name, (mod_name, attr) in TARGETS.items():
            home = sys.modules[f"{pkg_name}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                self._rebind(owner, meth, self._wrap(name, owner.__dict__[meth]))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        key_of = KEYS.get(name)
        spans, stack, keep = self.spans, self._stack, self._keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = None
            if key_of is not None:
                key = key_of(args)
                if name == "operators.solve":
                    keep.append(args[0])
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, key]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()

        return traced

    def root(self, kind, fn, *args):
        """Run fn(*args) under a root span; returns its result."""
        self.roots.append((kind, len(self.spans)))
        result = self._wrap(kind, fn)(*args)
        self._keep.clear()
        return result

    def layer_metrics(self, kind):
        """Per-layer metrics of every root span of the given kind, in order."""
        bounds = [i for _, i in self.roots] + [len(self.spans)]
        out = []
        for r, (k, start) in enumerate(self.roots):
            if k == kind:
                out.append(_aggregate(self.spans, start, bounds[r + 1]))
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "root"],
            "names": names,
            "roots": [{"kind": k, "span": i} for k, i in self.roots],
            "spans": [],
        }
        root_of = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            root_of.append(i if parent < 0 else root_of[parent])
            payload["spans"].append([i, index[name], round(start, 9), round(end, 9),
                                     parent, root_of[i]])
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _aggregate(spans, lo, hi):
    """Counts, totals and self times per span name over spans[lo:hi]."""
    calls, total, self_s = {}, {}, {}
    child = [0.0] * (hi - lo)
    in_solve = [False] * (hi - lo)
    first_solve = 0.0
    seen_shifts = set()
    engine_evals = eval_s = solve_matvecs = matvec_bytes = 0
    for i in range(lo, hi):
        name, start, end, parent, key = spans[i]
        dur = end - start
        if parent >= lo:
            child[parent - lo] += dur
            in_solve[i - lo] = in_solve[parent - lo]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        if name == "operators.solve":
            in_solve[i - lo] = True
            if key not in seen_shifts:
                seen_shifts.add(key)
                first_solve += dur
        elif name in ("operators.apply", "operators.applyt"):
            matvec_bytes += 8 * key[0] * key[1]
            if name == "operators.apply" and in_solve[i - lo]:
                solve_matvecs += 1
        elif name == "reference.gmf_dense" and parent >= lo and spans[parent][0] in ENGINES:
            engine_evals += 1
            eval_s += dur
    for i in range(lo, hi):
        name, start, end = spans[i][:3]
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i - lo]
    return {"calls": calls, "total": total, "self": self_s, "first_solve_s": first_solve,
            "small_eval_calls": engine_evals, "small_eval_s": eval_s,
            "solve_matvecs": solve_matvecs, "matvec_bytes": matvec_bytes}


# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("operation.steps", "count"),
    ("reference.small_eval_calls", "count"),
    ("reference.small_eval_s", "s"),
    ("golub_kahan.step_self_s", "s"),
    ("operators.norm_estimate_calls", "count"),
    ("operators.norm_estimate_s", "s"),
    ("operators.solve_calls", "count"),
    ("operators.solve_s", "s"),
    ("operators.first_solve_s", "s"),
    ("operators.solve_matvecs", "count"),
    ("operators.apply_calls", "count"),
    ("operators.applyt_calls", "count"),
    ("operators.gram_apply_calls", "count"),
    ("operators.apply_per_step", "ratio"),
    ("operators.solves_per_step", "ratio"),
    ("operators.gram_products_per_step", "ratio"),
    ("operators.matvec_s", "s"),
    ("operators.matvec_gbytes", "GB-computed"),
    ("rational.advance_self_s", "s"),
    ("rational.approximate_self_s", "s"),
    ("short_recurrence.rgk_step_self_s", "s"),
    ("short_recurrence.reconstruct_s", "s"),
    ("short_recurrence.run_self_s", "s"),
    ("short_recurrence.final_drift", "ratio"),
    ("reference.oracle_s", "s"),
    ("operators.synth_s", "s"),
    ("bounds.polynomial_s", "s"),
    ("bounds.rational_s", "s"),
    ("bounds.shift_invert_s", "s"),
    ("rectangular.self_s", "s"),
    ("traces.emit_s", "s"),
    ("harness.run_self_s", "s"),
)

# machine-independent counts: they must repeat exactly from one operation to the next
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit == "count")


def layer_values(agg, outcome):
    """Per-layer metric values of one root span; ``outcome`` is None for set-up."""
    calls, total, self_s = agg["calls"], agg["total"], agg["self"]
    steps = outcome.steps if outcome is not None else 0

    def per_step(count):
        return count / steps if steps else 0.0

    def n(name):
        return calls.get(name, 0)

    return {
        "operation.steps": steps,
        "reference.small_eval_calls": agg["small_eval_calls"],
        "reference.small_eval_s": agg["small_eval_s"],
        "golub_kahan.step_self_s": self_s.get("golub_kahan.gk_step", 0.0),
        "operators.norm_estimate_calls": n("operators.norm_estimate"),
        "operators.norm_estimate_s": total.get("operators.norm_estimate", 0.0),
        "operators.solve_calls": n("operators.solve"),
        "operators.solve_s": total.get("operators.solve", 0.0),
        "operators.first_solve_s": agg["first_solve_s"],
        "operators.solve_matvecs": agg["solve_matvecs"],
        "operators.apply_calls": n("operators.apply"),
        "operators.applyt_calls": n("operators.applyt"),
        "operators.gram_apply_calls": n("operators.gram_apply"),
        "operators.apply_per_step": per_step(n("operators.apply")),
        "operators.solves_per_step": per_step(n("operators.solve")),
        "operators.gram_products_per_step": per_step(n("operators.gram_apply")),
        "operators.matvec_s": (total.get("operators.apply", 0.0)
                               + total.get("operators.applyt", 0.0)),
        "operators.matvec_gbytes": agg["matvec_bytes"] / 1e9,
        "rational.advance_self_s": self_s.get("rational.advance", 0.0),
        "rational.approximate_self_s": self_s.get("rational.approximate", 0.0),
        "short_recurrence.rgk_step_self_s": self_s.get("short_recurrence.rgk_step", 0.0),
        "short_recurrence.reconstruct_s": total.get("short_recurrence.reconstruct", 0.0),
        "short_recurrence.run_self_s": self_s.get("short_recurrence.rgk_run", 0.0),
        "short_recurrence.final_drift": outcome.drift if outcome is not None else 0.0,
        "reference.oracle_s": total.get("reference.oracle", 0.0),
        "operators.synth_s": total.get("operators.synth", 0.0),
        "bounds.polynomial_s": total.get("bounds.polynomial", 0.0),
        "bounds.rational_s": total.get("bounds.rational", 0.0),
        "bounds.shift_invert_s": (total.get("bounds.sample_h_sup", 0.0)
                                  + total.get("bounds.si_closed_form", 0.0)),
        "rectangular.self_s": self_s.get("rectangular.gmf_via_transpose", 0.0),
        "traces.emit_s": total.get("traces.emit_dat", 0.0),
        "harness.run_self_s": self_s.get("harness.run", 0.0),
    }


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
