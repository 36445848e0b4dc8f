"""Experiment harness: configure a run, execute it, emit reproducible traces.

A configuration is a JSON object; ``run`` synthesizes the seeded test matrix
and start vector, executes the requested method against the oracle taken from
the synthesis factors, evaluates any configured bound overlays and writes
two-column .dat trace files plus a manifest capturing the full configuration.
"""

import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
import scipy

from . import __version__
from .bounds import (polynomial_bound_curve, rational_bound_curve, sample_h_sup,
                     si_closed_form_bound, si_style_bound)
from .errors import ConfigError
from .functions import builtin
from .krylov import require_count, require_number
from .operators import (blas_thread_counts, one_blas_thread, singular_profile,
                        synthesize_test_matrix)
from .poles import (PoleSequence, extended_poles, load_user_poles,
                    polynomial_poles, si_optimal_pole)
from .rectangular import ENGINES, gmf_via_transpose
from .reference import gmf_apply_factors
from .traces import emit_dat

METHODS = (*ENGINES, "transpose_trick")
# the keys each pole kind reads
POLE_KINDS = {"polynomial": {"kind"}, "extended": {"kind"},
              "shift_invert": {"kind", "xi"}, "user_file": {"kind", "path"}}
BOUND_TAGS = ("polynomial", "rational", "shift_invert")


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class MatrixSpec:
    m: int
    n: int
    kind: str
    lo: float = 1.0
    hi: float = 1.0

    def __post_init__(self):
        require_count("matrix.m", self.m)
        require_count("matrix.n", self.n)
        _require(self.kind in ("chebyshev2", "logspace"), f"unknown profile kind {self.kind!r}")
        lo, hi = require_number("matrix.lo", self.lo), require_number("matrix.hi", self.hi)
        _require(0 < lo <= hi < math.inf,
                 f"profile interval [{self.lo}, {self.hi}] must be positive and finite")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked when made (by ``parse_config`` or by
    ``dataclasses.replace``): its pole sequence is built then, once."""

    name: str
    seed: int
    matrix: MatrixSpec
    function: str
    method: str
    k_max: int
    poles: dict
    bounds: tuple = ()
    compare_full: bool = False
    output_dir: str = "out"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            _require(f.type is int or type(value) is f.type,
                     f"{f.name} must be {_FIELD_TYPES.get(f.type)}, not {value!r}")
        _require(os.path.basename(self.name) == self.name, "name must be a file name, not a path")
        require_count("seed", self.seed, least=0)
        _require(self.method in METHODS, f"method must be one of {METHODS}")
        require_count("k_max", self.k_max)
        builtin(self.function)   # raises on unknown names
        for tag in self.bounds:
            _require(tag in BOUND_TAGS, f"unknown bound tag {tag!r}")

        # every engine reads a pole spec; Golub-Kahan is {"kind": "polynomial"}
        kind = self.poles.get("kind")
        _require(type(kind) is str and kind in POLE_KINDS,
                 f"pole kind must be one of {tuple(POLE_KINDS)}")
        unread = sorted(set(self.poles) - POLE_KINDS[kind])
        _require(not unread, f"pole kind {kind!r} does not read keys {unread}")
        _require(kind != "user_file" or type(self.poles.get("path")) is str,
                 "user_file poles need a 'path' string")

        # xi, the pole file and its interval are checked here, once. A zero pole
        # solves with the Gram matrix itself, which is singular for a wide A
        # (A^T A) or, under the transpose trick's inner run, for a tall one
        # (A A^T): refuse it before the matrix and the oracle are built
        poles, (m, n) = build_poles(self), (self.matrix.m, self.matrix.n)
        if poles.has_zero:
            gram, singular = (("A A^T", m > n) if self.method == "transpose_trick"
                              else ("A^T A", m < n))
            _require(not singular, f"{kind} poles include 0, but {gram} of a "
                                   f"{m}x{n} matrix is singular")
        # run and evaluate_bounds take this sequence, so a pole file is read
        # once per config; it is no field, so the manifest does not record it
        object.__setattr__(self, "_poles", poles)


# the type of every field but the counts (require_count), compared exactly,
# and how a message names it
_FIELD_TYPES = {str: "a string", bool: "true or false", dict: "a dict",
                tuple: "a tuple of bound tags", MatrixSpec: "a MatrixSpec"}
# the JSON types a field of each type takes, compared exactly so that a bool
# is no integer, and how a message names them
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a finite number"),
               bool: ((bool,), "true or false"), str: ((str,), "a string"),
               tuple: ((list,), "a list of bound tags"),
               dict: ((dict,), "a pole spec object"), MatrixSpec: ((dict,), "an object")}


def _read(obj, f, where=""):
    """obj[f.name] checked against the JSON type of field ``f``, else f's default.

    The value is stored as the field's type: an integer read for a float field
    becomes a float, a list read for the tuple field a tuple.
    """
    if f.name not in obj:
        _require(f.default is not MISSING, f"missing config key {where + f.name!r}")
        return f.default
    value = obj[f.name]
    accepted, what = _JSON_TYPES[f.type]
    # a float field refuses nan, inf and an integer too large for a float
    _require(type(value) in accepted and (f.type is not float or abs(value) <= sys.float_info.max),
             f"{where + f.name} must be {what}, not {value!r}")
    return value if f.type is MatrixSpec else f.type(value)


def _object(obj, keys, where=""):
    """obj, once it is a JSON object that gives no key but ``keys``."""
    _require(type(obj) is dict, f"{where.rstrip('.') or 'config'} must be a JSON object")
    unknown = sorted(where + key for key in set(obj) - set(keys))
    _require(not unknown, f"unknown config keys: {unknown}")
    return obj


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_config(raw, base_dir="."):
    """The config of a JSON object: checks its types and unknown and unread keys and
    joins a pole file's path to ``base_dir``; the config checks the rest when made."""
    _object(raw, [f.name for f in fields(ExperimentConfig)])
    c = {f.name: _read(raw, f) for f in fields(ExperimentConfig)}

    m, n, *profile = fields(MatrixSpec)
    mat = _object(c["matrix"], ("m", "n", "profile"), "matrix.")
    spec = _object(mat.get("profile"), [f.name for f in profile], "matrix.profile.")
    c["matrix"] = MatrixSpec(*(_read(mat, f, "matrix.") for f in (m, n)),
                             *(_read(spec, f, "matrix.profile.") for f in profile))
    # a key the method never reads is refused where the config gives it
    _require("compare_full" not in raw or c["method"] == "rational_short",
             f"method {c['method']!r} does not read config keys ['compare_full']")
    if type(c["poles"].get("path")) is str:
        c["poles"]["path"] = os.path.join(base_dir, c["poles"]["path"])   # kept if absolute
    return ExperimentConfig(**c)


def build_poles(config):
    spec, count, kind = config.poles, config.k_max, config.poles["kind"]
    smin, smax = config.matrix.lo, config.matrix.hi
    if kind == "polynomial":
        return polynomial_poles(count)
    if kind == "extended":
        return extended_poles(count)
    if kind == "shift_invert":
        if "xi" in spec:
            xi = spec["xi"]
            _require(type(xi) in (int, float) and -sys.float_info.max <= xi < 0,
                     f"shift_invert xi override must be a finite negative number, not {xi!r}")
            return PoleSequence((xi,) * count, kind="shift_invert")
        return si_optimal_pole(smin, smax, count)
    return load_user_poles(spec["path"], sigma_min=smin, sigma_max=smax)


def synthesize(config):
    """Seeded (operator, b) pair; matrix and start vector use spawned streams."""
    mat_seed, _ = np.random.SeedSequence(config.seed).spawn(2)
    profile = singular_profile(config.matrix.kind, min(config.matrix.m, config.matrix.n),
                               config.matrix.lo, config.matrix.hi)
    op = synthesize_test_matrix(config.matrix.m, config.matrix.n, profile, mat_seed)
    return op, seeded_start_vector(config)


def seeded_start_vector(config):
    """The start vector b of ``synthesize``, drawn without building the matrix."""
    _, b_seed = np.random.SeedSequence(config.seed).spawn(2)
    return np.random.default_rng(b_seed).standard_normal(config.matrix.n)


def _bound_overlays(config, b, poles):
    f = builtin(config.function)
    smin, smax = config.matrix.lo, config.matrix.hi
    nb = float(np.linalg.norm(b))
    ks = range(1, config.k_max + 1)
    overlays = {}
    for tag in config.bounds:
        if tag == "polynomial":
            curve = polynomial_bound_curve(f, smin, smax, config.k_max, norm_b=nb)
            overlays["bound_poly"] = curve.pairs()
        elif tag == "shift_invert":
            xi = poles[0] if poles.kind == "shift_invert" else -smin * smax
            M = sample_h_sup(f, xi)
            # the closed form holds only at its own pole; an override takes
            # the two-branch rate
            overlays["bound_si"] = [
                (k, si_closed_form_bound(smin, smax, M, k, norm_b=nb) if xi == -smin * smax
                 else nb * si_style_bound(smin, smax, xi, M, k)) for k in ks]
        elif tag == "rational":
            curve = rational_bound_curve(f, poles, smin, smax, config.k_max, norm_b=nb)
            overlays["bound_rational"] = curve.pairs()
    return overlays


def run(config, output_dir=None):
    """Execute a configuration; returns a summary dict with trace file paths.

    Outputs are deterministic per seed: re-running the same configuration
    reproduces byte-identical trace files. The run computes with numpy's
    OpenBLAS pool at one thread, so the thread count the process was started
    with does not change them. The synthesis factors U and V are the oracle's
    alone: the run releases them once the oracle has read them, before any
    engine runs.
    """
    with one_blas_thread("numpy"):
        poles = config._poles
        op, b = synthesize(config)
        f = builtin(config.function)
        # the Haar factors are the SVD of A by construction: no dense SVD of A
        y_ref = gmf_apply_factors(f, *op.factors, b)
        op.factors = None

        if config.method == "transpose_trick":
            ys, trace = gmf_via_transpose(f, op, b, poles, config.k_max, reference=y_ref)
        else:
            ys, trace = ENGINES[config.method](f, op, b, poles, config.k_max, reference=y_ref)
        files = {"err": trace.pairs()}
        if trace.orthogonality_drift:
            files["drift"] = trace.pairs("drift")
        if config.compare_full and config.method == "rational_short":
            ys_full, trace_full = ENGINES["rational_full"](f, op, b, poles, config.k_max,
                                                           reference=y_ref)
            files["err_full"] = trace_full.pairs()
            denom = np.linalg.norm(y_ref)
            files["diff_short_full"] = [
                (k, float(np.linalg.norm(y - y_full) / denom))
                for k, (y, y_full) in enumerate(zip(ys, ys_full), start=1)]

        files.update(_bound_overlays(config, b, poles))
        out = output_dir or config.output_dir
        paths = _write_dat(out, config.name, files)

        threads = blas_thread_counts()
        manifest = {
            "config": asdict(config),
            # what decides the run's bits besides the config
            "environment": {lib: {"version": module.__version__, "blas_threads": threads[lib]}
                            for lib, module in (("numpy", np), ("scipy", scipy))},
            "library_version": __version__,
            "pole_values": [("inf" if math.isinf(x) else x) for x in poles],
            "traces": {tag: os.path.basename(p) for tag, p in paths.items()},
        }
        manifest_path = os.path.join(out, f"{config.name}_manifest.json")
        with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        summary = {"name": config.name, "method": config.method, "traces": paths,
                   "manifest": manifest_path}
        if files["err"]:
            summary["final_error"] = files["err"][-1][1]
        return summary


def evaluate_bounds(config, output_dir=None):
    """Evaluate only the configured bound overlays (no method run).

    The start vector is drawn as in ``run``, without building the matrix, so
    the bound files match those a full run would produce byte for byte.
    """
    overlays = _bound_overlays(config, seeded_start_vector(config), config._poles)
    return {"name": config.name,
            "traces": _write_dat(output_dir or config.output_dir, config.name, overlays)}


def _write_dat(out, name, files):
    """Write each tag's (k, value) pairs to <out>/<name>_<tag>.dat; returns the paths."""
    os.makedirs(out, exist_ok=True)
    paths = {}
    for tag, pairs in files.items():
        paths[tag] = os.path.join(out, f"{name}_{tag}.dat")
        emit_dat(pairs, paths[tag])
    return paths

