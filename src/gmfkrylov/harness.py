"""Experiment harness: configure a run, execute it, emit reproducible traces.

A configuration is a JSON object; ``run`` synthesizes the seeded test matrix
and start vector, executes the requested method against the dense oracle,
evaluates any configured bound overlays and writes two-column .dat trace
files plus a manifest capturing the full configuration.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .bounds import (polynomial_bound_curve, quasi_optimal_rational_bound,
                     sample_h_sup, si_closed_form_bound)
from .errors import ConfigError
from .functions import builtin
from .operators import singular_profile, synthesize_test_matrix
from .poles import (PoleSequence, extended_poles, load_user_poles,
                    polynomial_poles, si_optimal_pole)
from .rectangular import ENGINES, gmf_via_transpose, needs_poles
from .reference import gmf_apply_reference
from .traces import emit_dat

METHODS = (*ENGINES, "transpose_trick")
POLE_KINDS = ("polynomial", "extended", "shift_invert", "user_file")
BOUND_TAGS = ("polynomial", "rational", "shift_invert")


@dataclass(frozen=True)
class MatrixSpec:
    m: int
    n: int
    kind: str
    lo: float
    hi: float


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int
    matrix: MatrixSpec
    function: str
    method: str
    k_max: int
    poles: dict = field(default_factory=dict)
    bounds: tuple = ()
    reorthogonalize: bool = True
    compare_full: bool = False
    transpose_inner: str = "rational_full"
    output_dir: str = "out"


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_config(raw, base_dir="."):
    _require(isinstance(raw, dict), "config must be a JSON object")
    known = {"name", "seed", "matrix", "function", "method", "k_max", "poles",
             "bounds", "reorthogonalize", "compare_full", "transpose_inner",
             "output_dir"}
    unknown = set(raw) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    for key in ("name", "seed", "matrix", "function", "method", "k_max"):
        _require(key in raw, f"missing config key {key!r}")

    mat = raw["matrix"]
    _require(isinstance(mat, dict), "matrix must be an object")
    for key in ("m", "n", "profile"):
        _require(key in mat, f"matrix.{key} is required")
    prof = mat["profile"]
    _require(isinstance(prof, dict) and "kind" in prof,
             "matrix.profile must be an object with a 'kind'")
    _require(prof["kind"] in ("chebyshev2", "logspace"),
             f"unknown profile kind {prof['kind']!r}")
    lo, hi = float(prof.get("lo", 1.0)), float(prof.get("hi", 1.0))
    _require(0 < lo <= hi, f"profile interval [{lo}, {hi}] must be positive")
    m, n = int(mat["m"]), int(mat["n"])
    _require(m >= 1 and n >= 1, "matrix dimensions must be positive")
    spec = MatrixSpec(m, n, prof["kind"], lo, hi)

    method = raw["method"]
    _require(method in METHODS, f"method must be one of {METHODS}")
    transpose_inner = raw.get("transpose_inner", ExperimentConfig.transpose_inner)
    _require(isinstance(transpose_inner, str) and transpose_inner in ENGINES,
             f"transpose_inner must be one of {tuple(ENGINES)}")
    engine = transpose_inner if method == "transpose_trick" else method
    k_max = int(raw["k_max"])
    _require(k_max >= 1, "k_max must be >= 1")

    function = raw["function"]
    builtin(function)   # raises on unknown names

    bounds = raw.get("bounds", [])
    _require(isinstance(bounds, list), "bounds must be a list of tags")
    for tag in bounds:
        _require(tag in BOUND_TAGS, f"unknown bound tag {tag!r}")

    # a pole spec is checked wherever it is given, and wherever the engine or
    # the rational bound needs one
    poles = raw.get("poles", {})
    solves = needs_poles(engine)
    if poles != {} or solves or "rational" in bounds:
        _require(poles != {}, f"method {method!r} with bounds {bounds} requires a pole spec")
        _require(isinstance(poles, dict) and "kind" in poles,
                 "a pole spec must be an object with a 'kind'")
        _require(poles["kind"] in POLE_KINDS,
                 f"pole kind must be one of {POLE_KINDS}")
        if poles["kind"] == "user_file":
            _require("path" in poles, "user_file poles need a 'path'")
            path = poles["path"]
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            poles = dict(poles, path=path)
    if solves:
        # a zero pole solves with the Gram matrix itself, which is singular for
        # a wide A (A^T A) or, under the transpose trick's inner method, for a
        # tall one (A A^T): refuse it before the matrix and the oracle are built
        gram, singular = ("A A^T", m > n) if method == "transpose_trick" else ("A^T A", m < n)
        if singular and (poles["kind"] == "extended" or (
                poles["kind"] == "user_file" and load_user_poles(poles["path"]).has_zero)):
            raise ConfigError(f"{poles['kind']} poles include 0, but {gram} of a "
                              f"{m}x{n} matrix is singular")

    return ExperimentConfig(
        name=str(raw["name"]), seed=int(raw["seed"]), matrix=spec,
        function=function, method=method, k_max=k_max, poles=dict(poles),
        bounds=tuple(bounds), reorthogonalize=bool(raw.get("reorthogonalize", True)),
        compare_full=bool(raw.get("compare_full", False)),
        transpose_inner=transpose_inner,
        output_dir=str(raw.get("output_dir", "out")))


def build_poles(config):
    spec = config.poles
    if not spec:
        return None
    kind = spec["kind"]
    count = config.k_max
    smin, smax = config.matrix.lo, config.matrix.hi
    if kind == "polynomial":
        return polynomial_poles(count)
    if kind == "extended":
        return extended_poles(count)
    if kind == "shift_invert":
        if "xi" in spec:
            xi = float(spec["xi"])
            _require(xi < 0, "shift_invert xi override must be negative")
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
            curve = polynomial_bound_curve(f, smin, smax, config.k_max)
            overlays["bound_poly"] = curve.pairs()
        elif tag == "shift_invert":
            xi = -smin * smax
            if poles is not None and poles.kind == "shift_invert" and len(poles):
                xi = poles[0]
            M = sample_h_sup(f, xi)
            overlays["bound_si"] = [
                (k, si_closed_form_bound(smin, smax, M, k, norm_b=nb)) for k in ks]
        elif tag == "rational":
            overlays["bound_rational"] = [
                (k, quasi_optimal_rational_bound(f, poles, smin, smax, k, norm_b=nb))
                for k in ks]
    return overlays


def run(config, output_dir=None):
    """Execute a configuration; returns a summary dict with trace file paths.

    Outputs are deterministic per seed: re-running the same configuration
    reproduces byte-identical trace files.
    """
    poles = build_poles(config)
    op, b = synthesize(config)
    f = builtin(config.function)
    y_ref = gmf_apply_reference(f, op.dense, b)

    if config.method == "transpose_trick":
        ys, trace = gmf_via_transpose(
            f, op, b, config.transpose_inner, poles=poles, k_max=config.k_max,
            reference=y_ref, reorth=config.reorthogonalize)
    else:
        ys, trace = ENGINES[config.method](f, op, b, poles, config.k_max, reference=y_ref,
                                           reorth=config.reorthogonalize)
    files = {"err": trace.pairs()}
    if trace.orthogonality_drift:
        files["drift"] = trace.pairs("drift")
    if config.compare_full and config.method == "rational_short":
        ys_full, trace_full = ENGINES["rational_full"](f, op, b, poles, config.k_max,
                                                       reference=y_ref)
        files["err_full"] = trace_full.pairs()
        denom = np.linalg.norm(y_ref)
        files["diff_short_full"] = [(k, float(np.linalg.norm(y - y_full) / denom))
                                    for k, (y, y_full) in enumerate(zip(ys, ys_full), start=1)]

    files.update(_bound_overlays(config, b, poles))
    out = output_dir or config.output_dir
    paths = _write_dat(out, config.name, files)

    manifest = {
        "config": _config_dict(config),
        "library_version": __version__,
        "pole_values": None if poles is None else
            [("inf" if math.isinf(x) else x) for x in poles],
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
    overlays = _bound_overlays(config, seeded_start_vector(config), build_poles(config))
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


def _config_dict(config):
    d = asdict(config)
    d["bounds"] = list(config.bounds)
    return d
