import json
import os
from pathlib import Path

import numpy as np
import pytest
import scipy

from gmfkrylov import (ConfigError, builtin, emit_dat, gmf_apply_factors, gmf_apply_reference,
                       harness, operators, polynomial_bound_curve, read_dat)
from gmfkrylov.cli import main
from gmfkrylov.harness import build_poles, load_config, parse_config, run, synthesize
from gmfkrylov.operators import blas_thread_counts, save_dense_matrix

from conftest import record_eighs, record_factors

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


BASE = {
    "name": "t",
    "seed": 3,
    "matrix": {"m": 12, "n": 12, "profile": {"kind": "logspace", "lo": 0.5, "hi": 4.0}},
    "function": "sqrt",
    "method": "rational_full",
    "poles": {"kind": "polynomial"},
    "k_max": 6,
}
DROP = object()


def cfg(**overrides):
    """A copy of the Golub-Kahan config BASE with overrides; a key given DROP is left out."""
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return {key: value for key, value in raw.items() if value is not DROP}


class TestConfigValidation:
    def test_minimal_config_parses(self):
        config = parse_config(cfg())
        assert config.method == "rational_full" and config.k_max == 6
        assert set(build_poles(config)) == {float("inf")}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(cfg(extra=1))

    def test_missing_key(self):
        raw = cfg()
        del raw["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(raw)

    @pytest.mark.parametrize("method", ["rational_full", "rational_short", "transpose_trick"])
    def test_every_method_requires_poles(self, method):
        with pytest.raises(ConfigError, match="missing config key 'poles'"):
            parse_config(cfg(method=method, poles=DROP))

    def test_bad_pole_kind(self):
        with pytest.raises(ConfigError, match="pole kind"):
            parse_config(cfg(method="rational_full", poles={"kind": "magic"}))

    def test_bad_bound_tag(self):
        with pytest.raises(ConfigError, match="bound tag"):
            parse_config(cfg(bounds=["9.99"]))

    def test_nonpositive_interval(self):
        raw = cfg()
        raw["matrix"]["profile"]["lo"] = 0.0
        with pytest.raises(ConfigError, match="interval"):
            parse_config(raw)

    @pytest.mark.parametrize("profile,poles", [
        ({"hi": float("inf")}, {}),
        ({"hi": 10 ** 400}, {}),
        ({}, {"kind": "shift_invert", "xi": -float("inf")}),
        ({}, {"kind": "shift_invert", "xi": -10 ** 400}),
    ], ids=["hi_inf", "hi_huge_int", "xi_inf", "xi_huge_int"])
    def test_nonfinite_number_rejected(self, profile, poles):
        raw = cfg(poles=poles or BASE["poles"])
        raw["matrix"]["profile"].update(profile)
        with pytest.raises(ConfigError, match="finite"):
            parse_config(raw)

    def test_user_file_poles_resolved_and_built(self, tmp_path):
        pole_path = tmp_path / "p.txt"
        pole_path.write_text("-1.5\n-3.0\n-2.0\n-1.0\n-0.7\n", encoding="ascii")
        raw = cfg(method="rational_full",
                  poles={"kind": "user_file", "path": "p.txt"}, k_max=5)
        config = parse_config(raw, base_dir=str(tmp_path))
        poles = build_poles(config)
        assert tuple(poles) == (-1.5, -3.0, -2.0, -1.0, -0.7)

    def test_shift_invert_pole_value(self):
        config = parse_config(cfg(method="rational_full",
                                  poles={"kind": "shift_invert"}))
        poles = build_poles(config)
        assert poles[0] == pytest.approx(-0.5 * 4.0)
        assert len(poles) == config.k_max

    @pytest.mark.parametrize("inner", ["rational_full", "rational_short"])
    def test_transpose_with_golub_kahan_inner(self, inner):
        config = parse_config(cfg(method="transpose_trick", transpose_inner=inner))
        assert set(build_poles(config)) == {float("inf")}

    @pytest.mark.parametrize("overrides", [
        {"method": "transpose_trick", "transpose_inner": "rational_short"},
        {"method": "rational_short", "poles": {"kind": "shift_invert"}, "compare_full": True},
    ], ids=["transpose_inner", "short_compare_full"])
    def test_keys_accepted_where_read(self, overrides):
        config = parse_config(cfg(**overrides))
        for key in overrides.keys() - {"poles"}:
            assert getattr(config, key) == overrides[key], key

    def test_unread_keys_named(self):
        raw = cfg(method="transpose_trick", transpose_inner="rational_short",
                  poles={"kind": "shift_invert"}, compare_full=False)
        with pytest.raises(ConfigError, match=r"method 'transpose_trick' with transpose_inner "
                           r"'rational_short' does not read config keys \['compare_full'\]"):
            parse_config(raw)
        raw = cfg(compare_full=True, transpose_inner="rational_full")
        with pytest.raises(ConfigError, match=r"method 'rational_full' does not read config "
                           r"keys \['compare_full', 'transpose_inner'\]"):
            parse_config(raw)

    @staticmethod
    def sized(m, n, **overrides):
        raw = cfg(**overrides)
        raw["matrix"].update(m=m, n=n)
        return raw

    # a zero pole solves with A^T A (A A^T for the transpose trick's inner
    # method), singular for a wide (tall) matrix
    @pytest.mark.parametrize("method,m,n", [("rational_full", 12, 20),
                                            ("rational_short", 12, 20),
                                            ("transpose_trick", 20, 12)])
    def test_zero_pole_with_singular_gram_rejected(self, method, m, n):
        with pytest.raises(ConfigError, match="singular"):
            parse_config(self.sized(m, n, method=method, poles={"kind": "extended"}))

    def test_user_file_zero_pole_with_singular_gram_rejected(self, tmp_path):
        (tmp_path / "p.txt").write_text("inf\n-1.5\n0\n", encoding="ascii")
        raw = self.sized(12, 20, method="rational_full",
                         poles={"kind": "user_file", "path": "p.txt"})
        with pytest.raises(ConfigError, match="singular"):
            parse_config(raw, base_dir=str(tmp_path))
        (tmp_path / "p.txt").write_text("inf\n-1.5\n-2\n", encoding="ascii")
        parse_config(raw, base_dir=str(tmp_path))

    @pytest.mark.parametrize("method,m,n,inner", [("rational_full", 20, 12, "rational_full"),
                                                  ("transpose_trick", 12, 20, "rational_short"),
                                                  ("transpose_trick", 12, 12, "rational_full")])
    def test_zero_pole_with_nonsingular_gram_accepted(self, method, m, n, inner):
        # transpose_inner is given only where the method reads it
        given = {"transpose_inner": inner} if method == "transpose_trick" else {}
        parse_config(self.sized(m, n, method=method, poles={"kind": "extended"}, **given))


class TestEmitDat:
    def test_empty(self, tmp_path):
        path = tmp_path / "e.dat"
        emit_dat([], path)
        assert path.read_bytes() == b""

    def test_single_point_format(self, tmp_path):
        path = tmp_path / "p.dat"
        emit_dat([(1, 0.5)], path)
        assert path.read_bytes() == b"1 5.000000000000000e-01\n"

    def test_roundtrip(self, tmp_path):
        pairs = [(1, 0.125), (2, 3.0), (5, 1e-13)]
        path = tmp_path / "r.dat"
        emit_dat(pairs, path)
        assert read_dat(path) == pairs


class TestRun:
    def test_golub_kahan_run_produces_traces(self, tmp_path):
        config = parse_config(cfg(output_dir=str(tmp_path)))
        summary = run(config)
        assert os.path.exists(summary["traces"]["err"])
        pairs = read_dat(summary["traces"]["err"])
        assert [k for k, _ in pairs] == list(range(1, len(pairs) + 1))
        manifest = json.loads(Path(summary["manifest"]).read_text())
        assert manifest["config"]["seed"] == 3
        assert manifest["pole_values"] == ["inf"] * 6

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        config = parse_config(cfg(output_dir=str(tmp_path)))
        # the counts the run computed with: numpy's pool at one thread
        with operators.one_blas_thread("numpy"):
            threads = blas_thread_counts()
        manifest = json.loads(Path(run(config)["manifest"]).read_text())
        assert manifest["environment"] == {
            "numpy": {"version": np.__version__, "blas_threads": threads["numpy"]},
            "scipy": {"version": scipy.__version__, "blas_threads": threads["scipy"]}}
        # a BLAS without the OpenBLAS thread functions is recorded as null
        monkeypatch.setattr(operators, "_blas_threads_api", lambda module: None)
        manifest = json.loads(Path(run(config)["manifest"]).read_text())
        assert [manifest["environment"][lib]["blas_threads"] for lib in ("numpy", "scipy")] \
            == [None, None]

    def test_rerun_is_byte_identical(self, tmp_path):
        config = parse_config(cfg(method="rational_full",
                                  poles={"kind": "shift_invert"},
                                  bounds=["shift_invert"], output_dir=str(tmp_path)))
        first = run(config)
        blobs = {tag: Path(p).read_bytes() for tag, p in first["traces"].items()}
        second = run(config)
        for tag, path in second["traces"].items():
            assert Path(path).read_bytes() == blobs[tag], tag

    def test_run_does_not_depend_on_numpy_thread_count(self, tmp_path):
        # a cyclic config, whose traces move with the thread count of the
        # QR, gemm and eigh when these run threaded; the pool is restored
        api = operators._blas_threads_api(operators._BLAS_EXTENSIONS["numpy"])
        if api is None:
            pytest.skip("numpy has no OpenBLAS pool here")
        get, set_ = api
        config = load_config(str(CONFIGS / "rational_optpoles_narrow.json"))
        previous, blobs = get(), []
        try:
            for threads in (1, 2):
                set_(threads)
                summary = run(config, output_dir=str(tmp_path / str(threads)))
                assert get() == threads
                blobs.append({tag: Path(p).read_bytes() for tag, p in summary["traces"].items()})
        finally:
            set_(previous)
        assert blobs[0] == blobs[1]

    def test_short_with_comparison_traces(self, tmp_path):
        config = parse_config(cfg(method="rational_short",
                                  poles={"kind": "shift_invert"},
                                  compare_full=True, output_dir=str(tmp_path)))
        summary = run(config)
        for tag in ("err", "err_full", "diff_short_full", "drift"):
            assert tag in summary["traces"], tag

    # factors per shipped config: one LU for the first shift of a rational run.
    # The cyclic pole files (13, 15 and 20 poles) take one eigendecomposition
    # of A^T A at their second pole, which every later pole solves with;
    # short_vs_full's two engines share one operator and so that one factor
    CYCLIC = {"rational_optpoles_narrow", "rational_optpoles_wide", "short_vs_full"}

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_factors_per_shipped_config(self, tmp_path, monkeypatch, name):
        calls, eighs = record_factors(monkeypatch), record_eighs(monkeypatch)
        run(load_config(str(CONFIGS / f"{name}.json")), output_dir=str(tmp_path))
        polynomial = name.startswith("polynomial_")
        assert len(calls) == (0 if polynomial else 1)
        assert len(eighs) == (name in self.CYCLIC)

    def test_synthesize_deterministic(self):
        config = parse_config(cfg())
        op1, b1 = synthesize(config)
        op2, b2 = synthesize(config)
        assert np.array_equal(op1.dense, op2.dense)
        assert np.array_equal(b1, b2)


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg(output_dir=str(tmp_path / "out"))))
        assert main(["run", str(path)]) == 0
        assert "final relative error" in capsys.readouterr().out

    def test_bounds_command(self, tmp_path):
        raw = cfg(method="rational_full", poles={"kind": "shift_invert"},
                  bounds=["shift_invert", "rational"], output_dir=str(tmp_path / "out"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert main(["bounds", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "t_bound_si.dat").exists()
        assert (out / "t_bound_rational.dat").exists()

    def test_bounds_command_matches_run(self, tmp_path):
        raw = cfg(method="rational_full", poles={"kind": "shift_invert"},
                  bounds=["polynomial", "shift_invert", "rational"])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "run")]) == 0
        assert main(["bounds", str(path), "--output-dir", str(tmp_path / "bounds")]) == 0
        names = sorted(os.listdir(tmp_path / "bounds"))
        assert names == ["t_bound_poly.dat", "t_bound_rational.dat", "t_bound_si.dat"]
        for name in names:
            assert ((tmp_path / "bounds" / name).read_bytes()
                    == (tmp_path / "run" / name).read_bytes()), name

    def test_oracle_command(self, tmp_path, capsys):
        A = np.diag([4.0, 9.0])
        mat = tmp_path / "m.txt"
        save_dense_matrix(mat, A)
        vec = tmp_path / "b.txt"
        vec.write_text("1.0\n1.0\n", encoding="ascii")
        assert main(["oracle", str(mat), "sqrt", str(vec)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [float(x) for x in lines] == pytest.approx([2.0, 3.0])

    def test_oracle_dimension_mismatch_exit_code(self, tmp_path):
        mat = tmp_path / "m.txt"
        save_dense_matrix(mat, np.eye(2))
        vec = tmp_path / "b.txt"
        vec.write_text("1\n2\n3\n", encoding="ascii")
        assert main(["oracle", str(mat), "sqrt", str(vec)]) == 2

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_oracle_nonfinite_matrix_exit_code(self, tmp_path, entry):
        mat = tmp_path / "m.txt"
        mat.write_text(f"2 2\n1 0\n0 {entry}\n", encoding="ascii")
        vec = tmp_path / "b.txt"
        vec.write_text("1\n2\n", encoding="ascii")
        assert main(["oracle", str(mat), "sqrt", str(vec)]) == 2

    def test_oracle_nonfinite_vector_exit_code(self, tmp_path):
        mat = tmp_path / "m.txt"
        save_dense_matrix(mat, np.eye(2))
        vec = tmp_path / "b.txt"
        vec.write_text("1\nnan\n", encoding="ascii")
        assert main(["oracle", str(mat), "sqrt", str(vec)]) == 2

    def test_invalid_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg(method="warp")))
        assert main(["run", str(path)]) == 2

    def test_zero_pole_on_wide_matrix_exit_code(self, tmp_path):
        raw = cfg(method="rational_full", poles={"kind": "extended"},
                  output_dir=str(tmp_path / "out"))
        raw["matrix"].update(m=12, n=20)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides,message", [
        ({"poles": {"kind": "bogus"}}, "pole kind"),
        ({"poles": {"kind": "user_file"}}, "'path'"),
        ({"method": "transpose_trick", "transpose_inner": "rational_short",
          "poles": {"kind": "user_file"}}, "'path'"),
        ({"poles": 5}, "pole spec"),
        ({"poles": DROP}, "missing config key 'poles'"),
        ({"poles": {}}, "pole kind"),
        ({"poles": {"kind": ["polynomial"]}}, "pole kind"),
        # keys the pole kind never reads
        ({"poles": {"kind": "polynomial", "xi": -1.0}}, "does not read keys ['xi']"),
        ({"poles": {"kind": "extended", "path": "x.txt"}}, "does not read keys ['path']"),
        ({"poles": {"kind": "shift_invert", "xi": -2.0, "count": 3}},
         "does not read keys ['count']"),
        ({"poles": {"kind": "user_file", "path": "p.txt", "xi": -1.0}},
         "does not read keys ['xi']"),
        ({"bounds": "polynomial"}, "bounds must be a list"),
    ], ids=["unknown_pole_kind", "user_file_without_path",
            "transpose_user_file_without_path", "poles_not_an_object", "poles_missing",
            "poles_empty", "pole_kind_a_list", "xi_with_polynomial", "path_with_extended",
            "count_with_shift_invert", "xi_with_user_file", "bounds_not_a_list"])
    def test_malformed_pole_or_bound_spec_exit_code(self, tmp_path, capsys, overrides,
                                                    message):
        # a malformed spec is refused before anything is built or written
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg(output_dir=str(tmp_path / "out"), **overrides)))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gmf: invalid input:"), err
        assert message in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        {"k_max": "abc"},
        {"seed": [1]},
        {"matrix": {"m": "a", "n": 12, "profile": {"kind": "logspace", "lo": 0.5, "hi": 4.0}}},
        {"function": 5},
        {"poles": {"kind": "user_file", "path": 5}},
        {"method": "rational_full", "poles": {"kind": "shift_invert", "xi": "abc"}},
        {"seed": -1},
        {"k_max": 5.9},
        {"name": "../escaped"},
        # keys the method never reads
        {"compare_full": True},
        {"method": "rational_full", "poles": {"kind": "shift_invert"}, "compare_full": True},
        {"method": "transpose_trick", "transpose_inner": "rational_short",
         "poles": {"kind": "shift_invert"}, "compare_full": False},
        {"method": "rational_full", "poles": {"kind": "shift_invert"},
         "transpose_inner": "rational_full"},
        # Golub-Kahan is a pole spec: no engine name, alias or option of its own
        {"method": "gk"},
        {"method": "golub_kahan"},
        {"method": "transpose_trick", "transpose_inner": "gk"},
        {"method": "transpose_trick", "transpose_inner": "golub_kahan"},
        {"reorthogonalize": True},
        {"method": "rational_short", "reorthogonalize": False},
        {"method": "transpose_trick", "reorthogonalize": "false"},
    ], ids=["k_max_string", "seed_list", "matrix_m_string", "function_number",
            "pole_path_number", "xi_string", "seed_negative", "k_max_float",
            "name_with_directory", "compare_full_with_polynomial_poles",
            "compare_full_with_rational_full", "compare_full_with_transpose_trick",
            "transpose_inner_with_rational_full", "method_gk", "method_golub_kahan",
            "transpose_inner_gk", "transpose_inner_golub_kahan", "reorthogonalize_true",
            "reorthogonalize_with_rational_short", "reorthogonalize_with_transpose_trick"])
    def test_malformed_config_exit_code(self, tmp_path, capsys, overrides):
        # refused by the parser: no traceback, no silent truncation or
        # coercion, and nothing written inside or outside the output directory
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg(output_dir=str(tmp_path / "out"), **overrides)))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gmf: invalid input:"), err
        assert os.listdir(tmp_path) == ["c.json"]

    def test_oracle_overflow_exit_code(self, tmp_path, capsys):
        # sinh(1000) overflows: a numerical failure, reported without a warning
        mat = tmp_path / "m.txt"
        save_dense_matrix(mat, np.diag([1000.0, 1.0]))
        vec = tmp_path / "b.txt"
        vec.write_text("1\n1\n", encoding="ascii")
        assert main(["oracle", str(mat), "sinh", str(vec)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gmf: numerical failure:"), err

    @pytest.mark.parametrize("command,files", [
        ("run", {"c.json": b"\xff{}"}),
        ("run", {"c.json": json.dumps(cfg(method="rational_full", k_max=2,
                                          poles={"kind": "user_file", "path": "p.txt"}))
                 .encode(), "p.txt": b"-1.0\n\xff\n"}),
        ("oracle", {"m.txt": b"2 2\n1 0\n0 \xff\n", "b.txt": b"1\n1\n"}),
        ("oracle", {"m.txt": b"2 2\n1 x\n0 1\n", "b.txt": b"1\n1\n"}),
        ("oracle", {"m.txt": b"2 2\n1 0\n0 1\n", "b.txt": b"1 x\n"}),
    ], ids=["config_not_utf8", "pole_file_not_ascii", "matrix_not_ascii",
            "matrix_non_number", "vector_non_number"])
    def test_unreadable_input_exit_code(self, tmp_path, capsys, monkeypatch, command, files):
        monkeypatch.chdir(tmp_path)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        args = ["run", "c.json"] if command == "run" else ["oracle", "m.txt", "sqrt", "b.txt"]
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gmf: invalid input:"), err
        assert sorted(os.listdir(tmp_path)) == sorted(files)

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "none.json")]) == 4

    def test_malformed_json_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="ascii")
        assert main(["run", str(path)]) == 2

    def test_checked_in_experiment_configs_parse(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        configs = os.path.join(here, "configs")
        names = [n for n in os.listdir(configs) if n.endswith(".json")]
        assert len(names) >= 10
        for name in names:
            config = load_config(os.path.join(configs, name))
            assert len(build_poles(config)) >= config.k_max - 1, name


class TestSynthesisReference:
    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_factor_reference_matches_dense_svd(self, name):
        # the oracle run takes from the synthesis factors agrees with a dense
        # SVD of the synthesized matrix to roundoff
        config = load_config(CONFIGS / f"{name}.json")
        op, b = synthesize(config)
        f = builtin(config.function)
        ref = gmf_apply_reference(f, op.dense, b)
        y = gmf_apply_factors(f, *op.factors, b)
        assert np.linalg.norm(y - ref) <= 2e-14 * np.linalg.norm(ref)

    def test_pole_file_read_once(self, tmp_path, monkeypatch):
        calls = []
        load = harness.load_user_poles
        monkeypatch.setattr(harness, "load_user_poles",
                            lambda *a, **kw: calls.append(a) or load(*a, **kw))
        config = load_config(CONFIGS / "rational_optpoles_narrow.json")
        summary = run(config, output_dir=str(tmp_path))
        assert len(calls) == 1
        with open(summary["manifest"], encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert sorted(manifest["config"]) == sorted(vars(config).keys() - {"_poles"})


class TestExperimentAnalogs:
    def configs_dir(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        return os.path.join(here, "configs")

    def test_entire_function_converges_fast(self, tmp_path):
        # sinh is entire: the polynomial method reaches 1e-12 within 25 steps
        config = load_config(os.path.join(self.configs_dir(), "polynomial_sinh.json"))
        summary = run(config, output_dir=str(tmp_path))
        pairs = read_dat(summary["traces"]["err"])
        assert any(k <= 25 and err < 1e-12 for k, err in pairs)

    def test_narrow_interval_si_error_below_bound(self, tmp_path):
        # shift-invert on logspace [1, 10]: error below the closed-form
        # bound curve at every iteration
        config = load_config(os.path.join(self.configs_dir(),
                                          "rational_si_narrow.json"))
        summary = run(config, output_dir=str(tmp_path))
        errs = read_dat(summary["traces"]["err"])
        bound = dict(read_dat(summary["traces"]["bound_si"]))
        op, b = synthesize(config)
        from gmfkrylov import builtin, gmf_apply_reference
        ref = gmf_apply_reference(builtin(config.function), op.dense, b)
        nr = np.linalg.norm(ref)
        assert all(err * nr <= bound[k] for k, err in errs)

    def test_polynomial_bound_includes_norm_b(self, tmp_path):
        # like the other overlays, bound_poly bounds the absolute error for the
        # run's b: it is the curve for ||b||, above err * ||f◇(A) b|| at every k
        config = load_config(os.path.join(self.configs_dir(), "polynomial_sqrt.json"))
        summary = run(config, output_dir=str(tmp_path))
        op, b = synthesize(config)
        f = builtin(config.function)
        curve = polynomial_bound_curve(f, config.matrix.lo, config.matrix.hi, config.k_max,
                                       norm_b=float(np.linalg.norm(b)))
        ks, bound = np.array(read_dat(summary["traces"]["bound_poly"])).T
        assert ks.tolist() == curve.ks.tolist()
        assert bound == pytest.approx(curve.values, rel=1e-14)
        errs = np.array(read_dat(summary["traces"]["err"]))[:, 1]
        nr = np.linalg.norm(gmf_apply_factors(f, *op.factors, b))
        assert np.all(errs * nr <= bound)

    def test_si_bound_at_overridden_pole(self, tmp_path):
        # the closed form holds only at xi = -sigma_min sigma_max; at xi = -1
        # on [1, 10] the error exceeds that form at 5 of 20 steps
        raw = cfg(method="rational_full", function="sqrt_log1p_sqrt", k_max=20,
                  poles={"kind": "shift_invert", "xi": -1.0}, bounds=["shift_invert"])
        raw["matrix"] = {"m": 60, "n": 60, "profile": {"kind": "logspace", "lo": 1.0, "hi": 10.0}}
        config = parse_config(raw)
        summary = run(config, output_dir=str(tmp_path))
        errs = read_dat(summary["traces"]["err"])
        bound = dict(read_dat(summary["traces"]["bound_si"]))
        op, b = synthesize(config)
        from gmfkrylov import builtin, gmf_apply_reference
        nr = np.linalg.norm(gmf_apply_reference(builtin(config.function), op.dense, b))
        assert all(err * nr <= bound[k] for k, err in errs)
