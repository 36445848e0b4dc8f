import json
import os
from pathlib import Path

import numpy as np
import pytest

from gmfkrylov import ConfigError, emit_dat, read_dat
from gmfkrylov.cli import main
from gmfkrylov.harness import build_poles, load_config, parse_config, run, synthesize
from gmfkrylov.operators import save_dense_matrix
from gmfkrylov.traces import TRACE_DIGITS_ENV


BASE = {
    "name": "t",
    "seed": 3,
    "matrix": {"m": 12, "n": 12, "profile": {"kind": "logspace", "lo": 0.5, "hi": 4.0}},
    "function": "sqrt",
    "method": "gk",
    "k_max": 6,
}


def cfg(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return raw


class TestConfigValidation:
    def test_minimal_config_parses(self):
        config = parse_config(cfg())
        assert config.method == "gk" and config.k_max == 6

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(cfg(extra=1))

    def test_missing_key(self):
        raw = cfg()
        del raw["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(raw)

    def test_rational_requires_poles(self):
        with pytest.raises(ConfigError, match="pole spec"):
            parse_config(cfg(method="rational_full"))

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

    def test_transpose_with_gk_inner_needs_no_poles(self):
        config = parse_config(cfg(method="transpose_trick",
                                  transpose_inner="golub_kahan"))
        assert build_poles(config) is None

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
                                                  ("transpose_trick", 20, 12, "golub_kahan")])
    def test_zero_pole_with_nonsingular_gram_accepted(self, method, m, n, inner):
        parse_config(self.sized(m, n, method=method, poles={"kind": "extended"},
                                transpose_inner=inner))


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

    def test_digits_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIGITS_ENV, "3")
        path = tmp_path / "d.dat"
        emit_dat([(1, 0.5)], path)
        assert path.read_text() == "1 5.000e-01\n"


class TestRun:
    def test_gk_run_produces_traces(self, tmp_path):
        config = parse_config(cfg(output_dir=str(tmp_path)))
        summary = run(config)
        assert os.path.exists(summary["traces"]["err"])
        pairs = read_dat(summary["traces"]["err"])
        assert [k for k, _ in pairs] == list(range(1, len(pairs) + 1))
        manifest = json.loads(Path(summary["manifest"]).read_text())
        assert manifest["config"]["seed"] == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        config = parse_config(cfg(method="rational_full",
                                  poles={"kind": "shift_invert"},
                                  bounds=["shift_invert"], output_dir=str(tmp_path)))
        first = run(config)
        blobs = {tag: Path(p).read_bytes() for tag, p in first["traces"].items()}
        second = run(config)
        for tag, path in second["traces"].items():
            assert Path(path).read_bytes() == blobs[tag], tag

    def test_short_with_comparison_traces(self, tmp_path):
        config = parse_config(cfg(method="rational_short",
                                  poles={"kind": "shift_invert"},
                                  compare_full=True, output_dir=str(tmp_path)))
        summary = run(config)
        for tag in ("err", "err_full", "diff_short_full", "drift"):
            assert tag in summary["traces"], tag

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
            poles = build_poles(config)
            if config.method != "gk":
                assert poles is not None and len(poles) >= config.k_max - 1, name


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
