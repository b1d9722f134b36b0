import json

import numpy as np
import pytest

from warpflow.cli import main
from warpflow.config import RunConfig, build_config, load_config_file


def _read_rows(path):
    header = None
    rows = []
    config = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            config[key.strip()] = value.strip()
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return header, rows, config


class TestConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_flag_precedence_over_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[warp]\nkind = constant-curvature\nk = 2.0\nn = 2\n[run]\nstep = 0.01\nseed = 7\n")
        cfg = build_config(str(cfg_file), {"step": 0.02})
        assert cfg.scenario == "constant-curvature"
        assert cfg.k == 2.0
        assert cfg.seed == 7
        assert cfg.step == 0.02

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[run]\nbogus = 1\n")
        with pytest.raises(Exception):
            build_config(str(cfg_file), {})

    def test_load_sections(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[warp]\nkind = anosov-warped-torus\na = 3.0\n[run]\nhorizon = 50\n")
        flat = load_config_file(str(cfg_file))
        assert flat["scenario"] == "anosov-warped-torus"
        assert flat["horizon"] == "50"


    @pytest.mark.parametrize("line", ["chunk_size = 0", "green_max_doublings = -1"])
    def test_bad_run_count_is_an_error(self, tmp_path, capsys, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[run]\n{line}\n")
        rc = main([
            "anosov-check", "--config", str(cfg_file), "--scenario", "constant-curvature",
            "--samples", "2", "--tmin", "1", "--horizon", "2", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {line.split()[0]} must be")

    @pytest.mark.parametrize("line, kind", [("samples = 2.5", "int"), ("step = fast", "float")])
    def test_value_of_wrong_type_is_an_error(self, tmp_path, capsys, line, kind):
        cfg_file = tmp_path / "bad.ini"
        cfg_file.write_text(f"[run]\n{line}\n")
        rc = main(["curvature", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == 1
        key, value = line.split(" = ")
        assert capsys.readouterr().err == f"error: config key {key!r} needs {kind}, got {value!r}\n"

    @pytest.mark.parametrize("text", ["[run]\nsamples = 2\nsamples = 3\n", "samples = 2\n"],
                             ids=["duplicate-option", "no-section-header"])
    def test_unparsable_file_is_an_error(self, tmp_path, capsys, text):
        cfg_file = tmp_path / "f.ini"
        cfg_file.write_text(text)
        rc = main(["curvature", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: cannot parse config file {cfg_file}: ")
        assert not (tmp_path / "o").exists()


class TestCurvatureCommand:
    def test_constant_curvature_rows(self, tmp_path):
        out = tmp_path / "o"
        rc = main([
            "curvature", "--scenario", "constant-curvature", "--k", "1", "--n", "2",
            "--samples", "50", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        header, rows, config = _read_rows(out / "curvature.csv")
        assert header[-1] == "K"
        vals = np.array([float(r[-1]) for r in rows])
        assert len(vals) == 50
        assert np.max(np.abs(vals + 1.0)) < 1e-9
        assert config["scenario"] == "constant-curvature"

    def test_counterexample_range(self, tmp_path):
        out = tmp_path / "o"
        assert main([
            "curvature", "--scenario", "counterexample-sqrt", "--n", "2",
            "--samples", "200", "--seed", "5", "--out", str(out),
        ]) == 0
        _, rows, _ = _read_rows(out / "curvature.csv")
        vals = np.array([float(r[-1]) for r in rows])
        assert np.all(vals >= -2.0 - 1e-9)
        assert np.all(vals < 0.0)

    def test_periodic_scenario_nonpositive(self, tmp_path):
        out = tmp_path / "o"
        assert main([
            "curvature", "--scenario", "anosov-warped-torus", "--a", "3", "--n", "2",
            "--samples", "100", "--seed", "2", "--out", str(out),
        ]) == 0
        _, rows, _ = _read_rows(out / "curvature.csv")
        vals = np.array([float(r[-1]) for r in rows])
        assert np.all(vals <= 1e-12)


class TestGeodesicCommand:
    def test_trajectory_schema_and_defects(self, tmp_path):
        out = tmp_path / "o"
        rc = main([
            "geodesic", "--scenario", "anosov-warped-torus", "--a", "3", "--n", "2",
            "--x0", "0.2", "--b0", "0.3", "--tend", "5", "--step", "0.005",
            "--out", str(out),
        ])
        assert rc == 0
        header, rows, _ = _read_rows(out / "trajectory.csv")
        assert header == ["t", "x", "y1", "y2", "dx", "dy1", "dy2", "defect_unit", "defect_momentum"]
        assert len(rows) == 1001
        assert all(float(r[7]) < 1e-8 for r in rows)
        assert all(float(r[8]) < 1e-8 for r in rows)
        ys = np.array([[float(r[2]), float(r[3])] for r in rows])
        assert np.all((ys >= 0.0) & (ys < 2.0 * np.pi))

    def test_bad_scenario_is_usage_error(self, tmp_path):
        rc = main(["geodesic", "--scenario", "constant-curvature", "--k", "-1",
                   "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("b0", ["2", "nan"])
    def test_b0_outside_unit_interval_is_an_error(self, tmp_path, capsys, b0):
        rc = main(["geodesic", "--scenario", "constant-curvature", "--b0", b0, "--tend", "1",
                   "--step", "0.01", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: b0 must lie in [-1, 1]\n"
        assert not (tmp_path / "o").exists()


class TestJacobiAndGreenCommands:
    def test_jacobi_csv(self, tmp_path):
        out = tmp_path / "o"
        rc = main([
            "jacobi", "--scenario", "constant-curvature", "--k", "1", "--n", "2",
            "--b0", "0", "--tend", "3", "--step", "0.01", "--out", str(out),
        ])
        assert rc == 0
        header, rows, _ = _read_rows(out / "jacobi.csv")
        assert header[:2] == ["t", "Y00"]
        assert len(header) == 1 + 8
        # cosh profile in the diagonal entry
        last = rows[-1]
        assert float(last[1]) == pytest.approx(np.cosh(3.0), rel=1e-6)

    def test_green_report(self, tmp_path):
        out = tmp_path / "o"
        rc = main([
            "green", "--scenario", "constant-curvature", "--k", "1", "--n", "2",
            "--b0", "0", "--tend", "5", "--step", "0.01", "--tobs", "5",
            "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads((out / "green.json").read_text())
        assert payload["converged"] is True
        assert payload["r_ladder"]
        assert payload["final_gap"] < 1e-8
        Us0 = np.array(payload["Us0"])
        assert np.max(np.abs(Us0 + np.eye(2))) < 1e-6
        assert "config" in payload


    def test_green_integrates_the_window_once_with_the_drift_check(self, tmp_path, monkeypatch):
        from warpflow import engine

        runs = []
        integrate = engine.integrate_states

        def recording(*args, **kwargs):
            if kwargs.get("store", True) and kwargs["t1"] != kwargs["t0"]:
                runs.append((kwargs["t0"], kwargs["t1"], kwargs.get("drift_tol")))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(engine, "integrate_states", recording)
        # defaults t_end 10 and t_obs 20; the preset's drift_tol is 1e-5
        rc = main(["green", "--scenario", "anosov-warped-torus", "--x0", "0.4", "--b0", "0.3",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert runs == [(0.0, pytest.approx(20.0), 1e-5)]

    def test_green_drift_is_an_error_exit(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[run]\ndrift_tol = 1e-15\n")
        rc = main(["green", "--config", str(cfg_file), "--scenario", "anosov-warped-torus",
                   "--x0", "0.4", "--b0", "0.3", "--tobs", "2", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: conserved-quantity drift beyond 1e-15")


class TestScenarioBoundsCommand:
    def test_periodic_payload(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["scenario-bounds", "--scenario", "anosov-warped-torus", "--a", "3",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "scenario_bounds.json").read_text())
        assert payload["conditions"]["min_h"] > 0
        assert payload["bounds"]["eta"] == pytest.approx(20 * np.pi, abs=1e-8)
        assert payload["bounds"]["final_bound"] == pytest.approx(-0.15625)

    def test_nonperiodic_payload(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["scenario-bounds", "--scenario", "counterexample-sqrt", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "scenario_bounds.json").read_text())
        assert "bounds" not in payload
        assert payload["c_squared"] <= 2.0

    @pytest.mark.parametrize("command", ["scenario-bounds", "anosov-check"])
    def test_condition_a_violation_is_an_error_exit(self, tmp_path, capsys, command):
        # at a = 1, h = g'' + (g')^2 dips below 0: an error line, not a traceback
        rc = main([command, "--scenario", "anosov-warped-torus", "--a", "1", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: h = g'' + (g')^2 dips to -1.138970 for a = 1.0")


class TestAnosovCheckCommand:
    def test_constant_curvature_verdict_and_determinism(self, tmp_path):
        args = [
            "anosov-check", "--scenario", "constant-curvature", "--k", "1", "--n", "2",
            "--samples", "6", "--seed", "2", "--step", "0.02",
            "--tmin", "3", "--horizon", "6", "--workers", "1",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        r1 = json.loads((out1 / "anosov_report.json").read_text())
        assert r1["verdict"] == "anosov_consistent"
        assert r1["envelopes"]["ls"] == pytest.approx(np.exp(-1.0), rel=5e-3)
        # byte-identical outputs modulo the differing --out path header line
        def normalized(p):
            return [
                line for line in p.read_text().splitlines() if not line.startswith("# out")
            ]
        def normalized_json(p):
            d = json.loads(p.read_text())
            d["config"].pop("out")
            return d
        assert normalized_json(out1 / "anosov_report.json") == normalized_json(out2 / "anosov_report.json")
        assert normalized(out1 / "anosov_series.csv") == normalized(out2 / "anosov_series.csv")

    def test_green_r0_from_config_file_is_used(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[run]\ngreen_r0 = 1\n")
        rc = main([
            "anosov-check", "--config", str(cfg_file), "--scenario", "constant-curvature",
            "--samples", "2", "--tmin", "1", "--horizon", "2", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: green_r0 = 1.0 must lie beyond the horizon 2.0\n"

    def test_not_anosov_exit_code_zero(self, tmp_path):
        out = tmp_path / "o"
        rc = main([
            "anosov-check", "--scenario", "counterexample-sqrt", "--n", "2",
            "--samples", "8", "--seed", "1", "--step", "0.1",
            "--tmin", "20", "--horizon", "30", "--green-tol", "1e-4",
            "--workers", "1", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads((out / "anosov_report.json").read_text())
        assert payload["verdict"] == "not_anosov_consistent"
