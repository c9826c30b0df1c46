import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edo import cli
from edo.errors import ConfigError

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def base_config(**overrides):
    cfg = {
        "plant": {"a": [2.0, 1.0]},
        "exosystem": {"spectrum": []},
        "gains": {"omega_o": 10.0, "omega_c": 10.0, "k": [-1.0, -2.0], "p": [-1.0]},
        "disturbance": {
            "terms": [
                {"type": "harmonic", "amplitude": 1.0, "frequency": 10.0, "phase": 0.0},
                {"type": "constant", "value": 10.0},
            ]
        },
        "sim": {
            "t_end": 0.2,
            "dt": 1e-3,
            "integrator": "rk4",
            "noise_std": 0.01,
            "seed": 7,
            "output_ramp": True,
        },
        "initial": {"x0": [0.0, 1.0], "observer0": "zero"},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestDesignCommand:
    def test_constant_dynamics_closed_forms(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "report.json"
        assert cli.main(["design", "--config", cfg_path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert np.allclose(np.ravel(report["regulator"]["S"]), [-200.0, -10.0], atol=1e-10)
        assert report["regulator"]["Q"] == [1000.0]
        assert "closed_loop" in capsys.readouterr().out

    def test_harmonic_design_qbd_magnitude(self, tmp_path):
        cfg = base_config()
        cfg["exosystem"]["spectrum"] = [[0.0, 10.0], [0.0, -10.0]]
        cfg["gains"]["p"] = [-1.0, -3.0, -3.0]
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "report.json"
        assert cli.main(["design", "--config", cfg_path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        # |Q B_d| = |k_1 p_0| w^(n+m+1) with n=2, m=2, w=10
        assert abs(report["regulator"]["Q_Bd"]) == pytest.approx(1e5, rel=1e-10)

    def test_report_round_trips_losslessly(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "report.json"
        cli.main(["design", "--config", cfg_path, "--out", str(out)])
        report = json.loads(out.read_text())
        from edo.cli import build_design, load_config

        design = build_design(load_config(cfg_path))
        assert np.array_equal(np.array(report["regulator"]["S"]), design.regulator.S)
        assert np.array_equal(np.array(report["observer"]["A_hat"]), design.observer.A_hat)

    def test_malformed_json_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "report.json"
        assert cli.main(["design", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = base_config()
        cfg["extra"] = 1
        assert cli.main(["design", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r.json")]) == 2

    def test_unknown_disturbance_type_rejected(self, tmp_path):
        cfg = base_config()
        cfg["disturbance"]["terms"] = [{"type": "sawtooth", "value": 1.0}]
        assert cli.main(["design", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r.json")]) == 2

    def test_synthesis_error_exits_3(self, tmp_path, capsys):
        cfg = base_config()
        cfg["gains"]["k"] = [1.0, 2.0]  # not Hurwitz
        rc = cli.main(["design", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert "NonHurwitzBase" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "omega_o, k",
        [(1e200, [-1.0, -2.0]), (1e154, [-2.0, -3.0])],
        ids=["power_overflows", "product_overflows"],  # omega^2 beyond the range, or finite but -2 omega^2 not
    )
    def test_overflowing_bandwidth_exits_3(self, tmp_path, capsys, omega_o, k):
        cfg = base_config()
        cfg["gains"].update(omega_o=omega_o, k=k)
        rc = cli.main(["design", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "synthesis error (Overflow)" in err and "Traceback" not in err

    def test_high_order_plant_designs(self, tmp_path):
        # integrator chain of order 33 with every base root at -1: the
        # closed loop has 33 + 33 + 1 = 67 states
        n = 33
        k = [-float(math.comb(n, j)) for j in range(n)]  # (s+1)^33 = s^33 - k_33 s^32 - ... - k_1
        cfg = base_config()
        cfg["plant"]["a"] = [0.0] * n
        cfg["gains"].update(omega_o=1.0, omega_c=1.0, k=k)
        cfg["initial"]["x0"] = [0.0] * n
        out = tmp_path / "report.json"
        assert cli.main(["design", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["spectra"]["closed_loop"]) == 67

    def test_left_half_plane_spectrum_exits_3(self, tmp_path, capsys):
        cfg = base_config()
        cfg["exosystem"]["spectrum"] = [[-1.0, 0.0]]
        cfg["gains"]["p"] = [-1.0, -2.0]
        rc = cli.main(["design", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert "RightHalfPlaneViolation" in capsys.readouterr().err


class TestSimulateCommand:
    def test_csv_shape_and_header(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,xhat1,xhat2,vhat1,d,dhat,u,y"
        assert len(lines) == 1 + 201  # header + floor(t_end/dt)+1 rows

    def test_csv_values_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "run.csv"
        cli.main(["simulate", "--config", cfg_path, "--out", str(out)])
        lines = out.read_text().splitlines()
        cells = lines[1].split(",")
        assert float(cells[0]) == 0.0
        assert float(cells[2]) == 1.0  # x2(0)
        # every cell parses back to a float exactly once more
        rejoined = ",".join(repr(float(c)) for c in cells)
        assert rejoined == lines[1]

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["simulate", "--config", cfg_path, "--out", str(a), "--svg", str(tmp_path / "a.svg")])
        cli.main(["simulate", "--config", cfg_path, "--out", str(b), "--svg", str(tmp_path / "b.svg")])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_svg_written(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        svg = tmp_path / "run.svg"
        cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "r.csv"), "--svg", str(svg)])
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_seed_env_override(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, base_config())
        out_env = tmp_path / "env.csv"
        monkeypatch.setenv("EDO_SEED", "123")
        cli.main(["simulate", "--config", cfg_path, "--out", str(out_env)])
        monkeypatch.delenv("EDO_SEED")
        cfg = base_config()
        cfg["sim"]["seed"] = 123
        out_direct = tmp_path / "direct.csv"
        cli.main(["simulate", "--config", write_config(tmp_path, cfg, "cfg2.json"), "--out", str(out_direct)])
        assert out_env.read_bytes() == out_direct.read_bytes()

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "inf", "minus_inf", "float_overflow", "int_overflow"],
    )
    def test_non_finite_number_exits_2_without_output(self, tmp_path, capsys, literal):
        text = json.dumps(base_config()).replace('"value": 10.0', f'"value": {literal}')
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_number_in_dict_config_rejected(self):
        cfg = base_config()
        cfg["gains"]["omega_o"] = float("nan")
        with pytest.raises(ConfigError, match="finite"):
            cli.parse_config(cfg)

    def test_invalid_seed_env_exits_2(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, base_config())
        monkeypatch.setenv("EDO_SEED", "not-a-number")
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2

    # fig1 at dt = 1e-4: about 1e18 steps exceed numpy's size limit, about
    # 1e13 steps ask for hundreds of terabytes; both requests fail at once
    @pytest.mark.parametrize("t_end", [1e14, 1e9], ids=["size_limit", "out_of_memory"])
    def test_grid_too_large_exits_2(self, tmp_path, capsys, t_end):
        cfg = json.loads(json.dumps(cli.SCENARIOS["fig1"]))
        cfg["sim"]["t_end"] = t_end
        steps = cli.parse_config(cfg).sim.steps
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sim: ") and f"{steps} steps" in err
        assert not out.exists()


class TestScenarioAndProbe:
    def test_unknown_scenario_exits_2(self, tmp_path):
        assert cli.main(["scenario", "fig9", "--out", str(tmp_path)]) == 2

    def test_probe_table(self, capsys):
        assert cli.main(["probe", "--omega", "10"]) == 0
        out = capsys.readouterr().out
        assert "3.7590367" in out  # counterexample norm at omega = 10

    def test_probe_rejects_nonpositive(self):
        # NaN passes a plain "<= 0" test, so it must be refused as non-finite
        for omega in ("10,0", "nan", "inf", "10,-inf"):
            assert cli.main(["probe", "--omega", omega]) == 2, omega

    def test_probe_overflowing_bandwidth_exits_3(self, capsys):
        assert cli.main(["probe", "--omega", "1e200"]) == 3
        err = capsys.readouterr().err
        assert "synthesis error (Overflow)" in err and "Traceback" not in err

    def test_probe_rejects_garbage(self):
        assert cli.main(["probe", "--omega", "ten"]) == 2

    def test_missing_subcommand_exits_2(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "edo", "probe", "--omega", "10"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "counterexample" in proc.stdout
