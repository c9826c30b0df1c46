import builtins
import dataclasses
import functools
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from edo import cli, shortest
from edo.errors import ConfigError
from edo.sim import Trajectory

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


@functools.cache
def cut_preset(name):
    """The trajectory of preset ``name`` cut to 0.5 s, as ``edo simulate``
    runs it, and its ``row_loop_lines``."""
    raw = json.loads(json.dumps(cli.SCENARIOS[name]))
    raw["sim"]["t_end"] = 0.5
    tr = cli.run_config(cli.parse_config(raw))
    return tr, tuple(row_loop_lines(tr))


def csv_bytes(tr):
    """What ``cli.write_csv`` writes for ``tr``."""
    buf = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    cli.write_csv(buf, tr)
    return buf.buffer.getvalue()


def row_loop_lines(tr):
    """The header and the CSV lines of ``tr`` by the per-row ``repr`` loop
    the block writer replaced, the reference for every block length."""
    n, v_dim = tr.x.shape[1], tr.v_hat.shape[1]
    names = ["t", *(f"x{i + 1}" for i in range(n)), *(f"xhat{i + 1}" for i in range(n)),
             *(f"vhat{i + 1}" for i in range(v_dim)), "d", "dhat", "u", "y"]
    table = np.column_stack([tr.times, tr.x, tr.x_hat, tr.v_hat, tr.d, tr.d_hat, tr.u, tr.y])
    return [",".join(names) + "\n"] + [",".join(map(repr, row)) + "\n" for row in table.tolist()]


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

    @pytest.mark.parametrize(
        "content",
        [
            b"{not json",
            b"\xff\xfe",  # not UTF-8
            b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
            # an integer literal beyond Python's 4300-digit conversion limit
            json.dumps(cli.SCENARIOS["fig1"]).replace('"value": 10.0', '"value": ' + "1" * 5001).encode(),
        ],
        ids=["not_json", "not_utf8", "nested_too_deep", "integer_too_long"],
    )
    def test_malformed_json_exits_2_without_output(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "report.json"
        assert cli.main(["design", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid JSON: ") and "Traceback" not in err
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

    @pytest.mark.parametrize("command", ["design", "simulate"])
    def test_overflowing_stabilizer_gain_exits_3(self, tmp_path, capsys, monkeypatch, command):
        # the scheduled row and the canonical transform are finite, their
        # product F is not
        cfg = base_config()
        cfg["plant"]["a"] = [1e200, 1e200]
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args))
        rc = cli.main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3 and calls == []
        assert "synthesis error (Overflow)" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["design", "simulate"])
    def test_overflowing_krylov_rows_exit_3(self, tmp_path, capsys, monkeypatch, command):
        # fig1 at third order with finite plant coefficients whose Krylov
        # rows, built for the canonical transform, leave the double range
        cfg = json.loads(json.dumps(cli.SCENARIOS["fig1"]))
        cfg["plant"]["a"] = [1e200, 1e200, 1e200]
        cfg["gains"]["k"] = [-1.0, -3.0, -3.0]
        cfg["initial"]["x0"] = [0.0, 0.0, 0.0]
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3 and calls == []
        assert err.splitlines() == ["synthesis error (Overflow): Krylov rows of an order-3 matrix overflow the double range"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "carrier, message",
        [
            (1e200, "(Overflow): spectrum [1e+200j, -1e+200j] overflows the exosystem polynomial"),
            (1e80, "(SingularSystem): regulator residual check overflows the double range"),
        ],
        ids=["polynomial_overflows", "residual_scale_overflows"],
    )
    @pytest.mark.parametrize("command", ["design", "simulate"])
    def test_huge_carrier_frequency_exits_3(self, tmp_path, capsys, monkeypatch, command, carrier, message):
        # fig3 with its carrier moved to +-carrier j: the characteristic
        # polynomial, or the scale of the regulator's residual check,
        # leaves the double range
        cfg = json.loads(json.dumps(cli.SCENARIOS["fig3"]))
        cfg["exosystem"]["spectrum"] = [[0.0, carrier], [0.0, -carrier]]
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3 and calls == []
        assert f"synthesis error {message}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "a, p, omega_o, omega_c, sim, message",
        [
            (1.7976931348623157e308, -1e300, 3.0, 5.0,
             {"integrator": "rk4", "dt": 1e-3, "t_end": 0.01, "output_ramp": True},
             "observer drift overflows the double range"),
            (0.65, -1e300, 0.1, 1.7976931348623157e308,
             {"integrator": "euler", "dt": 0.25, "t_end": 1.0, "output_ramp": False},
             "closed-loop drift overflows the double range"),
            (-5.361040936259993e307, -1.0, 1.7976931348623157e308, 1.0,
             {"integrator": "rk4", "dt": 1e-3, "t_end": 0.01, "output_ramp": True},
             "A + K_omega C overflows the double range"),
        ],
        ids=["observer_drift_overflows", "closed_loop_drift_overflows", "state_drift_overflows"],
    )
    @pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
    @pytest.mark.parametrize("command", ["design", "simulate"])
    def test_overflowing_drift_exits_3_before_any_run(
        self, tmp_path, capsys, monkeypatch, command, existing, a, p, omega_o, omega_c, sim, message
    ):
        # first-order plants with no carrier: the observer's injection
        # K_omega + S E, the closed loop's A_hat + B_u F, or the scheduled
        # a + K_omega leaves the double range; refused at design, so no step is integrated
        cfg = base_config()
        cfg["plant"]["a"] = [a]
        cfg["gains"].update(omega_o=omega_o, omega_c=omega_c, k=[-1.0], p=[p])
        cfg["disturbance"]["terms"] = [{"type": "constant", "value": 1.0}]
        cfg["sim"].update(sim, noise_std=0.0)
        cfg["initial"]["x0"] = [1.0]
        out = tmp_path / "out"
        if existing:
            out.write_bytes(b"earlier output\n")
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3 and calls == []
        assert err.splitlines() == [f"synthesis error (Overflow): {message}"]
        if existing:
            assert out.read_bytes() == b"earlier output\n"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
    def test_overflowing_state_feedback_spectrum(self, tmp_path, capsys, existing):
        # omega_c at the largest double on a plant coefficient near it: F fits,
        # but a + F does not; only the report forms A + B F, so edo design refuses
        # it and edo simulate runs until the divergence guard trips
        cfg = base_config()
        cfg["plant"]["a"] = [-5.361040936259993e307]
        cfg["gains"].update(omega_o=1.0, omega_c=1.7976931348623157e308, k=[-1.0], p=[-1.0])
        cfg["disturbance"]["terms"] = [{"type": "constant", "value": 1.0}]
        cfg["sim"].update(t_end=0.01, noise_std=0.0)
        cfg["initial"]["x0"] = [1.0]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        if existing:
            out.write_bytes(b"earlier output\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["design", "--config", path, "--out", str(out)])
            assert (rc, capsys.readouterr().err.splitlines()) == (
                3, ["synthesis error (Overflow): A + B F overflows the double range"]
            )
            if existing:
                assert out.read_bytes() == b"earlier output\n"
            else:
                assert not out.exists()
            rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "run.csv")])
            assert (rc, capsys.readouterr().err) == (4, "divergence: state magnitude exceeded 1e+12 at t=0.001\n")

    @pytest.mark.parametrize("command", ["design", "simulate"])
    def test_underflowing_spectrum_exits_3(self, tmp_path, capsys, monkeypatch, command):
        # fig3 with its carrier moved to +-1e-200j: the pair's product
        # underflows, which would leave G with a triple zero the spectrum does not name
        cfg = json.loads(json.dumps(cli.SCENARIOS["fig3"]))
        cfg["exosystem"]["spectrum"] = [[0.0, 1e-200], [0.0, -1e-200]]
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3 and calls == []
        assert err.splitlines() == [
            "synthesis error (Overflow): spectrum [1e-200j, -1e-200j] underflows the exosystem polynomial"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("omega_o", [1e80, 1e100])
    @pytest.mark.parametrize("command", ["design", "simulate"])
    def test_overflowing_regulator_solution_exits_3(self, tmp_path, capsys, monkeypatch, command, omega_o):
        # fig3 at a huge observer bandwidth: the regulator system's entries
        # reach omega_o^2 and its solution grows like omega_o^(n+m) past the
        # double range; the plant has no zeros, so this is no singularity
        cfg = json.loads(json.dumps(cli.SCENARIOS["fig3"]))
        cfg["gains"]["omega_o"] = omega_o
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3 and calls == []
        assert "synthesis error (Overflow): regulator solution overflows the double range" in err
        assert "Traceback" not in err and "singular" not in err
        assert not (tmp_path / "out").exists()

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
        # every cell of every row parses back to a float exactly once more
        for line in lines[1:]:
            assert ",".join(repr(float(c)) for c in line.split(",")) == line

    @pytest.mark.parametrize("extra", [None, -1, 0, 1, "longest first"])
    def test_csv_block_joins_match_the_row_loop(self, extra):
        # 1 row, and one block of whole rows less one, exactly, and plus one;
        # then four blocks through one workspace: the longest forms first
        # (negative, 17 digits, e-3xx), the shortest in a last partial block
        width = 1 + 2 + 2 + 3 + 4
        block = shortest.CSV_BLOCK // width
        rows = 1 if extra is None else block + (3 * block + 5 if extra == "longest first" else extra)
        rng = np.random.default_rng(rows)
        table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-30, 30, (rows, width))
        table[rng.random((rows, width)) < 0.1] = -0.0
        table[rng.random((rows, width)) < 0.1] = 0.0
        table[:, 1] = np.round(table[:, 1])
        if extra == "longest first":
            table[:block] = -(1.0 + rng.random((block, width))) * 10.0 ** rng.integers(-307, -300, (block, width))
            assert max(len(repr(v)) for v in table[:block].ravel().tolist()) == len("-1.2345678901234567e-300")
            table[-5:] = rng.choice([0.0, -0.0, 1.0, -2.0, 7.0], (5, width))
        tr = Trajectory(times=table[:, 0], x=table[:, 1:3], x_hat=table[:, 3:5], v_hat=table[:, 5:8],
                        d=table[:, 8], d_hat=table[:, 9], u=table[:, 10], y=table[:, 11])
        lines = row_loop_lines(tr)
        assert lines[0] == "t,x1,x2,xhat1,xhat2,vhat1,vhat2,vhat3,d,dhat,u,y\n"
        assert csv_bytes(tr).decode("ascii") == "".join(lines)

    @pytest.mark.parametrize("block", ["1", "width-1", "width", "8192", "16384", "above-count"])
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
    def test_block_length_never_moves_a_byte(self, monkeypatch, name, block):
        # Blocks of whole rows: at 1, width-1 and width every block is one
        # row, at about 150 us a row, so there the first 400 rows are written
        # (the whole cut preset takes about 0.8 s); above the value count the
        # file is one block.
        tr, lines = cut_preset(name)
        width = 1 + 2 * tr.x.shape[1] + tr.v_hat.shape[1] + 4
        size = {"1": 1, "width-1": width - 1, "width": width, "8192": 8192, "16384": 16384,
                "above-count": tr.times.size * width + 1}[block]
        if size <= width:
            tr = Trajectory(**{f.name: getattr(tr, f.name)[:400] for f in dataclasses.fields(tr)})
            lines = lines[:401]
        monkeypatch.setattr(shortest, "CSV_BLOCK", size)
        assert csv_bytes(tr) == "".join(lines).encode("ascii")

    def test_non_finite_value_writes_nothing(self):
        # checked before the header: a file rewritten in place is left unchanged
        rows = 5000
        ramp = np.linspace(0.0, 1.0, rows)
        tr = Trajectory(times=ramp, x=np.zeros((rows, 2)), x_hat=np.zeros((rows, 2)), v_hat=np.zeros((rows, 1)),
                        d=ramp.copy(), d_hat=ramp, u=ramp, y=ramp)
        tr.d[-1] = math.nan
        buf = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
        with pytest.raises(ValueError, match="not finite"):
            cli.write_csv(buf, tr)
        buf.flush()
        assert buf.buffer.getvalue() == b""

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

    def test_constant_panels_get_a_unit_range(self):
        # an all-zero run: every panel is flat and is drawn over [v - 1, v + 1]
        rows = 5
        zeros = np.zeros(rows)
        tr = Trajectory(times=np.linspace(0.0, 1.0, rows), x=np.zeros((rows, 2)), x_hat=np.zeros((rows, 2)),
                        v_hat=np.zeros((rows, 1)), d=zeros, d_hat=zeros, u=zeros, y=zeros)
        buf = io.StringIO()
        cli.write_svg(buf, tr)
        assert buf.getvalue().count("range [-1, 1]") == 3

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

    @pytest.mark.parametrize("seed", [-5, -(2**63)])
    def test_negative_seed_env_override_runs(self, tmp_path, monkeypatch, seed):
        # fig4 is the noisy scenario: EDO_SEED=<seed> draws its noise like that
        # sim.seed, down to the least 64-bit integer
        cfg = json.loads(json.dumps(cli.SCENARIOS["fig4"]))
        cfg["sim"]["t_end"] = 0.05
        out_env = tmp_path / "env.csv"
        monkeypatch.setenv("EDO_SEED", str(seed))
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out_env)]) == 0
        monkeypatch.delenv("EDO_SEED")
        cfg["sim"]["seed"] = seed
        out_direct = tmp_path / "direct.csv"
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg, "cfg2.json"), "--out", str(out_direct)]) == 0
        assert out_env.read_bytes() == out_direct.read_bytes()

    @pytest.mark.parametrize(
        "literal, shown",
        [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf"), ("1" + "0" * 400, "inf"),
         ("-1" + "0" * 400, "-inf")],
        ids=["nan", "inf", "minus_inf", "float_overflow", "int_overflow", "minus_int_overflow"],
    )
    def test_non_finite_number_exits_2_without_output(self, tmp_path, capsys, literal, shown):
        text = json.dumps(base_config()).replace('"value": 10.0', f'"value": {literal}')
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: disturbance.terms: expected a finite number, got {shown}\n"
        assert not out.exists()

    def test_non_finite_number_in_dict_config_rejected(self):
        cfg = base_config()
        cfg["gains"]["omega_o"] = float("nan")
        with pytest.raises(ConfigError, match="finite"):
            cli.parse_config(cfg)

    def test_tail_line_on_stdout(self, tmp_path, capsys):
        cfg = base_config()
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r.csv")]) == 0
        m = cli.metrics(cli.run_config(cli.parse_config(cfg)))
        assert capsys.readouterr().out == (
            f"tail [0.16, 0.2]: max |d-dhat| = {m.tail_max_dist_err:.6g}, "
            f"max ||x-xhat|| = {m.tail_max_state_err:.6g}\n"
        )

    def test_divergence_exits_4_naming_the_time(self, tmp_path, capsys):
        # RK4 is unstable at dt * omega_o = 10
        cfg = base_config()
        cfg["gains"]["omega_o"] = 1e4
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"divergence: state magnitude exceeded 1e\+12 at t=0\.\d+\n", captured.err)
        assert not out.exists()

    #: finite configs whose disturbance or noise samples overflow: (terms, sim entries)
    OVERFLOWING_INPUTS = [
        pytest.param([{"type": "exp_then_hold", "switch_time": 1000.0}], dict(t_end=800.0, dt=0.5),
                     id="exp_then_hold"),
        pytest.param([{"type": "polynomial", "coefficients": [0.0, 1e308, 1e308]}], {}, id="polynomial"),
        pytest.param([{"type": "constant", "value": 1e308}] * 2, {}, id="two_constants"),
        pytest.param([{"type": "harmonic", "amplitude": 1e308, "frequency": 1e308}], {}, id="harmonic"),
        pytest.param(None, dict(noise_std=1e308), id="noise"),
    ]

    @pytest.mark.parametrize("terms, sim", OVERFLOWING_INPUTS)
    def test_overflowing_input_exits_4_without_warnings(self, tmp_path, capsys, terms, sim):
        cfg = base_config()
        cfg["sim"].update({"t_end": 2.0, "dt": 1e-2, **sim})
        if terms is not None:
            cfg["disturbance"]["terms"] = terms
        out = tmp_path / "run.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"divergence: state magnitude exceeded 1e\+12 at t=[0-9.]+\n", captured.err)
        assert not out.exists()

    def test_figure_wider_than_the_double_range_is_drawn(self, tmp_path, capsys):
        # d swings +-1e308 between steps of 1e-300 s, too fast to drive the
        # state past the guard; d - dhat spans more than the double range, and
        # --svg changes neither the exit code nor the CSV
        cfg = base_config()
        cfg["disturbance"]["terms"] = [{"type": "harmonic", "amplitude": 1e308, "frequency": 1e300, "phase": 1.0}]
        cfg["sim"].update(t_end=2e-298, dt=1e-300)
        cfg_path = write_config(tmp_path, cfg)
        out, svg = tmp_path / "run.csv", tmp_path / "run.svg"
        runs = []
        for extra in ([], ["--svg", str(svg)]):
            stale = b"stale\n" * 10**5  # longer than either output
            out.write_bytes(stale)
            svg.write_bytes(stale)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["simulate", "--config", cfg_path, "--out", str(out), *extra]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            runs.append((captured.out, out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][1].startswith(b"t,x1,") and b"stale" not in runs[0][1]
        figure = svg.read_text()
        assert figure.startswith("<svg") and figure.endswith("</svg>\n")
        assert "range [-9.9999e+307, 9.99912e+307]" in figure

    def test_overflowing_control_exits_4_and_writes_nothing(self, tmp_path, capsys):
        # F = (-2e149, -1e298) times xhat = 1e11 makes u(0) = -inf while the state stays at 1e9
        cfg = base_config()
        cfg["gains"]["omega_c"] = 1e149
        cfg["sim"].update(t_end=1e-300, dt=1e-300, integrator="euler", output_ramp=False, noise_std=0.0)
        cfg["initial"] = {"x0": [0.0, 0.0], "observer0": [1e11, 1e11, 0.0]}
        cfg_path = write_config(tmp_path, cfg)
        kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
        kept.write_bytes(b"earlier run\n")
        for out in (kept, fresh):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.fullmatch(r"divergence: [^\n]* at t=0\n", captured.err)
        assert kept.read_bytes() == b"earlier run\n"
        assert not fresh.exists()

    @pytest.mark.parametrize("ramp", [True, False], ids=["ramp", "no_ramp"])
    def test_subnormal_step_runs(self, tmp_path, ramp):
        # every basis term underflows, and so would dt / 2
        cfg = base_config()
        cfg["sim"].update(t_end=5e-324, dt=5e-324, output_ramp=ramp)
        out = tmp_path / "run.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.0", "5e-324"]

    def test_invalid_seed_env_exits_2(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, base_config())
        monkeypatch.setenv("EDO_SEED", "not-a-number")
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2

    # about 1e18 steps exceed numpy's size limit, about 1e13 steps ask for
    # hundreds of terabytes, and t_end/dt beyond the double range must still
    # count its steps exactly; every request fails at once
    @pytest.mark.parametrize(
        "t_end, dt, steps",
        [(1e14, 1e-4, 10**18), (1e9, 1e-4, 10**13), (1e10, 1e-300, 10**310)],
        ids=["size_limit", "out_of_memory", "ratio_overflows"],
    )
    def test_grid_too_large_exits_2(self, tmp_path, capsys, t_end, dt, steps):
        cfg = json.loads(json.dumps(cli.SCENARIOS["fig1"]))
        cfg["sim"].update(t_end=t_end, dt=dt)
        assert cli.parse_config(cfg).sim.steps == steps
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sim: ") and f"a grid of {steps} steps" in err
        assert not out.exists()


MISSING = object()


def edited_config(path, value):
    """``base_config()`` with the entry at ``path`` set to ``value``, or removed."""
    cfg = base_config()
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    if value is MISSING:
        del node[last]
    else:
        node[last] = value
    return cfg


#: (path, value, what stderr must say): ``("EDO_SEED",)`` sets that variable
#: instead, and ``()`` passes a directory as the config path.
CONFIG_REFUSALS = [
    pytest.param(("plant",), [2.0, 1.0], "plant: expected an object", id="not_an_object"),
    pytest.param(("sim", "dt"), MISSING, "sim: missing keys ['dt']", id="missing_key"),
    pytest.param(("plant", "a"), [2.0, "1"], "plant.a: expected a number", id="not_a_number"),
    pytest.param(("gains", "k"), [], "gains.k: expected a non-empty array", id="empty_list"),
    pytest.param(("disturbance", "terms"), [{"value": 1.0}], "disturbance.terms: disturbance term needs a 'type'",
                 id="term_without_type"),
    pytest.param(("exosystem", "spectrum"), {"re": 0.0}, "exosystem.spectrum: expected an array",
                 id="spectrum_not_a_list"),
    pytest.param(("exosystem", "spectrum"), [[0.0, 1.0, 2.0]], "exosystem.spectrum: entries must be [re, im] pairs",
                 id="spectrum_not_pairs"),
    pytest.param(("exosystem", "spectrum"), [[0.0, "1"]], "exosystem.spectrum: expected a number, got '1'",
                 id="spectrum_not_a_number"),
    pytest.param(("gains", "omega_o"), 0.0, "gains: bandwidths must be positive", id="omega_o_zero"),
    pytest.param(("gains", "omega_c"), -1.0, "gains: bandwidths must be positive", id="omega_c_negative"),
    pytest.param(("gains", "k"), [-1.0], "gains.k must match the plant order", id="k_length"),
    pytest.param(("gains", "p"), [-1.0, -2.0], "gains.p must have one entry more", id="p_length"),
    pytest.param(("disturbance", "terms"), [], "disturbance.terms: expected a non-empty array", id="empty_terms"),
    pytest.param(("sim", "seed"), 7.0, "sim.seed must be an integer", id="seed_float"),
    pytest.param(("sim", "seed"), True, "sim.seed must be an integer", id="seed_bool"),
    pytest.param(("sim", "output_ramp"), 1, "sim: output_ramp must be a boolean", id="ramp_not_bool"),
    pytest.param(("sim", "dt"), 1.0, "sim: need 0 < dt <= t_end", id="dt_beyond_t_end"),
    pytest.param(("sim", "integrator"), "midpoint", "sim: integrator must be one of", id="unknown_integrator"),
    pytest.param(("sim", "noise_std"), -0.1, "sim: noise_std must be nonnegative", id="negative_noise"),
    pytest.param(("initial", "x0"), [0.0], "initial.x0 must match the plant order", id="x0_size"),
    pytest.param(("initial", "observer0"), [0.0, 0.0], "initial.observer0 must match the observer dimension",
                 id="observer0_size"),
    pytest.param(("exosystem", "extra"), 1, "exosystem: unknown keys ['extra']", id="exosystem_unknown_key"),
    pytest.param(("gains", "extra"), 1, "gains: unknown keys ['extra']", id="gains_unknown_key"),
    pytest.param(("disturbance", "extra"), 1, "disturbance: unknown keys ['extra']", id="disturbance_unknown_key"),
    pytest.param(("initial", "extra"), 1, "initial: unknown keys ['extra']", id="initial_unknown_key"),
    *[
        pytest.param(("disturbance", "terms"), [dict(term, extra=1)], "disturbance.terms: unknown keys ['extra']",
                     id=f"{term['type']}_unknown_key")
        for term in (
            {"type": "constant", "value": 1.0},
            {"type": "harmonic", "amplitude": 1.0, "frequency": 2.0},
            {"type": "polynomial", "coefficients": [1.0]},
            {"type": "exp_then_hold", "switch_time": 0.1},
        )
    ],
    *[
        pytest.param(("disturbance", "terms"), [term], f"disturbance.terms: missing keys ['{missing}']",
                     id=f"{term['type']}_missing_key")
        for term, missing in (
            ({"type": "constant"}, "value"),
            ({"type": "harmonic", "amplitude": 1.0, "phase": 0.0}, "frequency"),
            ({"type": "polynomial"}, "coefficients"),
            ({"type": "exp_then_hold"}, "switch_time"),
        )
    ],
    pytest.param(("EDO_SEED",), str(2**63), "EDO_SEED does not fit a 64-bit integer", id="edo_seed_range"),
    pytest.param(("EDO_SEED",), str(-(2**63) - 1), "EDO_SEED does not fit a 64-bit integer", id="edo_seed_below_range"),
    # int() reads each of these as 10; the seed is plain ASCII decimal
    *[
        pytest.param(("EDO_SEED",), raw, f"EDO_SEED is not a decimal integer: {raw!r}", id=f"edo_seed_{name}")
        for name, raw in (("underscore", "1_0"), ("spaces", " 10 "), ("arabic_indic_digits", "\u0661\u0660"))
    ],
    pytest.param((), None, "cannot read config", id="unreadable_config"),
]


LONG = "x" * 100_000

#: (text in fig1's config, its replacement, how the refusal starts): each
#: value is echoed shortened, in one line, however large it is
OUTSIZED_CONFIGS = [
    pytest.param('"a": [', '"a": [' + "[" * 900 + "]" * 900 + ", ", "plant.a: expected a number, got [[[",
                 id="deep_array"),
    pytest.param('"a": [', f'"a": ["{LONG}", ', "plant.a: expected a number, got 'xxx", id="long_string"),
    pytest.param('"harmonic"', "[" + ", ".join(["1"] * 100_000) + "]",
                 "disturbance.terms: unknown disturbance term type [1, 1", id="long_type_list"),
    pytest.param('"a": [', f'"{LONG}": 1, "a": [', "plant: unknown keys ['xxx", id="long_key"),
    pytest.param('"a": [', f'"{LONG}": 1, "{LONG}": 1, "a": [', "repeated key 'xxx", id="long_repeated_key"),
]


def assert_one_short_refusal(capsys, start, longest=201):
    err = capsys.readouterr().err
    assert err.startswith("config error: " + start), err[:300]
    assert err.endswith("\n") and err.count("\n") == 1 and len(err) <= longest, err[:300]


class TestConfigRefusals:
    @pytest.mark.parametrize("path, value, message", CONFIG_REFUSALS)
    def test_refusal_exits_2_naming_the_field(self, tmp_path, capsys, monkeypatch, path, value, message):
        if path == ("EDO_SEED",):
            monkeypatch.setenv("EDO_SEED", value)
            cfg_path = write_config(tmp_path, base_config())
        elif path == ():
            cfg_path = str(tmp_path)
        else:
            cfg_path = write_config(tmp_path, edited_config(path, value))
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and "Traceback" not in err
        assert not out.exists()

    def test_repeated_key_exits_2_naming_it(self, tmp_path, capsys):
        # json.load alone keeps the last of repeated keys and would run this at dt = 1e-4
        text = json.dumps(cli.SCENARIOS["fig4"]).replace('"dt": 0.0001', '"dt": 0.5, "dt": 0.0001')
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: repeated key 'dt'\n"
        assert not out.exists()

    @pytest.mark.parametrize("old, new, start", OUTSIZED_CONFIGS)
    def test_outsized_value_is_echoed_short(self, tmp_path, capsys, old, new, start):
        text = json.dumps(cli.SCENARIOS["fig1"])
        assert old in text
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text.replace(old, new, 1))
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert_one_short_refusal(capsys, start)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, seed, start",
        [
            (["scenario", LONG], None, "unknown scenario 'xxx"),
            (["probe", "--omega", "1," * 50_000 + "x"], None, "--omega expects a comma-separated number list, got '1,"),
            (["scenario", "fig1"], "9" * 100_000 + "x", "EDO_SEED is not a decimal integer: '999"),
        ],
        ids=["scenario_name", "omega_list", "edo_seed"],
    )
    def test_outsized_argument_is_echoed_short(self, tmp_path, capsys, monkeypatch, argv, seed, start):
        if seed is not None:
            monkeypatch.setenv("EDO_SEED", seed)
        out_dir = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out_dir)] if argv[0] == "scenario" else argv) == 2
        assert_one_short_refusal(capsys, start)
        assert not out_dir.exists()  # a refused scenario makes no directory

    # paths are cut at 200 characters: a name of 5000 overruns NAME_MAX, one of 100 000 PATH_MAX
    @pytest.mark.parametrize(
        "argv, start",
        [
            (["simulate", "--config", "p" * 100_000, "--out", "run.csv"], "cannot read config ppp"),
            (["scenario", "fig1", "--out", "q" * 5000], "cannot write qqq"),
        ],
        ids=["config_path", "out_path"],
    )
    def test_outsized_path_is_echoed_short(self, tmp_path, capsys, monkeypatch, argv, start):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        assert_one_short_refusal(capsys, start, longest=399)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "path, value",
        [
            (("disturbance", "terms"), [{"type": "polynomial", "coefficients": [1.0, -2.0, 0.5]}]),
            (("disturbance", "terms"), [{"type": "exp_then_hold", "switch_time": 0.1}]),
            (("initial", "observer0"), [0.1, -0.2, 3.0]),
            # a negative seed draws the stream of its residue mod 2^64
            (("sim", "seed"), -1),
            (("sim", "seed"), -(2**63)),
        ],
        ids=["polynomial", "exp_then_hold", "observer0_list", "seed_minus_one", "seed_int64_min"],
    )
    def test_accepted_entries_run(self, tmp_path, path, value):
        cfg_path = write_config(tmp_path, edited_config(path, value))
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 201  # header + floor(t_end/dt)+1 rows
        assert all(math.isfinite(float(v)) for v in lines[-1].split(","))


class TestOutputFiles:
    """Outputs are rewritten in place: never truncated to empty first."""

    def run_simulate(self, tmp_path, out, svg=None, t_end=0.2):
        cfg = base_config()
        cfg["sim"]["t_end"] = t_end
        argv = ["simulate", "--config", write_config(tmp_path, cfg, f"cfg_{t_end}.json"), "--out", str(out)]
        if svg is not None:
            argv += ["--svg", str(svg)]
        assert cli.main(argv) == 0

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("simulate_out", "missing/x.csv"),
            ("simulate_out", "."),
            ("simulate_svg", "missing/x.svg"),
            ("design_out", "missing/d.json"),
            ("scenario_out", "a_file"),
        ],
        ids=["simulate_missing_dir", "simulate_out_is_dir", "svg_missing_dir", "design_missing_dir", "scenario_out_is_file"],
    )
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, command, bad):
        bad = os.path.join(str(tmp_path), bad)
        cfg_path = write_config(tmp_path, base_config())
        (tmp_path / "a_file").write_text("keep")
        (tmp_path / "r.csv").write_text("keep csv")
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args))
        argv = {
            "simulate_out": ["simulate", "--config", cfg_path, "--out", bad],
            "simulate_svg": ["simulate", "--config", cfg_path, "--out", str(tmp_path / "r.csv"), "--svg", bad],
            "design_out": ["design", "--config", cfg_path, "--out", bad],
            "scenario_out": ["scenario", "fig1", "--out", bad],
        }[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {bad}: ") and "Traceback" not in err
        assert (tmp_path / "a_file").read_text() == "keep"
        assert (tmp_path / "r.csv").read_text() == "keep csv"
        assert calls == []

    @pytest.mark.parametrize(
        "edit, rc",
        [
            (lambda cfg: cfg["gains"].update(k=[1.0, 2.0]), 3),
            (lambda cfg: cfg["sim"].update(t_end=1e14, dt=1e-4), 2),
            (lambda cfg: cfg["initial"].update(x0=[0.0, 1e13]), 4),
        ],
        ids=["synthesis_error", "grid_too_large", "divergence"],
    )
    def test_failed_run_leaves_outputs_as_they_were(self, tmp_path, capsys, edit, rc):
        cfg = base_config()
        edit(cfg)
        out, svg = tmp_path / "run.csv", tmp_path / "run.svg"
        out.write_text("an earlier run\n")
        argv = ["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out), "--svg", str(svg)]
        assert cli.main(argv) == rc
        assert "Traceback" not in capsys.readouterr().err
        assert out.read_text() == "an earlier run\n"
        assert not svg.exists()

    def test_shorter_rewrite_matches_fresh_file(self, tmp_path):
        out, svg = tmp_path / "run.csv", tmp_path / "run.svg"
        self.run_simulate(tmp_path, out, svg, t_end=0.2)
        long_size = out.stat().st_size
        self.run_simulate(tmp_path, out, svg, t_end=0.1)
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        self.run_simulate(tmp_path, fresh / "run.csv", fresh / "run.svg", t_end=0.1)
        assert out.stat().st_size < long_size
        assert out.read_bytes() == (fresh / "run.csv").read_bytes()
        assert svg.read_bytes() == (fresh / "run.svg").read_bytes()

    def test_rewrite_keeps_mode_inode_and_links(self, tmp_path):
        out, link = tmp_path / "run.csv", tmp_path / "hard.csv"
        self.run_simulate(tmp_path, out)
        out.chmod(0o600)
        os.link(out, link)
        inode = out.stat().st_ino
        self.run_simulate(tmp_path, out, t_end=0.1)
        assert out.stat().st_mode & 0o777 == 0o600
        assert out.stat().st_ino == inode
        assert link.read_bytes() == out.read_bytes()
        assert len(out.read_text().splitlines()) == 1 + 101

    def test_symlink_output_writes_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("stale\n" * 10000)
        link.symlink_to(target)
        self.run_simulate(tmp_path, link)
        self.run_simulate(tmp_path, tmp_path / "fresh.csv")
        assert link.is_symlink()
        assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    @pytest.mark.parametrize("rc", [3, 0], ids=["failing_config", "good_config"])
    def test_dangling_symlink_output(self, tmp_path, capsys, rc):
        target, link = tmp_path / "tgt.csv", tmp_path / "dl.csv"
        link.symlink_to(target)
        cfg = base_config()
        if rc:
            cfg["gains"]["k"] = [1.0, 2.0]
        argv = ["simulate", "--config", write_config(tmp_path, cfg), "--out", str(link)]
        assert cli.main(argv) == rc
        assert "Traceback" not in capsys.readouterr().err
        assert link.is_symlink() and os.readlink(link) == str(target)
        if rc:
            assert not target.exists()
        else:
            assert len(target.read_text().splitlines()) == 1 + 201

    def test_dev_null_output_exits_0(self, tmp_path):
        self.run_simulate(tmp_path, os.devnull, os.devnull)

    @pytest.mark.parametrize("kind", ["same_path", "hard_link", "symlink", "new_same_path"])
    def test_one_file_for_two_outputs_exits_2(self, tmp_path, capsys, monkeypatch, kind):
        out = tmp_path / "x.out"
        other = {"hard_link": tmp_path / "hard.out", "symlink": tmp_path / "link.out"}.get(kind, out)
        if kind != "new_same_path":
            out.write_text("an earlier run\n")
        if kind == "hard_link":
            os.link(out, other)
        if kind == "symlink":
            other.symlink_to(out)
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args))
        argv = ["simulate", "--config", write_config(tmp_path, base_config()), "--out", str(out), "--svg", str(other)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot write {out} and {other}: the same file\n"
        assert calls == []
        if kind == "new_same_path":
            assert not out.exists()
        else:
            assert out.read_text() == "an earlier run\n"

    def test_no_output_is_opened_truncating(self, tmp_path, monkeypatch):
        cfg = json.loads(json.dumps(cli.SCENARIOS["fig1"]))
        cfg["sim"]["t_end"] = 0.05
        monkeypatch.setitem(cli.SCENARIOS, "fig1", cfg)
        out_dir = tmp_path / "D"
        calls = []
        real_os_open, real_open = os.open, builtins.open

        def spy_os_open(path, flags, *args, **kwargs):
            calls.append((path, flags, None))
            return real_os_open(path, flags, *args, **kwargs)

        def spy_open(file, mode="r", *args, **kwargs):
            calls.append((file, None, mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy_os_open)
        monkeypatch.setattr(builtins, "open", spy_open)
        for _ in range(2):
            assert cli.main(["scenario", "fig1", "--out", str(out_dir)]) == 0
        monkeypatch.undo()

        outputs = [
            (os.fspath(path), flags, mode)
            for path, flags, mode in calls
            if not isinstance(path, int) and os.path.dirname(os.fspath(path)) == str(out_dir)
        ]
        assert sorted(path for path, _, _ in outputs) == sorted(
            2 * [str(out_dir / name) for name in ("fig1.csv", "fig1.svg", "fig1_metrics.json")]
        )
        for path, flags, mode in outputs:
            assert mode is None, f"{path} opened with open(..., {mode!r})"
            assert not flags & os.O_TRUNC, f"{path} opened with O_TRUNC"


def _polyline_reference(ts, vs, x0, y0, w, h, t_span, v_span):
    """The per-point loop the batched polylines replaced; they must format alike."""
    stride = max(1, int(np.ceil(ts.size / 1200)))
    idx = list(range(0, ts.size, stride))
    if idx[-1] != ts.size - 1:
        idx.append(ts.size - 1)
    t_lo, t_hi = t_span
    v_lo, v_hi = v_span
    s = 1.0 if math.isfinite(v_hi - v_lo) else 0.5  # a span wider than the doubles is halved
    dv = s * v_hi - s * v_lo or 1.0
    dt_ = t_hi - t_lo or 1.0
    pts = []
    for i in idx:
        px = x0 + (ts[i] - t_lo) / dt_ * w
        py = y0 + h - (s * vs[i] - s * v_lo) / dv * h
        pts.append(f"{px:.2f},{py:.2f}")
    return " ".join(pts)


def svg_of(tr):
    buf = io.StringIO()
    cli.write_svg(buf, tr)
    return buf.getvalue()


def reference_polylines(tr):
    """``_polyline_reference`` of each series ``write_svg`` draws, on its panel."""
    panels = [[*tr.x.T, *tr.x_hat.T], [tr.d - tr.d_hat], [tr.u]]
    t_span = (float(tr.times[0]), float(tr.times[-1]))
    want = []
    for pi, series in enumerate(panels):
        lo = min(float(np.min(vs)) for vs in series)
        hi = max(float(np.max(vs)) for vs in series)
        if lo == hi:
            lo, hi = lo - 1.0, hi + 1.0
        want += [_polyline_reference(tr.times, vs, 45 + 420 * pi, 30, 330, 225, t_span, (lo, hi)) for vs in series]
    return want


def trajectory_of(ts, vs, d=None, d_hat=None):
    """Every series drawn from ``vs``: a constant ``vs`` makes every panel flat."""
    return Trajectory(times=ts, x=np.column_stack([vs, vs[::-1]]), x_hat=np.column_stack([vs[::-1], vs]),
                      v_hat=np.zeros((ts.size, 1)), d=2.0 * vs if d is None else d,
                      d_hat=vs if d_hat is None else d_hat, u=vs[::-1], y=vs)


class TestPolyline:
    @pytest.mark.parametrize(
        "size, constant, zero_span",
        [
            (50, False, False),  # below the limit: every point
            (4800, False, False),  # a multiple of the stride 4: the last point is appended
            (4801, False, False),  # one past a multiple: the last point is on the stride
            (100001, False, False),
            (3000, True, False),  # lo == hi
            (3000, False, True),  # zero time span
        ],
        ids=["below_limit", "stride_multiple", "one_past_multiple", "full_preset", "constant", "zero_time_span"],
    )
    def test_matches_per_point_loop(self, size, constant, zero_span):
        # every polyline of the figure, on its panel's geometry and range
        rng = np.random.default_rng(size)
        ts = np.full(size, 2.5) if zero_span else np.arange(size) * 1e-4
        vs = np.full(size, -3.25) if constant else np.cumsum(rng.standard_normal(size)) * 1e-3
        tr = trajectory_of(ts, vs)
        got = re.findall(r'<polyline points="([^"]*)"', svg_of(tr))
        assert got == reference_polylines(tr)

    @pytest.mark.parametrize(
        "case", ["huge_span", "overflowing_span", "subnormal", "constant_1e17", "constant_1", "zero_time_span"]
    )
    @pytest.mark.parametrize("size", [1, 1200, 1201, 2401])
    def test_every_point_lies_in_the_canvas(self, case, size):
        # the invariant polylines relies on: whenever the values are finite
        # and the times ascend, x is in [45, 1215] and y in [30, 255]
        rng = np.random.default_rng(size)
        ts = np.full(size, 2.5) if case == "zero_time_span" else np.arange(size) * 0.01
        d = d_hat = None
        if case == "huge_span":  # hi - lo = 1.6e308, still finite
            vs = rng.uniform(-8e307, 8e307, size)
            vs[[0, -1]] = -8e307, 8e307
            d, d_hat = vs, np.zeros(size)
        elif case == "overflowing_span":  # d - dhat spans +-1e308: hi - lo is inf and the panel is halved
            vs = np.sin(ts)
            d = np.where(np.arange(size) % 3 == 0, 5e307, -5e307)
            d_hat = -d
        elif case == "subnormal":
            vs = rng.integers(-1000, 1000, size) * 5e-324
        elif case.startswith("constant"):  # lo == hi; at 1e17, lo - 1 == hi + 1 and dv falls back to 1
            vs = np.full(size, 1e17 if case == "constant_1e17" else 1.0)
        else:
            vs = np.cumsum(rng.standard_normal(size))
        tr = trajectory_of(ts, vs, d=d, d_hat=d_hat)
        got = re.findall(r'<polyline points="([^"]*)"', svg_of(tr))
        assert got == reference_polylines(tr)
        points = np.array([point.split(",") for line in got for point in line.split(" ")], dtype=float)
        assert ((points >= [45.0, 30.0]) & (points <= [1215.0, 255.0])).all()

    @pytest.mark.parametrize(
        "ts, vs, t_span",
        [
            (np.arange(-40, 41) / 8, np.arange(81) / 8, (0.0, 1.0)),
            (np.array([2.5]), np.array([-3.25]), (2.5, 2.5)),
        ],
        ids=["binary_ties", "one_point"],
    )
    def test_matches_per_point_loop_on_exact_coordinates(self, ts, vs, t_span):
        # unit widths and spans from the canvas origin leave x = 45 + t and
        # y = 31 - v exact: ties at x.125, x.375, x.625 and x.875 round half to even
        x0, y0, w, h, (t_lo, t_hi), (v_lo, v_hi) = 45.0, 30.0, 1.0, 1.0, t_span, (0.0, 1.0)
        px = x0 + (ts - t_lo) / (t_hi - t_lo or 1.0) * w
        py = y0 + h - (vs - v_lo) / (v_hi - v_lo) * h
        assert shortest.polylines(px, py[None]) == [_polyline_reference(ts, vs, x0, y0, w, h, t_span, (v_lo, v_hi))]

    def test_panel_geometry(self):
        # three 330 x 225 panels 420 apart: title above, time span and labels below, range top right
        tr = trajectory_of(np.linspace(0.0, 2.0, 5), np.array([0.0, 1.0, -1.0, 0.5, 2.0]))
        svg = svg_of(tr)
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="1260" height="300" ')
        titles = ["states and estimates", "disturbance estimation error", "control"]
        labels = [["x1", "x2", "xhat1", "xhat2"], ["d-dhat"], ["u"]]
        for x0, title, names in zip((45, 465, 885), titles, labels):
            assert f'<rect x="{x0}" y="30" width="330" height="225" fill="none" stroke="#444"/>' in svg
            assert f'<text x="{x0}" y="18">{title}</text>' in svg
            assert f'<text x="{x0}" y="269">t in [0, 2]</text>' in svg
            assert f'<text x="{x0 + 330 - 120}" y="18">range [' in svg
            for si, name in enumerate(names):
                assert re.search(f'<text x="{x0 + 6 + 70 * si}" y="283" fill="#[0-9a-f]{{6}}">{name}</text>', svg)
        assert svg.count("<rect ") == 3 and svg.count("<polyline ") == 6


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

    # exp(A_w t) overflows at 1e12; 1/w, in the counterexample, at 1e-310
    @pytest.mark.parametrize("omega", ["1e12", "1e-310"])
    def test_probe_overflow_exits_3_without_warnings(self, capsys, omega):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["probe", "--omega", omega]) == 3
        err = capsys.readouterr().err
        assert err.startswith("synthesis error (Overflow)") and "Warning" not in err

    def test_probe_rejects_garbage(self, capsys):
        # float() reads "1_0" and the Arabic-Indic digits as 10; the intake reads plain ASCII numbers only
        for omega in ("ten", "1_0", "\u0661\u0660", "10,\u00a010"):
            assert cli.main(["probe", "--omega", omega]) == 2, omega
            assert_one_short_refusal(capsys, f"--omega expects a comma-separated number list, got {omega!r}")

    @pytest.mark.parametrize("omega", [",", "", " , "])
    def test_probe_without_bandwidth_says_so(self, capsys, omega):
        assert cli.main(["probe", "--omega", omega]) == 2
        assert capsys.readouterr().err == "config error: --omega: no bandwidth given\n"

    @pytest.mark.parametrize("omega", ["10", "1e3", ".5", " 10", "+10", "10, 100"])
    def test_probe_reads_plain_numbers(self, capsys, omega):
        assert cli.main(["probe", "--omega", omega]) == 0
        capsys.readouterr()

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

    def test_exit_code_reaches_the_interpreter(self, monkeypatch, capsys):
        # the module runs in process here, so a refusal's exit code is seen
        # on the SystemExit that __main__ raises
        monkeypatch.setattr(sys, "argv", ["edo", "probe", "--omega", "0"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("edo", run_name="__main__")
        assert exc.value.code == 2
        assert "--omega values must be positive" in capsys.readouterr().err
