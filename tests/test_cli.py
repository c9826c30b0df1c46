import builtins
import json
import math
import os
import subprocess
import sys
import warnings
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
    pytest.param(("gains", "omega_o"), 0.0, "gains: bandwidths must be positive", id="omega_o_zero"),
    pytest.param(("gains", "omega_c"), -1.0, "gains: bandwidths must be positive", id="omega_c_negative"),
    pytest.param(("gains", "k"), [-1.0], "gains.k must match the plant order", id="k_length"),
    pytest.param(("gains", "p"), [-1.0, -2.0], "gains.p must have one entry more", id="p_length"),
    pytest.param(("disturbance", "terms"), [], "disturbance.terms: expected a non-empty array", id="empty_terms"),
    pytest.param(("sim", "seed"), 7.0, "sim.seed must be an integer", id="seed_float"),
    pytest.param(("sim", "seed"), True, "sim.seed must be an integer", id="seed_bool"),
    pytest.param(("sim", "output_ramp"), 1, "sim.output_ramp must be a boolean", id="ramp_not_bool"),
    pytest.param(("sim", "dt"), 1.0, "sim: need 0 < dt <= t_end", id="dt_beyond_t_end"),
    pytest.param(("sim", "integrator"), "midpoint", "sim: integrator must be one of", id="unknown_integrator"),
    pytest.param(("sim", "noise_std"), -0.1, "sim: noise_std must be nonnegative", id="negative_noise"),
    pytest.param(("initial", "x0"), [0.0], "initial.x0 must match the plant order", id="x0_size"),
    pytest.param(("initial", "observer0"), [0.0, 0.0], "initial.observer0 must match the observer dimension",
                 id="observer0_size"),
    pytest.param(("EDO_SEED",), str(2**63), "EDO_SEED does not fit a 64-bit integer", id="edo_seed_range"),
    pytest.param((), None, "cannot read config", id="unreadable_config"),
]


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

    @pytest.mark.parametrize(
        "path, value",
        [
            (("disturbance", "terms"), [{"type": "polynomial", "coefficients": [1.0, -2.0, 0.5]}]),
            (("disturbance", "terms"), [{"type": "exp_then_hold", "switch_time": 0.1}]),
            (("initial", "observer0"), [0.1, -0.2, 3.0]),
        ],
        ids=["polynomial", "exp_then_hold", "observer0_list"],
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

    def test_dev_null_output_exits_0(self, tmp_path):
        self.run_simulate(tmp_path, os.devnull, os.devnull)

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


def _polyline_reference(ts, vs, x0, y0, w, h, t_span, v_span, limit=1200):
    """The per-point loop ``cli._polyline`` replaced; it must format alike."""
    stride = max(1, int(np.ceil(ts.size / limit)))
    idx = list(range(0, ts.size, stride))
    if idx[-1] != ts.size - 1:
        idx.append(ts.size - 1)
    t_lo, t_hi = t_span
    v_lo, v_hi = v_span
    dv = v_hi - v_lo or 1.0
    dt_ = t_hi - t_lo or 1.0
    pts = []
    for i in idx:
        px = x0 + (ts[i] - t_lo) / dt_ * w
        py = y0 + h - (vs[i] - v_lo) / dv * h
        pts.append(f"{px:.2f},{py:.2f}")
    return " ".join(pts)


class TestPolyline:
    @pytest.mark.parametrize(
        "size, limit, constant, zero_span",
        [
            (50, 1200, False, False),  # below the limit: every point
            (4800, 1200, False, False),  # a multiple of the stride 4: the last point is appended
            (4801, 1200, False, False),  # one past a multiple: the last point is on the stride
            (100001, 1200, False, False),
            (3000, 1200, True, False),  # lo == hi
            (3000, 1200, False, True),  # zero time span
        ],
        ids=["below_limit", "stride_multiple", "one_past_multiple", "full_preset", "constant", "zero_time_span"],
    )
    def test_matches_per_point_loop(self, size, limit, constant, zero_span):
        rng = np.random.default_rng(size)
        ts = np.full(size, 2.5) if zero_span else np.arange(size) * 1e-4
        vs = np.full(size, -3.25) if constant else np.cumsum(rng.standard_normal(size)) * 1e-3
        lo, hi = float(np.min(vs)), float(np.max(vs))
        args = (ts, vs, 45, 30, 330, 225, (float(ts[0]), float(ts[-1])), (lo, hi))
        assert cli._polyline(*args, limit=limit) == _polyline_reference(*args, limit=limit)
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
