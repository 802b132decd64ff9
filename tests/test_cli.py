"""Config parsing, CLI exit codes, artifact determinism."""

import dataclasses
import json

import numpy as np
import pytest

from qpassage import protocols
from qpassage.cli import main
from qpassage.config import ConfigError, parse_config_text

BELL_CFG = """\
protocol = bell
duration = 1.0
grid = {grid}
kappa_T = {kappa}
out = {out}
"""

GHZ_CFG = """\
protocol = ghz
qubits = 3
duration = 1.0
grid = {grid}
kappa_T = {kappa}
out = {out}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = parse_config_text("protocol = bell\nduration = 1.0\n")
        assert cfg.protocol == "bell"
        assert cfg.qubits == 2
        assert cfg.kappa_T == (0.0,)
        assert cfg.mode == "effective"

    def test_missing_duration_is_line_anchored(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("protocol = bell\n", path="bad.cfg")
        assert "bad.cfg:1" in str(err.value)
        assert "duration" in str(err.value)

    def test_unknown_key_reports_its_line(self):
        text = "protocol = bell\nduration = 1.0\nmystery = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, path="bad.cfg")
        assert "bad.cfg:3" in str(err.value)

    def test_bad_value_reports_its_line(self):
        text = "protocol = bell\nduration = soon\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, path="bad.cfg")
        assert "bad.cfg:2" in str(err.value)

    def test_rotating_frame_requires_scale(self):
        text = "protocol = bell\nduration = 1.0\nmode = rotating-frame\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert "omega_T" in str(err.value)

    def test_negative_kappa_rejected(self):
        text = "protocol = bell\nduration = 1.0\nkappa_T = -0.1\n"
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_schedule_override_parses(self):
        text = ("protocol = bell\nduration = 1.0\n[schedules]\n"
                "alpha = constant: value=3.141592653589793\n"
                "phi = cosine-ramp: amplitude=1.5707963267948966, offset=0.0\n")
        cfg = parse_config_text(text)
        assert cfg.schedule_overrides["alpha"].value == pytest.approx(np.pi)
        assert cfg.schedule_overrides["phi"].kind == "cosine-ramp"

    def test_bad_override_is_line_anchored(self):
        text = "protocol = bell\nduration = 1.0\n[schedules]\nphi = spline: k=1\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, path="bad.cfg")
        assert "bad.cfg:4" in str(err.value)

    @pytest.mark.parametrize("key", ["seed", "workers"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, key):
        cfg = write_cfg(tmp_path, f"protocol = bell\nduration = 1.0\n{key} = 1\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert f"run.cfg:3: unknown key {key!r}" in err

    @pytest.mark.parametrize("line, key", [
        ("kappa_T = 0.0, nan", "kappa_T"),
        ("kappa_T = inf", "kappa_T"),
        ("omega_T = nan", "omega_T"),
        ("j_over_omega = inf", "j_over_omega"),
        ("duration = nan", "duration"),
    ])
    def test_non_finite_numbers_are_line_anchored(self, line, key):
        text = f"protocol = bell\nmode = rotating-frame\nomega_T = 2900\nduration = 1.0\n"
        text = "\n".join(ln for ln in text.splitlines() if not ln.startswith(key))
        with pytest.raises(ConfigError) as err:
            parse_config_text(text + f"\n{line}\n", path="bad.cfg")
        line_no = len(text.splitlines()) + 1
        assert f"bad.cfg:{line_no}: bad value for {key!r}" in str(err.value)
        assert "is not a finite number" in str(err.value)

    @pytest.mark.parametrize("override", ["alpha = constant: value=nan",
                                          "phi = cosine-ramp: amplitude=-inf",
                                          "phi = linear-ramp: offset=0.0, slope=nan"])
    def test_non_finite_schedule_override_is_line_anchored(self, tmp_path, capsys, override):
        cfg = write_cfg(tmp_path, f"protocol = bell\nduration = 1.0\n[schedules]\n{override}\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "run.cfg:4: bad schedule override" in err[0]
        assert "is not a finite number" in err[0]

    def test_unknown_section_rejected(self):
        text = "protocol = bell\nduration = 1.0\n[extras]\nx = 1\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert "[extras]" in str(err.value)


class TestRunCommand:
    def test_closed_bell_run_exits_zero_with_unit_fidelity(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=500, kappa="0.0", out=out))
        assert main(["run", cfg]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["runs"]) == 1
        assert abs(manifest["runs"][0]["final_fidelity"] - 1.0) <= 1e-5
        assert manifest["runs"][0]["ok"] is True
        assert set(manifest) == {"config", "runs", "version", "duration_seconds"}

    def test_ghz_with_two_noise_values_yields_two_runs(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, GHZ_CFG.format(grid=400, kappa="0.0, 0.0435", out=out))
        assert main(["run", cfg]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["runs"]) == 2
        kappas = [r["kappa_T"] for r in manifest["runs"]]
        assert kappas == [0.0, 0.0435]
        assert (out / "ghz-00.csv").exists() and (out / "ghz-01.csv").exists()

    def test_missing_duration_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "protocol = bell\nout = x\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert ":1:" in err and "duration" in err

    def test_identical_config_gives_byte_identical_csv(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.01", out="unused"))
        assert main(["run", cfg, "--out", str(out_a)]) == 0
        assert main(["run", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "bell-00.csv").read_bytes() == (out_b / "bell-00.csv").read_bytes()

    def test_csv_shape_and_header(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=250, kappa="0.0", out=out))
        main(["run", cfg])
        lines = (out / "bell-00.csv").read_text().splitlines()
        assert lines[0] == "t,P_ee,P_eg,P_ge,P_gg,F,residual"
        assert len(lines) == 1 + 2 * 250 + 1  # header + two steps sharing a boundary node
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    def test_bell_reverse_protocol(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path,
                        f"protocol = bell-reverse\nduration = 1.0\ngrid = 300\nout = {out}\n")
        assert main(["run", cfg]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert abs(manifest["runs"][0]["final_fidelity"] - 1.0) <= 1e-6

    def test_benign_schedule_override_passes(self, tmp_path):
        out = tmp_path / "out"
        text = (BELL_CFG.format(grid=300, kappa="0.0", out=out)
                + "[schedules]\nalpha = constant: value=3.141592653589793\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg]) == 0

    def test_transfer_breaking_override_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = (BELL_CFG.format(grid=300, kappa="0.0", out=out)
                + "[schedules]\ntheta_0 = constant: value=0.3\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg]) == 2
        assert "target" in capsys.readouterr().err

    def test_coarse_grid_diagnostic_failure_exits_one(self, tmp_path, capsys):
        # an absurd decay rate on a tiny grid trips the step-size guard
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=15, kappa="30.0", out=out))
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert "error: run failed at kappa_T=30: step 'split'" in err

    @pytest.mark.parametrize("grid", ["3", "0", "-5"])
    def test_grid_flag_obeys_the_config_rule(self, tmp_path, capsys, grid):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.0", out=out))
        assert main(["run", cfg, "--grid", grid]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --grid: grid must be at least 10 steps"]
        assert not out.exists()


class TestSweepCommand:
    def test_kappa_sweep_is_monotone_and_matches_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=400, kappa="0.0725", out=out))
        assert main(["run", cfg]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        single = manifest["runs"][0]["final_fidelity"]

        assert main(["sweep", cfg, "--param", "kappa_T",
                     "--values", "0.0725", "--out", str(out)]) == 0
        row = (out / "sweep-kappa_T.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(single, abs=1e-12)

    def test_unknown_parameter_exits_two(self, tmp_path):
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.0", out=tmp_path / "o"))
        assert main(["sweep", cfg, "--param", "rabi", "--values", "1"]) == 2

    @pytest.mark.parametrize("param, values, reason", [
        ("omega_T", "2900,5800", "does not enter effective mode"),
        ("kappa_T", "0.0,-0.1", "non-negative"),
        ("grid", "500,5", "at least 10"),
    ])
    def test_bad_sweep_values_exit_two(self, tmp_path, capsys, param, values, reason):
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.0", out=tmp_path / "o"))
        assert main(["sweep", cfg, "--param", param, "--values", values]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and reason in err[0]

    @pytest.mark.parametrize("param, values", [
        ("kappa_T", "0.0, nan"), ("grid", "nan"), ("grid", "inf"), ("omega_T", "nan"),
        ("omega_T", "2900,-inf"),
    ])
    def test_non_finite_sweep_values_exit_two(self, tmp_path, capsys, param, values):
        text = BELL_CFG.format(grid=300, kappa="0.0", out=tmp_path / "o")
        cfg = write_cfg(tmp_path, text + "mode = rotating-frame\nomega_T = 2900\n")
        assert main(["sweep", cfg, "--param", param, "--values", values]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad --values list")
        assert "is not a finite number" in err[0] and captured.out == ""

    def test_plan_error_exits_two(self, tmp_path, capsys):
        text = (BELL_CFG.format(grid=300, kappa="0.0", out=tmp_path / "o")
                + "[schedules]\ntheta_0 = constant: value=0.3\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", cfg, "--param", "kappa_T", "--values", "0.0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "kappa_T=0" in err[0] and "target" in err[0]

    def test_propagation_failure_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=10, kappa="0.5", out=tmp_path / "o"))
        assert main(["sweep", cfg, "--param", "kappa_T", "--values", "3.0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: run failed at kappa_T=3: step 'split'")

    def test_diagnostic_failure_exits_one_as_in_run(self, tmp_path, capsys, monkeypatch):
        # a residual tolerance below round-off flags every run
        monkeypatch.setattr(protocols, "TOL",
                            dataclasses.replace(protocols.TOL, passage_residual=1e-30))
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=100, kappa="0.0", out=out))
        assert main(["run", cfg]) == 1
        assert main(["sweep", cfg, "--param", "kappa_T", "--values", "0.0"]) == 1
        assert "[BAD] kappa_T=0 " in capsys.readouterr().out

    @pytest.mark.parametrize("grid", ["3", "0"])
    def test_grid_flag_obeys_the_config_rule(self, tmp_path, capsys, grid):
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.0", out=tmp_path / "o"))
        assert main(["sweep", cfg, "--param", "kappa_T", "--values", "0.0",
                     "--grid", grid]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --grid: grid must be at least 10 steps"]

    def test_grid_sweep_converges(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=400, kappa="0.0725", out=out))
        assert main(["sweep", cfg, "--param", "grid",
                     "--values", "500,1000,2000,4000", "--out", str(out)]) == 0
        rows = (out / "sweep-grid.csv").read_text().splitlines()[1:]
        fids = [float(r.split(",")[1]) for r in rows]
        assert abs(fids[-1] - fids[-2]) <= 1e-5


class TestVerifyCommand:
    def test_default_suites_pass(self):
        assert main(["verify", "--seed", "3", "--max-m", "2", "--max-n", "3",
                     "--instances", "1"]) == 0

    def test_injected_detuning_fails_the_residual_suite(self, capsys):
        assert main(["verify", "--seed", "3", "--max-m", "1", "--max-n", "2",
                     "--instances", "1", "--inject-detuning", "0.1"]) == 1
        captured = capsys.readouterr()
        assert "passage-residual" in captured.err

    @pytest.mark.parametrize("instances", ["0", "-2"])
    def test_no_instances_exits_two(self, capsys, instances):
        assert main(["verify", "--seed", "1", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: --instances must be at least 1, got {instances}"]
        assert "pass" not in captured.out

    def test_negative_seed_exits_two(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: --seed must be a non-negative integer, got -1"]
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_injected_detuning_exits_two(self, capsys, value):
        assert main(["verify", "--max-m", "1", "--max-n", "2", "--instances", "1",
                     f"--inject-detuning={value}"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --inject-detuning must be finite")
        assert captured.out == ""

    def test_empty_size_list_trivially_passes(self, capsys):
        assert main(["verify", "--seed", "1", "--max-m", "0", "--max-n", "1"]) == 0
        assert "trivial" in capsys.readouterr().out
