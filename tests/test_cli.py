"""Config parsing, CLI exit codes, artifact determinism."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from qpassage import cli, protocols
from qpassage.cli import main
from qpassage.config import MAX_GRID, ConfigError, RunConfig, parse_config_text

from helpers import fail_trace_gate

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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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

    def test_override_duration_is_refused_at_its_line(self, tmp_path, capsys):
        # each override is re-timed to the step it replaces, so a duration
        # would silently do nothing
        out = tmp_path / "out"
        text = (BELL_CFG.format(grid=100, kappa="0.0", out=out)
                + "[schedules]\nalpha = constant: value=3.141592653589793, duration=5\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: {cfg}:7: bad schedule override for 'alpha': ")
        assert "duration" in err[0] and not out.exists()

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfeprotocol = bell\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: cannot read config: ")

    def test_unknown_section_rejected(self):
        text = "protocol = bell\nduration = 1.0\n[extras]\nx = 1\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert "[extras]" in str(err.value)


NAN = float("nan")
VALID = {"protocol": "bell", "duration": 1.0, "qubits": 2}


class TestRunConfigRules:
    """RunConfig checks itself, so every way of building one obeys the rules."""

    @pytest.mark.parametrize("changes, key, message", [
        ({"protocol": "qft"}, "protocol", "unknown protocol 'qft'"),
        ({"duration": 0.0}, "duration", "duration must be positive"),
        ({"duration": NAN}, "duration", "duration must be positive"),
        ({"qubits": 3}, "qubits", "bell protocols run on exactly two qubits"),
        ({"protocol": "ghz", "qubits": 2}, "qubits", "the ghz protocol needs at least three"),
        ({"protocol": "ghz", "qubits": NAN}, "qubits", "the ghz protocol needs at least three"),
        ({"mode": "lab"}, "mode", "unknown mode 'lab'"),
        ({"kappa_T": (0.0, -0.1)}, "kappa_T", "kappa_T values must be non-negative"),
        ({"kappa_T": (NAN,)}, "kappa_T", "kappa_T values must be non-negative"),
        ({"mode": "rotating-frame"}, "mode", "rotating-frame mode requires omega_T"),
        ({"omega_T": 0.0}, "omega_T", "omega_T must be positive"),
        ({"omega_T": NAN}, "omega_T", "omega_T must be positive"),
        ({"grid": 10.5}, "grid", "grid must be a whole number of steps"),
        ({"grid": NAN}, "grid", "grid must be a whole number of steps"),
        ({"grid": 5}, "grid", "grid must be at least 10 steps"),
        ({"grid": 10 ** 400}, "grid", "grid must be below"),
        ({"grid": 1e300}, "grid", "grid must be below"),
        ({"boundary": "edge"}, "boundary", "unknown boundary 'edge'"),
        ({"j_over_omega": -1.0}, "j_over_omega", "j_over_omega must be finite and non-negative"),
        ({"j_over_omega": NAN}, "j_over_omega", "j_over_omega must be finite and non-negative"),
        ({"protocol": "ghz", "qubits": 30}, "qubits", "qubits must be at most 29: the d x d "),
        ({"protocol": "ghz", "qubits": 10 ** 400}, "qubits", "qubits must be at most 29"),
        ({"duration": 1e308}, "duration",
         "duration times the protocol's 2 steps must be finite: 2 x 1e+308 overflows"),
        ({"duration": 10 ** 400}, "duration", "duration times the protocol's 2 steps"),
        ({"protocol": "ghz", "qubits": 3, "duration": 6e307}, "duration",
         "duration times the protocol's 3 steps must be finite: 3 x 6e+307 overflows"),
    ])
    def test_construction_and_replace_apply_each_rule(self, changes, key, message):
        builders = (lambda: RunConfig(**{**VALID, **changes}),
                    lambda: dataclasses.replace(RunConfig(**VALID), **changes))
        for build in builders:
            with pytest.raises(ConfigError) as err:
                build()
            assert err.value.key == key
            assert err.value.message.startswith(message)
            assert str(err.value) == f"<config>: {err.value.message}"

    def test_whole_grids_are_stored_as_int(self):
        config = dataclasses.replace(RunConfig(**VALID), grid=500.0)
        assert config.grid == 500 and type(config.grid) is int
        # the largest grid whose nodes fit one float64 array
        assert RunConfig(**VALID, grid=MAX_GRID - 1).grid == MAX_GRID - 1

    @pytest.mark.parametrize("protocol, qubits, duration", [
        ("bell", 2, 6e307), ("bell-reverse", 2, 1.7e308), ("ghz", 3, 5.9e307)])
    def test_a_duration_whose_protocol_ends_at_a_finite_time_passes(self, protocol, qubits,
                                                                   duration):
        assert RunConfig(protocol, duration, qubits).duration == duration

    def test_at_reanchors_the_same_error(self):
        with pytest.raises(ConfigError) as err:
            RunConfig(**VALID, grid=5)
        moved = err.value.at("bell.cfg", 7)
        assert str(moved) == "bell.cfg:7: grid must be at least 10 steps"
        assert (moved.key, moved.path, moved.line) == ("grid", "bell.cfg", 7)
        assert str(err.value.at("--grid")) == "--grid: grid must be at least 10 steps"

    @pytest.mark.parametrize("text, line", [
        ("protocol = bell\nduration = 1.0\n\n# comment\ngrid = 5\n",
         "bad.cfg:5: grid must be at least 10 steps"),
        ("duration = 1.0\n# comment\nprotocol = qft\n",
         "bad.cfg:3: unknown protocol 'qft'; expected one of ('bell', 'bell-reverse', 'ghz')"),
        ("protocol = bell\nduration = 1.0\nj_over_omega = -1\n",
         "bad.cfg:3: j_over_omega must be finite and non-negative"),
    ])
    def test_a_file_rule_failure_names_the_key_line(self, text, line):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, path="bad.cfg")
        assert str(err.value) == line


class TestRunCommand:
    def test_closed_bell_run_exits_zero_with_unit_fidelity(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=500, kappa="0.0", out=out))
        assert main(["run", cfg]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["runs"]) == 1
        assert abs(manifest["runs"][0]["final_fidelity"] - 1.0) <= 1e-5
        assert manifest["runs"][0]["ok"] is True
        assert set(manifest) == {"config", "runs", "version"}
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"duration_seconds"} and timings["duration_seconds"] >= 0.0

    def test_ghz_with_two_noise_values_yields_two_runs(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, GHZ_CFG.format(grid=400, kappa="0.0, 0.0435", out=out))
        assert main(["run", cfg]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["runs"]) == 2
        kappas = [r["kappa_T"] for r in manifest["runs"]]
        assert kappas == [0.0, 0.0435]
        assert (out / "ghz-00.csv").exists() and (out / "ghz-01.csv").exists()

    @pytest.mark.parametrize("name, last_step", [("bell", "convert"), ("ghz3", "raise-3")])
    def test_final_fidelity_is_the_last_step_fidelity(self, tmp_path, name, last_step):
        # the manifest, the sweep table and the step records all read the
        # final fidelity off the step-fidelity series at the last node
        config = str(CONFIGS / f"{name}.cfg")
        assert main(["run", config, "--grid", "257", "--out", str(tmp_path)]) == 0
        runs = json.loads((tmp_path / "manifest.json").read_text())["runs"]
        for run in runs:
            assert run["final_fidelity"] == run["step_fidelities"][last_step]
        kappas = ",".join(repr(run["kappa_T"]) for run in runs)
        assert main(["sweep", config, "--param", "kappa_T", "--values", kappas,
                     "--grid", "257", "--out", str(tmp_path)]) == 0
        table = np.loadtxt(tmp_path / "sweep-kappa_T.csv", delimiter=",", skiprows=1)
        assert table[:, 1].tolist() == [run["final_fidelity"] for run in runs]

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
    def test_step_fidelities_are_the_csv_f_at_the_step_ends(self, tmp_path, config):
        assert main(["run", str(config), "--grid", "257", "--out", str(tmp_path)]) == 0
        for run in json.loads((tmp_path / "manifest.json").read_text())["runs"]:
            with open(tmp_path / run["csv"]) as fh:
                header = fh.readline().rstrip("\n").split(",")
                f = [float(line.split(",")[header.index("F")]) for line in fh]
            # the manifest sorts its keys; the steps run in this order
            order = ["split", "convert", "convert-back"] + [f"raise-{k}" for k in range(3, 8)]
            steps = [name for name in order if name in run["step_fidelities"]]
            assert len(steps) == len(run["step_fidelities"])
            ends = [f[257 * (k + 1)] for k in range(len(steps))]
            assert [run["step_fidelities"][name] for name in steps] == ends
            assert run["final_fidelity"] == f[-1]

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

    def test_identical_runs_write_byte_identical_manifests(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=200, kappa="0.0, 0.01", out="unused"))
        assert main(["run", cfg, "--out", str(out_a)]) == 0
        assert main(["run", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

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

    @pytest.mark.parametrize("symbol", ["beta", "phii"])
    def test_override_no_step_declares_exits_two(self, tmp_path, capsys, monkeypatch, symbol):
        monkeypatch.setattr(cli, "run_protocol_kappas", _must_not_run)
        out = tmp_path / "out"
        text = (BELL_CFG.format(grid=100, kappa="0.0", out=out)
                + f"[schedules]\n{symbol} = constant: value=1\n")
        cfg = write_cfg(tmp_path, text)
        for argv in (["run", cfg], ["sweep", cfg, "--param", "grid", "--values", "100"]):
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {cfg}: ")
            assert f"schedule override {symbol!r} matches no step" in err[0]
        assert not out.exists()

    def test_coarse_grid_diagnostic_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # the runs at rate 30 trip the propagator's trace gate
        fail_trace_gate(monkeypatch, 30.0)
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=15, kappa="30.0", out=out))
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert "error: run failed at kappa_T=30: step 'split'" in err
        # integrated together, only the large rate fails, and the line names it
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=15, kappa="0.0, 0.0145, 30.0", out=out))
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: run failed at kappa_T=30: step 'split': ")
        assert not (out / "manifest.json").exists()

    def test_rotating_frame_ghz3_runs_through(self, tmp_path, capsys):
        # every open state stays a density matrix, so the rotating-frame runs
        # hand each step's state on and pass every diagnostic
        out = tmp_path / "out"
        config = CONFIGS / "ghz3-rotating.cfg"
        assert main(["run", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        runs = json.loads((out / "manifest.json").read_text())["runs"]
        assert [run["kappa_T"] for run in runs] == [0.0, 0.0145]
        assert all(run["ok"] for run in runs)

    def test_bell_cfg_residuals_are_pinned(self, tmp_path):
        # the residual's own round-off on the shipped config, to the bit
        assert main(["run", str(CONFIGS / "bell.cfg"), "--out", str(tmp_path)]) == 0
        runs = json.loads((tmp_path / "manifest.json").read_text())["runs"]
        assert len(runs) == 4
        for run in runs:
            assert run["diagnostics"]["max_residual"] == 1.2122979617405458e-15
            assert run["diagnostics"]["max_residual_relative"] == 4.913258576429824e-16

    def test_weak_coupling_exits_two_before_integrating(self, tmp_path, capsys, monkeypatch):
        # J = 20 is strong enough for split but not for raise-3
        monkeypatch.setattr(cli, "run_protocol_kappas", _must_not_run)
        out = tmp_path / "out"
        text = (GHZ_CFG.format(grid=200, kappa="0.0, 0.0145", out=out)
                + "mode = rotating-frame\nomega_T = 200\nj_over_omega = 0.1\n")
        cfg = write_cfg(tmp_path, text)
        refusal = (f"error: {cfg}: step 'raise-3' relies on a strong coupling; J = 20 is "
                   "below 10x the peak Rabi amplitude 2.47")
        for argv in (["run", cfg],
                     ["sweep", cfg, "--param", "kappa_T", "--values", "0,0.1"],
                     ["sweep", cfg, "--param", "grid", "--values", "100,200"],
                     ["sweep", cfg, "--param", "omega_T", "--values", "2900,200"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [refusal]
            assert captured.out == ""
            assert not out.exists()
        # the rule applies to the variants that run, not to the file's own omega_T
        monkeypatch.undo()
        assert main(["sweep", cfg, "--param", "omega_T", "--values", "2900", "--grid", "50"]) == 0
        assert capsys.readouterr().err == ""

    def test_the_strong_coupling_rule_is_checked_once_per_variant(self, tmp_path, monkeypatch):
        check = protocols.check_strong_coupling
        calls = []

        def counted(plan, model, mode):
            calls.append(model.omega)
            return check(plan, model, mode)

        monkeypatch.setattr(cli, "check_strong_coupling", counted)
        monkeypatch.setattr(protocols, "check_strong_coupling", counted)
        config = str(CONFIGS / "ghz3-rotating.cfg")
        assert main(["run", config, "--grid", "50", "--out", str(tmp_path)]) == 0
        assert calls == [2900.0]
        calls.clear()
        assert main(["sweep", config, "--param", "omega_T", "--values", "2900,3000",
                     "--grid", "50", "--out", str(tmp_path)]) == 0
        assert calls == [2900.0, 3000.0]

    def test_an_overflowing_coupling_exits_two_before_integrating(self, tmp_path, capsys,
                                                                  monkeypatch):
        # J = j_over_omega * omega_T overflows to inf, which no strong-coupling
        # rule refuses; integrated, it fails as a non-finite Hamiltonian
        monkeypatch.setattr(cli, "run_protocol_kappas", _must_not_run)
        out = tmp_path / "out"
        text = (BELL_CFG.format(grid=200, kappa="0.0", out=out)
                + "mode = rotating-frame\nomega_T = {omega}\nj_over_omega = 1e300\n")
        refusal = "coupling J = 1e+300 * 1e+10 is not finite"
        cfg = write_cfg(tmp_path, text.format(omega="1e10"))
        swept = write_cfg(tmp_path, text.format(omega="2900"), "swept.cfg")
        for argv, path in ((["run", cfg], cfg),
                           (["sweep", swept, "--param", "omega_T", "--values", "2900,1e10"],
                            swept)):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"error: {path}: {refusal}"]
            assert captured.out == ""
            assert not out.exists()

    @pytest.mark.parametrize("grid", ["3", "0", "-5"])
    def test_grid_flag_obeys_the_config_rule(self, tmp_path, capsys, grid):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.0", out=out))
        assert main(["run", cfg, "--grid", grid]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --grid: grid must be at least 10 steps"]
        assert not out.exists()

    def test_a_grid_too_large_for_one_array_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_protocol_kappas", _must_not_run)
        out = tmp_path / "out"
        huge = "1" + "0" * 399
        rule = f"grid must be below {MAX_GRID} steps"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=huge, kappa="0.0", out=out))
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}:3: {rule}"]
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.0", out=out))
        assert main(["run", cfg, "--grid", huge]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: --grid: {rule}"]
        assert main(["run", cfg, "--grid", str(MAX_GRID)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: --grid: {rule}"]
        assert not out.exists()


    @pytest.mark.parametrize("under", ["file/sub", "file"])
    def test_unwritable_out_exits_two_before_propagating(self, tmp_path, capsys, monkeypatch,
                                                         under):
        (tmp_path / "file").write_text("a regular file\n")
        monkeypatch.setattr(cli, "run_protocol_kappas", _must_not_run)
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.0", out="unused"))
        assert main(["run", cfg, "--out", str(tmp_path / under)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write to output directory")


    def test_read_only_out_exits_two_before_propagating(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        monkeypatch.setattr(cli, "run_protocol_kappas", _must_not_run)
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.0", out=tmp_path / "o"))
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write to output directory {str(tmp_path / 'o')!r}: "
            "permission denied"]

    @pytest.mark.parametrize("artifact", ["bell-00.csv", "manifest.json"])
    def test_an_unwritable_artifact_exits_two_in_one_line(self, tmp_path, capsys, artifact):
        out = tmp_path / "o"
        (out / artifact).mkdir(parents=True)
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=64, kappa="0.0", out=out))
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write {str(out / artifact)!r}: Is a directory"]


def _must_not_run(*args, **kwargs):
    raise AssertionError("propagation started before the output directory was checked")


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

    def test_an_unwritable_table_exits_two_in_one_line(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "sweep-kappa_T.csv").mkdir(parents=True)
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=64, kappa="0.0", out=out))
        assert main(["sweep", cfg, "--param", "kappa_T", "--values", "0.0,0.1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write {str(out / 'sweep-kappa_T.csv')!r}: Is a directory"]

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

    @pytest.mark.parametrize("values, reason", [
        ("10.5", "grid must be a whole number of steps"),
        ("500,5", "grid must be at least 10 steps"),
        ("1e300", f"grid must be below {MAX_GRID} steps"),
    ])
    def test_grid_values_obey_the_config_rule(self, tmp_path, capsys, monkeypatch,
                                              values, reason):
        monkeypatch.setattr(cli, "run_protocol_kappas", _must_not_run)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.0", out=out))
        assert main(["sweep", cfg, "--param", "grid", "--values", values]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}: {reason}"]
        assert not out.exists()

    @pytest.mark.parametrize("param, values", [
        ("kappa_T", "0.0, nan"), ("grid", "nan"), ("grid", "inf"), ("grid", "1" + "0" * 399),
        ("omega_T", "nan"), ("omega_T", "2900,-inf"),
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
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: step 'split': ")
        assert "target" in err[0]

    def test_refused_plan_leaves_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "o"
        text = (BELL_CFG.format(grid=300, kappa="0.0", out=out)
                + "[schedules]\ntheta_0 = constant: value=0.3\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", cfg, "--param", "grid", "--values", "100,200"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: step 'split': ")
        assert "target" in err[0] and not out.exists()

    def test_a_bad_plan_is_reported_before_a_bad_output_directory(self, tmp_path, capsys):
        (tmp_path / "file").write_text("a regular file\n")
        text = (BELL_CFG.format(grid=300, kappa="0.0", out=tmp_path / "file" / "sub")
                + "[schedules]\ntheta_0 = constant: value=0.3\n")
        cfg = write_cfg(tmp_path, text)
        for argv in (["run", cfg], ["sweep", cfg, "--param", "kappa_T", "--values", "0.0"]):
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "target" in err[0]

    def test_a_sweep_plans_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return protocols.plan_bell(*args, **kwargs)

        monkeypatch.setattr(cli, "plan_bell", counted)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.0", out=out))
        assert main(["sweep", cfg, "--param", "grid", "--values", "100,200,300,400"]) == 0
        assert len(calls) == 1
        assert len((out / "sweep-grid.csv").read_text().splitlines()) == 5

    def test_propagation_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        fail_trace_gate(monkeypatch, 3.0)
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=10, kappa="0.5", out=tmp_path / "o"))
        assert main(["sweep", cfg, "--param", "kappa_T", "--values", "3.0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: run failed at kappa_T=3: step 'split'")

    def test_kappa_sweep_integrates_its_values_in_one_call(self, tmp_path, monkeypatch):
        calls = []

        def counted(plan, model, kappas, **kwargs):
            calls.append(list(kappas))
            return protocols.run_protocol_kappas(plan, model, kappas, **kwargs)

        monkeypatch.setattr(cli, "run_protocol_kappas", counted)
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=100, kappa="0.0", out=tmp_path / "o"))
        tables = []
        for values in ("0.0725,0.0,0.0145", "0.0725", "0.0", "0.0145"):
            out = tmp_path / values
            assert main(["sweep", cfg, "--param", "kappa_T", "--values", values,
                         "--out", str(out)]) == 0
            tables.append((out / "sweep-kappa_T.csv").read_text().splitlines())
        assert calls == [[0.0725, 0.0, 0.0145], [0.0725], [0.0], [0.0145]]
        # each row is the one its value gives alone, to the last digit
        assert tables[0] == tables[1] + tables[2][1:] + tables[3][1:]

    def test_failing_value_of_a_kappa_sweep_is_named(self, tmp_path, capsys, monkeypatch):
        fail_trace_gate(monkeypatch, 3.0)
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=10, kappa="0.0", out=tmp_path / "o"))
        assert main(["sweep", cfg, "--param", "kappa_T", "--values", "0.0,3.0,0.0145"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: run failed at kappa_T=3: step 'split': ")

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

    def test_unwritable_out_exits_two_before_propagating(self, tmp_path, capsys,
                                                         monkeypatch):
        (tmp_path / "file").write_text("a regular file\n")
        monkeypatch.setattr(cli, "run_protocol_kappas", _must_not_run)
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.0", out="unused"))
        assert main(["sweep", cfg, "--param", "kappa_T", "--values", "0.0,0.1",
                     "--out", str(tmp_path / "file" / "sub")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write to output directory")

    def test_a_register_numpy_cannot_address_exits_two_naming_qubits(self, tmp_path, capsys,
                                                                      monkeypatch):
        # a 64-qubit register's d x d matrix has more elements than numpy
        # can index: the config rule refuses it before any plan is made
        monkeypatch.setattr(cli, "run_protocol_kappas", _must_not_run)
        out = tmp_path / "o"
        text = GHZ_CFG.format(grid=100, kappa="0.0", out=out).replace("qubits = 3", "qubits = 64")
        cfg = write_cfg(tmp_path, text)
        for argv in (["run", cfg], ["sweep", cfg, "--param", "grid", "--values", "100"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                f"error: {cfg}:2: qubits must be at most 29: the d x d complex matrix of a "
                "larger register is more than numpy can address"]
            assert captured.out == ""
            assert not out.exists()

    @pytest.mark.parametrize("text, line, steps, duration", [
        (BELL_CFG, 2, 2, 1e308), (GHZ_CFG, 3, 3, 6e307)], ids=["bell", "ghz3"])
    def test_a_duration_whose_end_time_overflows_exits_two_naming_duration(
            self, tmp_path, capsys, monkeypatch, text, line, steps, duration):
        # the t column is the protocol's times scaled by the duration: an end
        # time that overflows would write inf there
        monkeypatch.setattr(cli, "run_protocol_kappas", _must_not_run)
        out = tmp_path / "o"
        text = text.format(grid=100, kappa="0.0", out=out)
        cfg = write_cfg(tmp_path, text.replace("duration = 1.0", f"duration = {duration}"))
        assert main(["run", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {cfg}:{line}: duration times the protocol's {steps} steps must be finite: "
            f"{steps} x {duration!r} overflows"]
        assert captured.out == ""
        assert not out.exists()

    def test_a_duration_whose_end_time_is_finite_runs(self, tmp_path):
        # 2 x 6e307 is finite, so Bell writes finite times up to it
        out = tmp_path / "o"
        text = BELL_CFG.format(grid=64, kappa="0.0, 0.0145", out=out)
        assert main(["run", write_cfg(tmp_path, text.replace("duration = 1.0",
                                                             "duration = 6e307"))]) == 0
        for name in ("bell-00.csv", "bell-01.csv"):
            times = np.loadtxt(out / name, delimiter=",", skiprows=1)[:, 0]
            assert np.isfinite(times).all() and times[-1] == 2 * 6e307

    def test_unallocatable_plan_exits_two(self, tmp_path, capsys):
        # 29 qubits pass the config rule, but a plan's state vector of 2**29
        # amplitudes needs 8 GiB: under an address-space limit 64 MiB above
        # what this process maps, numpy refuses the first array of the
        # register's size at once
        resource = pytest.importorskip("resource")
        text = GHZ_CFG.format(grid=100, kappa="0.0", out=tmp_path / "o").replace(
            "qubits = 3", "qubits = 29")
        cfg = write_cfg(tmp_path, text)
        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("needs /proc/self/status")
        mapped = next(int(line.split()[1]) for line in status.read_text().splitlines()
                      if line.startswith("VmSize:")) * 1024
        limits = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (mapped + 64 * 2 ** 20, limits[1]))
        try:
            codes = []
            for argv in (["run", cfg], ["sweep", cfg, "--param", "grid", "--values", "100"]):
                codes.append(main(argv))
                codes.append(capsys.readouterr().err.splitlines())
        finally:
            resource.setrlimit(resource.RLIMIT_AS, limits)
        for code, err in zip(codes[::2], codes[1::2]):
            assert code == 2
            assert len(err) == 1 and err[0].startswith(f"error: {cfg}: qubits=29: ")
            assert "Unable to allocate" in err[0]

    def test_unallocatable_grid_exits_two(self, tmp_path, capsys):
        # 10**18 nodes pass the grid rule, but their float64 array needs
        # 6.94 EiB, so numpy refuses it at once and nothing is propagated
        grid = "1000000000000000000"
        cfg = write_cfg(tmp_path, BELL_CFG.format(grid=300, kappa="0.0, 0.0145",
                                                  out=tmp_path / "o"))
        for argv in (["run", cfg, "--grid", grid],
                     ["sweep", cfg, "--param", "grid", "--values", grid]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {cfg}: grid={grid}: ")
            assert "Unable to allocate" in err[0] and captured.out == ""

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
