"""CLI: config parsing, overrides, determinism, report schemas, exit codes."""

import json
import os

import pytest

from rnlab.cli import ConfigError, ExperimentConfig, parse_config, run


class TestParseConfig:
    def test_empty_args_full_defaults(self):
        cfg = parse_config([])
        assert cfg == ExperimentConfig()
        assert (cfg.d, cfg.n_max, cfg.tau_step) == (2, 64, 0.25)
        assert cfg.s == -0.6 and cfg.b == pytest.approx(2.0 / 3.0)
        assert cfg.mod_threshold == 2.0**-10

    def test_flag_overrides(self):
        cfg = parse_config(["sweep", "--s", "-0.55", "--b", "0.6667"])
        assert cfg.command == "sweep"
        assert cfg.s == -0.55
        assert cfg.b == 0.6667

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="'s'"):
            parse_config(["sweep", "--s", "abc"])

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
            parse_config(["sweep", "--frobnicate", "1"])

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="'command'"):
            parse_config(["destroy"])

    def test_constraint_violations_name_keys(self):
        with pytest.raises(ConfigError, match="'T'"):
            parse_config(["solve", "--T", "0.3"])
        with pytest.raises(ConfigError, match="'N'"):
            parse_config(["sweep", "--N", "4,6,8"])
        with pytest.raises(ConfigError, match="'mode'"):
            parse_config(["sweep", "--mode", "Y"])
        with pytest.raises(ConfigError, match="'d'"):
            parse_config(["norm", "--d", "3"])

    def test_family_commands_reject_other_dimensions(self):
        for command in ("family", "sweep", "threshold"):
            with pytest.raises(ConfigError, match="'d'"):
                parse_config([command, "--d", "1"])
            assert parse_config([command, "--d", "2"]).d == 2

    def test_file_values_and_flag_precedence(self):
        text = "\n".join([
            "# comment line",
            "s = -0.5",
            "tau_step = 0.5   # trailing comment",
            "mode = X",
            "",
        ])
        cfg = parse_config(["sweep", "--s", "-0.45"], config_text=text)
        assert cfg.s == -0.45      # flag wins
        assert cfg.tau_step == 0.5  # file value survives
        assert cfg.mode == "X"

    def test_file_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'foo'"):
            parse_config(["check"], config_text="foo = 1\n")

    def test_file_bad_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(["check"], config_text="s = -0.5\nnot a pair\n")

    def test_check_rejects_keys_it_ignores(self, capsys):
        from rnlab.cli import main
        assert parse_config(["check", "--seed", "5"]).seed == 5
        assert parse_config(["--seed", "5"], config_text="command = check\n").seed == 5
        with pytest.raises(ConfigError, match="'d'"):
            parse_config(["check", "--d", "1", "--seed", "2024"])
        with pytest.raises(ConfigError, match="'n_max'"):
            parse_config(["check"], config_text="n_max = 3\nseed = 1\n")
        with pytest.raises(ConfigError, match="'dump_fields'"):
            parse_config(["check", "--dump-fields"])
        assert main(["check", "--s", "5"]) == 2
        assert "'s'" in capsys.readouterr().err

    def test_commands_reject_keys_they_ignore(self, capsys):
        from rnlab.cli import main
        # one key each command's body never reads, by flag and by file
        cases = {"norm": ("T", "0.2"), "family": ("tau_pad", "100"),
                 "sweep": ("seed", "9"), "threshold": ("s", "-0.6"),
                 "solve": ("family", "example2"), "check": ("out", "x")}
        for command, (key, value) in cases.items():
            with pytest.raises(ConfigError, match=f"'{key}'"):
                parse_config([command, "--" + key.replace("_", "-"), value])
            with pytest.raises(ConfigError, match=f"'{key}'"):
                parse_config([command], config_text=f"{key} = {value}\n")
        assert main(["family", "--family", "remark_uu", "--N", "4,8", "--tau-pad", "100",
                     "--n-max", "3", "--T", "0.2"]) == 2
        assert "'T'" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="'n_max'"):
            parse_config(["--config", "run.cfg"], config_text="command = sweep\nn_max = 8\n")

    def test_commands_accept_every_key_they_read(self):
        from rnlab.cli import _READ_KEYS
        values = {"d": "2", "n_max": "4", "tau_step": "0.5", "tau_pad": "8", "s": "-0.5",
                  "b": "0.6", "mod_threshold": "0.001", "family": "example2", "N": "4,8",
                  "mode": "X", "s_range": "-0.9:-0.4:0.1", "T": "0.1",
                  "max_iterations": "3", "tolerance": "1e-9", "seed": "3", "out": "x",
                  "dump_fields": "true"}
        for command, keys in _READ_KEYS.items():
            text = "".join(f"{k} = {values[k]}\n" for k in sorted(keys))
            cfg = parse_config([command], config_text=text)
            assert cfg.command == command

    def test_n_list_parsing(self):
        cfg = parse_config(["sweep", "--N", "4,8,16"])
        assert cfg.N == (4, 8, 16)

    def test_s_range_parsing(self):
        cfg = parse_config(["threshold", "--s-range", "-0.9:-0.4:0.05"])
        assert cfg.s_range == (-0.9, -0.4, 0.05)
        with pytest.raises(ConfigError, match="'s_range'"):
            parse_config(["threshold", "--s-range", "-0.9:-0.4"])

    def test_config_file_read_from_disk(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("s = -0.5\ntau_step = 0.5\n")
        cfg = parse_config(["--config", str(path), "sweep"])
        assert cfg.s == -0.5 and cfg.tau_step == 0.5
        with pytest.raises(ConfigError, match="'config'"):
            parse_config(["--config", str(tmp_path / "missing.cfg"), "sweep"])

    def test_main_entry_point(self, tmp_path, capsys):
        from rnlab.cli import main
        assert main(["sweep", "--family", "remark_uu", "--N", "4,8,16",
                     "--mode", "X", "--out", str(tmp_path)]) == 0
        assert main(["--bad-key", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown key" in err


def _forbid_fields(monkeypatch):
    import rnlab.cli

    def no_fields(*args):
        raise AssertionError("a field was built before the size guard")

    monkeypatch.setattr(rnlab.cli, "rough_initial_data", no_fields)


class TestRunCommands:
    def test_sweep_outputs_and_schema(self, tmp_path):
        cfg = parse_config(["sweep", "--family", "example1", "--mode", "X",
                            "--N", "4,8,16", "--out", str(tmp_path)])
        assert run(cfg) == 0
        csv_text = (tmp_path / "sweep.csv").read_text()
        assert csv_text.splitlines()[0] == "N,u_norm,v_norm,lhs,ratio"
        assert len(csv_text.splitlines()) == 4
        report = json.loads((tmp_path / "sweep.json").read_text())
        assert {"kind", "s", "b", "mode", "rows", "fitted_slope",
                "fit_residual", "predicted_slope", "verdict"} <= set(report)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--family", "example2", "--mode", "Z",
                "--N", "4,8,16", "--s", "-0.7"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(parse_config(args + ["--out", str(out_a)]))
        run(parse_config(args + ["--out", str(out_b)]))
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
        assert (out_a / "sweep.json").read_bytes() == (out_b / "sweep.json").read_bytes()

    def test_norm_command_deterministic(self, tmp_path):
        args = ["norm", "--n-max", "4", "--seed", "5"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(parse_config(args + ["--out", str(out_a)])) == 0
        assert run(parse_config(args + ["--out", str(out_b)])) == 0
        assert (out_a / "norms.json").read_bytes() == (out_b / "norms.json").read_bytes()

    def test_family_command(self, tmp_path):
        cfg = parse_config(["family", "--family", "remark_uu", "--N", "4,8",
                            "--out", str(tmp_path)])
        assert run(cfg) == 0
        obj = json.loads((tmp_path / "family.json").read_text())
        assert [r["N"] for r in obj["rows"]] == [4, 8]
        assert obj["rows"][0]["tent_max_abs_deviation"] < 1e-12
        assert obj["rows"][0]["product_column"] == [4, 4]

    def test_threshold_crossing_found(self, tmp_path):
        cfg = parse_config(["threshold", "--family", "example2", "--mode", "Z",
                            "--s-range", "-0.9:-0.4:0.1",
                            "--N", "64,128,256", "--tau-step", "0.5",
                            "--out", str(tmp_path)])
        assert run(cfg) == 0
        obj = json.loads((tmp_path / "threshold.json").read_text())
        assert obj["crossing"] == pytest.approx(-2.0 / 3.0, abs=0.05)

    def test_threshold_tau_step_reaches_scan(self, tmp_path, monkeypatch):
        import rnlab.cli
        from rnlab.sweep import ThresholdScan

        steps = []

        def recording_scan(kind, s_values, b, mode, n_list, tau_step, mod_threshold):
            steps.append(tau_step)
            return ThresholdScan(kind, b, mode, crossing=-0.5)

        monkeypatch.setattr(rnlab.cli, "threshold_scan", recording_scan)
        out = ["--out", str(tmp_path)]
        cases = [
            (["threshold", "--tau-step", "0.25"], None, 0.25),
            (["threshold"], "tau_step = 0.25\n", 0.25),
            (["threshold"], None, 0.5),               # the scan's default step
            (["threshold", "--N", "64,128,256"], None, 0.25),
            (["threshold", "--N", "64,128,256", "--tau-step", "1"], None, 1.0),
        ]
        for args, text, _ in cases:
            assert run(parse_config(args + out, config_text=text)) == 0
        assert steps == [step for _, _, step in cases]

    def test_threshold_not_found_exits_one(self, tmp_path):
        cfg = parse_config(["threshold", "--family", "example2", "--mode", "Z",
                            "--s-range", "-0.3:-0.1:0.1",
                            "--N", "64,128,256", "--tau-step", "0.5",
                            "--out", str(tmp_path)])
        assert run(cfg) == 1

    def test_solve_writes_trace(self, tmp_path):
        cfg = parse_config(["solve", "--d", "1", "--n-max", "8", "--T", "0.0625",
                            "--max-iterations", "4", "--out", str(tmp_path)])
        assert run(cfg) == 0
        obj = json.loads((tmp_path / "solve_trace.json").read_text())
        assert len(obj["contraction_ratios"]) >= 1

    def test_solve_dense_guard_names_key(self, tmp_path, capsys):
        cfg = parse_config(["solve", "--out", str(tmp_path)])  # d=2, n_max=64
        assert run(cfg) == 2
        assert "'n_max'" in capsys.readouterr().err

    def test_solve_convolution_guard_names_key(self, tmp_path, monkeypatch, capsys):
        # the solve's peak-bytes estimate (6.4 GiB) is over the budget before
        # any field is built
        _forbid_fields(monkeypatch)
        cfg = parse_config(["solve", "--d", "2", "--n-max", "25", "--out", str(tmp_path)])
        assert run(cfg) == 2
        assert "'n_max'" in capsys.readouterr().err

    def test_solve_guard_counts_kept_iterates(self, tmp_path, monkeypatch, capsys):
        # each field is 2401 x 9281 complex entries, within both former
        # guards, but the 11 kept iterates alone are 3.65 GiB
        _forbid_fields(monkeypatch)
        cfg = parse_config(["solve", "--d", "2", "--n-max", "24", "--out", str(tmp_path)])
        assert run(cfg) == 2
        err = capsys.readouterr().err
        assert "'n_max'" in err and "budget" in err

    def test_solve_guard_admits_the_benchmark_solve(self, tmp_path, monkeypatch):
        import rnlab.cli

        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(rnlab.cli, "rough_initial_data", admitted)
        cfg = parse_config(["solve", "--d", "1", "--n-max", "32", "--T", "0.125",
                            "--out", str(tmp_path)])
        with pytest.raises(Admitted):
            run(cfg)

    def test_solve_dump_fields_roundtrip(self, tmp_path):
        from rnlab.solver import load_field
        cfg = parse_config(["solve", "--d", "1", "--n-max", "4", "--T", "0.0625",
                            "--max-iterations", "2", "--dump-fields",
                            "--out", str(tmp_path)])
        assert run(cfg) == 0
        dumps = sorted(p for p in os.listdir(tmp_path) if p.endswith(".bin"))
        assert dumps == ["solve_iter_00.bin", "solve_iter_01.bin", "solve_iter_02.bin"]
        field = load_field(tmp_path / dumps[0])
        assert field.grid.dimension == 1 and field.grid.n_max == 4
