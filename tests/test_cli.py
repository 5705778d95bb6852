"""CLI: config parsing, overrides, determinism, report schemas, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rnlab
from rnlab import cli
from rnlab import grid as grid_module
from rnlab.cli import ConfigError, ExperimentConfig, parse_config, run
from rnlab.grid import FrequencyGrid


class TestParseConfig:
    def test_empty_args_full_defaults(self):
        cfg = parse_config([])
        assert cfg == ExperimentConfig()
        assert (cfg.d, cfg.n_max, cfg.tau_step) == (2, 64, 0.25)
        assert cfg.s == -0.6 and cfg.b == pytest.approx(2.0 / 3.0)

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

    def test_split_constant_is_not_a_key(self, capsys):
        from rnlab.cli import main
        assert main(["sweep", "--mod-threshold", "0.001"]) == 2
        assert "unknown key 'mod_threshold'" in capsys.readouterr().err

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
        # their families live on 2-D grids, so 'd' is not a key of theirs
        for command in ("family", "sweep", "threshold"):
            for d in ("1", "2"):
                with pytest.raises(ConfigError, match=f"key 'd': the {command} command "
                                   "does not read it"):
                    parse_config([command, "--d", d])

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
                  "b": "0.6", "family": "example2", "N": "4,8",
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

    def no_fields(*args, **kwargs):
        raise AssertionError("a field was built before the size guard")

    for name in ("rough_initial_data", "random_field", "run_all"):
        monkeypatch.setattr(rnlab.cli, name, no_fields)


def _forbid_family_fields(monkeypatch):
    import rnlab.cli
    import rnlab.sweep

    def no_fields(*args):
        raise AssertionError("a family was built before the size guard")

    monkeypatch.setattr(rnlab.cli, "build_family", no_fields)
    monkeypatch.setattr(rnlab.sweep, "build_family", no_fields)


class _Admitted(Exception):
    pass


def _admit(monkeypatch):
    """Stop a solve with _Admitted at its first field, which the size guard precedes."""
    import rnlab.cli

    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(rnlab.cli, "rough_initial_data", admitted)


# Refused after their norms, which overflow float64 or, at a very negative s,
# underflow to zero: these build their fields.
_OVERFLOWING = {
    ("norm", "--b", "100"): "b",
    ("norm", "--s", "300"): "s",
    ("sweep", "--b", "100"): "b",
    ("sweep", "--s", "300"): "s",
    ("family", "--s", "300"): "s",
    ("threshold", "--b", "100", "--mode", "X"): "b",
    ("sweep", "--s", "-300"): "s",
    ("threshold", "--s-range", "-400:-300:50"): "s_range",
}


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

    def test_norm_samples_every_column_of_a_small_box(self, tmp_path, monkeypatch):
        # d=1, n_max=31 has 63 columns, and tau_pad 20000 puts the box over
        # the sampling threshold; the sample is all 63, not 64 of 63
        import rnlab.cli
        drawn = []

        def record(grid, rng, columns=None, envelope_power=0.0):
            drawn.append(columns)
            raise _Admitted

        monkeypatch.setattr(rnlab.cli, "random_field", record)
        cfg = parse_config(["norm", "--d", "1", "--n-max", "31", "--tau-pad", "20000",
                            "--out", str(tmp_path)])
        with pytest.raises(_Admitted):
            run(cfg)
        assert np.array_equal(drawn[0], FrequencyGrid.for_box(1, 31).box_index)

    def test_norm_guard_names_key_before_drawing(self, tmp_path, monkeypatch, capsys):
        # d=2, n_max=400 would draw 64 columns of 2,560,065 tau-samples
        import rnlab.cli

        def no_field(*args, **kwargs):
            raise AssertionError("a field was drawn before the size guard")

        monkeypatch.setattr(rnlab.cli, "random_field", no_field)
        cfg = parse_config(["norm", "--d", "2", "--n-max", "400", "--out", str(tmp_path)])
        assert run(cfg) == 2
        err = capsys.readouterr().err
        assert "'n_max'" in err and "budget" in err
        # a 1.14e95 GiB estimate prints to 3 significant digits, not 96 digits
        cfg = parse_config(["norm", "--n-max", str(10**50), "--tau-step", "1",
                            "--out", str(tmp_path)])
        assert run(cfg) == 2
        assert len(capsys.readouterr().err) < 120

    def test_norm_samples_a_huge_box(self, tmp_path):
        # 4e12 columns of 3 samples: the 64 sampled columns come from their
        # keys, not from the 29 TiB grid.box_index
        cfg = parse_config(["norm", "--n-max", "1000000", "--tau-step", "1e13",
                            "--out", str(tmp_path)])
        assert run(cfg) == 0
        obj = json.loads((tmp_path / "norms.json").read_text())
        assert obj["columns"] == 64 and math.isfinite(obj["zsb"])

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

        def recording_scan(kind, s_values, b, mode, n_list, tau_step):
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

    def test_threshold_report_is_the_scan_text(self, tmp_path, monkeypatch):
        # threshold.json is streamed to the file by json.dump: the same bytes
        # as ThresholdScan.to_json_text, here for 10,001 points
        import rnlab.cli
        from rnlab.sweep import ThresholdScan

        rng = np.random.default_rng(73)
        s = np.arange(-0.9, 0.1 + 0.00005, 0.0001)
        slopes = rng.standard_normal(len(s)) * 10.0 ** rng.integers(-20, 20, len(s))
        scan = ThresholdScan("example2", 2.0 / 3.0, "Z", [(float(a), float(b))
                                                          for a, b in zip(s, slopes)], -0.6667)
        assert len(scan.points) == 10_001
        monkeypatch.setattr(rnlab.cli, "threshold_scan", lambda *args: scan)
        monkeypatch.setattr(scan, "to_json_text", lambda: pytest.fail("the text was joined"))
        assert run(parse_config(["threshold", "--s-range", "-0.9:0.1:0.0001",
                                 "--out", str(tmp_path)])) == 0
        monkeypatch.undo()
        assert (tmp_path / "threshold.json").read_bytes() == scan.to_json_text().encode()

    def test_threshold_not_found_exits_one(self, tmp_path):
        cfg = parse_config(["threshold", "--family", "example2", "--mode", "Z",
                            "--s-range", "-0.3:-0.1:0.1",
                            "--N", "64,128,256", "--tau-step", "0.5",
                            "--out", str(tmp_path)])
        assert run(cfg) == 1

    @pytest.mark.parametrize("args, message", [
        (["threshold", "--N", "8,16"], "'N': need at least three N values"),
        (["sweep", "--N", "8,16"], "'N': need at least three N values"),
        (["threshold", "--tau-step", "0.3"], "'tau_step'"),
        (["family", "--N", "8,16", "--tau-step", "0.3"], "'tau_step'"),
        (["sweep", "--N", "8,16,1024", "--tau-step", "0.3"], "'tau_step'"),
        # 2^25: the products' tau-samples near 2^51 are not exact at tau_step 1/4
        (["sweep", "--N", "64,128,33554432"], "'N': family frequency N=33554432"),
    ])
    def test_bad_scan_inputs_exit_two_naming_the_key(self, args, message, tmp_path,
                                                     monkeypatch, capsys):
        _forbid_family_fields(monkeypatch)
        assert run(parse_config(args + ["--out", str(tmp_path)])) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args, key", [
        (["norm", "--seed", "-1"], "seed"),
        (["solve", "--d", "1", "--n-max", "4", "--seed", "-1"], "seed"),
        (["check", "--seed", "-1"], "seed"),
        (["norm", "--s", "nan"], "s"),
        (["sweep", "--b", "nan"], "b"),
        (["solve", "--d", "1", "--n-max", "4", "--tolerance", "nan"], "tolerance"),
        (["sweep", "--N", "4,8,16", "--tau-step", "inf"], "tau_step"),
        (["solve", "--d", "1", "--n-max", "4", "--tau-step", "0.3"], "tau_step"),
        (["solve", "--d", "1", "--n-max", "4", "--tau-step", "2"], "tau_step"),
        (["solve", "--tau-step", "5e-324"], "tau_step"),
        # its one iterate alone is 4.8e26 GiB; peak_bytes would count up
        # from 4e11 to the next fast FFT length
        (["solve", "--d", "1", "--n-max", "100000000000"], "n_max"),
        (["solve", "--n-max", str(8 * 10**153), "--tau-step", "1"], "n_max"),
        (["norm", "--n-max", str(10**160)], "n_max"),
        # a box of 1.02e19 columns, past rng.choice and the int64 flat keys
        (["norm", "--n-max", "1600000000", "--tau-step", "1e18"], "n_max"),
        # 4e9^2 wraps in int64 |n|^2, which made the norms NaN
        (["norm", "--d", "1", "--n-max", "4000000000", "--tau-step", "1e19"], "n_max"),
        # 8200 / 1e-310 steps each way is past float64; 8200 / 1e13 and
        # 16 / 1e12 round to no step
        (["norm", "--tau-step", "1e-310"], "tau_step"),
        (["norm", "--tau-step", "1e13"], "tau_step"),
        (["norm", "--n-max", "2", "--tau-step", "1e12"], "tau_step"),
        # 1.6e304 samples a column: 1/tau_step, not the window's length, is over
        (["solve", "--tau-step", "1e-300"], "tau_step"),
        (["norm", "--tau-step", "1e-300"], "tau_step"),
        (["norm", "--tau-pad", "inf"], "tau_pad"),
        (["norm", "--tau-pad", "nan"], "tau_pad"),
        # a half-window of 1e308 at tau_step 1 has inf samples; 1e12 is over
        # the budget, and tau_pad, not n_max, outweighs 2 n_max^2 in it
        (["norm", "--tau-pad", "1e308"], "tau_pad"),
        (["solve", "--d", "1", "--n-max", "4", "--tau-pad", "1e308"], "tau_pad"),
        (["norm", "--n-max", "1", "--tau-pad", "1e12"], "tau_pad"),
        (["solve", "--d", "1", "--n-max", "4", "--tau-pad", "1e12"], "tau_pad"),
        *[(list(args), key) for args, key in _OVERFLOWING.items()],
        (["threshold", "--s-range", "-0.9:-0.4:1e-12"], "s_range"),
        (["threshold", "--s-range", "-0.9:inf:0.1"], "s_range"),
        (["sweep", "--N", f"4,8,{2**700}"], "N"),
        (["norm", "--out", ""], "out"),
        (["norm", "--n-max", "4", "--out", "a_file"], "out"),
        (["solve", "--d", "1", "--n-max", "4", "--dump-fields", "--out", "a_file"], "out"),
    ], ids=lambda v: " ".join(v)[:48] if isinstance(v, list) else None)
    def test_bad_config_exits_two_naming_its_key(self, args, key, tmp_path, monkeypatch,
                                                 capsys):
        import rnlab.cli
        from rnlab.cli import main

        if "a_file" in args:  # an out path taken by a file, after every check
            (tmp_path / "a_file").touch()
            args = [str(tmp_path / a) if a == "a_file" else a for a in args]
        elif tuple(args) not in _OVERFLOWING:
            _forbid_fields(monkeypatch)
            _forbid_family_fields(monkeypatch)
            monkeypatch.setattr(rnlab.cli, "peak_bytes", lambda *a: pytest.fail("peak_bytes ran"))
        if args[0] != "check" and "--out" not in args:
            args = args + ["--out", str(tmp_path)]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert f"key '{key}'" in err
        assert "Traceback" not in out + err
        assert "infinity to integer" not in err  # numpy's text on an overflowed window
        assert not list(tmp_path.glob("*.json"))  # and no report

    def test_finite_report_at_a_large_b_is_written(self, tmp_path):
        # the family's members sit near the paraboloid, so their <sigma>^{2b}
        # weights stay finite at b = 100, and so do the norms
        assert run(parse_config(["family", "--b", "100", "--out", str(tmp_path)])) == 0
        json.loads((tmp_path / "family.json").read_text(), parse_constant=pytest.fail)

    @pytest.mark.parametrize("args", [
        # members of 2^25 + 1 samples at tau_step 2^-24: 9 GiB for family,
        # 12 GiB for the scans
        ["family", "--N", "64,128,256", "--tau-step", "5.9604644775390625e-08"],
        ["sweep", "--N", "64,128,256", "--tau-step", "5.9604644775390625e-08"],
        ["threshold", "--N", "64,128,256", "--tau-step", "5.9604644775390625e-08"],
    ], ids=lambda a: a[0])
    def test_family_guard_names_n_before_building(self, args, tmp_path, monkeypatch, capsys):
        _forbid_family_fields(monkeypatch)
        assert run(parse_config(args + ["--out", str(tmp_path)])) == 2
        err = capsys.readouterr().err
        assert "'N'" in err and "budget" in err

    def test_family_guard_admits_n_2048_and_any_scan_n(self):
        # no command stores the window, so the footprint does not grow with
        # N: family at N = 4096 has 268,435,521 window samples
        from rnlab.cli import _family_n_list

        for args in (["family", "--N", "2048"], ["family", "--N", "64,4096"],
                     ["sweep", "--N", "64,128,256"],
                     ["threshold", "--N", "64,128,256,512,1024,2048,4096"]):
            cfg = parse_config(args)
            assert _family_n_list(cfg, ()) == cfg.N

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
        # d=1, n_max=173 is the smallest d=1 box the peak-bytes estimate
        # (4.01 GiB) puts over the budget; rejected before any field is
        # built, where n_max=172 (3.95 GiB) is admitted
        _admit(monkeypatch)
        cfg = parse_config(["solve", "--d", "1", "--n-max", "172", "--out", str(tmp_path)])
        with pytest.raises(_Admitted):
            run(cfg)
        _forbid_fields(monkeypatch)
        cfg = parse_config(["solve", "--d", "1", "--n-max", "173", "--out", str(tmp_path)])
        assert run(cfg) == 2
        assert "'n_max'" in capsys.readouterr().err

    def test_solve_guard_counts_kept_iterates(self, tmp_path, monkeypatch, capsys):
        # the solve keeps one field, the iterate, at any max_iterations:
        # d=2, n_max=24 (2401 x 9281 entries) is 0.68 GiB, n_max=37 3.76 GiB,
        # and n_max=38, the smallest d=2 box over the budget, 4.18 GiB
        _admit(monkeypatch)
        for n_max, iterations in (("24", "10"), ("24", "1000"), ("37", "10")):
            cfg = parse_config(["solve", "--d", "2", "--n-max", n_max,
                                "--max-iterations", iterations, "--out", str(tmp_path)])
            with pytest.raises(_Admitted):
                run(cfg)
        _forbid_fields(monkeypatch)
        cfg = parse_config(["solve", "--d", "2", "--n-max", "38", "--out", str(tmp_path)])
        assert run(cfg) == 2
        err = capsys.readouterr().err
        assert "'n_max'" in err and "budget" in err
        assert "max_iterations" not in err

    def test_solve_guard_admits_the_benchmark_solve(self, tmp_path, monkeypatch):
        _admit(monkeypatch)
        cfg = parse_config(["solve", "--d", "1", "--n-max", "32", "--T", "0.125",
                            "--out", str(tmp_path)])
        with pytest.raises(_Admitted):
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
        # the dumps are byte-stable reports for a fixed config
        assert [hashlib.sha256((tmp_path / p).read_bytes()).hexdigest() for p in dumps] == [
            "39963b7b5e5208d539534670f40de3bf35d8a78e7ead35ea4d41cfcd078e30c1",
            "3d828baf0346c5da8908dd67cffabb99f859433248deb9a7cfa0f7e19b6398cc",
            "78970ca6a50d1b48e246ed444fd71e6994387ab6e164f152c6afa45e69a4400d",
        ]

    def test_solve_dump_fields_include_the_diverged_iterate(self, tmp_path, monkeypatch,
                                                            capsys):
        import rnlab.cli
        from rnlab.norms import NormParams, zsb_norm
        from rnlab.solver import load_field, rough_initial_data

        def rough_times_40(grid, s, seed):
            ns, vals = rough_initial_data(grid, s, seed)
            return ns, 40.0 * vals

        monkeypatch.setattr(rnlab.cli, "rough_initial_data", rough_times_40)
        cfg = parse_config(["solve", "--d", "1", "--n-max", "8", "--T", "0.25",
                            "--max-iterations", "25", "--dump-fields", "--out", str(tmp_path)])
        assert run(cfg) == 1
        assert "divergence" in capsys.readouterr().out
        z_norms = json.loads((tmp_path / "solve_trace.json").read_text())["z_norms"]
        assert z_norms[-1] > 10.0 * z_norms[0]
        dumps = sorted(p for p in os.listdir(tmp_path) if p.endswith(".bin"))
        assert dumps == [f"solve_iter_{k:02d}.bin" for k in range(len(z_norms))]
        # the last dump is the diverged iterate, at complex64 precision
        diverged = load_field(tmp_path / dumps[-1])
        assert zsb_norm(diverged, NormParams(s=cfg.s)) == pytest.approx(z_norms[-1], rel=1e-5)


# -- the BLAS thread count ----------------------------------------------------

_THREAD_RUNS = (
    ["check", "--seed", "2024"],
    ["norm", "--d", "1", "--n-max", "64", "--seed", "3", "--out", "."],
    ["solve", "--d", "2", "--n-max", "8", "--T", "0.125", "--seed", "7",
     "--max-iterations", "4", "--out", "."],
)


def _start(args, threads, cwd):
    """``rnl args`` in a new process on ``threads`` BLAS threads, run in ``cwd``."""
    src = str(Path(rnlab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cwd.mkdir(parents=True)
    code = "import sys; from rnlab.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.Popen([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                            stdout=subprocess.PIPE)


def _outputs(proc, cwd):
    """Exit code, stdout and written files of a process started by ``_start``."""
    stdout, _ = proc.communicate(timeout=300)
    return proc.returncode, stdout, {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}


@pytest.mark.parametrize("args", _THREAD_RUNS, ids=lambda a: a[0])
def test_reports_do_not_depend_on_blas_threads(args, tmp_path):
    runs = [(_start(args, n, tmp_path / str(n)), tmp_path / str(n)) for n in (1, 2)]
    try:
        one, two = [_outputs(proc, cwd) for proc, cwd in runs]
    finally:
        for proc, _ in runs:
            proc.kill()
    assert one[0] == 0
    assert one == two


@pytest.mark.parametrize("args, sampled", [(["--d", "1", "--n-max", "16"], False),
                                           (["--n-max", "8"], False),
                                           (["--n-max", "16"], True)],
                         ids=["line_16", "box_2_8", "sampled_2_16"])
def test_norm_size_check_bounds_the_traced_peak(args, sampled, tmp_path):
    # cli._NORM_BYTES_PER_ENTRY against a warm second run, whose field, drawn
    # on the whole box or (sampled_2_16, a box of 4.5M entries) on 64 sampled
    # columns, is too large for the weight cache
    cfg = parse_config(["norm", *args, "--out", str(tmp_path)])
    grid = cli._grid(cfg)
    run(cfg)  # fills the per-process caches
    tracemalloc.start()
    try:
        assert run(cfg) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = json.loads((tmp_path / "norms.json").read_text())["columns"]
    assert columns == (64 if sampled else grid.box_count)
    entries = columns * grid.n_tau
    assert grid_module._CACHED_ENTRIES < entries
    estimate = cli._NORM_BYTES_PER_ENTRY * entries
    # measured: 1.44x on line_16, 1.45x on box_2_8 and 1.40x on sampled_2_16
    assert peak <= estimate <= 2 * peak, f"estimate {estimate / peak:.2f}x the peak"
