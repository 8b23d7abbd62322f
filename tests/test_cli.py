import csv
import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import make_streetview_scale_means
from maxgap import cli
from maxgap.algorithms import RunConfig
from maxgap.cli import (
    ExperimentConfig,
    RESULT_COLUMNS,
    allocation_profile,
    build_instance,
    load_config,
    log_checkpoints,
    main,
    run_experiment,
    verify_bounds,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_defaults_and_validation(self):
        cfg = ExperimentConfig()
        assert cfg.trials == 1 and cfg.delta == 0.1
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=("nope",))
        with pytest.raises(ValueError):
            ExperimentConfig(checkpoints=(5, 5))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", 2.5), ("trials", True), ("seed", 1.5), ("seed", False),
            ("budget_cap", 5e4), ("budget_cap", True),
            ("checkpoints", (1000.7, 5000)), ("checkpoints", (True, 5000)),
        ],
    )
    def test_integer_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize(
        "bad",
        [
            {"delta": 1.5}, {"check_growth": 0.5}, {"ucb_stop_factor": 0.0},
            {"check_growth": math.nan}, {"check_growth": math.inf},
            {"ucb_stop_factor": math.nan}, {"ucb_stop_factor": math.inf},
            {"delta": math.nan}, {"seed": -1},
        ],
    )
    def test_run_knobs_checked_at_load(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ExperimentConfig(**bad)

    def test_run_config_copies_every_run_knob(self):
        knobs = dict(
            delta=0.05, ucb_stop_factor=3.0, budget_cap=50_000, elim_early_stop=True,
            checkpoints=(100, 2000), check_growth=1.05,
        )
        run_fields = fields(RunConfig)
        assert sorted(knobs) == sorted(f.name for f in run_fields)
        assert all(knobs[f.name] != f.default for f in run_fields)
        cfg = ExperimentConfig(**knobs, trials=2, seed=3)
        assert cfg.run_config() == RunConfig(**knobs | {"budget_cap": 2000})
        uncapped = replace(cfg, checkpoints=())
        assert uncapped.run_config() == RunConfig(**knobs | {"checkpoints": ()})

    def test_load_config_with_checkpoint_range(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps(
                {
                    "instance": "lower-bound",
                    "algorithms": ["uniform"],
                    "checkpoint_range": [100, 10000],
                    "checkpoint_count": 5,
                    "trials": 2,
                }
            )
        )
        cfg = load_config(str(p))
        assert cfg.checkpoints == log_checkpoints(100, 10000, 5)
        assert cfg.trials == 2

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            load_config(str(p))

    def test_log_checkpoints_strictly_increasing(self):
        cps = log_checkpoints(10, 100000, 20)
        assert all(b > a for a, b in zip(cps, cps[1:]))
        assert cps[0] == 10 and cps[-1] == 100000


class TestBuildInstance:
    def test_builtin_names(self):
        assert build_instance("two-gap").n_arms == 24
        assert build_instance("one-gap", {"n_arms": 6, "delta_min": 0.1, "delta_max": 1.0}).n_arms == 6
        inst = build_instance("lower-bound", {"nu": 1.0, "epsilon": 0.1})
        assert inst.means.tolist() == pytest.approx([2.2, 1.2, 0.1, 0.0])

    def test_means_file_path(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("0.0\n1.0\n3.0\n")
        inst = build_instance(str(p), sigma=0.5)
        assert inst.n_arms == 3 and inst.sigmas[0] == 0.5

    @pytest.mark.parametrize(
        "name, params, unused",
        [
            ("one-gap", {"n_arm": 30}, ["n_arm"]),
            ("one-gap", {"n_arms": 6, "epsilon": 0.1}, ["epsilon"]),
            ("lower-bound", {"n_arms": 4}, ["n_arms"]),
            ("two-gap", {"n_arms": 24}, ["n_arms"]),
            ("m.txt", {"nu": 1.0, "sigma": 0.5}, ["nu", "sigma"]),
        ],
    )
    def test_rejects_unused_params(self, tmp_path, monkeypatch, name, params, unused):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.txt").write_text("0.0\n1.0\n3.0\n")
        with pytest.raises(ValueError, match=re.escape(str(unused))):
            build_instance(name, params)

    @pytest.mark.parametrize(
        "name, params, key",
        [
            ("one-gap", {"n_arms": 24.7}, "n_arms"),
            ("one-gap", {"n_arms": 24.0}, "n_arms"),
            ("one-gap", {"n_arms": True}, "n_arms"),
            ("one-gap", {"n_arms": "6"}, "n_arms"),
            ("one-gap", {"delta_max": False}, "delta_max"),
            ("lower-bound", {"nu": "1.0"}, "nu"),
        ],
    )
    def test_rejects_bad_param_values(self, name, params, key):
        with pytest.raises(ValueError, match=re.escape(f"instance {name!r}: {key}")):
            build_instance(name, params)

    @pytest.mark.parametrize("name", ["two-gap", "one-gap", "lower-bound"])
    def test_builtins_reject_sigma(self, name):
        with pytest.raises(ValueError, match=re.escape(f"instance {name!r}: sigma")):
            build_instance(name, sigma=0.5)
        assert build_instance(name, sigma=1.0) == build_instance(name)


class TestRunExperiment:
    def make_config(self, tmp_path, **kw):
        defaults = dict(
            instance="lower-bound",
            instance_params={"nu": 1.0, "epsilon": 0.2},
            algorithms=("uniform", "maxgap-ucb"),
            delta=0.1,
            trials=3,
            seed=5,
            checkpoints=(200, 1000, 5000),
            budget_cap=100_000,
            ucb_stop_factor=5.0,
            check_growth=1.01,
            out=str(tmp_path / "out.csv"),
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_budget_mode_rows(self, tmp_path):
        cfg = self.make_config(tmp_path)
        rows = run_experiment(cfg)
        anytime = [r for r in rows if r["kind"] == "anytime"]
        # one row per (algorithm, trial, checkpoint)
        assert len(anytime) == 2 * 3 * 3
        aggregates = [r for r in rows if r["kind"] == "aggregate"]
        assert len(aggregates) >= 2 * 3
        # aggregate error rate equals the mean of the matching flags, and the
        # reported deviation is the binomial std of those flags
        for agg in aggregates:
            if agg["budget"] is None:
                continue
            flags = [
                r["error"]
                for r in anytime
                if r["algorithm"] == agg["algorithm"] and r["budget"] == agg["budget"]
            ]
            assert agg["n_trials"] == len(flags)
            p = float(np.mean(flags))
            assert agg["error_rate"] == pytest.approx(p)
            assert agg["error_std"] == pytest.approx(math.sqrt(p * (1 - p)), abs=1e-12)

    def test_csv_round_trip(self, tmp_path):
        cfg = self.make_config(tmp_path)
        rows = run_experiment(cfg)
        parsed = read_csv(cfg.out)
        assert len(parsed) == len(rows)
        assert list(parsed[0].keys()) == list(RESULT_COLUMNS)
        for raw, row in zip(parsed, rows):
            for col in RESULT_COLUMNS:
                want = row.get(col)
                got = raw[col]
                if want is None:
                    assert got == ""
                elif isinstance(want, float):
                    assert float(got) == want  # repr round-trips exactly
                else:
                    assert got == str(int(want)) if isinstance(want, (bool, int, np.integer)) else str(want)

    def test_fixed_confidence_mode(self, tmp_path):
        cfg = self.make_config(tmp_path, checkpoints=(), algorithms=("maxgap-ucb",))
        rows = run_experiment(cfg)
        stops = [r for r in rows if r["kind"] == "stop"]
        assert len(stops) == 3
        assert all(r["stopped_by"] == "rule" for r in stops)
        agg = [r for r in rows if r["kind"] == "aggregate"]
        assert len(agg) == 1 and agg[0]["n_trials"] == 3

    def test_zero_noise_errors_zero_at_first_checkpoint(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("0.0\n1.0\n3.0\n")
        cfg = ExperimentConfig(
            instance=str(p),
            sigma=0.0,
            algorithms=("uniform", "maxgap-elim", "maxgap-ucb", "maxgap-top2-ucb", "naive"),
            trials=2,
            seed=0,
            checkpoints=(30, 300),
            budget_cap=10_000,
            out=str(tmp_path / "o.csv"),
        )
        rows = run_experiment(cfg)
        assert all(r["error"] == 0 for r in rows if r["kind"] == "anytime")

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.make_config(tmp_path)
        run_experiment(cfg)
        first = open(cfg.out, "rb").read()
        run_experiment(cfg)
        assert open(cfg.out, "rb").read() == first


class TestProfile:
    def test_long_form_accounting(self, tmp_path):
        cfg = ExperimentConfig(
            instance="lower-bound",
            algorithms=("maxgap-ucb",),
            trials=1,
            seed=3,
            checkpoints=(100, 1000, 10_000),
            budget_cap=50_000,
            ucb_stop_factor=1000.0,  # keep sampling through every checkpoint
            check_growth=1.01,
            out=str(tmp_path / "prof.csv"),
        )
        rows = allocation_profile(cfg)
        assert len(rows) == 3 * 4
        for budget in (100, 1000, 10_000):
            total = sum(r["samples"] for r in rows if r["budget"] == budget)
            assert abs(total - budget) < 4  # within one round's batch
        parsed = read_csv(cfg.out)
        assert len(parsed) == len(rows)

    def test_requires_checkpoints(self):
        with pytest.raises(ValueError):
            allocation_profile(ExperimentConfig(checkpoints=()))


class TestVerifyBounds:
    def test_small_sweep_exact(self):
        report = verify_bounds(4, 200, seed=0)
        assert report["max_discrepancy"] <= 1e-12

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            verify_bounds(9, 10, seed=0)

    def test_cli_flags_and_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "vb.json"
        code = main(["verify-bounds", "--arms", "3", "--snapshots", "50", "--seed", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["max_discrepancy"] <= 1e-12
        assert "max_discrepancy" in capsys.readouterr().out

    def test_discrepancy_exits_nonzero(self, monkeypatch, capsys):
        import maxgap.cli as cli

        def broken(l, r):
            return np.zeros(l.size), np.zeros(l.size)

        monkeypatch.setattr(cli, "upper_gaps", broken)
        code = main(["verify-bounds", "--arms", "3", "--snapshots", "5", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "counterexample" in captured.err


class TestHardnessCommand:
    def test_prints_gamma_table(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = main(["hardness", "--instance", "lower-bound", "--delta", "0.1", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        lines = [ln for ln in text.splitlines() if ln.strip().startswith("4 ")]
        assert lines and "0.1000" in lines[0]
        rows = read_csv(out)
        assert float(rows[3]["gamma"]) == 0.1
        assert rows[3]["gamma_l"] == "inf"

    def test_rejects_bad_instance(self, capsys):
        with pytest.raises(SystemExit):
            main(["hardness", "--instance", "no-such-file.txt"])


class TestCliRun:
    def test_run_subcommand_with_config_and_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "instance": "lower-bound",
                    "instance_params": {"nu": 1.0, "epsilon": 0.2},
                    "algorithms": ["uniform"],
                    "trials": 2,
                    "checkpoints": [100, 400],
                    "budget_cap": 10_000,
                }
            )
        )
        out = tmp_path / "res.csv"
        code = main(["run", "--config", str(cfg_path), "--seed", "9", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert {r["kind"] for r in rows} >= {"anytime", "aggregate"}
        assert all(r["seed"] in ("9", "10", "") for r in rows)

    @pytest.mark.parametrize(
        "bad, named",
        [
            ({"checkpoint_range": 5}, "bad.json"),
            ({"trials": "3"}, "bad.json"),
            ({"seed": "3"}, "bad.json"),
            ({"budget_cap": "5000"}, "bad.json"),
            ({"elim_early_stop": "no"}, "bad.json"),
            ({"checkpoints": [[100]]}, "bad.json"),
            ({"instance": "one-gap", "instance_params": {"n_arm": 30}}, "n_arm"),
            ({"instance": "one-gap", "instance_params": {"n_arms": [30]}}, "one-gap"),
            ({"instance": "one-gap", "instance_params": {"n_arms": "x"}}, "'one-gap': n_arms"),
            ({"checkpoint_range": [1000.7, 5000]}, "checkpoint_range"),
            ({"checkpoint_count": 5}, "checkpoint_count"),
            ({"instance": "one-gap", "instance_params": {"n_arms": 24.7}}, "'one-gap': n_arms"),
            ({"instance": "one-gap", "instance_params": {"n_arms": True}}, "'one-gap': n_arms"),
            ({"instance": "one-gap", "instance_params": {"n_arms": "6"}}, "'one-gap': n_arms"),
            ({"instance": "lower-bound", "instance_params": {"nu": "1.0"}}, "'lower-bound': nu"),
            ({"checkpoint_range": [1, 2, 3]}, "checkpoint_range"),
            ({"checkpoint_range": [5000, 100]}, "checkpoint_range"),
            ({"checkpoint_range": [100, 5000], "checkpoint_count": 1}, "checkpoint_count"),
            ({"check_growth": math.nan}, "check_growth"),
            ({"check_growth": math.inf}, "check_growth"),
            ({"ucb_stop_factor": math.nan}, "ucb_stop_factor"),
            ({"seed": -1}, "seed"),
            ({"sigma": 0.5}, "'two-gap': sigma"),
            ({"instance": "one-gap", "sigma": 2.0}, "'one-gap': sigma"),
            ({"checkpoints": [10]}, "checkpoints: the last checkpoint 10"),
            ({"algorithms": []}, "algorithms"),
            ({"algorithms": ["uniform", "uniform"]}, "algorithms"),
        ],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, bad, named):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"algorithms": ["uniform"], "budget_cap": 5000} | bad))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("maxgap: error:") and named in err

    @pytest.mark.parametrize(
        "command, flag, name, value",
        [
            ("run", "--seed", "seed", 7),
            ("run", "--trials", "trials", 5),
            ("run", "--delta", "delta", 0.05),
            ("run", "--out", "out", "flag.csv"),
            ("run", "--sigma", "sigma", 0.5),
            ("run", "--instance", "instance", "two-gap"),
            ("profile", "--seed", "seed", 7),
            ("profile", "--delta", "delta", 0.05),
            ("hardness", "--delta", "delta", 0.05),
            ("hardness", "--alpha", "alpha", 3.5),
        ],
    )
    def test_flag_sets_field_of_its_name(self, tmp_path, monkeypatch, command, flag, name, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "instance": "lower-bound",
                    "instance_params": {"nu": 1.0, "epsilon": 0.2},
                    "algorithms": ["uniform"],
                    "seed": 3,
                    "trials": 2,
                    "delta": 0.2,
                    "alpha": 2.0,
                    "out": str(tmp_path / "file.csv"),
                }
            )
        )
        if name == "out":
            value = str(tmp_path / value)
        seen = []
        apply_overrides = cli._apply_overrides
        monkeypatch.setattr(
            cli, "_apply_overrides", lambda c, a: seen.append(apply_overrides(c, a)) or seen[-1]
        )
        monkeypatch.setattr(cli, "run_experiment", lambda config: [])
        monkeypatch.setattr(cli, "allocation_profile", lambda config: [])
        assert main([command, "--config", str(cfg_path), flag, str(value)]) == 0
        expected = replace(load_config(str(cfg_path)), **{name: value})
        if name == "instance":
            expected = replace(expected, instance_params={})
        assert seen == [expected]

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "--trials", "9"],
            ["hardness", "--trials", "7", "--seed", "5"],
            ["hardness", "--seed", "5"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_exits_2(self, capsys, argv):
        # profile runs one trial and hardness draws nothing, so these flags
        # would change nothing
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert all(flag in err for flag in argv[1::2])

    def test_every_flag_names_a_config_field(self):
        names = {f.name for f in fields(ExperimentConfig)} | {"config"}
        for command, flags in cli._COMMAND_FLAGS.items():
            assert set(flags) <= names, command

    def test_streetview_scale_means_file(self, tmp_path):
        p = tmp_path / "sv.txt"
        p.write_text("\n".join(repr(m) for m in make_streetview_scale_means()) + "\n")
        out = tmp_path / "sv.csv"
        code = main(
            [
                "run", "--instance", str(p), "--sigma", "0.05", "--seed", "0",
                "--trials", "1", "--out", str(out), "--config", str(self._mini_cfg(tmp_path)),
            ]
        )
        assert code == 0
        assert read_csv(out)

    @staticmethod
    def _mini_cfg(tmp_path):
        p = tmp_path / "mini.json"
        p.write_text(
            json.dumps({"algorithms": ["uniform"], "checkpoints": [500], "budget_cap": 5000})
        )
        return p
