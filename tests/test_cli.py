import configparser
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from pilotforge import receiver
from pilotforge.ambiguity import SidelobeRegion
from pilotforge.cli import ExperimentConfig, ConfigError, main
from pilotforge.optimizer import EdaConfig
from pilotforge.receiver import PsoConfig
from pilotforge.resolution import SrlSearch

TOY_INI = """
[band]
subcarriers = 64
[users]
budgets = 24, 24
[eda]
population = 50
elite = 25
iterations = 6
[srl]
beta_margin = 1.10
"""


@pytest.fixture(scope="module")
def toy_artifact(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "cfg.ini"
    cfg.write_text(TOY_INI)
    rc = main(["optimize", "--config", str(cfg), "--seed", "3", "--out", str(d)])
    assert rc == 0
    return d, cfg, d / "pattern_single.json"


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = ExperimentConfig.default()
        assert cfg.values["band"]["subcarriers"] == 256
        assert cfg.values["band"]["spacing_hz"] == 120e3
        assert cfg.values["band"]["center_hz"] == 3.5e9
        assert cfg.values["users"] == {"groups": 2, "codes": 2,
                                       "budgets": [128, 128],
                                       "multi_budgets": [127, 127]}
        assert cfg.values["eda"]["population"] == 400
        assert cfg.values["eda"]["elite"] == 200
        assert cfg.values["eda"]["iterations"] == 60
        assert cfg.values["offline"]["noise_std"] == 0.1778
        assert cfg.values["sim"]["snr_db"] == [15.0]
        assert cfg.values["band"]["multi_centers_hz"] == [3.5e9, 3.9e9]

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[nope]\nx = 1\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(p)

    def test_unknown_option_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[band]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(p)
        # [pso] keeps max_paths only; the removed swarm settings are unknown
        p.write_text("[pso]\nparticles = 100\n")
        with pytest.raises(ConfigError, match="unknown option 'particles'"):
            ExperimentConfig.from_file(p)
        assert main(["optimize", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_bad_value_exit_code(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[band]\nsubcarriers = many\n")
        assert main(["optimize", "--config", str(p)]) == 2

    @pytest.mark.parametrize("name,text", [
        ("bad.json", '{"band": {"subcarriers": "many"}}'),
        ("bad.json", '{"users": {"budgets": [24.7, 24]}}'),
        ("bad.ini", "[users]\nbudgets = 24.7, 24\n"),
        ("bad.json", '{"eda": {"population": 99.5}}'),
        ("bad.json", '{"sim": {"snr_db": 15}}'),
    ])
    def test_bad_value_is_config_error_in_either_form(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ConfigError, match="bad value"):
            ExperimentConfig.from_file(p)
        assert main(["optimize", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_ini_and_json_give_the_same_config(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[band]\nsubcarriers = 64\nmulti_centers_hz = 3.5e9 3.7e9\n"
                       "[users]\nbudgets = 24, 24\n"
                       "[srl]\nbeta_margin = 1.10\nbeta_s = 2e-9, 3e-9\n"
                       "[sim]\nsnr_db = 5, inf\n[output]\nseed = 7\n")
        js = tmp_path / "cfg.json"
        js.write_text(json.dumps({
            "band": {"subcarriers": 64, "multi_centers_hz": [3.5e9, 3.7e9]},
            "users": {"budgets": [24, 24]},
            "srl": {"beta_margin": 1.1, "beta_s": [2e-9, 3e-9]},
            "sim": {"snr_db": [5, "inf"]}, "output": {"seed": 7}}))
        a, b = ExperimentConfig.from_file(ini), ExperimentConfig.from_file(js)
        assert a.config_hash() == b.config_hash()
        assert a.seed == b.seed == 7
        assert a.values["users"]["budgets"] == [24, 24]
        assert a.values["sim"]["snr_db"] == [5.0, float("inf")]

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        assert main(["optimize", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        p = tmp_path / "bad.ini"
        p.write_text("[output]\nseed = -1\n")
        with pytest.raises(ConfigError, match="non-negative"):
            ExperimentConfig.from_file(p)
        assert main(["optimize", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.glob("pattern_*.json"))

    def test_config_file_not_utf8_exit_code(self, toy_artifact, tmp_path, capsys):
        _, _, pat = toy_artifact
        p = tmp_path / "bad.ini"
        p.write_bytes(b"\xff\xfe" + "[band]\nsubcarriers = 64\n".encode("utf-16-le"))
        assert main(["isl", "--config", str(p), "--pattern", str(pat)]) == 2
        out = capsys.readouterr()
        assert "config error" in out.err and out.out == ""

    def test_unknown_band_mode_exit_code(self, toy_artifact, tmp_path):
        _, _, pat = toy_artifact
        p = tmp_path / "bad.ini"
        p.write_text(TOY_INI.replace("[band]\n", "[band]\nmode = triple\n"))
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig.from_file(p)
        assert main(["isl", "--config", str(p), "--pattern", str(pat)]) == 2
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig.from_mapping({"band": {"mode": "triple"}})

    def test_readme_config_block_matches_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.read_string(block)
        documented = {s: dict(parser[s]) for s in parser.sections()}
        default = ExperimentConfig.default()
        assert {s: set(o) for s, o in documented.items()} == \
            {s: set(o) for s, o in default.values.items()}
        assert ExperimentConfig.from_mapping(documented) == default

    def test_every_library_option_lands_in_its_field(self, tmp_path):
        # every [offline], [srl], [eda] and [pso] option, each off its default
        options = {
            "offline": {"gain1": 0.8, "gain2": 0.6, "noise_std": 0.2, "prior_std_s": 2e-9},
            "srl": {"tau_lo_s": 0.1e-9, "tau_hi_s": 40e-9, "step_s": 0.02e-9, "tol_s": 2e-13,
                    "gate_step_s": 0.1e-9, "beta_margin": 1.2, "beta_reference_draws": 5,
                    "beta_s": [3e-9, 4e-9]},
            "eda": {"population": 50, "elite": 10, "iterations": 7, "retry_cap": 20},
            "pso": {"max_paths": 5},
        }
        default = ExperimentConfig.default().values
        assert {s: set(o) for s, o in options.items()} == {s: set(default[s]) for s in options}
        assert all(v != default[s][k] for s, o in options.items() for k, v in o.items())
        ini = tmp_path / "cfg.ini"
        ini.write_text("[output]\nseed = 7\n" + "".join(
            f"[{s}]\n" + "".join(f"{k} = {', '.join(map(str, v)) if isinstance(v, list) else v}\n"
                                 for k, v in o.items())
            for s, o in options.items()))
        cfg = ExperimentConfig.from_file(ini)
        search = {"tau_lo_s": 0.1e-9, "tau_hi_s": 40e-9, "step_s": 0.02e-9, "tol_s": 2e-13}
        eda = {"budgets": (128, 128), "region": SidelobeRegion(65.1e-9, 4.1666667e-6),
               "population": 50, "elite": 10, "iterations": 7, "srl_ceilings_s": (3e-9, 4e-9),
               "beta_margin": 1.2, "beta_reference_draws": 5, "offline_gains": (0.8, 0.6),
               "offline_noise_std": 0.2, "prior_std_s": 2e-9, "retry_cap": 20,
               "gate_step_s": 0.1e-9, "final_search": SrlSearch(**search), "seed": 7}
        for built, expected, cls in [(cfg.eda_config(), eda, EdaConfig),
                                     (cfg.srl_search(), search, SrlSearch),
                                     (cfg.pso_config(), options["pso"], PsoConfig)]:
            assert {f.name for f in dataclasses.fields(cls)} == set(expected)
            for name, value in expected.items():
                got = getattr(built, name)
                assert (got, type(got)) == (value, type(value)), name

    def test_band_override_and_layout(self):
        cfg = ExperimentConfig.default().with_overrides(mode="multi")
        lay = cfg.layout()
        assert lay.mode == "multi"
        assert lay.n_total == 254
        assert cfg.budgets() == [127, 127]

    def test_even_multiband_count_is_config_error(self):
        with pytest.raises(ConfigError, match="odd"):
            ExperimentConfig.from_mapping(
                {"band": {"mode": "multi", "multi_counts": [128, 128]}}).layout()

    def test_json_config_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"eda": {"population": 99, "elite": 10}}))
        cfg = ExperimentConfig.from_file(p)
        assert cfg.values["eda"]["population"] == 99


class TestOptimizeArtifacts(object):
    def test_artifact_schema(self, toy_artifact):
        _, _, pat = toy_artifact
        data = json.loads(pat.read_text())
        assert data["format"] == "pilotforge-pattern-v1"
        assert data["seed"] == 3
        assert len(data["config_hash"]) == 64
        assert len(data["groups"]) == 2
        for g in data["groups"]:
            assert len(g["indices"]) == 24
            assert g["srl_ns"] is None or g["srl_ns"] > 0
        assert data["fitness_db"] == pytest.approx(
            10 * np.log10(data["fitness"]))

    def test_same_seed_byte_identical(self, toy_artifact, tmp_path):
        d, cfg, pat = toy_artifact
        rc = main(["optimize", "--config", str(cfg), "--seed", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "pattern_single.json").read_bytes() == pat.read_bytes()
        assert (tmp_path / "trace_single.csv").read_bytes() == \
            (d / "trace_single.csv").read_bytes()

    def test_artifact_reproduces_itself(self, toy_artifact, tmp_path):
        _, _, pat = toy_artifact
        rc = main(["optimize", "--config", str(pat), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "pattern_single.json").read_bytes() == pat.read_bytes()

    def test_trace_csv_embeds_config_and_is_monotone(self, toy_artifact):
        d, _, _ = toy_artifact
        lines = (d / "trace_single.csv").read_text().splitlines()
        assert any(line.startswith("# seed = 3") for line in lines)
        body = [line for line in lines if not line.startswith("#")]
        assert body[0] == "iteration,best_fitness,best_fitness_db"
        vals = [float(r.split(",")[1]) for r in body[1:]]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_infeasible_beta_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        # beta far below anything achievable: sampler exhausts, exit code 3
        cfg.write_text(TOY_INI + "beta_s = 1e-13, 1e-13\n[output]\nseed = 0\n")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_reference_without_srl_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        # no random reference column has its SRL below 2 ns: no beta, exit code 3
        cfg.write_text(TOY_INI + "tau_hi_s = 2e-9\n")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "random reference pattern has no SRL in the search range" in out.err
        assert not list(tmp_path.glob("pattern_*.json"))

    @pytest.mark.parametrize("band,line,message", [
        ("single", "gate_step_s = 0", "gate step"),
        ("single", "gate_step_s = -1e-11", "gate step"),
        ("single", "gate_step_s = inf", "gate step"),
        ("single", "beta_reference_draws = 0", "beta reference draw"),
        ("single", "beta_margin = 0", "beta margin"),
        ("single", "beta_margin = -1", "beta margin"),
        ("single", "beta_margin = inf", "beta margin"),
        ("multi", "[offline]\nprior_std_s = 0", "prior std"),
        ("single", "beta_s = nan, nan", "SRL ceilings"),
        ("multi", "beta_s = inf, inf", "SRL ceilings"),
    ])
    def test_bad_gate_setting_exit_code(self, tmp_path, capsys, band, line, message):
        cfg = tmp_path / "cfg.ini"
        # the toy INI ends in its [srl] section, whose beta_margin line this replaces
        cfg.write_text(TOY_INI.replace("beta_margin = 1.10", line)
                       .replace("iterations = 6", "iterations = 1")
                       .replace("population = 50\nelite = 25", "population = 8\nelite = 4"))
        assert main(["optimize", "--band", band, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["[offline]\nprior_std_s = 0",
                                      "beta_s = 1e-6, 1e-6\nbeta_margin = 0\n"
                                      "beta_reference_draws = 0"])
    def test_unused_gate_setting_is_not_checked(self, tmp_path, line):
        cfg = tmp_path / "cfg.ini"
        # single band never reads the prior; explicit ceilings never read the margin
        cfg.write_text(TOY_INI.replace("beta_margin = 1.10", line)
                       .replace("iterations = 6", "iterations = 1")
                       .replace("population = 50\nelite = 25", "population = 8\nelite = 4"))
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0


class TestMetricsCommands:
    @pytest.mark.parametrize("command", ["srl", "optimize"])
    @pytest.mark.parametrize("band,line,message", [
        ("single", "noise_std = 0", "noise std"),
        ("single", "noise_std = -0.1", "noise std"),
        ("multi", "prior_std_s = 0", "prior std"),
        ("single", "noise_std = inf", "noise std"),
        ("single", "noise_std = nan", "noise std"),
        ("single", "gain1 = nan", "gains"),
        ("single", "gain2 = inf", "gains"),
        ("multi", "gain2 = -inf", "gains"),
        ("multi", "prior_std_s = inf", "prior std"),
    ])
    def test_bad_offline_value_exit_code(self, toy_artifact, tmp_path, capsys, command,
                                         band, line, message):
        _, _, pat = toy_artifact
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TOY_INI + f"[offline]\n{line}\n")
        args = ["--pattern", str(pat)] if command == "srl" else ["--out", str(tmp_path)]
        assert main([command, "--band", band, "--config", str(cfg)] + args) == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out
        assert not [p for p in tmp_path.iterdir() if p.suffix in (".csv", ".json")]

    @pytest.mark.parametrize("command", ["srl", "optimize"])
    @pytest.mark.parametrize("line,message", [
        ("tau_lo_s = 60e-9", "tau_lo < tau_hi"),   # above the default 50 ns tau_hi
        ("tau_hi_s = inf", "tau_lo < tau_hi"),
        ("step_s = 0", "grid step"),
        ("step_s = nan", "grid step"),
        ("step_s = inf", "grid step"),
        ("tol_s = nan", "grid step"),
        ("tol_s = inf", "grid step"),
    ])
    def test_bad_srl_search_value_exit_code(self, toy_artifact, tmp_path, capsys, command,
                                            line, message):
        _, _, pat = toy_artifact
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TOY_INI + f"{line}\n")  # the toy INI ends in its [srl] section
        args = ["--pattern", str(pat)] if command == "srl" else ["--out", str(tmp_path)]
        assert main([command, "--config", str(cfg)] + args) == 2
        assert message in capsys.readouterr().err
        assert not [p for p in tmp_path.iterdir() if p.suffix in (".csv", ".json")]

    @pytest.mark.parametrize("command", ["isl", "srl", "optimize"])
    def test_unbounded_region_exit_code(self, toy_artifact, tmp_path, capsys, command):
        _, _, pat = toy_artifact
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TOY_INI + "[region]\nb_s = inf\n")
        args = ["--out", str(tmp_path)] if command == "optimize" else ["--pattern", str(pat)]
        assert main([command, "--config", str(cfg)] + args) == 2
        captured = capsys.readouterr()
        assert "0 < a < b < inf" in captured.err and not captured.out
        assert not [p for p in tmp_path.iterdir() if p.suffix in (".csv", ".json")]

    @pytest.mark.parametrize("command", ["isl", "srl"])
    @pytest.mark.parametrize("band,line,message", [
        ("single", "spacing_hz = nan", "spacing"),
        ("single", "spacing_hz = inf", "spacing"),
        ("single", "center_hz = inf", "center"),
        ("multi", "multi_spacings_hz = 120e3, nan", "spacing"),
        ("multi", "multi_centers_hz = 3.5e9, inf", "center"),
        # three centers for two spacings and two counts
        ("multi", "multi_centers_hz = 3.5e9, 3.9e9, 4.3e9", "equal lengths"),
    ])
    def test_non_finite_band_value_exit_code(self, toy_artifact, tmp_path, capsys, command,
                                             band, line, message):
        _, _, pat = toy_artifact
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TOY_INI.replace("subcarriers = 64", f"subcarriers = 64\n{line}"))
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_file(cfg).with_overrides(mode=band).layout()
        assert main([command, "--band", band, "--config", str(cfg),
                     "--pattern", str(pat)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out

    def test_isl_output(self, toy_artifact, capsys):
        d, cfg, pat = toy_artifact
        assert main(["isl", "--config", str(cfg), "--pattern", str(pat)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["isl_db"]) == 2
        assert out["max_isl_db"] == pytest.approx(max(out["isl_db"]))

    def test_srl_output(self, toy_artifact, capsys):
        d, cfg, pat = toy_artifact
        assert main(["srl", "--config", str(cfg), "--pattern", str(pat)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["groups"]) == 2

    def test_af_normalized_peak(self, toy_artifact, capsys):
        d, cfg, pat = toy_artifact
        assert main(["af", "--config", str(cfg), "--pattern", str(pat),
                     "--out", str(d)]) == 0
        capsys.readouterr()
        lines = [l for l in (d / "af_single.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "delta_tau_ns,group0_db,group1_db"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(0.0, abs=1e-9)
        assert float(first[2]) == pytest.approx(0.0, abs=1e-9)

    def test_malformed_pattern_schema_rejected(self, toy_artifact, tmp_path, capsys):
        d, cfg, pat = toy_artifact
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "pilotforge-pattern-v1",
                                   "groups": [{"indices": []}]}))
        assert main(["isl", "--config", str(cfg), "--pattern", str(bad)]) == 2
        data = json.loads(pat.read_text())
        data["groups"][0]["indices"] = [999]
        bad.write_text(json.dumps(data))
        assert main(["isl", "--config", str(cfg), "--pattern", str(bad)]) == 2
        data = json.loads(pat.read_text())
        # subcarrier 1 is free, so a JSON true read as the int 1 would load silently
        first, second = ([i for i in g["indices"] if i != 1] for g in data["groups"])
        cases = [
            ("--pattern", {**data, "groups": [1, 2]}),
            ("--pattern", {**data, "groups": [{"indices": [True] + first},
                                              {"indices": second}]}),
            # a pattern artifact given as the config reproduces its run from both keys
            ("--config", {k: v for k, v in data.items() if k != "config"}),
            ("--config", {**data, "seed": "abc"}),
            ("--config", {k: v for k, v in data.items() if k != "seed"}),
            ("--config", {**data, "seed": None}),
        ]
        capsys.readouterr()
        for option, payload in cases:
            bad.write_text(json.dumps(payload))
            files = {"--config": str(cfg), "--pattern": str(pat), option: str(bad)}
            argv = ["isl"] + [arg for item in files.items() for arg in item]
            assert main(argv) == 2, payload
            captured = capsys.readouterr()
            assert "config error" in captured.err and not captured.out

    @pytest.mark.parametrize("command", ["isl", "srl", "af", "simulate"])
    def test_pattern_of_the_other_band_rejected(self, toy_artifact, tmp_path, capsys,
                                                command):
        d, cfg, pat = toy_artifact
        assert main([command, "--band", "multi", "--config", str(cfg), "--pattern", str(pat),
                     "--out", str(tmp_path)]) == 2
        assert "'single' band pattern" in capsys.readouterr().err

    def test_missing_pattern_file(self, toy_artifact):
        d, cfg, _ = toy_artifact
        assert main(["isl", "--config", str(cfg),
                     "--pattern", str(d / "nope.json")]) == 2

    @pytest.mark.parametrize("command", ["isl", "srl"])
    def test_repeated_index_rejected(self, toy_artifact, tmp_path, capsys, command):
        # a mask would merge the repeat and load one pilot fewer than listed
        d, cfg, pat = toy_artifact
        data = json.loads(pat.read_text())
        indices = data["groups"][0]["indices"]
        indices.append(indices[0])
        bad = tmp_path / "repeat.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--pattern", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "lists a subcarrier index twice" in captured.err and not captured.out

    def test_overlapping_pattern_rejected(self, toy_artifact, tmp_path):
        d, cfg, pat = toy_artifact
        data = json.loads(pat.read_text())
        data["groups"][1]["indices"] = data["groups"][0]["indices"]
        bad = tmp_path / "overlap.json"
        bad.write_text(json.dumps(data))
        assert main(["isl", "--config", str(cfg), "--pattern", str(bad)]) == 2


class TestSimulate:
    @pytest.mark.parametrize("command,users", [
        ("simulate", "budgets = 24, 24\ncodes = 0"),
        ("simulate", "budgets = 24, 24\ncodes = 65"),  # more codes than subcarriers
        ("optimize", "groups = 0\nbudgets ="),
        ("simulate", "groups = 0\nbudgets ="),
        ("af", "budgets = 24, 24\n[af]\npoints = -3"),
        ("af", "budgets = 24, 24\n[af]\ntau_max_s = inf"),  # a sweep of NaN rows
        ("optimize", "budgets = 40, 40"),  # 80 pilots on 64 subcarriers
        ("simulate", "budgets = 0, 24"),
        ("simulate", "budgets = -3, 24"),
        ("simulate", "budgets = 40, 20"),  # past the uniform baseline's 32-subcarrier segment
    ])
    def test_bad_users_or_af_value_exit_code(self, toy_artifact, tmp_path, capsys,
                                             command, users):
        _, _, pat = toy_artifact
        c2 = tmp_path / "cfg.ini"
        c2.write_text(TOY_INI.replace("budgets = 24, 24", users) + "\n[sim]\ntrials = 1\n")
        argv = [command, "--config", str(c2), "--out", str(tmp_path)]
        if command != "optimize":
            argv += ["--pattern", str(pat)]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not [p for p in tmp_path.iterdir() if p.suffix in (".csv", ".json")]

    def test_every_trial_failing_is_a_numerical_failure(self, tmp_path, capsys):
        # 32 subcarriers put 2 delay bins in the 400 ns gate: too few for 2 paths
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[band]\nsubcarriers = 32\n[users]\nbudgets = 16, 16\n"
                       "[sim]\ntrials = 2\n")
        pat = tmp_path / "pattern.json"
        pat.write_text(json.dumps({"format": "pilotforge-pattern-v1", "band": "single",
                                   "groups": [{"indices": list(range(0, 32, 2))},
                                              {"indices": list(range(1, 32, 2))}]}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--pattern", str(pat),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err and "every trial failed" in err
        assert "'proposed'" in err
        assert not out.exists()

    def test_requires_pattern(self, toy_artifact):
        d, cfg, _ = toy_artifact
        assert main(["simulate", "--config", str(cfg), "--out", str(d)]) == 2

    @pytest.mark.parametrize("sim", [
        "tau_max_s = 10e-6",          # past the 8.33 us unambiguous range
        "tau_max_s = -1e-9",
        "n_paths = 0",
        "min_separation_s = 500e-9",  # two paths 500 ns apart in a 400 ns gate
        "snr_db =",
        "snr_db = -inf",              # infinite noise, not a noiseless run
        "snr_db = nan",
        # one path has no adjacent pair, so only the check itself catches these;
        # with two paths a NaN separation made the delay redraw loop spin forever
        "n_paths = 1\nmin_separation_s = nan",
        "n_paths = 1\nmin_separation_s = inf",
        "min_separation_s = -1e-9",
        # a bad second SNR stops the run before the first SNR's trials
        "snr_db = 15, -inf",
        "snr_db = 15, nan",
    ])
    def test_bad_sim_value_exit_code(self, toy_artifact, tmp_path, capsys, monkeypatch, sim):
        _, _, pat = toy_artifact
        fits = []
        fit = receiver.estimate_paths_psols
        monkeypatch.setattr(receiver, "estimate_paths_psols",
                            lambda *args, **kw: fits.append(1) or fit(*args, **kw))
        c2 = tmp_path / "cfg.ini"
        c2.write_text(TOY_INI + f"\n[sim]\ntrials = 1\n{sim}\n")
        assert main(["simulate", "--config", str(c2), "--pattern", str(pat),
                     "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and not captured.out
        assert not fits
        assert not (tmp_path / "nmse_single.csv").exists()

    @pytest.mark.parametrize("max_paths", [0, -2])
    def test_bad_pso_value_exit_code(self, toy_artifact, tmp_path, capsys, max_paths):
        _, _, pat = toy_artifact
        c2 = tmp_path / "cfg.ini"
        c2.write_text(TOY_INI + f"\n[sim]\ntrials = 1\n[pso]\nmax_paths = {max_paths}\n")
        with pytest.raises(ConfigError, match="max_paths"):
            ExperimentConfig.from_file(c2).pso_config()
        assert main(["simulate", "--config", str(c2), "--pattern", str(pat),
                     "--out", str(tmp_path)]) == 2
        assert "max_paths" in capsys.readouterr().err
        assert not (tmp_path / "nmse_single.csv").exists()

    def test_zero_trials_rejected(self, toy_artifact, tmp_path):
        d, cfg, pat = toy_artifact
        c2 = tmp_path / "cfg.ini"
        c2.write_text(TOY_INI + "\n[sim]\ntrials = 0\n")
        assert main(["simulate", "--config", str(c2), "--pattern", str(pat),
                     "--out", str(tmp_path)]) == 2

    def test_noiseless_resolvable_run_hits_convergence_floor(
            self, toy_artifact, tmp_path, capsys):
        # sigma = 0 with single-code users and resolvable separations:
        # every scheme's extrapolation collapses to numerical noise
        d, cfg, pat = toy_artifact
        c2 = tmp_path / "cfg.ini"
        c2.write_text(TOY_INI + "\n[sim]\ntrials = 3\nsnr_db = inf\n"
                                "min_separation_s = 120e-9\n")
        text = c2.read_text().replace("[users]\nbudgets = 24, 24",
                                      "[users]\nbudgets = 24, 24\ncodes = 1")
        c2.write_text(text)
        rc = main(["simulate", "--config", str(c2), "--pattern", str(pat),
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        lines = [l for l in (tmp_path / "nmse_single.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert header[:4] == ["snr_db", "nmse_proposed", "nmse_uniform",
                              "nmse_random"]
        for col in (1, 2, 3):
            assert float(row[col]) < 1e-6
        assert int(row[4]) == 3

    def test_csv_reproducible(self, toy_artifact, tmp_path, capsys):
        d, cfg, pat = toy_artifact
        c2 = tmp_path / "cfg.ini"
        c2.write_text(TOY_INI + "\n[sim]\ntrials = 2\n")
        for sub in ("a", "b"):
            rc = main(["simulate", "--config", str(c2), "--pattern", str(pat),
                       "--seed", "5", "--out", str(tmp_path / sub)])
            assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "a" / "nmse_single.csv").read_bytes() == \
            (tmp_path / "b" / "nmse_single.csv").read_bytes()
