import json

import numpy as np
import pytest

from pilotforge.cli import ExperimentConfig, ConfigError, main

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

    def test_unknown_band_mode_exit_code(self, toy_artifact, tmp_path):
        _, _, pat = toy_artifact
        p = tmp_path / "bad.ini"
        p.write_text(TOY_INI.replace("[band]\n", "[band]\nmode = triple\n"))
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig.from_file(p)
        assert main(["isl", "--config", str(p), "--pattern", str(pat)]) == 2
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig.from_mapping({"band": {"mode": "triple"}})

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

    @pytest.mark.parametrize("band,line,message", [
        ("single", "gate_step_s = 0", "gate step"),
        ("single", "gate_step_s = -1e-11", "gate step"),
        ("single", "beta_reference_draws = 0", "beta reference draw"),
        ("single", "beta_margin = 0", "beta margin"),
        ("single", "beta_margin = -1", "beta margin"),
        ("multi", "[offline]\nprior_std_s = 0", "prior std"),
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
    ])
    def test_bad_offline_value_exit_code(self, toy_artifact, tmp_path, capsys, command,
                                         band, line, message):
        _, _, pat = toy_artifact
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TOY_INI + f"[offline]\n{line}\n")
        args = ["--pattern", str(pat)] if command == "srl" else ["--out", str(tmp_path)]
        assert main([command, "--band", band, "--config", str(cfg)] + args) == 2
        assert message in capsys.readouterr().err

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

    def test_malformed_pattern_schema_rejected(self, toy_artifact, tmp_path):
        d, cfg, pat = toy_artifact
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "pilotforge-pattern-v1",
                                   "groups": [{"indices": []}]}))
        assert main(["isl", "--config", str(cfg), "--pattern", str(bad)]) == 2
        data = json.loads(pat.read_text())
        data["groups"][0]["indices"] = [999]
        bad.write_text(json.dumps(data))
        assert main(["isl", "--config", str(cfg), "--pattern", str(bad)]) == 2

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

    def test_overlapping_pattern_rejected(self, toy_artifact, tmp_path):
        d, cfg, pat = toy_artifact
        data = json.loads(pat.read_text())
        data["groups"][1]["indices"] = data["groups"][0]["indices"]
        bad = tmp_path / "overlap.json"
        bad.write_text(json.dumps(data))
        assert main(["isl", "--config", str(cfg), "--pattern", str(bad)]) == 2


class TestSimulate:
    def test_requires_pattern(self, toy_artifact):
        d, cfg, _ = toy_artifact
        assert main(["simulate", "--config", str(cfg), "--out", str(d)]) == 2

    @pytest.mark.parametrize("sim", [
        "tau_max_s = 10e-6",          # past the 8.33 us unambiguous range
        "tau_max_s = -1e-9",
        "n_paths = 0",
        "min_separation_s = 500e-9",  # two paths 500 ns apart in a 400 ns gate
        "snr_db =",
    ])
    def test_bad_sim_value_exit_code(self, toy_artifact, tmp_path, sim):
        _, _, pat = toy_artifact
        c2 = tmp_path / "cfg.ini"
        c2.write_text(TOY_INI + f"\n[sim]\ntrials = 1\n{sim}\n")
        assert main(["simulate", "--config", str(c2), "--pattern", str(pat),
                     "--out", str(tmp_path)]) == 2
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
