"""tools/digest.py runs against this tree's library."""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from pilotforge import optimizer, receiver

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
RECORDED = ((optimizer, "srl_of_pattern"), (optimizer, "_gate_decisions"),
            (receiver, "estimate_paths_psols"))


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("tools_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def is_sha256(hexdigest):
    return re.fullmatch(r"[0-9a-f]{64}", hexdigest) is not None


def test_tool_loads(digest):
    assert callable(digest.main)


def test_paper_scale_run_records_every_srl_result(digest, tmp_path):
    # the beta reference's 10 draws x 2 groups and the final SRL's 2 groups
    (results, hexdigest), _ = digest.optimize(tmp_path, "--seed", "1", "--band", "single")
    assert results == 22
    assert is_sha256(hexdigest)


def test_baselines_hash_every_group(digest):
    # the uniform and random baselines' 2 groups each, the idle-subband
    # columns of the multiband uniform baseline among them
    for band in ("single", "multi"):
        results, hexdigest = digest.baselines(band)
        assert results == 4
        assert is_sha256(hexdigest)


def test_toy_run_records_every_gate_decision_and_fit_and_restores_the_names(digest, tmp_path):
    originals = [getattr(module, name) for module, name in RECORDED]
    config = tmp_path / "toy.ini"
    config.write_text("[eda]\npopulation = 20\nelite = 10\niterations = 2\n")
    _, (decisions, hexdigest) = digest.optimize(tmp_path, "--config", str(config),
                                                "--seed", "1", "--band", "single")
    # at least the initial population's 20 columns per group, each decided once
    assert decisions >= 40
    assert is_sha256(hexdigest)
    # 50 trials x 3 schemes x 2 groups x 2 codes, on the toy optimum
    fits, hexdigest = digest.fits("single", tmp_path / "pattern_single.json")
    assert fits == 600
    assert is_sha256(hexdigest)
    with pytest.raises(RuntimeError, match="recorded"):
        with digest.recorded(receiver, "estimate_paths_psols", None):
            raise RuntimeError("recorded")
    assert [getattr(module, name) for module, name in RECORDED] == originals


def test_artifact_table_lists_every_file_by_path(digest, tmp_path):
    files = {"s1/b.json": b"{}", "s1/a.csv": b"", "top.txt": b"x"}
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    assert digest.table(tmp_path) == ["| file | SHA-256 |", "| --- | --- |"] + [
        f"| {name} | {hashlib.sha256(files[name]).hexdigest()} |" for name in sorted(files)]
