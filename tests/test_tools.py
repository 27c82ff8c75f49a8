"""The digest tools under tools/ run against this tree's library."""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from pilotforge import optimizer

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["artifact_sha256", "fit_digest", "gate_digest",
                                  "srl_digest"])
def test_tool_loads(name):
    assert callable(load(name).main)


def test_srl_digest_hashes_every_result_of_a_run():
    # the beta reference's 10 draws x 2 groups and the final SRL's 2 groups
    results, hexdigest = load("srl_digest").digest(1, "single")
    assert results == 22
    assert re.fullmatch(r"[0-9a-f]{64}", hexdigest)


def test_srl_digest_hashes_every_baseline_group():
    # the uniform and random baselines' 2 groups each, the idle-subband
    # columns of the multiband uniform baseline among them
    for band in ("single", "multi"):
        results, hexdigest = load("srl_digest").baseline_digest(band)
        assert results == 4
        assert re.fullmatch(r"[0-9a-f]{64}", hexdigest)


def test_gate_digest_hashes_every_decision_of_a_toy_run():
    wrapped = {name: getattr(optimizer, name) for name in ("_gate_decisions",)}
    decisions, hexdigest = load("gate_digest").digest(1, "single", population=20, elite=10,
                                                      iterations=2)
    # at least the initial population's 20 columns per group, each decided once
    assert decisions >= 40
    assert re.fullmatch(r"[0-9a-f]{64}", hexdigest)
    for name, original in wrapped.items():
        assert getattr(optimizer, name) is original


def test_artifact_table_lists_every_file_by_path(tmp_path):
    files = {"s1/b.json": b"{}", "s1/a.csv": b"", "top.txt": b"x"}
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    assert load("artifact_sha256").table(tmp_path) == ["| file | SHA-256 |", "| --- | --- |"] + [
        f"| {name} | {hashlib.sha256(files[name]).hexdigest()} |" for name in sorted(files)]
