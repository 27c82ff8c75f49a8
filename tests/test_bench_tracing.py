"""The benchmark's traced mode replaces package names while it runs.

``bench/bench_tracing.installed`` patches the names it times by attribute,
so a renamed function breaks only a traced benchmark run. This test keeps
every one of those names live in the suite, and checks that each is
restored when the tracer is removed.
"""

import sys
from pathlib import Path

from pilotforge import ambiguity, cli, optimizer, receiver, resolution

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import bench_tracing as tracing  # noqa: E402

OWNERS = {"cli": cli, "optimizer": optimizer, "resolution": resolution,
          "receiver": receiver, "ambiguity": ambiguity, "IslMatrix": ambiguity.IslMatrix}
TRACED = {
    ("cli", "run_eda"), ("cli", "cmd_optimize"), ("cli", "isl_matrix"),
    ("cli", "srl_of_pattern"), ("optimizer", "isl_matrix"), ("optimizer", "srl_of_pattern"),
    ("optimizer", "sample_individual"), ("optimizer", "pattern_crb_provider"),
    ("optimizer", "srl_at_most"), ("IslMatrix", "isl_many"), ("resolution", "crb_batch"),
    ("receiver", "decouple"), ("receiver", "estimate_paths_psols"),
    ("receiver", "path_residual"), ("receiver", "extrapolate_fullband"),
    ("receiver", "synthesize_received"), ("receiver", "draw_channels"),
}


def snapshot() -> dict:
    return {(name, attr): value for name, owner in OWNERS.items()
            for attr, value in vars(owner).items()}


def changed_since(before: dict) -> set:
    now = snapshot()
    return {key for key in before.keys() | now.keys()
            if before.get(key, None) is not now.get(key, None)}


def test_installed_replaces_and_restores_every_traced_name():
    before = snapshot()
    with tracing.installed(tracing.Tracer()):
        assert changed_since(before) == TRACED
    assert changed_since(before) == set()
