"""The benchmark's traced mode replaces package names while it runs.

``bench/bench_tracing.installed`` patches the names it times by attribute,
so a renamed function breaks only a traced benchmark run. This test keeps
every one of those names live in the suite, and checks that each is
restored when the tracer is removed.
"""

import json
import sys
from pathlib import Path

import numpy as np

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


def test_stacked_gate_is_timed_with_counting_providers():
    # a toy run whose gate rejects draws: each exact decision is a
    # ``resolution.gate`` span that scans the provider the tracer built
    from test_optimizer import toy_config, toy_layout

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        res = optimizer.run_eda(toy_layout(), toy_config(seed=5, iterations=3))
    assert res.rejected_draws > 0
    tab = tracer.table()
    gates = set(map(int, np.flatnonzero(tab["name"] == "resolution.gate")))
    builds = tab["name"] == "resolution.crb_provider_build"
    scans = tab["parent"][tab["name"] == "resolution.crb_provider"]
    assert gates and builds.sum() == len(gates)
    assert gates == set(map(int, scans))       # every gate span scanned its provider
    assert tracer.count["fims"] >= len(scans) and tracer.gate_keys


def test_traced_toy_run_gives_finite_per_layer_metrics(tmp_path):
    # the traced benchmark prints its per-layer metrics as JSON; a traced
    # name the run stops calling leaves an empty percentile, NaN, which is
    # not JSON
    from test_cli import TOY_INI

    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(TOY_INI)
    cfg = cli.ExperimentConfig.from_file(cfg_path)
    layout = cfg.layout()
    schemes = receiver.baseline_schemes(layout, 2, cfg.budgets(), seed=1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.main(["optimize", "--config", str(cfg_path), "--seed", "5",
                         "--out", str(tmp_path)]) == 0
        sim = tracer.call("receiver.sim", receiver.run_extrapolation_sim, layout, schemes,
                          15.0, trials=1, seed=2)
    assert tracer.count["rejected_draws"] > 0
    # every traced name of the simulation is still called, from inside it
    tab = tracer.table()
    for name in ("receiver.decouple", "receiver.fit", "receiver.path_residual",
                 "receiver.extrapolate", "waveform.draw_channels",
                 "waveform.synthesize_received"):
        ids = np.flatnonzero(tab["name"] == name)
        assert len(ids) and tracing._under(tab, ids, "receiver.sim").all(), name
    fits = sum(out.fits for out in sim.values())
    search_failures = sum(out.search_failures for out in sim.values())
    values = tracing.per_layer(tracer, 2, 0.0, [1.0], fits, 1.0, search_failures, 0, 0.0)
    json.dumps(values, allow_nan=False)
