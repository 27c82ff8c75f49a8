"""SHA-256 of every path fit the extrapolation Monte Carlo makes, per band.

For each band, runs ``run_extrapolation_sim`` at the settings of acceptance
criteria C8 (single band) and C9 (multiband): the seed-1 paper-scale EDA
optimum plus the uniform and random baselines, 50 trials, simulator seed 77.
The layout, budgets, EDA settings and every other simulation setting are
the default config's for that band and seed 1. Every ``PathEstimate`` the
simulator gets back from ``estimate_paths_psols`` feeds one SHA-256, in call
order: the bytes of its delays, its gains and its residual. It prints one
markdown row per band, ``| <band> | <fits> | <sha256> |``. Two trees fit bit
for bit alike exactly when their rows match.

    python3 tools/fit_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from pilotforge import receiver  # noqa: E402
from pilotforge.cli import ExperimentConfig  # noqa: E402
from pilotforge.optimizer import run_eda  # noqa: E402

TRIALS = 50
SIM_SEED = 77


def digest(band: str) -> tuple[int, str]:
    """(fits, SHA-256 over their delays, gains and residuals) of one band."""
    cfg = ExperimentConfig.default().with_overrides(seed=1, mode=band)
    layout, budgets, sim = cfg.layout(), cfg.budgets(), cfg.values["sim"]
    schemes = dict(receiver.baseline_schemes(layout, len(budgets), budgets, seed=cfg.seed))
    schemes["optimized"] = run_eda(layout, cfg.eda_config()).best
    sha, fits = hashlib.sha256(), 0
    fit = receiver.estimate_paths_psols

    def hashed(*args, **kwargs):
        nonlocal fits
        out = fit(*args, **kwargs)
        for est in [out] if isinstance(out, receiver.PathEstimate) else out:
            fits += 1
            for part in (est.delays_s, est.gains, np.float64(est.residual)):
                sha.update(np.ascontiguousarray(part).tobytes())
        return out

    receiver.estimate_paths_psols = hashed
    try:
        receiver.run_extrapolation_sim(
            layout, schemes, float(sim["snr_db"][0]), trials=TRIALS, n_codes=cfg.n_codes(),
            n_paths=int(sim["n_paths"]), tau_max_s=float(sim["tau_max_s"]),
            min_separation_s=float(sim["min_separation_s"]), pso=cfg.pso_config(),
            seed=SIM_SEED)
    finally:
        receiver.estimate_paths_psols = fit
    return fits, sha.hexdigest()


def main() -> int:
    print("| band | fits | SHA-256 |\n| --- | --- | --- |")
    for band in ("single", "multi"):
        fits, hexdigest = digest(band)
        print(f"| {band} | {fits} | {hexdigest} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
