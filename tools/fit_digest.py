"""SHA-256 of every path fit the extrapolation Monte Carlo makes, per band.

For each band, runs ``run_extrapolation_sim`` at the settings of acceptance
criteria C8 (single band) and C9 (multiband): the seed-1 paper-scale EDA
optimum plus the uniform and random baselines, 15 dB, 50 trials, simulator
seed 77. Every ``PathEstimate`` the simulator gets back from
``estimate_paths_psols`` feeds one SHA-256, in call order: the bytes of its
delays, its gains and its residual. It prints one markdown row per band,
``| <band> | <fits> | <sha256> |``. Two trees fit bit for bit alike exactly
when their rows match.

    python3 tools/fit_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import pilotforge as pf  # noqa: E402
from pilotforge import receiver  # noqa: E402
from pilotforge.ambiguity import SidelobeRegion  # noqa: E402
from pilotforge.optimizer import EdaConfig, run_eda  # noqa: E402

FS = 120e3
REGION = SidelobeRegion(65.1e-9, 4.1666667e-6)
SNR_DB = 15.0
TRIALS = 50
SIM_SEED = 77


def layouts() -> dict[str, tuple[pf.BandLayout, list[int]]]:
    return {
        "single": (pf.BandLayout.single(256, FS, 3.5e9), [128, 128]),
        "multi": (pf.BandLayout.multiband([pf.Subband(3.5e9, FS, 127),
                                           pf.Subband(3.9e9, FS, 127)]), [127, 127]),
    }


def digest(layout: pf.BandLayout, budgets: list[int]) -> tuple[int, str]:
    """(fits, SHA-256 over their delays, gains and residuals) of one band."""
    cfg = EdaConfig(budgets=tuple(budgets), region=REGION, population=400, elite=200,
                    iterations=60, seed=1)
    schemes = dict(receiver.baseline_schemes(layout, 2, budgets, seed=1))
    schemes["optimized"] = run_eda(layout, cfg).best
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
        receiver.run_extrapolation_sim(layout, schemes, SNR_DB, trials=TRIALS, seed=SIM_SEED)
    finally:
        receiver.estimate_paths_psols = fit
    return fits, sha.hexdigest()


def main() -> int:
    print("| band | fits | SHA-256 |\n| --- | --- | --- |")
    for band, (layout, budgets) in layouts().items():
        fits, hexdigest = digest(layout, budgets)
        print(f"| {band} | {fits} | {hexdigest} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
