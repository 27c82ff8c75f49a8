"""SHA-256 of every SRL-gate decision a paper-scale EDA run makes.

For seeds 1, 15 and 301 and both bands, runs ``run_eda`` at the default
config's settings for that band and seed, with ``optimizer._gate_decisions``
wrapped by name. The gate decides each (group, column) once per run, and
each call of that function decides a stack of (group, column) misses. Each
decision feeds one SHA-256 per run: the group index (int64), the column's
bytes and the verdict (one byte). The decisions are hashed in the order of
their column bytes, so a gate that decides its columns in another order or
batching hashes alike when every verdict is the same. It prints one
markdown row per run, ``| <seed> | <band> | <decisions> | <sha256> |``.

    python3 tools/gate_digest.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from pilotforge import optimizer  # noqa: E402
from pilotforge.cli import ExperimentConfig  # noqa: E402

SEEDS = (1, 15, 301)
BANDS = ("single", "multi")


def digest(seed: int, band: str, **eda) -> tuple[int, str]:
    """(decisions, SHA-256 over their groups, columns and verdicts) of one EDA
    run; ``eda`` overrides fields of the config's ``EdaConfig``."""
    cfg = ExperimentConfig.default().with_overrides(seed=seed, mode=band)
    verdicts: dict[tuple[int, bytes], bool] = {}
    real = optimizer._gate_decisions

    def recorded(layout, cfg_, beta_s, groups, cols):
        out = real(layout, cfg_, beta_s, groups, cols)
        verdicts.update(((int(g), np.asarray(col, dtype=np.uint8).tobytes()), bool(ok))
                        for g, col, ok in zip(groups, cols, out))
        return out

    optimizer._gate_decisions = recorded
    try:
        optimizer.run_eda(cfg.layout(), dataclasses.replace(cfg.eda_config(), **eda))
    finally:
        optimizer._gate_decisions = real
    sha = hashlib.sha256()
    for (group, col), ok in sorted(verdicts.items(), key=lambda item: (item[0][1], item[0][0])):
        sha.update(np.int64(group).tobytes() + col + bytes([ok]))
    return len(verdicts), sha.hexdigest()


def main() -> int:
    print("| seed | band | decisions | SHA-256 |\n| --- | --- | --- | --- |")
    for seed in SEEDS:
        for band in BANDS:
            decisions, hexdigest = digest(seed, band)
            print(f"| {seed} | {band} | {decisions} | {hexdigest} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
