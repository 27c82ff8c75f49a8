"""SHA-256 of every SRL search result a paper-scale EDA run makes.

For seeds 1, 15 and 301 and both bands, runs ``run_eda`` at the default
config's settings for that band and seed. Every ``SrlResult`` that
``optimizer.srl_of_pattern`` returns, those of the beta reference and of the
final SRL, feeds one SHA-256 per run together with its pattern column: the
column's bytes, then the float64 bytes of its ``srl_s`` (NaN for None) and
``below_range``. The pairs are hashed in the order of their column bytes,
so a search that takes its columns one at a time and one that takes them as
a stack hash alike when every result is bit for bit the same. The pattern
artifacts do not record the reference's results. It prints one markdown row
per run, ``| <seed> | <band> | <results> | <sha256> |``.

    python3 tools/srl_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from pilotforge import optimizer  # noqa: E402
from pilotforge.cli import ExperimentConfig  # noqa: E402

SEEDS = (1, 15, 301)
BANDS = ("single", "multi")


def result_bytes(res) -> bytes:
    return np.array([np.nan if res.srl_s is None else res.srl_s, res.below_range],
                    dtype=np.float64).tobytes()


def digest(seed: int, band: str) -> tuple[int, str]:
    """(results, SHA-256 over their columns and bytes) of one EDA run."""
    cfg = ExperimentConfig.default().with_overrides(seed=seed, mode=band)
    pairs = []
    search = optimizer.srl_of_pattern

    def recorded(layout, w, *args, **kwargs):
        out = search(layout, w, *args, **kwargs)
        cols = np.atleast_2d(np.asarray(w, dtype=np.uint8))
        results = out if isinstance(out, tuple) else (out,)
        pairs.extend((col.tobytes(), result_bytes(res)) for col, res in zip(cols, results))
        return out

    optimizer.srl_of_pattern = recorded
    try:
        optimizer.run_eda(cfg.layout(), cfg.eda_config())
    finally:
        optimizer.srl_of_pattern = search
    sha = hashlib.sha256()
    for col, res in sorted(pairs):
        sha.update(col + res)
    return len(pairs), sha.hexdigest()


def main() -> int:
    print("| seed | band | results | SHA-256 |\n| --- | --- | --- | --- |")
    for seed in SEEDS:
        for band in BANDS:
            results, hexdigest = digest(seed, band)
            print(f"| {seed} | {band} | {results} | {hexdigest} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
