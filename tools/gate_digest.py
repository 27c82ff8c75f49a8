"""SHA-256 of every SRL-gate decision a paper-scale EDA run makes.

For seeds 1, 15 and 301 and both bands, runs ``run_eda`` at the default
config's settings for that band and seed, with ``optimizer.resolvable_at``,
``optimizer.srl_at_most`` and the ``optimizer.pattern_crb_provider`` that
feeds the latter wrapped by name. The gate decides each (group, column)
once per run: ``resolvable_at`` accepts the columns with g(beta) >= 0, and
``srl_at_most`` decides the rest. Each decision feeds one SHA-256 per run:
the group index (int64), the column's bytes and the verdict (one byte). The
group is the index of the call's beta in the run's ``beta_s``. The decisions
are hashed in the order of their column bytes, so a gate that decides its
columns in another order or batching hashes alike when every verdict is the
same. It prints one markdown row per run, ``| <seed> | <band> | <decisions>
| <sha256> |``.

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
    verdicts: dict[tuple[float, bytes], bool] = {}
    real = {name: getattr(optimizer, name)
            for name in ("resolvable_at", "srl_at_most", "pattern_crb_provider")}

    def record(beta_s, columns, out):
        cols = np.atleast_2d(np.asarray(columns, dtype=np.uint8))
        verdicts.update(((float(beta_s), col.tobytes()), bool(ok))
                        for col, ok in zip(cols, np.atleast_1d(out)))

    def resolvable_at(layout, columns, noise_std, gains, beta_s, *args, **kwargs):
        out = real["resolvable_at"](layout, columns, noise_std, gains, beta_s, *args, **kwargs)
        record(beta_s, columns, out)
        return out

    def pattern_crb_provider(layout, w, *args, **kwargs):
        inner = real["pattern_crb_provider"](layout, w, *args, **kwargs)

        def provider(dtaus):
            return inner(dtaus)

        provider.columns = w
        return provider

    def srl_at_most(provider, beta_s, step_s):
        out = real["srl_at_most"](provider, beta_s, step_s)
        record(beta_s, provider.columns, out)
        return out

    for name, wrapper in (("resolvable_at", resolvable_at), ("srl_at_most", srl_at_most),
                          ("pattern_crb_provider", pattern_crb_provider)):
        setattr(optimizer, name, wrapper)
    try:
        res = optimizer.run_eda(cfg.layout(), dataclasses.replace(cfg.eda_config(), **eda))
    finally:
        for name, fn in real.items():
            setattr(optimizer, name, fn)
    betas = [float(b) for b in res.beta_s]
    sha = hashlib.sha256()
    for col, group, ok in sorted((col, betas.index(beta), ok)
                                 for (beta, col), ok in verdicts.items()):
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
