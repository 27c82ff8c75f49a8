"""SHA-256 table of the `pilotforge optimize` and `simulate` artifacts.

Runs ``pilotforge optimize --seed <s> --band <b>`` for seeds 1, 15 and 301
and both bands, one process each, from this checkout's ``src`` into a
temporary directory. Then, for both bands, it runs ``pilotforge simulate``
on the seed-1 pattern it has just written, at a small fixed trial count and
two SNRs (``SIM_INI``), which exercises the whole receiver chain. It prints
one markdown row per written file, ``| s<seed>/<file> | <sha256> |``,
sorted by path. Two trees write the same artifacts exactly when their
tables match.

    python3 tools/artifact_sha256.py
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SEEDS = (1, 15, 301)
BANDS = ("single", "multi")
SIM_SEED = 1
SIM_INI = "[sim]\ntrials = 6\nsnr_db = 5, 15\n"


def pilotforge(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "pilotforge.cli", *args],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def optimize(seed: int, band: str, out_dir: Path) -> None:
    pilotforge("optimize", "--seed", str(seed), "--band", band, "--out", str(out_dir))


def simulate(band: str, config: Path, out_dir: Path) -> None:
    pilotforge("simulate", "--config", str(config), "--seed", str(SIM_SEED), "--band", band,
               "--pattern", str(out_dir / f"pattern_{band}.json"), "--out", str(out_dir))


def table(root: Path) -> list[str]:
    rows = ["| file | SHA-256 |", "| --- | --- |"]
    for path in sorted(root.rglob("*"), key=lambda p: p.relative_to(root).as_posix()):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            rows.append(f"| {path.relative_to(root).as_posix()} | {digest} |")
    return rows


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as cfg_dir:
        root = Path(tmp)
        for seed in SEEDS:
            for band in BANDS:
                optimize(seed, band, root / f"s{seed}")
        config = Path(cfg_dir) / "sim.ini"
        config.write_text(SIM_INI)
        for band in BANDS:
            simulate(band, config, root / f"s{SIM_SEED}")
        print("\n".join(table(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
