"""SHA-256 table of the `pilotforge optimize` artifacts over seeds and bands.

Runs ``pilotforge optimize --seed <s> --band <b>`` for seeds 1, 15 and 301
and both bands, one process each, from this checkout's ``src`` into a
temporary directory, and prints one markdown row per written file,
``| s<seed>/<file> | <sha256> |``, sorted by path. Two trees write the same
artifacts exactly when their tables match.

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


def optimize(seed: int, band: str, out_dir: Path) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "pilotforge.cli", "optimize", "--seed", str(seed),
                    "--band", band, "--out", str(out_dir)],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def table(root: Path) -> list[str]:
    rows = ["| file | SHA-256 |", "| --- | --- |"]
    for path in sorted(root.rglob("*"), key=lambda p: p.relative_to(root).as_posix()):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            rows.append(f"| {path.relative_to(root).as_posix()} | {digest} |")
    return rows


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for seed in SEEDS:
            for band in BANDS:
                optimize(seed, band, root / f"s{seed}")
        print("\n".join(table(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
