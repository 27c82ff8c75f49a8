"""SHA-256 tables of the artifacts, SRL results, gate decisions and path fits.

Runs ``pilotforge optimize`` once per seed (1, 15, 301) and band, in this
process through ``cli.main``, into a temporary directory, recording every
``SrlResult`` that ``optimizer.srl_of_pattern`` returns and every verdict of
``optimizer._gate_decisions`` during the run. Then it runs ``pilotforge
simulate`` on each band's seed-1 pattern (``SIM_INI``), searches the SRL of
each group of the seed-1 uniform and random baselines as ``pilotforge srl``
does, and runs the Monte Carlo of acceptance criteria C8 and C9 (the seed-1
optimum's indices and both baselines, 50 trials, simulator seed 77),
recording every fit of ``receiver.estimate_paths_psols``. Four tables:

- ``| s<seed>/<file> | <sha256> |`` per written file, sorted by path;
- ``| <seed> | <band> | <results> | <sha256> |`` per run, then per band's
  baselines: each result's column bytes and the float64 bytes of its
  ``srl_s`` (NaN for None) and ``below_range``, in column-byte order;
- ``| <seed> | <band> | <decisions> | <sha256> |`` per run: each (group,
  column) once, as the group (int64), the column's bytes and the verdict
  (one byte), in (column bytes, group) order;
- ``| <band> | <fits> | <sha256> |``: each fit's delays, gains and
  residual bytes, in call order.

Sorting makes a stacked search or gate hash as one that takes a column at
a time. Two trees compute alike exactly when their tables match.

    python3 tools/digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from pilotforge import cli, optimizer, receiver  # noqa: E402
from pilotforge.resolution import srl_of_pattern  # noqa: E402
from pilotforge.waveform import PatternSet  # noqa: E402

SEEDS = (1, 15, 301)
BANDS = ("single", "multi")
SIM_INI = "[sim]\ntrials = 6\nsnr_db = 5, 15\n"
FIT_TRIALS, FIT_SEED = 50, 77


@contextlib.contextmanager
def recorded(module, name: str, record):
    """module.name wrapped for the block: each call's output is passed to
    record(out, *args, **kwargs) and returned; the original is restored."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        record(out, *args, **kwargs)
        return out

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, real)


def pilotforge(*args: str) -> None:
    """``pilotforge <args>`` in this process with its stdout discarded; raises on a
    non-zero exit."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(args))
    if code:
        raise RuntimeError(f"pilotforge {' '.join(args)} exited with {code}")


def hashed(keyed: list[tuple]) -> tuple[int, str]:
    """(entries, SHA-256 over the (key, bytes) entries' bytes in key order)."""
    sha = hashlib.sha256()
    for _, data in sorted(keyed):
        sha.update(data)
    return len(keyed), sha.hexdigest()


def srl_entry(col: np.ndarray, res) -> tuple[bytes, bytes]:
    data = np.asarray(col, dtype=np.uint8).tobytes() + np.array(
        [np.nan if res.srl_s is None else res.srl_s, res.below_range], dtype=np.float64).tobytes()
    return data, data


def optimize(out_dir: Path, *args: str) -> tuple[tuple[int, str], tuple[int, str]]:
    """(SRL digest, gate digest) of one ``pilotforge optimize --out out_dir <args>``."""
    srl, gate = [], {}

    def on_srl(out, layout, w, *_, **__):
        results = out if isinstance(out, tuple) else (out,)
        srl.extend(map(srl_entry, np.atleast_2d(w), results))

    def on_gate(out, layout, cfg, beta_s, groups, cols):
        for g, col, ok in zip(groups, cols, out):
            col = np.asarray(col, dtype=np.uint8).tobytes()
            gate[col, int(g)] = np.int64(g).tobytes() + col + bytes([bool(ok)])

    with recorded(optimizer, "srl_of_pattern", on_srl), \
            recorded(optimizer, "_gate_decisions", on_gate):
        pilotforge("optimize", "--out", str(out_dir), *args)
    return hashed(srl), hashed(list(gate.items()))


def seed_one(band: str):
    """The default seed-1 config of a band, its layout and its baselines."""
    cfg = cli.ExperimentConfig.default().with_overrides(seed=SEEDS[0], mode=band)
    layout, budgets = cfg.layout(), cfg.budgets()
    return cfg, layout, receiver.baseline_schemes(layout, len(budgets), budgets, seed=cfg.seed)


def baselines(band: str) -> tuple[int, str]:
    """SRL digest of every group of the band's seed-1 baselines."""
    cfg, layout, schemes = seed_one(band)
    gains, noise, prior = cfg.offline_model()
    return hashed([srl_entry(col, srl_of_pattern(layout, col, noise, gains, prior,
                                                 cfg.srl_search()))
                   for patterns in schemes.values() for col in patterns.mask.T])


def fits(band: str, pattern: Path) -> tuple[int, str]:
    """(fits, SHA-256) of the C8/C9 Monte Carlo with the pattern artifact as optimum."""
    cfg, layout, schemes = seed_one(band)
    schemes["optimized"] = PatternSet.from_indices(
        layout.n_total, [g["indices"] for g in json.loads(pattern.read_text())["groups"]])
    sha, sim, count = hashlib.sha256(), cfg.values["sim"], 0

    def on_fit(out, *_, **__):
        nonlocal count
        for est in [out] if isinstance(out, receiver.PathEstimate) else out:
            count += 1
            for part in (est.delays_s, est.gains, np.float64(est.residual)):
                sha.update(np.ascontiguousarray(part).tobytes())

    with recorded(receiver, "estimate_paths_psols", on_fit):
        receiver.run_extrapolation_sim(
            layout, schemes, float(sim["snr_db"][0]), trials=FIT_TRIALS, n_codes=cfg.n_codes(),
            n_paths=int(sim["n_paths"]), tau_max_s=float(sim["tau_max_s"]),
            min_separation_s=float(sim["min_separation_s"]), pso=cfg.pso_config(),
            seed=FIT_SEED)
    return count, sha.hexdigest()


def markdown(header: str, rows: list[tuple]) -> list[str]:
    """A markdown table of the rows under ``| <header> | SHA-256 |``."""
    return ([f"| {header} | SHA-256 |", "| --- " * (header.count("|") + 2) + "|"]
            + ["| " + " | ".join(map(str, row)) + " |" for row in rows])


def table(root: Path) -> list[str]:
    """The artifact table: every file under root by its relative path."""
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    return markdown("file", [(f, hashlib.sha256((root / f).read_bytes()).hexdigest())
                             for f in files])


def main() -> int:
    srl, gate = [], []
    with tempfile.TemporaryDirectory() as tmp:
        root, config = Path(tmp) / "out", Path(tmp) / "sim.ini"
        for seed in SEEDS:
            for band in BANDS:
                s, g = optimize(root / f"s{seed}", "--seed", str(seed), "--band", band)
                srl.append((seed, band, *s))
                gate.append((seed, band, *g))
        config.write_text(SIM_INI)
        out = root / f"s{SEEDS[0]}"
        for band in BANDS:
            pilotforge("simulate", "--config", str(config), "--seed", str(SEEDS[0]), "--band",
                       band, "--pattern", str(out / f"pattern_{band}.json"), "--out", str(out))
        srl += [(SEEDS[0], f"{band} baselines", *baselines(band)) for band in BANDS]
        fit = [(band, *fits(band, out / f"pattern_{band}.json")) for band in BANDS]
        print("\n\n".join("\n".join(rows) for rows in (
            table(root), markdown("seed | band | results", srl),
            markdown("seed | band | decisions", gate), markdown("band | fits", fit))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
