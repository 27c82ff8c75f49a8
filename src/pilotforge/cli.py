"""Command-line front end: optimize, isl, srl, af, simulate.

Configuration is a flat key-value file with section headers (INI syntax);
every field has a documented default matching the reference experiment setup.
Outputs are JSON artifacts (patterns, metrics) and CSV curves, each embedding
the fully resolved configuration and seed so a run can be reproduced
byte-for-byte from its own output.

Exit codes: 0 success, 2 configuration or schema error, 3 infeasible
optimization, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ambiguity import SidelobeRegion, ambiguity_function, isl_matrix
from .optimizer import EdaConfig, InfeasibleSamplingError, run_eda
from .receiver import PsoConfig, baseline_schemes, check_gate, run_extrapolation_sim
from .resolution import SrlResult, SrlSearch, srl_of_pattern
from .waveform import BandLayout, PatternSet, Subband

__all__ = ["ExperimentConfig", "ConfigError", "main"]

PATTERN_FORMAT = "pilotforge-pattern-v1"


class ConfigError(ValueError):
    """Bad configuration file, option value, or pattern-artifact schema."""


def _defaults() -> dict:
    return {
        "band": {
            "mode": "single",
            "subcarriers": 256,
            "spacing_hz": 120e3,
            "center_hz": 3.5e9,
            "multi_centers_hz": [3.5e9, 3.9e9],
            "multi_spacings_hz": [120e3, 120e3],
            "multi_counts": [127, 127],
        },
        "users": {
            "groups": 2,
            "codes": 2,
            "budgets": [128, 128],
            "multi_budgets": [127, 127],
        },
        # lower edge: two main-lobe widths of the full system band,
        # 2/(P_g*f_s*G); upper edge: half the unambiguous delay range 1/(2*f_s),
        # so every distinct side-lobe offset (including the code-shift zone)
        # is integrated
        "region": {"a_s": 65.1e-9, "b_s": 4.1666667e-6},
        "offline": {
            "gain1": 1.0,
            "gain2": 1.0,
            "noise_std": 0.1778,
            "prior_std_s": 1e-9,
        },
        "srl": {
            "tau_lo_s": 0.05e-9,
            "tau_hi_s": 50e-9,
            "step_s": 0.01e-9,
            "tol_s": 1e-13,
            "gate_step_s": 0.05e-9,
            "beta_margin": 1.05,
            "beta_reference_draws": 10,
            "beta_s": [],
        },
        "eda": {
            "population": 400,
            "elite": 200,
            "iterations": 60,
            "retry_cap": 500,
        },
        "pso": {"max_paths": 8},
        "sim": {
            "snr_db": [15.0],
            "trials": 500,
            "n_paths": 2,
            "tau_max_s": 400e-9,
            "min_separation_s": 0.0,
        },
        "af": {"tau_max_s": 400e-9, "points": 2001},
        "output": {"seed": 0},
    }


def _coerce(ref, val):
    """Coerce one option value, an INI string or a JSON value, to its default's type.

    List options take a list or a comma/space-separated string; counts must be integral.
    """
    if isinstance(ref, list):
        if isinstance(val, str):
            val = val.replace(",", " ").split()
        if not isinstance(val, (list, tuple)):
            raise ValueError("not a list")
        return [_coerce(ref[0] if ref else 0.0, v) for v in val]
    if isinstance(val, bool) or not isinstance(val, (str, int, float)):
        raise ValueError("not a scalar")
    if isinstance(ref, str):
        return str(val)
    if isinstance(ref, float):
        return float(val)
    if isinstance(val, str):
        try:
            return int(val)
        except ValueError:
            val = float(val)
    if val != int(val):
        raise ValueError("not an integer")
    return int(val)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment configuration (nested plain values)."""

    values: dict
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def default(cls) -> "ExperimentConfig":
        d = _defaults()
        return cls(d, int(d["output"]["seed"]))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Validate {section: {option: value}}; values may be INI strings or JSON values."""
        if not isinstance(mapping, dict):
            raise ConfigError("config must map sections to key-value options")
        base = _defaults()
        for section, options in mapping.items():
            if section not in base:
                raise ConfigError(f"unknown config section [{section}]")
            if not isinstance(options, dict):
                raise ConfigError(f"section [{section}] must hold key-value options")
            for key, val in options.items():
                if key not in base[section]:
                    raise ConfigError(f"unknown option {key!r} in section [{section}]")
                try:
                    base[section][key] = _coerce(base[section][key], val)
                except (ValueError, OverflowError) as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {val!r}") from exc
        if base["band"]["mode"] not in ("single", "multi"):
            raise ConfigError("band mode must be 'single' or 'multi'")
        return cls(base, int(base["output"]["seed"]))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        text = path.read_text()
        if text.lstrip().startswith("{"):
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"cannot parse {path}: {exc}") from exc
            # a pattern artifact reproduces its own run
            if data.get("format") == PATTERN_FORMAT:
                cfg = cls.from_mapping(data["config"])
                return cls(cfg.values, int(data["seed"]))
            return cls.from_mapping(data)
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
            mapping = {s: dict(parser[s]) for s in parser.sections()}
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        return cls.from_mapping(mapping)

    def with_overrides(self, seed: int | None = None, mode: str | None = None
                       ) -> "ExperimentConfig":
        vals = json.loads(json.dumps(self.values))
        if mode is not None:
            if mode not in ("single", "multi"):
                raise ConfigError("band mode must be 'single' or 'multi'")
            vals["band"]["mode"] = mode
        new_seed = self.seed if seed is None else int(seed)
        vals["output"]["seed"] = new_seed
        return ExperimentConfig(vals, new_seed)

    # --- views -----------------------------------------------------------
    @property
    def mode(self) -> str:
        return self.values["band"]["mode"]

    def layout(self) -> BandLayout:
        b = self.values["band"]
        try:
            if self.mode == "single":
                return BandLayout.single(int(b["subcarriers"]), float(b["spacing_hz"]),
                                         float(b["center_hz"]))
            bands = [Subband(c, s, int(n)) for c, s, n in
                     zip(b["multi_centers_hz"], b["multi_spacings_hz"], b["multi_counts"])]
            return BandLayout.multiband(bands)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def budgets(self) -> list[int]:
        u = self.values["users"]
        key = "budgets" if self.mode == "single" else "multi_budgets"
        raw = u[key]
        if len(raw) != int(u["groups"]):
            raise ConfigError(f"{key} must list one budget per group")
        return [int(p) for p in raw]

    def region(self) -> SidelobeRegion:
        r = self.values["region"]
        try:
            return SidelobeRegion(float(r["a_s"]), float(r["b_s"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def srl_search(self) -> SrlSearch:
        s = self.values["srl"]
        return SrlSearch(float(s["tau_lo_s"]), float(s["tau_hi_s"]),
                         float(s["step_s"]), float(s["tol_s"]))

    def offline_model(self) -> tuple[tuple[float, float], float, float]:
        """The SRL model's (gains, noise std, timing-offset prior std), checked.

        The prior is read by multiband layouts only, so it is checked only there.
        """
        o = self.values["offline"]
        noise, prior = float(o["noise_std"]), float(o["prior_std_s"])
        if not noise > 0:
            raise ConfigError("offline noise std must be positive")
        if self.mode == "multi" and not prior > 0:
            raise ConfigError("a multiband run needs a positive timing-offset prior std")
        return (float(o["gain1"]), float(o["gain2"])), noise, prior

    def eda_config(self) -> EdaConfig:
        e, s = self.values["eda"], self.values["srl"]
        beta = tuple(float(b) for b in s["beta_s"]) or None
        gains, noise, prior = self.offline_model()
        try:
            return EdaConfig(
                budgets=tuple(self.budgets()),
                region=self.region(),
                population=int(e["population"]),
                elite=int(e["elite"]),
                iterations=int(e["iterations"]),
                srl_ceilings_s=beta,
                beta_margin=float(s["beta_margin"]),
                beta_reference_draws=int(s["beta_reference_draws"]),
                offline_gains=gains,
                offline_noise_std=noise,
                prior_std_s=prior,
                retry_cap=int(e["retry_cap"]),
                gate_step_s=float(s["gate_step_s"]),
                final_search=self.srl_search(),
                seed=self.seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def pso_config(self) -> PsoConfig:
        p = self.values["pso"]
        return PsoConfig(int(p["max_paths"]))

    def canonical_json(self) -> str:
        return json.dumps(self.values, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


# --- output helpers -------------------------------------------------------

def _dump_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _config_comment_lines(cfg: ExperimentConfig) -> list[str]:
    lines = [f"# seed = {cfg.seed}"]
    for section in sorted(cfg.values):
        for key in sorted(cfg.values[section]):
            lines.append(f"# {section}.{key} = {cfg.values[section][key]!r}")
    return lines


def _dump_csv(path: Path, cfg: ExperimentConfig, header: list[str],
              rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    out = _config_comment_lines(cfg)
    out.append(",".join(header))
    for row in rows:
        out.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(out) + "\n")


def _load_pattern(path: str | Path, layout: BandLayout) -> tuple[PatternSet, dict]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"pattern file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"pattern file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != PATTERN_FORMAT:
        raise ConfigError(f"pattern file {path} lacks the {PATTERN_FORMAT} format tag")
    if data.get("band") != layout.mode:
        raise ConfigError(f"pattern file {path} holds a {data.get('band')!r} band pattern, "
                          f"but the layout is {layout.mode!r}")
    groups = data.get("groups")
    if not isinstance(groups, list) or not groups:
        raise ConfigError(f"pattern file {path} holds no groups")
    columns = []
    for g, entry in enumerate(groups):
        idx = entry.get("indices")
        if (not isinstance(idx, list) or not idx
                or any(not isinstance(i, int) or not 0 <= i < layout.n_total for i in idx)):
            raise ConfigError(f"group {g} of {path} has missing or out-of-range indices")
        columns.append(idx)
    try:
        return PatternSet.from_indices(layout.n_total, columns), data
    except ValueError as exc:
        raise ConfigError(f"pattern file {path}: {exc}") from exc


def _group_entry(col: np.ndarray, isl: float, srl: SrlResult) -> dict:
    """Per-group metrics as the pattern artifact and `srl` print them."""
    return {
        "indices": [int(i) for i in np.flatnonzero(col)],
        "isl_db": float(10 * np.log10(isl)),
        "srl_ns": None if srl.srl_s is None else float(srl.srl_s * 1e9),
        "srl_below_range": bool(srl.below_range),
    }


# --- subcommands ----------------------------------------------------------

def cmd_optimize(cfg: ExperimentConfig, out_dir: Path) -> int:
    layout = cfg.layout()
    result = run_eda(layout, cfg.eda_config())
    groups = [_group_entry(result.best.column(g), isl, srl) for g, (isl, srl)
              in enumerate(zip(result.isl_per_group, result.srl_per_group))]
    artifact = {
        "format": PATTERN_FORMAT,
        "band": cfg.mode,
        "config": cfg.values,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "fitness": result.best_fitness,
        "fitness_db": float(10 * np.log10(result.best_fitness)),
        "beta_ns": [float(b * 1e9) for b in result.beta_s],
        "rejected_draws": result.rejected_draws,
        "groups": groups,
    }
    _dump_json(out_dir / f"pattern_{cfg.mode}.json", artifact)
    rows = [[i, float(v), float(10 * np.log10(v))] for i, v in enumerate(result.trace)]
    _dump_csv(out_dir / f"trace_{cfg.mode}.csv", cfg,
              ["iteration", "best_fitness", "best_fitness_db"], rows)
    print(json.dumps({"pattern": str(out_dir / f'pattern_{cfg.mode}.json'),
                      "fitness_db": artifact["fitness_db"],
                      "srl_ns": [g["srl_ns"] for g in groups]}, sort_keys=True))
    return 0


def cmd_isl(cfg: ExperimentConfig, pattern_path: str) -> int:
    layout = cfg.layout()
    patterns, _ = _load_pattern(pattern_path, layout)
    matrix = isl_matrix(layout, cfg.region())
    vals = [float(matrix.isl(patterns.column(g))) for g in range(patterns.n_groups)]
    print(json.dumps({
        "isl": vals,
        "isl_db": [float(10 * np.log10(v)) for v in vals],
        "max_isl_db": float(10 * np.log10(max(vals))),
    }, sort_keys=True))
    return 0


def cmd_srl(cfg: ExperimentConfig, pattern_path: str) -> int:
    layout = cfg.layout()
    gains, noise, prior = cfg.offline_model()  # a bad config is reported before a bad pattern
    patterns, _ = _load_pattern(pattern_path, layout)
    matrix = isl_matrix(layout, cfg.region())
    groups = []
    for g in range(patterns.n_groups):
        col = patterns.column(g)
        res = srl_of_pattern(layout, col, noise, gains, prior, cfg.srl_search())
        groups.append(_group_entry(col, matrix.isl(col), res))
    print(json.dumps({"groups": groups}, sort_keys=True))
    return 0


def cmd_af(cfg: ExperimentConfig, pattern_path: str, out_dir: Path) -> int:
    layout = cfg.layout()
    patterns, _ = _load_pattern(pattern_path, layout)
    sweep = np.linspace(0.0, float(cfg.values["af"]["tau_max_s"]),
                        int(cfg.values["af"]["points"]))
    header = ["delta_tau_ns"] + [f"group{g}_db" for g in range(patterns.n_groups)]
    mags = []
    for g in range(patterns.n_groups):
        chi = np.abs(ambiguity_function(layout, patterns.column(g), sweep))
        peak = patterns.column(g).sum()
        mags.append(20 * np.log10(np.maximum(chi / peak, 1e-300)))
    rows = [[float(t * 1e9)] + [float(m[i]) for m in mags] for i, t in enumerate(sweep)]
    path = out_dir / f"af_{cfg.mode}.csv"
    _dump_csv(path, cfg, header, rows)
    print(json.dumps({"af_csv": str(path), "points": len(sweep)}, sort_keys=True))
    return 0


def cmd_simulate(cfg: ExperimentConfig, pattern_paths: list[str], out_dir: Path) -> int:
    if not pattern_paths:
        raise ConfigError("simulate needs at least one --pattern artifact")
    sim = cfg.values["sim"]
    if int(sim["trials"]) < 1:
        raise ConfigError("sim.trials must be at least 1")
    if not sim["snr_db"]:
        raise ConfigError("sim.snr_db must list at least one SNR")
    n_paths, tau_max = int(sim["n_paths"]), float(sim["tau_max_s"])
    if n_paths < 1:
        raise ConfigError("sim.n_paths must be at least 1")
    layout = cfg.layout()
    try:
        check_gate(layout, (0.0, tau_max))
    except ValueError as exc:
        raise ConfigError(f"sim.tau_max_s: {exc}") from exc
    if float(sim["min_separation_s"]) * (n_paths - 1) >= tau_max:
        raise ConfigError("sim.min_separation_s leaves no room for sim.n_paths "
                          "paths inside sim.tau_max_s")
    schemes: dict[str, PatternSet] = {}
    for i, p in enumerate(pattern_paths):
        name = "proposed" if i == 0 else f"proposed{i + 1}"
        schemes[name], _ = _load_pattern(p, layout)
    schemes.update(baseline_schemes(layout, int(cfg.values["users"]["groups"]),
                                    cfg.budgets(), seed=cfg.seed))
    names = [n for n in schemes if n.startswith("proposed")] + ["uniform", "random"]
    header = (["snr_db"] + [f"nmse_{n}" for n in names] + ["trials"]
              + [f"failures_{n}" for n in names])
    rows = []
    for snr in sim["snr_db"]:
        out = run_extrapolation_sim(
            layout, schemes, float(snr), trials=int(sim["trials"]),
            n_codes=int(cfg.values["users"]["codes"]), n_paths=n_paths,
            tau_max_s=tau_max,
            min_separation_s=float(sim["min_separation_s"]),
            pso=cfg.pso_config(), seed=cfg.seed)
        rows.append([float(snr)] + [out[n].nmse for n in names]
                    + [int(sim["trials"])] + [out[n].failures for n in names])
    path = out_dir / f"nmse_{cfg.mode}.csv"
    _dump_csv(path, cfg, header, rows)
    print(json.dumps({"nmse_csv": str(path)}, sort_keys=True))
    return 0


# --- entry point ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotforge",
        description="Multi-user pilot pattern optimization and validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI or JSON config file (or a pattern "
                                        "artifact to reproduce its run)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--band", choices=["single", "multi"], default=None,
                       help="band mode override")

    p = sub.add_parser("optimize", help="run the EDA and write the pattern artifact")
    common(p)
    p = sub.add_parser("isl", help="ISL of a pattern artifact")
    common(p)
    p.add_argument("--pattern", required=True)
    p = sub.add_parser("srl", help="SRL of a pattern artifact")
    common(p)
    p.add_argument("--pattern", required=True)
    p = sub.add_parser("af", help="export ambiguity-function curves as CSV")
    common(p)
    p.add_argument("--pattern", required=True)
    p = sub.add_parser("simulate", help="Monte-Carlo NMSE sweep against baselines")
    common(p)
    p.add_argument("--pattern", action="append", default=[],
                   help="pattern artifact(s); first one is 'proposed'")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = (ExperimentConfig.from_file(args.config) if args.config
               else ExperimentConfig.default())
        cfg = cfg.with_overrides(seed=args.seed, mode=args.band)
        out_dir = Path(args.out)
        if args.command == "optimize":
            return cmd_optimize(cfg, out_dir)
        if args.command == "isl":
            return cmd_isl(cfg, args.pattern)
        if args.command == "srl":
            return cmd_srl(cfg, args.pattern)
        if args.command == "af":
            return cmd_af(cfg, args.pattern, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.pattern, out_dir)
        raise AssertionError("unreachable")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleSamplingError as exc:
        print(f"infeasible optimization: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
