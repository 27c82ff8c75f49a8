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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from inspect import signature
from pathlib import Path

import numpy as np

from .ambiguity import SidelobeRegion, ambiguity_function, isl_matrix
from .optimizer import EdaConfig, InfeasibleSamplingError, run_eda
from .receiver import (PsoConfig, SimulationError, baseline_schemes, check_sim,
                       run_extrapolation_sim)
from .resolution import SrlResult, SrlSearch, check_offline_model, srl_of_pattern
from .waveform import (BandLayout, PatternSet, Subband, check_budgets,
                       orthogonal_sequence_family)

__all__ = ["ExperimentConfig", "ConfigError", "main"]

PATTERN_FORMAT = "pilotforge-pattern-v1"
# the [srl] and [eda] options that are EdaConfig fields of the same name
_EDA_OPTIONS = {"srl": ("gate_step_s", "beta_margin", "beta_reference_draws"),
                "eda": ("population", "elite", "iterations", "retry_cap")}


class ConfigError(ValueError):
    """Bad configuration file, option value, or pattern-artifact schema."""


@contextmanager
def _as_config_error(context: str = ""):
    """Report a ValueError raised inside, such as the owning library object's
    check of a configured value, as a ConfigError whose message starts with context."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{context}{exc}") from exc


def _defaults() -> dict:
    """Every option at its default; the [offline], [srl], [eda] and [pso]
    values, the code count and the [sim] path draw are the defaults of the
    library objects and the simulator they configure."""
    eda = {f.name: f.default for f in fields(EdaConfig)}
    sim = {name: p.default for name, p in signature(run_extrapolation_sim).parameters.items()}
    gain1, gain2 = eda["offline_gains"]
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
            "codes": sim["n_codes"],
            "budgets": [128, 128],
            "multi_budgets": [127, 127],
        },
        # lower edge: two main-lobe widths of the full system band,
        # 2/(P_g*f_s*G); upper edge: half the unambiguous delay range 1/(2*f_s),
        # so every distinct side-lobe offset (including the code-shift zone)
        # is integrated
        "region": {"a_s": 65.1e-9, "b_s": 4.1666667e-6},
        "offline": {
            "gain1": gain1,
            "gain2": gain2,
            "noise_std": eda["offline_noise_std"],
            "prior_std_s": eda["prior_std_s"],
        },
        "srl": {**asdict(SrlSearch()), **{key: eda[key] for key in _EDA_OPTIONS["srl"]},
                "beta_s": []},
        "eda": {key: eda[key] for key in _EDA_OPTIONS["eda"]},
        "pso": asdict(PsoConfig()),
        "sim": {
            "snr_db": [15.0],
            "trials": 500,
            **{key: sim[key] for key in ("n_paths", "tau_max_s", "min_separation_s")},
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

    @classmethod
    def default(cls) -> "ExperimentConfig":
        return cls.from_mapping({})

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
        if base["output"]["seed"] < 0:
            raise ConfigError(f"seed must be non-negative, got {base['output']['seed']}")
        return cls(base)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        with _as_config_error(f"cannot read {path}: "):
            text = path.read_text()
        if text.lstrip().startswith("{"):
            with _as_config_error(f"cannot parse {path}: "):
                data = json.loads(text)
            # a pattern artifact reproduces its own run
            if data.get("format") == PATTERN_FORMAT:
                if type(data.get("seed")) is not int:
                    raise ConfigError(f"pattern artifact {path} needs an integer seed")
                return cls.from_mapping(data.get("config")).with_overrides(seed=data["seed"])
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
        """This config with the seed and band mode replaced, validated again."""
        vals = {section: dict(options) for section, options in self.values.items()}
        if mode is not None:
            vals["band"]["mode"] = mode
        if seed is not None:
            vals["output"]["seed"] = seed
        return ExperimentConfig.from_mapping(vals)

    # --- views -----------------------------------------------------------
    @property
    def seed(self) -> int:
        return self.values["output"]["seed"]

    @property
    def mode(self) -> str:
        return self.values["band"]["mode"]

    def layout(self) -> BandLayout:
        b = self.values["band"]
        with _as_config_error():
            if self.mode == "single":
                return BandLayout.single(b["subcarriers"], b["spacing_hz"], b["center_hz"])
            lists = b["multi_centers_hz"], b["multi_spacings_hz"], b["multi_counts"]
            if len(set(map(len, lists))) != 1:
                raise ConfigError("multi_centers_hz, multi_spacings_hz and multi_counts "
                                  "must have equal lengths")
            return BandLayout.multiband([Subband(*sub) for sub in zip(*lists)])

    def budgets(self) -> list[int]:
        u = self.values["users"]
        key = "budgets" if self.mode == "single" else "multi_budgets"
        budgets = list(u[key])
        if not budgets or len(budgets) != u["groups"]:
            raise ConfigError(f"users.groups must be at least 1, and {key} must "
                              "list one budget per group")
        with _as_config_error(f"users.{key}: "):
            check_budgets(budgets, self.layout().n_total)
        return budgets

    def n_codes(self) -> int:
        codes = self.values["users"]["codes"]
        with _as_config_error("users.codes: "):
            orthogonal_sequence_family(self.layout().n_total, codes)
        return codes

    def region(self) -> SidelobeRegion:
        with _as_config_error():
            return SidelobeRegion(**self.values["region"])

    def srl_search(self) -> SrlSearch:
        s = self.values["srl"]
        with _as_config_error():
            return SrlSearch(**{f.name: s[f.name] for f in fields(SrlSearch)})

    def offline_model(self) -> tuple[tuple[float, float], float, float]:
        """The SRL model's (gains, noise std, timing-offset prior std), checked
        by ``check_offline_model`` for this layout."""
        o, layout = self.values["offline"], self.layout()
        gains, noise, prior = (o["gain1"], o["gain2"]), o["noise_std"], o["prior_std_s"]
        with _as_config_error("offline model: "):
            check_offline_model(layout, noise, gains, prior)
        return gains, noise, prior

    def eda_config(self) -> EdaConfig:
        gains, noise, prior = self.offline_model()
        named = {key: self.values[section][key]
                 for section, keys in _EDA_OPTIONS.items() for key in keys}
        with _as_config_error():
            return EdaConfig(
                budgets=tuple(self.budgets()), region=self.region(),
                srl_ceilings_s=tuple(self.values["srl"]["beta_s"]) or None,
                offline_gains=gains, offline_noise_std=noise, prior_std_s=prior,
                final_search=self.srl_search(), seed=self.seed, **named)

    def pso_config(self) -> PsoConfig:
        with _as_config_error():
            return PsoConfig(**self.values["pso"])

    def af_sweep(self) -> np.ndarray:
        a = self.values["af"]
        if a["points"] < 1 or not np.isfinite(a["tau_max_s"]):
            raise ConfigError("af.points must be at least 1 and af.tau_max_s finite")
        return np.linspace(0.0, a["tau_max_s"], a["points"])

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


def _load_pattern(path: str | Path, layout: BandLayout) -> PatternSet:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"pattern file {path} does not exist")
    with _as_config_error(f"pattern file {path} is not valid JSON: "):
        data = json.loads(path.read_text())
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
        idx = entry.get("indices") if isinstance(entry, dict) else None
        # JSON true and false load as Python bools, which are ints too
        if (not isinstance(idx, list) or not idx
                or any(type(i) is not int or not 0 <= i < layout.n_total for i in idx)):
            raise ConfigError(f"group {g} of {path} has missing, non-integer or "
                              "out-of-range indices")
        columns.append(idx)
    with _as_config_error(f"pattern file {path}: "):
        return PatternSet.from_indices(layout.n_total, columns)


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
    patterns = _load_pattern(pattern_path, layout)
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
    # a bad config is reported before a bad pattern
    gains, noise, prior = cfg.offline_model()
    search = cfg.srl_search()
    patterns = _load_pattern(pattern_path, layout)
    matrix = isl_matrix(layout, cfg.region())
    groups = []
    for g in range(patterns.n_groups):
        col = patterns.column(g)
        res = srl_of_pattern(layout, col, noise, gains, prior, search)
        groups.append(_group_entry(col, matrix.isl(col), res))
    print(json.dumps({"groups": groups}, sort_keys=True))
    return 0


def cmd_af(cfg: ExperimentConfig, pattern_path: str, out_dir: Path) -> int:
    layout = cfg.layout()
    patterns = _load_pattern(pattern_path, layout)
    sweep = cfg.af_sweep()
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
    if not sim["snr_db"]:
        raise ConfigError("sim.snr_db must list at least one SNR")
    trials, n_paths = sim["trials"], sim["n_paths"]
    tau_max, sep = sim["tau_max_s"], sim["min_separation_s"]
    layout, n_codes, pso = cfg.layout(), cfg.n_codes(), cfg.pso_config()
    with _as_config_error("sim: "):  # every SNR before the first trial
        for snr in sim["snr_db"]:
            check_sim(layout, snr, trials, n_paths, tau_max, sep)
    schemes: dict[str, PatternSet] = {}
    for i, p in enumerate(pattern_paths):
        name = "proposed" if i == 0 else f"proposed{i + 1}"
        schemes[name] = _load_pattern(p, layout)
    budgets = cfg.budgets()
    with _as_config_error("users budgets: "):  # the uniform baseline's segment rule
        schemes.update(baseline_schemes(layout, len(budgets), budgets, seed=cfg.seed))
    names = [n for n in schemes if n.startswith("proposed")] + ["uniform", "random"]
    header = (["snr_db"] + [f"nmse_{n}" for n in names] + ["trials"]
              + [f"failures_{n}" for n in names])
    rows = []
    for snr in sim["snr_db"]:
        out = run_extrapolation_sim(
            layout, schemes, snr, trials=trials, n_codes=n_codes, n_paths=n_paths,
            tau_max_s=tau_max, min_separation_s=sep, pso=pso, seed=cfg.seed)
        rows.append([snr] + [out[n].nmse for n in names]
                    + [trials] + [out[n].failures for n in names])
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
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError, SimulationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
