"""pilotforge benchmark: paper-scale pattern design plus Monte-Carlo validation.

Run from the root of a checkout:

    python3 bench/run.py --workload single --seed 1 --seconds 20 --trace 0

Each run sets up in-process (imports, config, layout, stored pattern), then
repeats whole rounds until --seconds have passed, at least one round. A
round is one ``pilotforge optimize`` at paper scale, seeded by --seed and
called through ``pilotforge.cli.main``, followed by Monte-Carlo
extrapolation trials of the stored optimized pattern and the uniform and
random baselines, called through ``pilotforge.receiver.run_extrapolation_sim``.
Outside the timed rounds every output is checked against the references in
``bench_oracles.py``. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (from the wrappers in ``bench_tracing.py``) with
--trace 1. See README.md for the metrics, the inputs and reference figures.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = BENCH / "inputs"
OUT = BENCH / "out"

# one process, BLAS capped at the host's core count and at 2; set before numpy loads
THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import numpy as np  # noqa: E402

sys.path.insert(0, str(BENCH))
import bench_oracles as oracles  # noqa: E402
import bench_tracing as tracing  # noqa: E402

WORKLOADS = {"single": "pattern_single.json", "multi": "pattern_multi.json"}
# The validation trials are a fixed accuracy set: their channels, noise and random
# baseline come from these seeds, not from --seed, so the NMSE of a scheme is
# one deterministic number that any accuracy change moves.
VALIDATION_SEED = 20240710
# trials per round: about 15 s of path fits on a 2-core host in either mode
VALIDATION_TRIALS = {"single": 4, "multi": 2}
NOISELESS_SEED = 7
NOISELESS_NMSE_MAX = 1e-9   # observed <= 4e-13 over 48 noiseless multiband fits
SETUP_PROBES = 2            # extra setups in fresh processes for the setup_s median


@dataclass
class Context:
    workload: str
    cli: object
    receiver: object
    waveform: object
    cfg: object
    layout: object
    schemes: dict
    import_s: float


@dataclass
class Round:
    out_dir: Path
    exit_code: int
    stdout: str
    optimize_s: float
    sim: dict | None
    sim_s: float


def setup(workload: str) -> Context:
    """Imports, config, layout, stored pattern and the baseline schemes."""
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    from pilotforge import cli, receiver, waveform
    import_s = time.perf_counter() - t
    cfg = cli.ExperimentConfig.default().with_overrides(mode=workload)
    layout = cfg.layout()
    stored = json.loads((INPUTS / WORKLOADS[workload]).read_text())
    optimized = waveform.PatternSet.from_indices(
        layout.n_total, [g["indices"] for g in stored["groups"]])
    schemes = {"optimized": optimized,
               **receiver.baseline_schemes(layout, int(cfg.values["users"]["groups"]),
                                           cfg.budgets(), seed=VALIDATION_SEED)}
    return Context(workload, cli, receiver, waveform, cfg, layout, schemes, import_s)


def setup_probe(workload: str) -> float:
    """setup_s of one fresh process running this script's setup alone."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                          "--workload", workload], capture_output=True, text=True,
                         timeout=120, check=True, cwd=ROOT)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_round(ctx: Context, seed: int, k: int, tracer) -> Round:
    """One optimize plus the validation trials; only the calls are timed."""
    out_dir = OUT / f"{ctx.workload}-s{seed}" / f"round{k}"
    argv = ["optimize", "--band", ctx.workload, "--seed", str(seed), "--out", str(out_dir)]
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = ctx.cli.main(argv)
    t1 = time.perf_counter()
    sim_values = ctx.cfg.values["sim"]
    kwargs = dict(trials=VALIDATION_TRIALS[ctx.workload],
                  n_codes=int(ctx.cfg.values["users"]["codes"]),
                  n_paths=int(sim_values["n_paths"]), tau_max_s=float(sim_values["tau_max_s"]),
                  min_separation_s=float(sim_values["min_separation_s"]),
                  pso=ctx.cfg.pso_config(), seed=VALIDATION_SEED)
    args = (ctx.layout, ctx.schemes, float(sim_values["snr_db"][0]))
    sim_fn = ctx.receiver.run_extrapolation_sim
    t2 = time.perf_counter()
    try:
        if tracer is None:
            sim = sim_fn(*args, **kwargs)
        else:
            sim = tracer.call("receiver.sim", sim_fn, *args, **kwargs)
    except (ValueError, RuntimeError, np.linalg.LinAlgError):
        sim = None
    t3 = time.perf_counter()
    return Round(out_dir, code, buf.getvalue(), t1 - t0, sim, t3 - t2)


# --- output checks -----------------------------------------------------------

def check_design(ctx: Context, rnd: Round) -> tuple[int, list[str], float | None]:
    """(groups over beta by the gate grid, problems, fitness) of one optimize call.

    The SRL gate decides on a grid whose last point can lie up to half a gate
    step past beta, so a final SRL in (beta, beta + step/2) is a known gate
    fault, not a wrong output. It shows on some seeds only, so it is counted
    (``optimizer.final_srl_over_beta``) rather than failed; a larger excess is
    a wrong output.
    """
    mode = ctx.workload
    if rnd.exit_code != 0:
        return 0, [f"optimize exited with code {rnd.exit_code}"], None
    art = json.loads((rnd.out_dir / f"pattern_{mode}.json").read_text())
    values = art["config"]
    freqs = oracles.layout_frequencies(values["band"], mode)
    users = values["users"]
    budgets = users["budgets"] if mode == "single" else users["multi_budgets"]
    groups = [g["indices"] for g in art["groups"]]
    problems = oracles.structure_problems(groups, budgets, len(freqs["pinned"]))
    if problems:
        return 0, problems, art["fitness"]
    region, off, srl_cfg = values["region"], values["offline"], values["srl"]
    isls, tols = [], []
    for g, entry in enumerate(art["groups"]):
        isl, tol = oracles.isl_by_quadrature(freqs["pinned"][groups[g]],
                                             region["a_s"], region["b_s"])
        isls.append(isl)
        tols.append(tol)
        if abs(10 ** (entry["isl_db"] / 10) - isl) > tol:
            problems.append(f"group {g} isl_db {entry['isl_db']} != quadrature "
                            f"{10 * np.log10(isl)}")
    if abs(art["fitness"] - max(isls)) > max(tols):
        problems.append(f"fitness {art['fitness']} != max group ISL {max(isls)}")
    over_beta = 0
    prior = off["prior_std_s"] if mode == "multi" else None
    for g, entry in enumerate(art["groups"]):
        srl = oracles.smallest_srl(freqs, np.asarray(groups[g]), [off["gain1"], off["gain2"]],
                                   off["noise_std"], prior, srl_cfg["tau_lo_s"],
                                   srl_cfg["tau_hi_s"])
        if entry["srl_ns"] is None or srl is None:
            problems.append(f"group {g}: SRL {entry['srl_ns']} ns, reference {srl}")
            continue
        got_s = entry["srl_ns"] * 1e-9
        if abs(got_s - srl) > 2 * srl_cfg["tol_s"]:
            problems.append(f"group {g} SRL {got_s} s != reference root {srl} s")
        excess = got_s - art["beta_ns"][g] * 1e-9
        if excess > 0:
            if excess < 0.5 * srl_cfg["gate_step_s"]:
                over_beta += 1
                print(f"gate-grid fault: group {g} SRL {got_s} s exceeds beta "
                      f"{art['beta_ns'][g]} ns by less than half a gate step", file=sys.stderr)
            else:
                problems.append(f"group {g} SRL {got_s} s exceeds beta {art['beta_ns'][g]} ns")
    trace = oracles.trace_values((rnd.out_dir / f"trace_{mode}.csv").read_text())
    if any(b > a for a, b in zip(trace, trace[1:])):
        problems.append("trace CSV increases")
    if not trace or trace[-1] != art["fitness"]:
        problems.append("last trace value differs from the artifact's fitness")
    printed = json.loads(rnd.stdout.strip().splitlines()[-1])
    if (printed["fitness_db"] != art["fitness_db"]
            or printed["srl_ns"] != [g["srl_ns"] for g in art["groups"]]):
        problems.append("printed summary differs from the artifact")
    return over_beta, problems, art["fitness"]


def fit_failures(ctx: Context, sim: dict | None) -> tuple[int, int, list[str]]:
    """(attempted fits, failed fits, problems) of one round's validation trials."""
    users = int(ctx.cfg.values["users"]["codes"]) * int(ctx.cfg.values["users"]["groups"])
    per_scheme = users * VALIDATION_TRIALS[ctx.workload]
    attempted = per_scheme * len(ctx.schemes)
    if sim is None:
        return attempted, attempted, []
    failed, problems = 0, []
    for name, out in sim.items():
        failed += min(per_scheme, out.failures * users + out.search_failures)
        if out.failures == 0 and out.fits != per_scheme:
            problems.append(f"{name}: {out.fits} fits for {per_scheme} users")
        if not np.isfinite(out.nmse) or out.nmse <= 0:
            problems.append(f"{name}: NMSE {out.nmse}")
    return attempted, failed, problems


def noiseless_problems(ctx: Context) -> list[str]:
    """A noiseless one-code trial per scheme must rebuild the channel exactly.

    The benchmark draws the paths, evaluates sum alpha e^{-j 2 pi f tau} on its
    own frequency grid, forms the received vector itself and hands it to the
    receiver chain (decouple, path fit, extrapolation).
    """
    values = ctx.cfg.values
    sim = values["sim"]
    tau_max, n_paths = float(sim["tau_max_s"]), int(sim["n_paths"])
    freqs = oracles.layout_frequencies(values["band"], ctx.workload)["absolute"]
    seq = ctx.waveform.orthogonal_sequence_family(ctx.layout.n_total,
                                                  int(values["users"]["codes"]))[0]
    rng = np.random.default_rng(NOISELESS_SEED)
    problems = []
    for name, pats in sorted(ctx.schemes.items()):
        truths, y = [], np.zeros(ctx.layout.n_total, dtype=complex)
        for g in range(pats.n_groups):
            delays = np.sort(rng.uniform(0.0, tau_max, n_paths))
            gains = (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)) / np.sqrt(2)
            h = oracles.channel(freqs, delays, gains)
            truths.append(h)
            y += pats.column(g) * seq.values * h
        for g, h in enumerate(truths):
            obs = ctx.receiver.decouple(ctx.layout, y, pats.column(g), seq, (0.0, tau_max),
                                        user=(g, 0))
            est = ctx.receiver.estimate_paths_psols(obs, pats.column(g), ctx.layout,
                                                    ctx.cfg.pso_config(), n_paths=n_paths,
                                                    seed=NOISELESS_SEED + g)
            err = oracles.nmse(ctx.receiver.extrapolate_fullband(est, ctx.layout), h)
            if not err <= NOISELESS_NMSE_MAX:
                problems.append(f"noiseless {name} group {g}: NMSE {err:.3e}")
    return problems


# --- main --------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main() -> int:
    if not (SRC / "pilotforge" / "__init__.py").is_file():
        print(f"no pilotforge sources under {SRC}; run from a pilotforge checkout",
              file=sys.stderr)
        return 2
    ctx = setup(ARGS.workload)
    own_setup = time.perf_counter() - _T0
    if ARGS.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    import scipy
    print(json.dumps({"host": {"cores": os.cpu_count(), "blas_threads": int(THREADS),
                               "python": platform.python_version(),
                               "numpy": np.__version__, "scipy": scipy.__version__},
                      "workload": ARGS.workload, "seed": ARGS.seed, "trace": ARGS.trace}))
    sys.stdout.flush()
    shutil.rmtree(OUT / f"{ARGS.workload}-s{ARGS.seed}", ignore_errors=True)
    setups = [own_setup]
    tracer = None
    if ARGS.trace:
        tracer = tracing.Tracer()
    else:
        setups += [setup_probe(ARGS.workload) for _ in range(SETUP_PROBES)]

    rounds: list[Round] = []
    with (tracing.installed(tracer) if tracer else contextlib.nullcontext()):
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < ARGS.seconds:
            rounds.append(run_round(ctx, ARGS.seed, len(rounds), tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    problems: list[str] = []
    fitness, nmse, over_beta = [], [], 0
    for rnd in rounds:
        over, found, fit = check_design(ctx, rnd)
        over_beta += over
        attempted += 1
        failed += int(bool(found))
        problems += found
        fitness.append(fit)
        a, f, found = fit_failures(ctx, rnd.sim)
        attempted, failed, problems = attempted + a, failed + f, problems + found
        if rnd.sim is not None:
            nmse.append({name: out.nmse for name, out in rnd.sim.items()})
    if len(set(fitness)) != 1 or any(n != nmse[0] for n in nmse):
        problems.append("rounds with the same inputs gave different results")
    problems += noiseless_problems(ctx)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    fits = sum(out.fits for rnd in rounds if rnd.sim for out in rnd.sim.values())
    sim_s = sum(rnd.sim_s for rnd in rounds)
    if ARGS.trace:
        tracer.write(OUT / f"spans-{ARGS.workload}.csv", _T0)
        search_failures = sum(out.search_failures for rnd in rounds if rnd.sim
                              for out in rnd.sim.values())
        values = tracing.per_layer(tracer, len(ctx.cfg.budgets()), ctx.import_s,
                                   [r.optimize_s for r in rounds], fits, sim_s, search_failures,
                                   over_beta, len(tracer.name) * tracing.span_cost_s())
    else:
        first = nmse[0] if nmse else {}
        values = {
            "setup_s": statistics.median(setups),
            "optimize_s": statistics.median(r.optimize_s for r in rounds),
            "best_isl": fitness[0],
            "fits_per_s": fits / sim_s,
            "nmse_optimized": first.get("optimized"),
            "nmse_random": first.get("random"),
            "nmse_uniform": first.get("uniform"),
            "peak_rss_mb": peak_rss_mb,
        }
    units = UNITS["per_layer" if ARGS.trace else "end_to_end"]
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 3
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _units() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per kind, from BENCHMARK.json (the one list of metrics)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


if __name__ == "__main__":
    ARGS = parse_args()
    UNITS = _units()
    sys.exit(main())
