"""Traced mode: timing wrappers around pilotforge's public functions.

The wrappers are installed on the names the calling module looks up at call
time (``pilotforge.optimizer.srl_at_most``, ``pilotforge.receiver.decouple``,
...), so the program runs unchanged and the spans sit at the boundaries
between its modules. Spans are kept in memory, one row per call, and written
out when the run ends. A span's self time is its duration minus the time its
direct children cover.
"""

from __future__ import annotations

import contextlib
import sys
import time
from pathlib import Path

import numpy as np

perf_counter = time.perf_counter


class Tracer:
    """In-memory span recorder plus the counters the wrappers keep."""

    def __init__(self):
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.child: list[float] = []
        self.stack: list[int] = []
        self.count = {"fims": 0, "scans": 0, "isl_masks": 0, "fitness_lookups": 0,
                      "rejected_draws": 0, "population": 0}
        self.gate_keys: set[bytes] = set()
        self.eda_rounds: list[tuple[float, list[float]]] = []  # (start, on_iteration times)

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.name)
        parent = self.stack[-1] if self.stack else -1
        self.name.append(name)
        self.parent.append(parent)
        self.start.append(0.0)
        self.end.append(0.0)
        self.child.append(0.0)
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.start[sid], self.end[sid] = t0, t1
            if parent >= 0:
                self.child[parent] += t1 - t0

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # --- span table ------------------------------------------------------
    def table(self) -> dict[str, np.ndarray]:
        """Spans as arrays indexed by span id."""
        start, end = np.asarray(self.start), np.asarray(self.end)
        return {"name": np.asarray(self.name), "parent": np.asarray(self.parent),
                "start": start, "end": end, "dur": end - start,
                "self": end - start - np.asarray(self.child)}

    def write(self, path: Path, t0: float) -> None:
        tab = self.table()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(tab["name"])):
                fh.write(f"{i},{tab['parent'][i]},{tab['name'][i]},"
                         f"{tab['start'][i] - t0:.9f},{tab['end'][i] - t0:.9f}\n")


class _CountingProvider:
    """A CRB provider handed to the SRL gate, counted and timed per call."""

    def __init__(self, tracer: Tracer, inner, key: bytes):
        self.tracer, self.inner, self.key, self.calls = tracer, inner, key, 0

    def __call__(self, dtaus):
        self.calls += 1
        self.tracer.count["fims"] += int(np.size(dtaus))
        return self.tracer.call("resolution.crb_provider", self.inner, dtaus)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the wrappers in; restore the original names on exit."""
    cli = sys.modules["pilotforge.cli"]
    optimizer = sys.modules["pilotforge.optimizer"]
    resolution = sys.modules["pilotforge.resolution"]
    receiver = sys.modules["pilotforge.receiver"]
    ambiguity = sys.modules["pilotforge.ambiguity"]
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def plain(owner, attr, name):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    orig_run_eda = cli.run_eda

    def run_eda(layout, cfg, on_iteration=None):
        marks: list[float] = []
        tracer.eda_rounds.append((perf_counter(), marks))

        def hook(it, population, fits):
            marks.append(perf_counter())
            tracer.count["fitness_lookups"] += len(population)
            if on_iteration is not None:
                on_iteration(it, population, fits)

        result = tracer.call("optimizer.run_eda", orig_run_eda, layout, cfg, hook)
        tracer.count["rejected_draws"] += int(result.rejected_draws)
        tracer.count["population"] += int(cfg.population)
        return result

    orig_factory = optimizer.pattern_crb_provider

    def pattern_crb_provider(layout, w, *args, **kwargs):
        inner = tracer.call("resolution.crb_provider_build", orig_factory,
                            layout, w, *args, **kwargs)
        return _CountingProvider(tracer, inner, np.asarray(w).tobytes())

    orig_gate = optimizer.srl_at_most

    def srl_at_most(provider, beta_s, step_s):
        out = tracer.call("resolution.gate", orig_gate, provider, beta_s, step_s)
        if isinstance(provider, _CountingProvider):
            tracer.gate_keys.add(provider.key)
            tracer.count["scans"] += int(provider.calls > 1)
        return out

    orig_isl_many = ambiguity.IslMatrix.isl_many

    def isl_many(self, columns):
        tracer.count["isl_masks"] += int(np.shape(columns)[0])
        return tracer.call("ambiguity.isl_many", orig_isl_many, self, columns)

    try:
        patch(cli, "run_eda", run_eda)
        plain(cli, "cmd_optimize", "cli.optimize")
        plain(cli, "isl_matrix", "ambiguity.isl_matrix")
        plain(cli, "srl_of_pattern", "resolution.srl_search")
        plain(optimizer, "isl_matrix", "ambiguity.isl_matrix")
        plain(optimizer, "srl_of_pattern", "resolution.srl_search")
        plain(optimizer, "sample_individual", "optimizer.sample")
        patch(optimizer, "pattern_crb_provider", pattern_crb_provider)
        patch(optimizer, "srl_at_most", srl_at_most)
        patch(ambiguity.IslMatrix, "isl_many", isl_many)
        plain(resolution, "crb_batch", "resolution.crb_batch")
        plain(receiver, "decouple", "receiver.decouple")
        plain(receiver, "estimate_paths_psols", "receiver.fit")
        plain(receiver, "path_residual", "receiver.path_residual")
        plain(receiver, "extrapolate_fullband", "receiver.extrapolate")
        plain(receiver, "synthesize_received", "waveform.synthesize_received")
        plain(receiver, "draw_channels", "waveform.draw_channels")
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_cost_s(samples: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a no-op."""
    tracer = Tracer()
    noop = lambda: None  # noqa: E731
    wrapped = tracer.wrap("noop", noop)
    t = perf_counter()
    for _ in range(samples):
        noop()
    bare = perf_counter() - t
    t = perf_counter()
    for _ in range(samples):
        wrapped()
    return max((perf_counter() - t - bare) / samples, 0.0)


# --- per-layer metrics -----------------------------------------------------

def _pct(values, q: float) -> float:
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _under(tab: dict, ids: np.ndarray, ancestor: str) -> np.ndarray:
    """Mask of the spans in ids that have a span named ``ancestor`` above them."""
    parent, name = tab["parent"], tab["name"]
    out = np.zeros(len(ids), dtype=bool)
    for j, i in enumerate(ids):
        p = parent[i]
        while p >= 0:
            if name[p] == ancestor:
                out[j] = True
                break
            p = parent[p]
    return out


def per_layer(tracer: Tracer, n_groups: int, import_s: float, optimize_s: list[float],
              fits: int, sim_s: float, search_failures: int, over_beta: int,
              overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of the traced run, by name."""
    tab = tracer.table()
    ids = {}
    for i, nm in enumerate(tab["name"]):
        ids.setdefault(nm, []).append(i)
    ids = {k: np.asarray(v) for k, v in ids.items()}
    none = np.empty(0, dtype=int)

    def dur(nm):
        return tab["dur"][ids.get(nm, none)]

    gate = dur("resolution.gate")
    crb = ids.get("resolution.crb_batch", none)
    crb_gate = tab["dur"][crb][_under(tab, crb, "resolution.gate")]
    srl = dur("resolution.srl_search")
    sample = ids.get("optimizer.sample", none)
    isl_many = dur("ambiguity.isl_many")
    c = tracer.count
    init_s, iter_s = [], []
    for start, marks in tracer.eda_rounds:
        if marks:
            init_s.append(marks[0] - start)
            iter_s.extend(np.diff(marks))
    run_eda = dur("optimizer.run_eda")
    cli_opt = dur("cli.optimize")
    accepted = c["population"] + len(sample)
    draws = ids.get("waveform.draw_channels", none)
    trial_s = []
    for sim in ids.get("receiver.sim", []):
        # a trial runs from its channel draw to the next one, or to the end
        starts = np.sort(tab["start"][draws[tab["parent"][draws] == sim]])
        trial_s.extend(np.diff(np.append(starts, tab["end"][sim])))
    lookups = c["fitness_lookups"]
    return {
        "ambiguity.isl_matrix.ms": _pct(dur("ambiguity.isl_matrix"), 50) * 1e3,
        "ambiguity.isl_many.calls": len(isl_many),
        "ambiguity.isl_many.masks": c["isl_masks"],
        "ambiguity.isl_many.s": float(np.sum(isl_many)),
        "ambiguity.isl_many.us_per_mask": float(np.sum(isl_many)) / max(c["isl_masks"], 1) * 1e6,
        "resolution.gate.calls": len(gate),
        "resolution.gate.s": float(np.sum(gate)),
        "resolution.gate.us_p50": _pct(gate, 50) * 1e6,
        "resolution.gate.us_p99": _pct(gate, 99) * 1e6,
        "resolution.gate.fims": c["fims"],
        "resolution.gate.fims_per_call": c["fims"] / max(len(gate), 1),
        "resolution.gate.scans": c["scans"],
        "resolution.gate.distinct_masks": len(tracer.gate_keys),
        "resolution.gate.distinct_ratio": len(tracer.gate_keys) / max(len(gate), 1),
        "resolution.crb_batch.s": float(np.sum(crb_gate)),
        "resolution.srl_search.calls": len(srl),
        "resolution.srl_search.s": float(np.sum(srl)),
        "resolution.srl_search.ms_per_call": float(np.sum(srl)) / max(len(srl), 1) * 1e3,
        "optimizer.init.s": _pct(init_s, 50),
        "optimizer.iteration.s_p50": _pct(iter_s, 50),
        "optimizer.iteration.s_p75": _pct(iter_s, 75),
        "optimizer.sample.calls": len(sample),
        "optimizer.sample.self_us_p50": _pct(tab["self"][sample], 50) * 1e6,
        "optimizer.rejected_draws": c["rejected_draws"],
        "optimizer.accept_ratio": accepted / max(accepted + c["rejected_draws"], 1),
        "optimizer.fitness_cache.hit_ratio": 1.0 - c["isl_masks"] / n_groups / max(lookups, 1),
        "optimizer.final_srl_over_beta": over_beta,
        "receiver.fit.calls": len(dur("receiver.fit")),
        "receiver.fit.s": float(np.sum(dur("receiver.fit"))),
        "receiver.fit.ms_p50": _pct(dur("receiver.fit"), 50) * 1e3,
        "receiver.decouple.ms_p50": _pct(dur("receiver.decouple"), 50) * 1e3,
        "receiver.path_residual.ms_p50": _pct(dur("receiver.path_residual"), 50) * 1e3,
        "receiver.extrapolate.ms_p50": _pct(dur("receiver.extrapolate"), 50) * 1e3,
        "receiver.trial.s_p50": _pct(trial_s, 50),
        "receiver.search_failures": search_failures,
        "waveform.synthesize_received.ms_p50": _pct(dur("waveform.synthesize_received"), 50) * 1e3,
        "waveform.draw_channels.ms_p50": _pct(dur("waveform.draw_channels"), 50) * 1e3,
        "cli.outside_eda.s": _pct(cli_opt - run_eda, 50),
        "cli.import.s": import_s,
        "trace.optimize_s": _pct(optimize_s, 50),
        "trace.fits_per_s": fits / sim_s,
        "trace.spans": len(tab["name"]),
        "trace.overhead_est_s": overhead_s,
    }
