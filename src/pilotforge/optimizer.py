"""Estimation-of-distribution search for the worst-group ISL under SRL ceilings.

Each individual is a full binary allocation matrix (subcarriers x groups) with
non-overlapping rows and fixed per-group pilot budgets. The EDA keeps a
per-cell Bernoulli model fitted to the elite fraction of the population,
samples fresh individuals from it with a deterministic structural repair,
rejects any draw whose per-group SRL exceeds its ceiling, and carries the best
individual over unchanged, so the best fitness never increases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ambiguity import IslMatrix, SidelobeRegion, isl_matrix
from .resolution import (SrlResult, SrlSearch, pattern_crb_provider, srl_at_most,
                         srl_of_pattern)
from .waveform import BandLayout, PatternSet, random_patterns

__all__ = [
    "EdaConfig",
    "EdaResult",
    "InfeasibleSamplingError",
    "update_probabilities",
    "sample_individual",
    "random_srl_reference",
    "run_eda",
]


class InfeasibleSamplingError(RuntimeError):
    """Raised when the constrained sampler exhausts its retry budget."""

    def __init__(self, attempts: int, message: str):
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class EdaConfig:
    """Knobs of the constrained EDA run.

    srl_ceilings_s left as None derives per-group ceilings from a seeded
    random-pattern reference: beta_g = beta_margin * mean SRL over
    beta_reference_draws random feasible patterns.
    """

    budgets: tuple[int, ...]
    region: SidelobeRegion
    population: int = 400
    elite: int = 200
    iterations: int = 60
    srl_ceilings_s: tuple[float, ...] | None = None
    beta_margin: float = 1.05
    beta_reference_draws: int = 10
    offline_gains: tuple[float, float] = (1.0, 1.0)
    offline_noise_std: float = 0.1778
    prior_std_s: float = 1e-9
    retry_cap: int = 500
    gate_step_s: float = 0.05e-9
    final_search: SrlSearch = field(default_factory=SrlSearch)
    seed: int = 0

    def __post_init__(self):
        if self.elite < 1 or self.elite >= self.population:
            raise ValueError("need 1 <= elite < population")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if any(p < 1 for p in self.budgets):
            raise ValueError("every group needs a positive pilot budget")
        if self.srl_ceilings_s is not None:
            if len(self.srl_ceilings_s) != len(self.budgets):
                raise ValueError("one SRL ceiling per group required")
            if any(b <= 0 for b in self.srl_ceilings_s):
                raise ValueError("SRL ceilings must be positive")
        if self.offline_noise_std <= 0:
            raise ValueError("offline noise std must be positive")
        if self.retry_cap < 1:
            raise ValueError("retry cap must be positive")


@dataclass(frozen=True)
class EdaResult:
    best: PatternSet
    best_fitness: float
    trace: np.ndarray
    prob: np.ndarray
    beta_s: tuple[float, ...]
    isl_per_group: np.ndarray
    srl_per_group: tuple[SrlResult, ...]
    rejected_draws: int

    @property
    def srl_per_group_s(self) -> tuple[float, ...]:
        """Final SRL per group; tau_lo when below the search range, NaN when not found."""
        return tuple(r.srl_s if r.found else (r.search.tau_lo_s if r.below_range else np.nan)
                     for r in self.srl_per_group)


def _fitness_many(masks: np.ndarray, matrix: IslMatrix) -> np.ndarray:
    """Worst-group ISL for a stack of masks, shape (Q, N, G)."""
    per_group = np.stack(
        [matrix.isl_many(masks[:, :, g]) for g in range(masks.shape[2])], axis=1)
    return per_group.max(axis=1)


def update_probabilities(elites: Sequence[PatternSet] | np.ndarray) -> np.ndarray:
    """Cellwise mean of the elite masks: the new Bernoulli model."""
    if isinstance(elites, np.ndarray):
        stack = elites
    else:
        stack = np.stack([e.mask for e in elites])
    if stack.ndim != 3 or stack.shape[0] == 0:
        raise ValueError("need a non-empty stack of equally shaped elite masks")
    return stack.mean(axis=0)


def _repair(draw: np.ndarray, budgets: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """Deterministic structural repair of a raw Bernoulli draw.

    Row conflicts keep the cell whose group currently lacks the most pilots
    (ties: lowest group index); column sums are then trimmed at the lowest
    cell probabilities and padded at empty rows with the highest ones.
    """
    mask = draw.astype(np.uint8)
    counts = mask.sum(axis=0).astype(int)
    conflicted = np.flatnonzero(mask.sum(axis=1) > 1)
    for n in conflicted:
        groups = np.flatnonzero(mask[n])
        keep = groups[np.argmax(budgets[groups] - counts[groups])]
        for g in groups:
            if g != keep:
                mask[n, g] = 0
                counts[g] -= 1
    for g in range(mask.shape[1]):  # trim overfull columns first to free rows
        excess = counts[g] - budgets[g]
        if excess > 0:
            own = np.flatnonzero(mask[:, g])
            drop = own[np.argsort(prob[own, g], kind="stable")[:excess]]
            mask[drop, g] = 0
            counts[g] = budgets[g]
    for g in range(mask.shape[1]):
        deficit = budgets[g] - counts[g]
        if deficit > 0:
            empty = np.flatnonzero(mask.sum(axis=1) == 0)
            add = empty[np.argsort(-prob[empty, g], kind="stable")[:deficit]]
            mask[add, g] = 1
            counts[g] = budgets[g]
    return mask


def sample_individual(prob: np.ndarray, budgets: Sequence[int],
                      srl_gate: Callable[[np.ndarray], bool] | None,
                      rng: np.random.Generator, retry_cap: int = 500) -> tuple[PatternSet, int]:
    """One feasible individual from the Bernoulli model.

    Draws cellwise, repairs the structural constraints deterministically, and
    re-draws the whole individual while the SRL gate rejects it. Returns the
    pattern and the number of rejected draws.

    Raises
    ------
    InfeasibleSamplingError
        When retry_cap consecutive draws all violate an SRL ceiling.
    """
    prob = np.asarray(prob, dtype=float)
    if np.any(prob < 0) or np.any(prob > 1):
        raise ValueError("Bernoulli probabilities must lie in [0, 1]")
    budgets = np.asarray(budgets, dtype=int)
    if budgets.sum() > prob.shape[0]:
        raise ValueError("total pilot budget exceeds the number of subcarriers")
    rejected = 0
    for _ in range(retry_cap):
        draw = rng.random(prob.shape) < prob
        mask = _repair(draw, budgets, prob)
        if srl_gate is None or srl_gate(mask):
            return PatternSet(mask), rejected
        rejected += 1
    raise InfeasibleSamplingError(
        rejected, f"sampler rejected {rejected} consecutive draws on the SRL "
                  f"ceiling; relax the ceilings or raise the retry cap")


def _srl_gate(layout: BandLayout, cfg: EdaConfig,
              beta_s: np.ndarray) -> Callable[[np.ndarray], bool]:
    """The SRL rejection test of one EDA run: every group's SRL at most its beta.

    Groups are tested in order and the first failure rejects the mask. Each
    decision is a pure function of (group, column), so the gate caches it
    under (group, packed column) for its own lifetime, which is one
    ``run_eda``; only a miss builds a CRB provider and calls ``srl_at_most``.
    """
    gains = np.asarray(cfg.offline_gains, dtype=complex)
    prior = cfg.prior_std_s if layout.mode == "multi" else None
    decided: dict[tuple[int, bytes], bool] = {}

    def gate(mask: np.ndarray) -> bool:
        for g in range(mask.shape[1]):
            key = (g, np.packbits(mask[:, g]).tobytes())
            ok = decided.get(key)
            if ok is None:
                provider = pattern_crb_provider(layout, mask[:, g], cfg.offline_noise_std,
                                                gains, prior)
                ok = decided[key] = srl_at_most(provider, beta_s[g], cfg.gate_step_s)
            if not ok:
                return False
        return True

    return gate


def random_srl_reference(layout: BandLayout, cfg: EdaConfig) -> np.ndarray:
    """Mean per-group SRL of seeded random feasible patterns (the beta reference)."""
    gains = np.asarray(cfg.offline_gains, dtype=complex)
    prior = cfg.prior_std_s if layout.mode == "multi" else None
    acc = np.zeros(len(cfg.budgets))
    for d in range(cfg.beta_reference_draws):
        seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0xBE7A, d))
        pats = random_patterns(layout, len(cfg.budgets), cfg.budgets,
                               seed=seed.generate_state(1)[0])
        for g in range(len(cfg.budgets)):
            res = srl_of_pattern(layout, pats.column(g), cfg.offline_noise_std,
                                 gains, prior, cfg.final_search)
            if not res.found:
                raise InfeasibleSamplingError(
                    d, "random reference pattern has no SRL in the search range; "
                       "widen the search grid")
            acc[g] += res.srl_s
    return acc / cfg.beta_reference_draws


def _rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def run_eda(layout: BandLayout, cfg: EdaConfig,
            on_iteration: Callable[[int, np.ndarray, np.ndarray], None] | None = None
            ) -> EdaResult:
    """Full constrained EDA run; returns the best individual and its trace.

    Population slots are seeded individually from the master seed, so the
    result does not depend on evaluation order. ``on_iteration`` receives
    (iteration, population masks, fitnesses) after every evaluation, for
    instrumentation.
    """
    n, n_groups = layout.n_total, len(cfg.budgets)
    if sum(cfg.budgets) > n:
        raise ValueError("total pilot budget exceeds the number of subcarriers")
    budgets = np.asarray(cfg.budgets, dtype=int)

    if cfg.srl_ceilings_s is not None:
        beta = np.asarray(cfg.srl_ceilings_s, dtype=float)
    else:
        beta = cfg.beta_margin * random_srl_reference(layout, cfg)
    gate = _srl_gate(layout, cfg, beta)
    matrix = isl_matrix(layout, cfg.region)

    rejected_total = 0

    def initial_individual(q: int) -> PatternSet:
        # uniform draw over feasible budgeted masks, SRL-gated
        nonlocal rejected_total
        rng = _rng_for(cfg.seed, 0, q)
        for _ in range(cfg.retry_cap):
            pats = random_patterns(layout, n_groups, budgets,
                                   seed=rng.integers(0, 2**63))
            if gate(pats.mask):
                return pats
            rejected_total += 1
        raise InfeasibleSamplingError(
            cfg.retry_cap, "could not initialize a feasible population; the SRL "
                           "ceilings are below what random patterns achieve")

    population = np.stack([initial_individual(q).mask for q in range(cfg.population)])

    cache: dict[bytes, float] = {}

    def evaluate(pop: np.ndarray) -> np.ndarray:
        keys = [np.packbits(ind).tobytes() for ind in pop]
        missing = [i for i, k in enumerate(keys) if k not in cache]
        if missing:
            vals = _fitness_many(pop[missing], matrix)
            for i, v in zip(missing, vals):
                cache[keys[i]] = float(v)
        return np.array([cache[k] for k in keys])

    fits = evaluate(population)
    if on_iteration is not None:
        on_iteration(0, population, fits)
    best_idx = int(np.argmin(fits))
    best_mask = population[best_idx].copy()
    best_fit = float(fits[best_idx])
    trace = [best_fit]

    for it in range(1, cfg.iterations + 1):
        elite_idx = np.argsort(fits, kind="stable")[:cfg.elite]
        prob = update_probabilities(population[elite_idx])
        new_pop = np.empty_like(population)
        new_pop[0] = best_mask  # elitist carry-over
        for q in range(1, cfg.population):
            ind, rej = sample_individual(prob, budgets, gate,
                                         _rng_for(cfg.seed, it, q), cfg.retry_cap)
            new_pop[q] = ind.mask
            rejected_total += rej
        population = new_pop
        fits = evaluate(population)
        if on_iteration is not None:
            on_iteration(it, population, fits)
        best_idx = int(np.argmin(fits))
        if fits[best_idx] < best_fit:
            best_fit = float(fits[best_idx])
            best_mask = population[best_idx].copy()
        trace.append(best_fit)

    elite_idx = np.argsort(fits, kind="stable")[:cfg.elite]
    prob = update_probabilities(population[elite_idx])

    best = PatternSet(best_mask)
    gains = np.asarray(cfg.offline_gains, dtype=complex)
    prior = cfg.prior_std_s if layout.mode == "multi" else None
    srls = tuple(srl_of_pattern(layout, best.column(g), cfg.offline_noise_std, gains,
                                prior, cfg.final_search) for g in range(n_groups))
    isl_pg = np.array([matrix.isl(best.column(g)) for g in range(n_groups)])
    return EdaResult(best, best_fit, np.asarray(trace), prob, tuple(beta),
                     isl_pg, srls, rejected_total)
