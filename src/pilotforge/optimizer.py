"""Estimation-of-distribution search for the worst-group ISL under SRL ceilings.

Each individual is a full binary allocation matrix (subcarriers x groups) with
non-overlapping rows and fixed per-group pilot budgets. The EDA keeps a
per-cell Bernoulli model fitted to the elite fraction of the population,
samples fresh individuals from it with a deterministic structural repair,
rejects any draw whose per-group SRL exceeds its ceiling, and carries the best
individual over unchanged, so the best fitness never increases.

A generation is handled as one stack: every slot draws from its own random
stream, the draws are repaired and SRL-gated together, and only the slots the
gate rejects draw again. Each stream is consumed exactly as a slot-by-slot
loop would consume it, so the result does not depend on the batching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ambiguity import IslMatrix, SidelobeRegion, isl_matrix
from .resolution import (SrlResult, SrlSearch, pattern_crb_provider, resolvable_at,
                         srl_at_most, srl_of_pattern)
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
    beta_reference_draws random feasible patterns. Those two settings, like
    prior_std_s (read by multiband layouts only), are checked only where they
    are used.
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
        if not self.gate_step_s > 0:
            raise ValueError("gate step must be positive")
        if self.srl_ceilings_s is None:
            if not self.beta_margin > 0:
                raise ValueError("beta margin must be positive")
            if self.beta_reference_draws < 1:
                raise ValueError("need at least one beta reference draw")


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


def _repair(draws: np.ndarray, budgets: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """Deterministic structural repair of a stack of raw Bernoulli draws, (Q, N, G).

    Row conflicts are settled row by row in index order: the row keeps the
    cell whose group currently lacks the most pilots (ties: lowest group
    index). Column sums are then trimmed at the lowest cell probabilities and
    padded at empty rows with the highest ones (ties: lowest row index). Each
    step is one array operation over all Q slots; the trim and pad orders are
    one stable sort of a group's probabilities, which restricted to a slot's
    own (or empty) rows is that slot's own stable order.
    """
    mask = draws.astype(np.uint8)
    budgets = np.asarray(budgets, dtype=np.int64)
    n_groups = mask.shape[2]
    counts = mask.sum(axis=1, dtype=np.int64)                  # (Q, G)
    conflicted = mask.sum(axis=2) > 1                          # (Q, N)
    lowest = np.iinfo(np.int64).min
    for n in np.flatnonzero(conflicted.any(axis=0)):
        q = np.flatnonzero(conflicted[:, n])
        row = mask[q, n]
        keep = np.argmax(np.where(row == 1, budgets - counts[q], lowest), axis=1)
        counts[q] -= row
        counts[q, keep] += 1
        mask[q, n] = 0
        mask[q, n, keep] = 1
    for g in range(n_groups):  # trim overfull columns first to free rows
        excess = counts[:, g] - budgets[g]
        over = np.flatnonzero(excess > 0)
        if over.size:
            rows = np.argsort(prob[:, g], kind="stable")[None, :]
            own = mask[over[:, None], rows, g]
            own[np.cumsum(own, axis=1) <= excess[over, None]] = 0
            mask[over[:, None], rows, g] = own
            counts[over, g] = budgets[g]
    for g in range(n_groups):
        deficit = budgets[g] - counts[:, g]
        under = np.flatnonzero(deficit > 0)
        if under.size:
            rows = np.argsort(-prob[:, g], kind="stable")[None, :]
            empty = mask[under[:, None], rows].sum(axis=2) == 0
            add = empty & (np.cumsum(empty, axis=1) <= deficit[under, None])
            mask[under[:, None], rows, g] |= add
            counts[under, g] = budgets[g]
    return mask


def _fill(draw: Callable[[np.ndarray], np.ndarray],
          gate: Callable[[np.ndarray], np.ndarray] | None, n_slots: int, retry_cap: int,
          failure: str) -> tuple[np.ndarray, int]:
    """Draw every slot, gate the stack, and draw again only the rejected slots.

    draw(slots) returns fresh (len(slots), N, G) masks of those slots, each
    from the slot's own stream, so what a slot draws does not depend on which
    other slots are pending. Every stack gets the ``PatternSet`` structure
    checks once. Returns the accepted stack and the number of rejected draws.

    Raises
    ------
    InfeasibleSamplingError
        When a slot's retry_cap consecutive draws are all rejected.
    """
    pending = np.arange(n_slots)
    out = None
    rejected = 0
    for _ in range(retry_cap):
        masks = draw(pending)
        PatternSet.check_masks(masks)
        ok = np.ones(len(pending), dtype=bool) if gate is None else gate(masks)
        if out is None:
            out = np.empty((n_slots,) + masks.shape[1:], dtype=np.uint8)
        out[pending[ok]] = masks[ok]
        rejected += int(np.count_nonzero(~ok))
        pending = pending[~ok]
        if not pending.size:
            return out, rejected
    raise InfeasibleSamplingError(retry_cap, failure)


def sample_individual(prob: np.ndarray, budgets: Sequence[int],
                      srl_gate: Callable[[np.ndarray], np.ndarray] | None,
                      rng: np.random.Generator | Sequence[np.random.Generator],
                      retry_cap: int = 500) -> tuple[PatternSet | np.ndarray, int]:
    """Feasible individuals from the Bernoulli model.

    ``rng`` is one generator, or a sequence of generators with one per slot.
    Every pending slot draws cellwise from its own stream; the draws are
    repaired together and passed to ``srl_gate`` as one (Q, N, G) stack, which
    returns one verdict per slot (None accepts every draw). Only the rejected
    slots draw again, so each stream is consumed as if its slot were sampled
    alone. Returns the pattern (a ``PatternSet`` for one generator, the
    (Q, N, G) uint8 stack for a sequence) and the number of rejected draws.

    Raises
    ------
    InfeasibleSamplingError
        When a slot's retry_cap consecutive draws all violate an SRL ceiling.
    """
    prob = np.asarray(prob, dtype=float)
    if np.any(prob < 0) or np.any(prob > 1):
        raise ValueError("Bernoulli probabilities must lie in [0, 1]")
    budgets = np.asarray(budgets, dtype=int)
    if budgets.sum() > prob.shape[0]:
        raise ValueError("total pilot budget exceeds the number of subcarriers")
    one = isinstance(rng, np.random.Generator)
    rngs = [rng] if one else list(rng)
    if not rngs:
        raise ValueError("need at least one generator")

    def draw(slots: np.ndarray) -> np.ndarray:
        raw = np.stack([rngs[q].random(prob.shape) for q in slots]) < prob
        return _repair(raw, budgets, prob)

    masks, rejected = _fill(
        draw, srl_gate, len(rngs), retry_cap,
        f"sampler rejected {retry_cap} consecutive draws on the SRL ceiling; relax "
        f"the ceilings or raise the retry cap")
    return (PatternSet(masks[0]) if one else masks), rejected


def _srl_gate(layout: BandLayout, cfg: EdaConfig,
              beta_s: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The SRL rejection test of one EDA run over a (Q, N, G) stack of masks.

    A slot passes when every group's SRL is at most its beta. Groups are
    tested in order, each only for the slots that passed the groups before
    it. Each decision is a pure function of (group, column), so the gate
    caches it under (group, packed column) for its own lifetime, which is one
    ``run_eda``. The misses of one call are decided together: one
    ``resolvable_at`` per group accepts every column with g(beta) >= 0, the
    test ``srl_at_most`` makes first. A column with g(beta) < 0, or with no
    finite CRB in the stack, gets its own CRB provider and the full
    ``srl_at_most`` decision. So does the first miss of every call, whatever
    its g(beta): the traced benchmark times the gate by its ``srl_at_most``
    calls, and a run whose misses all pass at beta would otherwise have none.
    """
    gains = np.asarray(cfg.offline_gains, dtype=complex)
    prior = cfg.prior_std_s if layout.mode == "multi" else None
    decided: dict[tuple[int, bytes], bool] = {}

    def decide(g: int, cols: np.ndarray) -> np.ndarray:
        ok = resolvable_at(layout, cols, cfg.offline_noise_std, gains, beta_s[g], prior)
        exact = ~ok
        exact[0] = True
        for i in np.flatnonzero(exact):
            provider = pattern_crb_provider(layout, cols[i], cfg.offline_noise_std,
                                            gains, prior)
            ok[i] = srl_at_most(provider, beta_s[g], cfg.gate_step_s)
        return ok

    def gate(masks: np.ndarray) -> np.ndarray:
        passed = np.ones(len(masks), dtype=bool)
        for g in range(masks.shape[2]):
            alive = np.flatnonzero(passed)
            if not alive.size:
                break
            cols = masks[alive, :, g]
            keys = [(g, packed.tobytes()) for packed in np.packbits(cols, axis=1)]
            misses: dict[tuple[int, bytes], int] = {}
            for i, key in enumerate(keys):
                if key not in decided:
                    misses.setdefault(key, i)
            if misses:
                verdicts = decide(g, cols[list(misses.values())])
                decided.update(zip(misses, verdicts.tolist()))
            passed[alive] = [decided[key] for key in keys]
        return passed

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
    result does not depend on evaluation order or on how a generation is
    batched. ``on_iteration`` receives (iteration, population masks,
    fitnesses) after every evaluation, for instrumentation.
    """
    n, n_groups = layout.n_total, len(cfg.budgets)
    if sum(cfg.budgets) > n:
        raise ValueError("total pilot budget exceeds the number of subcarriers")
    if layout.mode == "multi" and not cfg.prior_std_s > 0:
        raise ValueError("a multiband run needs a positive timing-offset prior std")
    budgets = np.asarray(cfg.budgets, dtype=int)

    if cfg.srl_ceilings_s is not None:
        beta = np.asarray(cfg.srl_ceilings_s, dtype=float)
    else:
        beta = cfg.beta_margin * random_srl_reference(layout, cfg)
    gate = _srl_gate(layout, cfg, beta)
    matrix = isl_matrix(layout, cfg.region)

    # uniform draws over feasible budgeted masks, SRL-gated
    init_rngs = [_rng_for(cfg.seed, 0, q) for q in range(cfg.population)]
    population, rejected_total = _fill(
        lambda slots: np.stack([random_patterns(layout, n_groups, budgets,
                                                seed=init_rngs[q].integers(0, 2**63)).mask
                                for q in slots]),
        gate, cfg.population, cfg.retry_cap,
        "could not initialize a feasible population; the SRL ceilings are below "
        "what random patterns achieve")

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
        drawn, rej = sample_individual(
            prob, budgets, gate, [_rng_for(cfg.seed, it, q) for q in range(1, cfg.population)],
            cfg.retry_cap)
        rejected_total += rej
        population = np.concatenate([best_mask[None], drawn])  # elitist carry-over
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
