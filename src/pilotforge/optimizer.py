"""Estimation-of-distribution search for the worst-group ISL under SRL ceilings.

Each individual is a full binary allocation matrix (subcarriers x groups) with
non-overlapping rows and fixed per-group pilot budgets. The EDA keeps a
per-cell Bernoulli model fitted to the elite fraction of the population,
samples fresh individuals from it with a deterministic structural repair,
rejects any draw whose per-group SRL exceeds its ceiling, and carries the best
individual over unchanged, so the best fitness never increases.

A generation is handled as one stack: every slot draws, the round's
distinct draws are repaired and SRL-gated together, each once, and only the
slots the gate rejects draw again. The gate decides the uncached (group,
column) pairs of every group in one pass. Retry round r of generation it
draws one seeded uniform block, from ``default_rng(SeedSequence(seed,
spawn_key=(it, r)))``, and slot q reads row q of it (key 0 seeds the initial
population). A slot is pending from round 0 until it is accepted, so its
r-th draw is always row q of round r: what a slot draws does not depend on
the other slots or on the batching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ambiguity import IslMatrix, SidelobeRegion, isl_matrix
from .resolution import (SrlResult, SrlSearch, check_offline_model, pattern_crb_provider,
                         resolvable_at, srl_at_most, srl_of_pattern)
from .waveform import BandLayout, PatternSet, check_budgets, random_patterns

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
    beta_reference_draws random feasible patterns; those two settings are
    checked only where they are used. The offline model (gains, noise std and
    prior_std_s, which only multiband layouts read) and the budgets are
    checked by ``run_eda``, through ``check_offline_model`` and
    ``check_budgets`` for the layout.
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
        if self.srl_ceilings_s is not None:
            if len(self.srl_ceilings_s) != len(self.budgets):
                raise ValueError("one SRL ceiling per group required")
            if not all(0 < b < np.inf for b in self.srl_ceilings_s):
                raise ValueError("SRL ceilings must be positive and finite")
        if self.retry_cap < 1:
            raise ValueError("retry cap must be positive")
        if not 0 < self.gate_step_s < np.inf:
            raise ValueError("gate step must be positive and finite")
        if self.srl_ceilings_s is None:
            if not 0 < self.beta_margin < np.inf:
                raise ValueError("beta margin must be positive and finite")
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


def update_probabilities(elites: np.ndarray) -> np.ndarray:
    """Cellwise mean of a (E, N, G) stack of elite masks: the new Bernoulli model."""
    if elites.ndim != 3 or elites.shape[0] == 0:
        raise ValueError("need a non-empty stack of equally shaped elite masks")
    return elites.mean(axis=0)


def _first_in_order(avail: np.ndarray, order: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Mask of the first limit[q] set cells of each row q of avail (Q, N),
    visiting the columns in the given order."""
    ranked = avail[:, order]
    counts = np.cumsum(ranked, axis=1, dtype=np.min_scalar_type(avail.shape[1]))
    out = np.empty_like(ranked)
    out[:, order] = ranked & (counts <= limit[:, None])
    return out


def _repair(draws: np.ndarray, budgets: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """Deterministic structural repair of a stack of raw Bernoulli draws, (Q, N, G).

    Row conflicts are settled row by row in index order: the row keeps the
    cell whose group currently lacks the most pilots (ties: lowest group
    index). Column sums are then trimmed at the lowest cell probabilities and
    padded at empty rows with the highest ones (ties: lowest row index).

    The work runs on (G, Q, N) group planes. A slot's counts change only at
    its own conflicted rows, so the j-th conflicted row of every slot is
    settled in one step, max-conflicts steps in all; the trim and pad orders
    are one stable sort of a group's probabilities, which restricted to a
    slot's own (or empty) rows is that slot's own stable order.
    """
    budgets = np.asarray(budgets, dtype=np.int64)
    planes = np.moveaxis(draws, 2, 0).astype(np.uint8, order="C")
    n_groups, n_slots, n_rows = planes.shape
    deficit = budgets[:, None] - planes.sum(axis=2, dtype=np.min_scalar_type(n_rows))
    cells = planes.reshape(n_groups, -1)
    conflicted = np.flatnonzero(planes.sum(axis=0, dtype=np.min_scalar_type(n_groups)) > 1)
    if conflicted.size:  # flat indices q N + n, ordered by slot, then by row
        slot = conflicted // n_rows
        per_slot = np.bincount(slot, minlength=n_slots)
        rank = np.arange(slot.size) - np.repeat(np.cumsum(per_slot) - per_slot, per_slot)
        at = rank * n_slots + slot
        rows = np.zeros((n_groups, per_slot.max() * n_slots), dtype=np.uint8)
        rows[:, at] = cells[:, conflicted]
        group = np.arange(n_groups)[:, None]
        lowest = np.iinfo(np.int64).min
        for row in np.split(rows, per_slot.max(), axis=1):  # the j-th conflict of each slot
            keep = np.argmax(np.where(row, deficit, lowest), axis=0)
            kept = row & (group == keep)  # rows of slots with fewer conflicts are 0: no-op
            deficit += row - kept
            row[...] = kept
        cells[:, conflicted] = rows[:, at]
    for g in range(n_groups):  # trim overfull columns first to free rows
        over = np.flatnonzero(deficit[g] < 0)
        if over.size:
            own = planes[g, over]
            order = np.argsort(prob[:, g], kind="stable")
            planes[g, over] = own - _first_in_order(own, order, -deficit[g, over])
    free = planes.max(axis=0) == 0
    for g in range(n_groups):
        under = np.flatnonzero(deficit[g] > 0)
        if under.size:
            empty = free[under]
            order = np.argsort(-prob[:, g], kind="stable")
            add = _first_in_order(empty, order, deficit[g, under])
            planes[g, under] |= add
            free[under] = empty & ~add
    return np.stack(list(planes), axis=-1)


def _round_block(seed: int, key: int, r: int, slots: np.ndarray,
                 shape: tuple[int, ...]) -> np.ndarray:
    """Rows ``slots`` (ascending) of retry round r's uniform block under key.

    The block is ``default_rng(SeedSequence(seed, spawn_key=(key, r))).random``
    of shape (n_slots,) + shape. ``Generator.random`` fills an array in order
    and takes one 64-bit output of its PCG64 per float64, so each run of
    consecutive slots is drawn after advancing the generator past the rows
    before it, and gets those rows' values.
    """
    bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key, r)))
    rng = np.random.Generator(bits)
    out = np.empty((len(slots),) + shape)
    starts = np.flatnonzero(np.diff(slots, prepend=-2) != 1)  # where each run begins
    drawn = 0  # rows of the block the generator has passed
    for i, j in zip(starts, np.append(starts[1:], len(slots))):
        bits.advance(int(slots[i] - drawn) * out[0].size)
        rng.random(out=out[i:j])
        drawn = slots[j - 1] + 1
    return out


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index of each distinct row's first occurrence, in first-seen order;
    index into those of every row) of a 2-D 0/1 stack."""
    seen: dict[bytes, int] = {}
    inverse = np.array([seen.setdefault(key, len(seen)) for key in _packed_rows(rows)])
    return np.unique(inverse, return_index=True)[1], inverse


def _fill(draw: Callable[[np.ndarray, int], np.ndarray],
          repair: Callable[[np.ndarray], np.ndarray] | None,
          gate: Callable[[np.ndarray], np.ndarray] | None, n_slots: int, retry_cap: int,
          failure: str) -> tuple[np.ndarray, int]:
    """Draw every slot, gate the stack, and draw again only the rejected slots.

    draw(slots, r) returns the (len(slots), N, G) 0/1 draws of the pending
    slots in retry round r, and repair (None: the draws are masks already)
    turns a stack of them into masks. A slot is pending from round 0 until it
    is accepted, so its r-th draw always comes from round r. A round's
    distinct draws are repaired, given the ``PatternSet`` structure checks
    and gated once each, in first-seen order, and each slot gets its draw's
    mask and verdict. Returns the accepted stack and the number of rejected
    draws, one per rejected slot.

    Raises
    ------
    InfeasibleSamplingError
        When a slot's retry_cap consecutive draws are all rejected.
    """
    pending = np.arange(n_slots)
    out = None
    rejected = 0
    for r in range(retry_cap):
        raw = draw(pending, r)
        first, inverse = _distinct(raw.reshape(len(raw), -1))
        masks = raw[first] if repair is None else repair(raw[first])
        PatternSet.check_masks(masks)
        ok = np.ones(len(pending), dtype=bool) if gate is None else gate(masks)[inverse]
        if out is None:
            out = np.empty((n_slots,) + masks.shape[1:], dtype=np.uint8)
        out[pending[ok]] = masks[inverse[ok]]
        rejected += int(np.count_nonzero(~ok))
        pending = pending[~ok]
        if not pending.size:
            return out, rejected
    raise InfeasibleSamplingError(retry_cap, failure)


def sample_individual(prob: np.ndarray, budgets: Sequence[int],
                      srl_gate: Callable[[np.ndarray], np.ndarray] | None,
                      seed: int, key: int, n_slots: int,
                      retry_cap: int = EdaConfig.retry_cap) -> tuple[np.ndarray, int]:
    """n_slots feasible individuals from the Bernoulli model.

    In retry round r, pending slot q sets the cells where row q of the
    (n_slots, N, G) uniform block of ``SeedSequence(seed, spawn_key=(key, r))``
    falls below ``prob``. The round's distinct draws are repaired together and
    passed to ``srl_gate`` as one (Q, N, G) stack, each once, which returns
    one verdict per draw (None accepts every draw); a slot gets its draw's
    mask and verdict. Only the rejected slots draw again, in the next round,
    so a slot's mask does not depend on which other slots are pending.
    Returns the (n_slots, N, G) uint8 stack and the number of rejected draws,
    one per rejected slot.

    Raises
    ------
    InfeasibleSamplingError
        When a slot's retry_cap consecutive draws all violate an SRL ceiling.
    """
    prob = np.asarray(prob, dtype=float)
    if np.any(prob < 0) or np.any(prob > 1):
        raise ValueError("Bernoulli probabilities must lie in [0, 1]")
    budgets = np.asarray(budgets, dtype=int)
    check_budgets(budgets, prob.shape[0])
    if n_slots < 1:
        raise ValueError("need at least one slot")

    def draw(slots: np.ndarray, r: int) -> np.ndarray:
        return _round_block(seed, key, r, slots, prob.shape) < prob

    def repair(draws: np.ndarray) -> np.ndarray:
        return _repair(draws, budgets, prob)

    return _fill(
        draw, repair, srl_gate, n_slots, retry_cap,
        f"sampler rejected {retry_cap} consecutive draws on the SRL ceiling; relax "
        f"the ceilings or raise the retry cap")


def _packed_rows(rows: np.ndarray) -> list[bytes]:
    """The bit-packed bytes of each row of a 2-D 0/1 stack, from one packbits."""
    packed = np.ascontiguousarray(np.packbits(rows, axis=1))
    return packed.view(f"V{packed.shape[1]}").ravel().tolist()


def _gate_decisions(layout: BandLayout, cfg: EdaConfig, beta_s: np.ndarray,
                    groups: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """"SRL <= beta" for each column cols[i] (Q, N) of group groups[i]: one
    ``resolvable_at`` over the whole stack, each column at its group's beta,
    accepts every column with g(beta) >= 0; then, per group with a column
    failing there, one CRB provider over its failing columns and one
    ``srl_at_most`` scan of that stack decide the rest."""
    model = (cfg.offline_noise_std, cfg.offline_gains)
    ok = resolvable_at(layout, cols, *model, beta_s[groups], cfg.prior_std_s)
    for g in np.unique(groups[~ok]):
        rows = np.flatnonzero(~ok & (groups == g))
        provider = pattern_crb_provider(layout, cols[rows], *model, cfg.prior_std_s)
        ok[rows] = srl_at_most(provider, beta_s[g], cfg.gate_step_s)
    return ok


def _srl_gate(layout: BandLayout, cfg: EdaConfig,
              beta_s: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The SRL rejection test of one EDA run over a (Q, N, G) stack of masks.

    A slot passes when every group's SRL is at most its beta; every group of
    every slot is decided, and the verdict is the AND over the groups. Each
    decision is a pure function of (group, column), so the gate caches it
    under the packed column, one cache per group, for its own lifetime, which
    is one ``run_eda``. The misses of one call, over every group, are decided
    together by one ``_gate_decisions``.
    """
    decided: list[dict[bytes, bool]] = [{} for _ in beta_s]  # one cache per group

    def gate(masks: np.ndarray) -> np.ndarray:
        n_slots = len(masks)
        # (G Q, N), group-major: row g Q + q is group g's column of slot q
        cols = np.ascontiguousarray(np.moveaxis(masks, 2, 0)).reshape(-1, masks.shape[1])
        packed = _packed_rows(cols)
        keys = [packed[g * n_slots:(g + 1) * n_slots] for g in range(len(decided))]
        misses: dict[tuple[int, bytes], int] = {}   # -> its first row of cols
        for g, (cache, group_keys) in enumerate(zip(decided, keys)):
            for i, key in enumerate(group_keys):
                if key not in cache:
                    misses.setdefault((g, key), g * n_slots + i)
        if misses:
            rows = np.fromiter(misses.values(), dtype=int, count=len(misses))
            verdicts = _gate_decisions(layout, cfg, beta_s, rows // n_slots, cols[rows])
            for (g, key), ok in zip(misses, verdicts.tolist()):
                decided[g][key] = ok
        passed = np.ones(len(masks), dtype=bool)
        for cache, group_keys in zip(decided, keys):
            passed &= [cache[key] for key in group_keys]
        return passed

    return gate


def random_srl_reference(layout: BandLayout, cfg: EdaConfig) -> np.ndarray:
    """Mean per-group SRL of seeded random feasible patterns (the beta reference).

    Each group's columns of all the draws are searched as one stack. A draw
    with a group that has no SRL fails the reference; the error names the
    first such draw.
    """
    draws = []
    for d in range(cfg.beta_reference_draws):
        seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0xBE7A, d))
        draws.append(random_patterns(layout, len(cfg.budgets), cfg.budgets,
                                     seed=seed.generate_state(1)[0]))
    per_group = [srl_of_pattern(layout, np.stack([pats.column(g) for pats in draws]),
                                cfg.offline_noise_std, cfg.offline_gains, cfg.prior_std_s,
                                cfg.final_search)
                 for g in range(len(cfg.budgets))]
    missing = [d for d in range(len(draws)) if not all(res[d].found for res in per_group)]
    if missing:
        raise InfeasibleSamplingError(
            missing[0], "random reference pattern has no SRL in the search range; "
                        "widen the search grid")
    sums = [sum(res.srl_s for res in results) for results in per_group]  # in draw order
    return np.array(sums) / cfg.beta_reference_draws


def run_eda(layout: BandLayout, cfg: EdaConfig,
            on_iteration: Callable[[int, np.ndarray, np.ndarray], None] | None = None
            ) -> EdaResult:
    """Full constrained EDA run; returns the best individual and its trace.

    Generations 0..iterations run one loop body, so ``prob`` is the model of
    the last population's elites. Each slot reads its own row of a seeded
    block per retry round, so the draws do not depend on how a generation is
    batched. The fitnesses come from each generation's miss stack (its
    uncached masks in first-seen order, duplicates included) through one
    ``isl_many``, whose rows' last bits can depend on each other, so that
    stack is fixed. ``on_iteration`` receives (iteration, population masks,
    fitnesses) after every evaluation, for instrumentation. The offline model
    and the budgets are checked first, before any draw.
    """
    check_offline_model(layout, cfg.offline_noise_std, cfg.offline_gains, cfg.prior_std_s)
    n, n_groups = layout.n_total, len(cfg.budgets)
    check_budgets(cfg.budgets, n)
    budgets = np.asarray(cfg.budgets, dtype=int)

    if cfg.srl_ceilings_s is not None:
        beta = np.asarray(cfg.srl_ceilings_s, dtype=float)
    else:
        beta = cfg.beta_margin * random_srl_reference(layout, cfg)
    gate = _srl_gate(layout, cfg, beta)
    matrix = isl_matrix(layout, cfg.region)

    # uniform draws over feasible budgeted masks, SRL-gated: the subcarriers of
    # rank [b_0 + .. + b_{g-1}, b_0 + .. + b_g) in a slot's row go to group g
    edges = np.cumsum(budgets)

    def draw_initial(slots: np.ndarray, r: int) -> np.ndarray:
        ranks = np.argsort(np.argsort(_round_block(cfg.seed, 0, r, slots, (n,)), axis=1), axis=1)
        group = np.searchsorted(edges, ranks, side="right")
        return (group[..., None] == np.arange(n_groups)).astype(np.uint8)

    population, rejected_total = _fill(
        draw_initial, None, gate, cfg.population, cfg.retry_cap,
        "could not initialize a feasible population; the SRL ceilings are below "
        "what random patterns achieve")

    cache: dict[bytes, float] = {}

    def evaluate(pop: np.ndarray) -> np.ndarray:
        keys = _packed_rows(pop.reshape(len(pop), -1))
        missing = [i for i, k in enumerate(keys) if k not in cache]
        if missing:
            vals = _fitness_many(pop[missing], matrix)
            for i, v in zip(missing, vals):
                cache[keys[i]] = float(v)
        return np.array([cache[k] for k in keys])

    best_mask, best_fit, trace = None, np.inf, []
    for it in range(cfg.iterations + 1):
        if it:
            drawn, rej = sample_individual(prob, budgets, gate, cfg.seed, it,
                                           cfg.population - 1, cfg.retry_cap)
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
        prob = update_probabilities(population[np.argsort(fits, kind="stable")[:cfg.elite]])

    best = PatternSet(best_mask)
    srls = tuple(srl_of_pattern(layout, best.column(g), cfg.offline_noise_std,
                                cfg.offline_gains, cfg.prior_std_s, cfg.final_search)
                 for g in range(n_groups))
    isl_pg = np.array([matrix.isl(best.column(g)) for g in range(n_groups)])
    return EdaResult(best, best_fit, np.asarray(trace), prob, tuple(beta),
                     isl_pg, srls, rejected_total)
