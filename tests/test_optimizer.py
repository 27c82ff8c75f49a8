from collections import Counter

import numpy as np
import pytest

import pilotforge as pf
from pilotforge import optimizer, resolution
from pilotforge.ambiguity import SidelobeRegion, isl_matrix
from pilotforge.optimizer import (EdaConfig, InfeasibleSamplingError, _fitness_many,
                                  _gate_decisions, _repair, _round_block, _srl_gate,
                                  random_srl_reference, run_eda, sample_individual,
                                  update_probabilities)
from pilotforge.resolution import (SrlSearch, pattern_crb_provider, srl_at_most,
                                   srl_of_pattern)

from oracles import repair_serial, run_eda_serial, slot_draw

FS = 120e3

TOY_REGION = SidelobeRegion(150e-9, 400e-9)
TOY_SEARCH = SrlSearch(tau_lo_s=0.1e-9, tau_hi_s=400e-9, step_s=0.1e-9, tol_s=1e-13)


def fitness(patterns, matrix):
    """Worst-group ISL of one pattern set, as the EDA scores its population."""
    return float(_fitness_many(patterns.mask[None], matrix)[0])


def toy_layout():
    return pf.BandLayout.single(32, FS, 0.0)


TOY_MULTI = pf.BandLayout.multiband([pf.Subband(3.5e9, FS, 17), pf.Subband(3.9e9, FS, 17)])


def toy_config(seed=0, **kw):
    base = dict(budgets=(8, 8), region=TOY_REGION, population=100, elite=50,
                iterations=40, gate_step_s=0.5e-9, final_search=TOY_SEARCH,
                seed=seed)
    base.update(kw)
    return EdaConfig(**base)


class TestFitness:
    def test_single_group_equals_isl(self, layout_single, default_region):
        mat = isl_matrix(layout_single, default_region)
        w = np.zeros((256, 1), dtype=np.uint8)
        w[::2, 0] = 1
        pats = pf.PatternSet(w)
        assert fitness(pats, mat) == pytest.approx(mat.isl(w[:, 0]))

    def test_two_groups_takes_worst(self, layout_single, default_region):
        mat = isl_matrix(layout_single, default_region)
        pats = pf.random_patterns(layout_single, 2, [128, 128], seed=3)
        per_group = [mat.isl(pats.column(g)) for g in range(2)]
        assert fitness(pats, mat) == pytest.approx(max(per_group))

    def test_uniform_beats_random_on_reference_setup(self, layout_single,
                                                     default_region):
        mat = isl_matrix(layout_single, default_region)
        uni = pf.uniform_patterns(layout_single, 2, [128, 128])
        rnd = pf.random_patterns(layout_single, 2, [128, 128], seed=0)
        assert fitness(uni, mat) < fitness(rnd, mat)

    def test_all_zero_column_rejected(self, layout_single, default_region):
        mat = isl_matrix(layout_single, default_region)
        pats = pf.PatternSet(np.zeros((256, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            fitness(pats, mat)


class TestUpdateProbabilities:
    def test_identical_elites_reproduce_mask(self):
        mask = pf.random_patterns(toy_layout(), 2, [8, 8], seed=1).mask
        prob = update_probabilities(np.stack([mask] * 7))
        np.testing.assert_array_equal(prob, mask)

    def test_single_cell_disagreement(self):
        a = pf.random_patterns(toy_layout(), 2, [8, 8], seed=1).mask.copy()
        b = a.copy()
        row_on = np.flatnonzero(a[:, 0])[0]
        row_off = np.flatnonzero(a.sum(axis=1) == 0)[0]
        b[row_on, 0] = 0
        b[row_off, 0] = 1
        prob = update_probabilities(np.stack([a, b]))
        assert prob[row_on, 0] == 0.5 and prob[row_off, 0] == 0.5
        mask_rest = np.ones_like(prob, dtype=bool)
        mask_rest[row_on, 0] = mask_rest[row_off, 0] = False
        assert np.isin(prob[mask_rest], (0.0, 1.0)).all()

    def test_budgeted_elites_keep_column_sums(self, layout_single):
        elites = np.stack([pf.random_patterns(layout_single, 2, [128, 128],
                                              seed=s).mask for s in range(200)])
        prob = update_probabilities(elites)
        np.testing.assert_allclose(prob.sum(axis=0), [128.0, 128.0], rtol=1e-12)

    def test_empty_elites_rejected(self):
        with pytest.raises(ValueError):
            update_probabilities(np.zeros((0, 8, 2)))


def assert_same_result(got, ref):
    np.testing.assert_array_equal(got.best.mask, ref.best.mask)
    assert got.best_fitness == ref.best_fitness
    np.testing.assert_array_equal(got.trace, ref.trace)
    np.testing.assert_array_equal(got.prob, ref.prob)
    assert got.beta_s == ref.beta_s
    np.testing.assert_array_equal(got.isl_per_group, ref.isl_per_group)
    assert got.srl_per_group == ref.srl_per_group
    assert got.rejected_draws == ref.rejected_draws


class TestRepair:
    @pytest.mark.parametrize("n_groups", [1, 2, 3])
    def test_stack_matches_serial_oracle(self, n_groups):
        rng = np.random.default_rng(n_groups)
        overfull = underfull = 0
        for trial in range(60):
            n = int(rng.integers(6, 48))
            budgets = rng.integers(1, n // n_groups + 1, n_groups)
            shape = (n, n_groups)
            prob = [rng.random(shape),
                    rng.integers(0, 3, shape) / 2.0,           # ties, with 0 and 1
                    (rng.random(shape) < 0.5).astype(float),   # 0 and 1 only
                    np.full(shape, 0.9),                       # over-full columns
                    np.full(shape, 0.05)][trial % 5]           # under-full columns
            draws = rng.random((25,) + shape) < prob
            got = _repair(draws, budgets, prob)
            for q in range(25):
                np.testing.assert_array_equal(got[q], repair_serial(draws[q], budgets, prob))
            np.testing.assert_array_equal(got.sum(axis=1),
                                          np.broadcast_to(budgets, (25, n_groups)))
            assert got.sum(axis=2).max() <= 1
            overfull += int((draws.sum(axis=1) > budgets).sum())
            underfull += int((draws.sum(axis=1) < budgets).sum())
        assert overfull and underfull


class TestSampleIndividual:
    def test_deterministic_at_unit_probabilities(self):
        mask = pf.random_patterns(toy_layout(), 2, [8, 8], seed=2).mask
        got, rejected = sample_individual(mask.astype(float), [8, 8], None, 0, 1, 3)
        np.testing.assert_array_equal(got, np.stack([mask] * 3))
        assert rejected == 0

    def test_repaired_draws_are_always_feasible(self):
        prob = np.full((32, 2), 0.5)
        stack, _ = sample_individual(prob, [8, 8], None, 7, 1, 1000)
        for ind in stack:
            assert pf.PatternSet(ind).budgets.tolist() == [8, 8]
            assert ind.sum(axis=1).max() <= 1

    def test_same_seed_same_individual(self):
        prob = np.full((32, 2), 0.5)
        a, _ = sample_individual(prob, [8, 8], None, 11, 1, 4)
        b, _ = sample_individual(prob, [8, 8], None, 11, 1, 4)
        np.testing.assert_array_equal(a, b)
        for seed, key in [(12, 1), (11, 2)]:
            c, _ = sample_individual(prob, [8, 8], None, seed, key, 4)
            assert not np.array_equal(a, c)

    def test_gate_rejection_counted_and_capped(self):
        prob = np.full((32, 2), 0.5)
        never = lambda masks: np.zeros(len(masks), dtype=bool)  # noqa: E731
        for n_slots in (1, 5):
            with pytest.raises(InfeasibleSamplingError) as err:
                sample_individual(prob, [8, 8], never, 3, 1, n_slots, retry_cap=17)
            assert err.value.attempts == 17

    def test_generators_draw_each_slot_as_if_alone(self):
        prob = np.random.default_rng(4).random((32, 2))

        def gate(masks):  # a pure function of the mask, as the SRL gate is
            return masks[:, :4, 0].sum(axis=1) <= 1

        stack, rejected = sample_individual(prob, [8, 8], gate, 5, 2, 12)
        assert stack.shape == (12, 32, 2) and stack.dtype == np.uint8
        # slot q alone: its r-th draw is row q of round r, until the gate accepts one
        alone = 0
        for q in range(12):
            for r in range(500):
                ind = repair_serial(slot_draw(5, 2, r, q, 12, (32, 2)) < prob, [8, 8], prob)
                if gate(ind[None])[0]:
                    break
                alone += 1
            np.testing.assert_array_equal(stack[q], ind)
        assert rejected == alone > 0
        # slots 5..11 never pending: slots 0..4 are pending in fewer rounds with
        # fewer others, and draw the same masks
        head, head_rejected = sample_individual(prob, [8, 8], gate, 5, 2, 5)
        np.testing.assert_array_equal(head, stack[:5])
        assert 0 < head_rejected < rejected

    def test_repeated_draws_are_repaired_and_gated_once_per_round(self):
        # four fractional cells, so a round's draws take at most 16 distinct
        # values: each group may move one pilot to one free row
        prob = pf.random_patterns(toy_layout(), 2, [8, 8], seed=6).mask.astype(float)
        free = np.flatnonzero(prob.sum(axis=1) == 0)
        moved = [(np.flatnonzero(prob[:, g])[0], free[g]) for g in range(2)]
        for g, rows in enumerate(moved):
            prob[list(rows), g] = 0.5
        gated = []

        def gate(masks):  # a pure function of the mask, as the SRL gate is
            gated.append(masks.copy())
            return masks[:, moved[0][1], 0] + masks[:, moved[1][1], 1] <= 1

        n_slots = 40
        stack, rejected = sample_individual(prob, [8, 8], gate, 8, 3, n_slots)
        # the serial oracle: slot q's r-th draw is row q of round r, until accepted
        raws, accepted, alone = {}, [], 0
        for q in range(n_slots):
            for r in range(500):
                raw = slot_draw(8, 3, r, q, n_slots, prob.shape) < prob
                raws.setdefault(r, []).append(raw.tobytes())
                ind = repair_serial(raw, [8, 8], prob)
                if gate(ind[None])[0]:
                    break
                alone += 1
            accepted.append(ind)
        del gated[len(raws):]   # the oracle's own gate calls
        np.testing.assert_array_equal(stack, np.stack(accepted))
        assert rejected == alone > 0
        # one gate call per round, on each of the round's distinct draws once
        assert len(gated) == len(raws)
        for r, masks in enumerate(gated):
            assert len(masks) == len(set(raws[r]))
        assert len(set(raws[0])) <= 16 < len(raws[0]) == n_slots

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            sample_individual(np.full((8, 1), 1.5), [2], None, 0, 1, 1)
        with pytest.raises(ValueError):
            sample_individual(np.full((8, 1), 0.5), [2], None, 0, 1, 0)


class TestRoundBlock:
    def test_pending_rows_are_the_full_blocks_rows(self):
        shape = (32, 2)
        full = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(3, 2))).random(
            (40,) + shape)
        rng = np.random.default_rng(0)
        for slots in ([0], [39], [0, 39], [0, 1, 2, 7, 8, 20, 38, 39], [5, 6, 7],
                      [1, 3, 5, 38], list(range(40)),
                      np.flatnonzero(rng.random(40) < 0.3), np.flatnonzero(rng.random(40) < 0.7)):
            slots = np.asarray(slots)
            np.testing.assert_array_equal(_round_block(5, 3, 2, slots, shape), full[slots])


class TestInitialPopulation:
    @staticmethod
    def initial(monkeypatch, population, gate=None, budgets=(8, 8)):
        """Generation 0 of a one-iteration run whose SRL gate is replaced by ``gate``."""
        monkeypatch.setattr(optimizer, "_srl_gate", lambda layout, cfg, beta: gate)
        seen = {}
        cfg = toy_config(seed=3, budgets=budgets, population=population,
                         elite=population // 2, iterations=1, srl_ceilings_s=(1e-6, 1e-6))
        run_eda(toy_layout(), cfg, on_iteration=lambda it, pop, fits: seen.setdefault(it, pop))
        return seen[0]

    def test_budgeted_disjoint_uniform_and_independent_of_pending_slots(self, monkeypatch):
        def gate(masks):  # a pure function of the mask, as the SRL gate is
            return masks[:, :4, 0].sum(axis=1) <= 1

        free = self.initial(monkeypatch, 200)
        gated = self.initial(monkeypatch, 200, gate)
        for pop in (free, gated):
            np.testing.assert_array_equal(pop.sum(axis=1), np.full((200, 2), 8))
            assert pop.sum(axis=2).max() <= 1
        assert gate(gated).all()
        # round 0 is the ungated draw: the slots it passes keep it, the others redraw
        first = gate(free)
        assert 0 < first.sum() < 200
        np.testing.assert_array_equal(gated[first], free[first])
        # also rejecting the round-0 masks of slots 0..9 keeps all ten pending
        # beside the others: every other slot still draws the same masks
        extra = {mask.tobytes() for mask in free[:10]}

        def stricter(masks):
            return gate(masks) & np.array([mask.tobytes() not in extra for mask in masks])

        strict = self.initial(monkeypatch, 200, stricter)
        assert stricter(strict).all() and not np.array_equal(strict[:10], gated[:10])
        np.testing.assert_array_equal(strict[10:], gated[10:])

    def test_occupancy_per_group_is_budget_over_subcarriers(self, monkeypatch):
        pop = self.initial(monkeypatch, 4000, budgets=(4, 12))
        np.testing.assert_array_equal(pop.sum(axis=1), np.broadcast_to([4, 12], (4000, 2)))
        np.testing.assert_allclose(pop.mean(axis=0), np.broadcast_to([4 / 32, 12 / 32], (32, 2)),
                                   atol=0.03)


class TestRunEda:
    def test_toy_run_trace_feasibility_and_determinism(self):
        lay = toy_layout()
        cfg = toy_config(seed=5)
        beta = cfg.beta_margin * random_srl_reference(lay, cfg)
        seen = []

        def watch(it, pop, fits):
            seen.append((it, pop.copy(), fits.copy()))

        res = run_eda(lay, cfg, on_iteration=watch)
        # elitism: best-so-far never increases
        assert np.all(np.diff(res.trace) <= 0)
        # one callback per generation, 0..iterations in order, and every admitted
        # individual in every population is feasible
        assert [it for it, _, _ in seen] == list(range(cfg.iterations + 1))
        gains = np.asarray(cfg.offline_gains, complex)
        for it, pop, fits in seen:
            assert pop.shape == (cfg.population, 32, 2)
            assert np.all(pop.sum(axis=2) <= 1)
            np.testing.assert_array_equal(pop.sum(axis=1),
                                          np.broadcast_to([8, 8], (len(pop), 2)))
            for ind in pop[:: max(1, len(pop) // 10)]:
                for g in range(2):
                    provider = pattern_crb_provider(lay, ind[:, g],
                                                    cfg.offline_noise_std, gains)
                    assert srl_at_most(provider, beta[g], cfg.gate_step_s)
        res2 = run_eda(lay, cfg)
        np.testing.assert_array_equal(res.best.mask, res2.best.mask)
        np.testing.assert_array_equal(res.trace, res2.trace)

    def test_gate_decides_each_group_and_column_once(self, monkeypatch):
        lay = toy_layout()
        cfg = toy_config(seed=9, iterations=8)
        batched, built, scanned, gated = [], [], [], []

        def batch(layout, cols, noise_std, gains, beta_s, *args, **kwargs):
            out = resolution.resolvable_at(layout, cols, noise_std, gains, beta_s,
                                           *args, **kwargs)
            batched.append((np.broadcast_to(beta_s, len(cols)).tolist(),
                            [c.tobytes() for c in cols], out.tolist()))
            return out

        def build(layout, w, *args, **kwargs):
            built.append([c.tobytes() for c in np.asarray(w)])
            return resolution.pattern_crb_provider(layout, w, *args, **kwargs)

        def decide(provider, beta_s, step_s):
            out = resolution.srl_at_most(provider, beta_s, step_s)
            scanned.append((beta_s, out.tolist()))
            return out

        real_gate_factory = optimizer._srl_gate

        def gate_factory(layout, cfg_, beta_s):
            gate = real_gate_factory(layout, cfg_, beta_s)

            def spy(masks):
                out = gate(masks)
                gated.append((masks.copy(), out.copy()))
                return out
            return spy

        monkeypatch.setattr(optimizer, "resolvable_at", batch)
        monkeypatch.setattr(optimizer, "pattern_crb_provider", build)
        monkeypatch.setattr(optimizer, "srl_at_most", decide)
        monkeypatch.setattr(optimizer, "_srl_gate", gate_factory)
        res = run_eda(lay, cfg)
        monkeypatch.undo()

        beta = list(res.beta_s)
        assert len(set(beta)) == len(beta)
        # every miss is decided in a batch at its group's beta, and no pair is
        # decided twice
        seen = [(beta.index(b), col) for bs, cols, _ in batched for b, col in zip(bs, cols)]
        assert len(seen) == len(set(seen)), "a (group, column) pair was decided twice"
        assert any(len(set(bs)) > 1 for bs, _, _ in batched), "no batch held two groups"
        gains = np.asarray(cfg.offline_gains, complex)
        answers = {}
        for g, col in seen:
            w = np.frombuffer(col, dtype=np.uint8)
            provider = pattern_crb_provider(lay, w, cfg.offline_noise_std, gains)
            answers[(g, col)] = srl_at_most(provider, beta[g], cfg.gate_step_s)
        # the exact path runs once per batch and group that has a column failing
        # at beta, on exactly those columns, and every rejection went through it
        failed = [[col for b, col, ok in zip(bs, cols, oks) if not ok and beta.index(b) == g]
                  for bs, cols, oks in batched for g in range(len(beta))]
        assert built and built == [cols for cols in failed if cols]
        assert len(scanned) == len(built)
        exact = []
        for cols, (b, outs) in zip(built, scanned):
            assert len(outs) == len(cols)
            for col, out in zip(cols, outs):
                exact.append((beta.index(b), col))
                assert answers[exact[-1]] == out
        assert len(exact) == len(set(exact)) and set(exact) <= set(answers)
        assert {key for key, ok in answers.items() if not ok} <= set(exact)
        for bs, cols, oks in batched:   # a pass at beta is a pass
            assert all(answers[(beta.index(b), col)]
                       for b, col, ok in zip(bs, cols, oks) if ok)
        # every group of every gated slot is asked, and the verdict is the AND
        # over the groups
        asked, lookups = set(), 0
        for masks, out in gated:
            assert out.shape == (len(masks),)
            for mask, verdict in zip(masks, out):
                keys = [(g, mask[:, g].tobytes()) for g in range(mask.shape[1])]
                assert all(key in answers for key in keys), "a gated group was not decided"
                asked.update(keys)
                lookups += len(keys)
                assert verdict == all(answers[key] for key in keys)
        assert asked == set(answers)
        assert lookups > len(answers)       # the cache did serve repeats
        assert not all(answers.values())    # and it holds rejections too

    def test_exact_path_does_not_test_beta_again(self, monkeypatch):
        # resolvable_at has tested g(beta) on every column the gate hands to
        # the exact path, so no provider built there is asked for [beta] alone
        lay = toy_layout()
        cfg = toy_config(seed=9, iterations=8)
        grids = []

        def build(layout, w, *args, **kwargs):
            provider = resolution.pattern_crb_provider(layout, w, *args, **kwargs)

            def recorded(dtaus):
                grids.append(np.atleast_1d(dtaus).tolist())
                return provider(dtaus)
            return recorded

        monkeypatch.setattr(optimizer, "pattern_crb_provider", build)
        res = run_eda(lay, cfg)
        assert res.rejected_draws > 0 and grids
        beta_alone = [[b] for b in res.beta_s]
        assert not [grid for grid in grids if grid in beta_alone]

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_batched_decisions_match_fresh_scans(self, mode, layout_single, layout_multi):
        lay, prior = (layout_single, None) if mode == "single" else (layout_multi, 1e-9)
        p = 40
        cfg = toy_config(budgets=(p,))
        gains = np.asarray(cfg.offline_gains, complex)
        rng = np.random.default_rng(21)
        cols = np.zeros((8, lay.n_total), dtype=np.uint8)
        for q in range(8):
            cols[q, rng.permutation(lay.n_total)[:p]] = 1
        if mode == "multi":   # one column without a pilot in the second subband
            cols[0] = 0
            cols[0, rng.permutation(lay.subbands[0].n_subcarriers)[:p]] = 1
        srls = [srl_of_pattern(lay, c, cfg.offline_noise_std, gains, prior).srl_s
                for c in cols]
        decisions = []
        for x in (0.5, 0.8, 1.0, 1.25, 2.0):
            b = x * float(np.median([s for s in srls if s is not None]))
            got = _srl_gate(lay, cfg, np.array([b]))(cols[:, :, None])
            ref = [srl_at_most(pattern_crb_provider(lay, c, cfg.offline_noise_std, gains,
                                                    prior), b, cfg.gate_step_s)
                   for c in cols]
            assert got.tolist() == ref, x
            decisions += ref
        assert any(decisions) and not all(decisions)
        # two groups, with different betas and pilot counts, decided in one pass:
        # group 1 takes p // 2 pilots among the subcarriers group 0 leaves free
        other = np.zeros_like(cols)
        for q in range(8):
            other[q, rng.permutation(np.flatnonzero(cols[q] == 0))[:p // 2]] = 1
        other_srls = [srl_of_pattern(lay, c, cfg.offline_noise_std, gains, prior).srl_s
                      for c in other]
        betas = np.array([float(np.median([s for s in found if s is not None]))
                          for found in (srls, other_srls)])
        assert betas[0] != betas[1]
        ref = [[srl_at_most(pattern_crb_provider(lay, c, cfg.offline_noise_std, gains, prior),
                            b, cfg.gate_step_s) for c in group]
               for group, b in zip((cols, other), betas)]
        groups = np.repeat([0, 1], 8)
        got = _gate_decisions(lay, cfg, betas, groups, np.concatenate([cols, other]))
        assert got.tolist() == ref[0] + ref[1]
        assert not all(ref[0]) and not all(ref[1]) and any(ref[0]) and any(ref[1])
        gated = _srl_gate(lay, cfg, betas)(np.stack([cols, other], axis=-1))
        assert gated.tolist() == [a and b for a, b in zip(*ref)]

    @pytest.mark.parametrize("seed", [5, 9])
    def test_matches_serial_loop(self, seed):
        lay = toy_layout()
        cfg = toy_config(seed=seed, iterations=8)
        ref = run_eda_serial(lay, cfg)
        assert ref.rejected_draws > 0
        assert_same_result(run_eda(lay, cfg), ref)

    @pytest.mark.parametrize("ceilings", [None, (1e-6, 1e-6)])
    def test_traced_names_stay_live(self, monkeypatch, ceilings):
        # with None the gate rejects draws; at 1 us every column passes at beta.
        # Every gate's CRB goes through crb_batch, on either band.
        calls, answers = Counter(), []
        for owner, name in [(optimizer, "sample_individual"),
                            (optimizer, "pattern_crb_provider"),
                            (optimizer, "srl_at_most"), (resolution, "crb_batch"),
                            (optimizer, "resolvable_at")]:
            def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                out = _real(*args, **kwargs)
                if _name == "resolvable_at":
                    answers.extend(out.tolist())
                return out
            monkeypatch.setattr(owner, name, spy)
        for lay in (toy_layout(), TOY_MULTI):
            calls.clear()
            answers.clear()
            res = run_eda(lay, toy_config(seed=5, iterations=3, srl_ceilings_s=ceilings))
            # the exact path runs at most once per group and batch of misses, and
            # only when a column fails at beta
            assert calls["srl_at_most"] == calls["pattern_crb_provider"]
            assert calls["srl_at_most"] <= 2 * calls["resolvable_at"]
            if ceilings is None:
                assert set(calls) == {"sample_individual", "pattern_crb_provider",
                                      "srl_at_most", "resolvable_at", "crb_batch"}
                assert res.rejected_draws > 0 and not all(answers)
            else:
                assert set(calls) == {"sample_individual", "resolvable_at", "crb_batch"}
                assert res.rejected_draws == 0 and all(answers)

    def test_best_beats_random_baseline_over_seeds(self):
        lay = toy_layout()
        cfg = toy_config(seed=6, iterations=25)
        res = run_eda(lay, cfg)
        mat = isl_matrix(lay, cfg.region)
        for seed in range(20):
            rnd = pf.random_patterns(lay, 2, [8, 8], seed=seed)
            assert res.best_fitness <= fitness(rnd, mat)

    def test_best_satisfies_reported_ceilings(self):
        lay = toy_layout()
        res = run_eda(lay, toy_config(seed=7, iterations=10))
        for srl, beta in zip(res.srl_per_group_s, res.beta_s):
            assert srl <= beta

    def test_infeasible_ceiling_surfaces_as_exhaustion(self):
        lay = toy_layout()
        cfg = toy_config(seed=8, srl_ceilings_s=(1e-12, 1e-12), retry_cap=5)
        with pytest.raises(InfeasibleSamplingError) as err:
            run_eda(lay, cfg)
        assert err.value.attempts == cfg.retry_cap

    def test_reference_without_srl_names_the_first_failing_draw(self):
        # in a window that ends at 55 ns, some reference columns have no SRL;
        # draw 2's group-1 column is the first in draw order, and group 0 first
        # fails at a later draw, so a group-by-group order would name another
        lay = toy_layout()
        search = SrlSearch(tau_lo_s=0.1e-9, tau_hi_s=55e-9, step_s=0.1e-9, tol_s=1e-13)
        cfg = toy_config(seed=9, final_search=search)
        found = []
        for d in range(cfg.beta_reference_draws):
            seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0xBE7A, d))
            pats = pf.random_patterns(lay, 2, cfg.budgets, seed=seed.generate_state(1)[0])
            found.append([srl_of_pattern(lay, pats.column(g), cfg.offline_noise_std,
                                         cfg.offline_gains, None, search).found
                          for g in range(2)])
        found = np.array(found)
        first = int(np.flatnonzero(~found.all(axis=1))[0])
        assert found[first, 0] and not found[first, 1]
        assert np.flatnonzero(~found[:, 0])[0] > first
        with pytest.raises(InfeasibleSamplingError,
                           match="random reference pattern has no SRL in the search range; "
                                 "widen the search grid") as err:
            run_eda(lay, cfg)
        assert err.value.attempts == first

    def test_budget_overflow_rejected(self):
        lay = toy_layout()
        with pytest.raises(ValueError):
            run_eda(lay, toy_config(budgets=(20, 20)))

    @pytest.mark.parametrize("budgets", [(0, 8), (-2, 8), (20, 20)])
    def test_budgets_have_one_check(self, budgets):
        # run_eda, sample_individual and random_patterns all use check_budgets
        message = "pilot budget"
        with pytest.raises(ValueError, match=message):
            run_eda(toy_layout(), toy_config(budgets=budgets))
        with pytest.raises(ValueError, match=message):
            sample_individual(np.full((32, 2), 0.5), budgets, None, 0, 1, 1)
        with pytest.raises(ValueError, match=message):
            pf.random_patterns(toy_layout(), 2, budgets)
        with pytest.raises(ValueError, match=message):
            pf.waveform.check_budgets(budgets, 32)
        pf.waveform.check_budgets((16, 16), 32)


class TestEdaConfigValidation:
    def test_elite_bounds(self):
        with pytest.raises(ValueError):
            toy_config(elite=100, population=100)

    def test_ceiling_count(self):
        with pytest.raises(ValueError):
            toy_config(srl_ceilings_s=(1e-9,))

    # the offline model is checked by run_eda, through check_offline_model
    def test_positive_noise(self):
        with pytest.raises(ValueError):
            run_eda(toy_layout(), toy_config(offline_noise_std=0.0))

    @pytest.mark.parametrize("noise", [float("inf"), float("nan")])
    def test_finite_noise(self, noise):
        with pytest.raises(ValueError, match="noise std"):
            run_eda(toy_layout(), toy_config(offline_noise_std=noise))

    @pytest.mark.parametrize("key,value", [
        ("gate_step_s", 0.0), ("gate_step_s", -1e-11), ("gate_step_s", float("nan")),
        ("gate_step_s", float("inf")),
        ("beta_margin", 0.0), ("beta_margin", -1.0), ("beta_margin", float("inf")),
        ("beta_reference_draws", 0)])
    def test_gate_settings(self, key, value):
        with pytest.raises(ValueError):
            toy_config(**{key: value})

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_finite_ceilings(self, beta):
        with pytest.raises(ValueError, match="SRL ceilings"):
            toy_config(srl_ceilings_s=(beta, beta))

    def test_unused_settings_are_not_checked(self):
        # explicit ceilings never read the beta reference settings
        toy_config(srl_ceilings_s=(1e-9, 1e-9), beta_margin=0.0, beta_reference_draws=0)
        # a single-band run never reads the timing-offset prior
        cfg = toy_config(prior_std_s=0.0, population=8, elite=4, iterations=1)
        assert run_eda(toy_layout(), cfg).best.n_groups == 2

    def test_multiband_run_needs_positive_prior(self, layout_multi):
        with pytest.raises(ValueError, match="prior std"):
            run_eda(layout_multi, toy_config(prior_std_s=0.0))
