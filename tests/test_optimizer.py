from collections import Counter

import numpy as np
import pytest

import pilotforge as pf
from pilotforge import optimizer, resolution
from pilotforge.ambiguity import SidelobeRegion, isl_matrix
from pilotforge.optimizer import (EdaConfig, InfeasibleSamplingError, _fitness_many,
                                  _repair, _srl_gate, random_srl_reference, run_eda,
                                  sample_individual, update_probabilities)
from pilotforge.resolution import (SrlSearch, pattern_crb_provider, srl_at_most,
                                   srl_of_pattern)

from oracles import repair_serial, run_eda_serial

FS = 120e3

TOY_REGION = SidelobeRegion(150e-9, 400e-9)
TOY_SEARCH = SrlSearch(tau_lo_s=0.1e-9, tau_hi_s=400e-9, step_s=0.1e-9, tol_s=1e-13)


def fitness(patterns, matrix):
    """Worst-group ISL of one pattern set, as the EDA scores its population."""
    return float(_fitness_many(patterns.mask[None], matrix)[0])


def toy_layout():
    return pf.BandLayout.single(32, FS, 0.0)


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
        rng = np.random.default_rng(0)
        got, rejected = sample_individual(mask.astype(float), [8, 8], None, rng)
        np.testing.assert_array_equal(got.mask, mask)
        assert rejected == 0

    def test_repaired_draws_are_always_feasible(self):
        prob = np.full((32, 2), 0.5)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            ind, _ = sample_individual(prob, [8, 8], None, rng)
            assert ind.budgets.tolist() == [8, 8]
            assert ind.mask.sum(axis=1).max() <= 1

    def test_same_seed_same_individual(self):
        prob = np.full((32, 2), 0.5)
        a, _ = sample_individual(prob, [8, 8], None, np.random.default_rng(11))
        b, _ = sample_individual(prob, [8, 8], None, np.random.default_rng(11))
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_gate_rejection_counted_and_capped(self):
        prob = np.full((32, 2), 0.5)
        never = lambda masks: np.zeros(len(masks), dtype=bool)  # noqa: E731
        with pytest.raises(InfeasibleSamplingError) as err:
            sample_individual(prob, [8, 8], never, np.random.default_rng(3), retry_cap=17)
        assert err.value.attempts == 17
        rngs = [np.random.default_rng(s) for s in range(5)]
        with pytest.raises(InfeasibleSamplingError) as err:
            sample_individual(prob, [8, 8], never, rngs, retry_cap=17)
        assert err.value.attempts == 17

    def test_generators_draw_each_slot_as_if_alone(self):
        prob = np.random.default_rng(4).random((32, 2))

        def gate(masks):  # a pure function of the mask, as the SRL gate is
            return masks[:, :4, 0].sum(axis=1) <= 1

        stack, rejected = sample_individual(prob, [8, 8], gate,
                                            [np.random.default_rng(s) for s in range(12)])
        assert stack.shape == (12, 32, 2) and stack.dtype == np.uint8
        alone = 0
        for s in range(12):
            ind, rej = sample_individual(prob, [8, 8], gate, np.random.default_rng(s))
            np.testing.assert_array_equal(stack[s], ind.mask)
            alone += rej
        assert rejected == alone > 0

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            sample_individual(np.full((8, 1), 1.5), [2], None,
                              np.random.default_rng(0))


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
        # every admitted individual in every population is feasible
        assert len(seen) == cfg.iterations + 1
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
            batched.append((beta_s, [c.tobytes() for c in cols]))
            return resolution.resolvable_at(layout, cols, noise_std, gains, beta_s,
                                            *args, **kwargs)

        def build(layout, w, *args, **kwargs):
            built.append(np.asarray(w).tobytes())
            return resolution.pattern_crb_provider(layout, w, *args, **kwargs)

        def decide(provider, beta_s, step_s):
            out = resolution.srl_at_most(provider, beta_s, step_s)
            scanned.append((beta_s, out))
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
        # every miss is decided in a batch at beta, and no pair is decided twice
        seen = [(beta.index(b), col) for b, cols in batched for col in cols]
        assert len(seen) == len(set(seen)), "a (group, column) pair was decided twice"
        gains = np.asarray(cfg.offline_gains, complex)
        answers = {}
        for g, col in seen:
            w = np.frombuffer(col, dtype=np.uint8)
            provider = pattern_crb_provider(lay, w, cfg.offline_noise_std, gains)
            answers[(g, col)] = srl_at_most(provider, beta[g], cfg.gate_step_s)
        # the full scan runs once per pair the batch could not accept, and for the
        # first pair of every batch; every rejection went through it
        assert built and len(built) == len(scanned)
        exact = [(beta.index(b), col) for col, (b, _) in zip(built, scanned)]
        assert len(exact) == len(set(exact)) and set(exact) <= set(answers)
        assert {(beta.index(b), cols[0]) for b, cols in batched} <= set(exact)
        for key, (_, out) in zip(exact, scanned):
            assert answers[key] == out
        assert {key for key, ok in answers.items() if not ok} <= set(exact)
        # replay the gate's group order: group g is asked only after g - 1 passed
        asked, lookups = set(), 0
        for masks, out in gated:
            assert out.shape == (len(masks),)
            for mask, verdict in zip(masks, out):
                verdicts = []
                for g in range(mask.shape[1]):
                    key = (g, mask[:, g].tobytes())
                    asked.add(key)
                    lookups += 1
                    verdicts.append(answers[key])
                    if not answers[key]:
                        break
                assert verdict == all(verdicts)
        assert asked == set(answers)
        assert lookups > len(answers)       # the cache did serve repeats
        assert not all(answers.values())    # and it holds rejections too

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

    @pytest.mark.parametrize("seed", [5, 9])
    def test_matches_serial_loop(self, seed):
        lay = toy_layout()
        cfg = toy_config(seed=seed, iterations=8)
        ref = run_eda_serial(lay, cfg)
        assert ref.rejected_draws > 0
        assert_same_result(run_eda(lay, cfg), ref)

    @pytest.mark.parametrize("ceilings", [None, (1e-6, 1e-6)])
    def test_traced_names_stay_live(self, monkeypatch, ceilings):
        # with None the gate rejects draws; at 1 us every column passes at beta
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
        res = run_eda(toy_layout(), toy_config(seed=5, iterations=3,
                                               srl_ceilings_s=ceilings))
        assert set(calls) == {"sample_individual", "pattern_crb_provider", "srl_at_most",
                              "crb_batch", "resolvable_at"}
        # every batch of misses makes at least one exact call
        assert calls["srl_at_most"] >= calls["resolvable_at"]
        if ceilings is None:
            assert res.rejected_draws > 0 and not all(answers)
        else:
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

    def test_budget_overflow_rejected(self):
        lay = toy_layout()
        with pytest.raises(ValueError):
            run_eda(lay, toy_config(budgets=(20, 20)))


class TestEdaConfigValidation:
    def test_elite_bounds(self):
        with pytest.raises(ValueError):
            toy_config(elite=100, population=100)

    def test_ceiling_count(self):
        with pytest.raises(ValueError):
            toy_config(srl_ceilings_s=(1e-9,))

    def test_positive_noise(self):
        with pytest.raises(ValueError):
            toy_config(offline_noise_std=0.0)

    @pytest.mark.parametrize("key,value", [
        ("gate_step_s", 0.0), ("gate_step_s", -1e-11), ("gate_step_s", float("nan")),
        ("beta_margin", 0.0), ("beta_margin", -1.0), ("beta_reference_draws", 0)])
    def test_gate_settings(self, key, value):
        with pytest.raises(ValueError):
            toy_config(**{key: value})

    def test_unused_settings_are_not_checked(self):
        # explicit ceilings never read the beta reference settings
        toy_config(srl_ceilings_s=(1e-9, 1e-9), beta_margin=0.0, beta_reference_draws=0)
        # a single-band run never reads the timing-offset prior
        cfg = toy_config(prior_std_s=0.0, population=8, elite=4, iterations=1)
        assert run_eda(toy_layout(), cfg).best.n_groups == 2

    def test_multiband_run_needs_positive_prior(self, layout_multi):
        with pytest.raises(ValueError, match="prior std"):
            run_eda(layout_multi, toy_config(prior_std_s=0.0))
