import numpy as np
import pytest

import pilotforge as pf
from pilotforge import optimizer, resolution
from pilotforge.ambiguity import SidelobeRegion, isl_matrix
from pilotforge.optimizer import (EdaConfig, InfeasibleSamplingError, _fitness_many,
                                  random_srl_reference, run_eda,
                                  sample_individual, update_probabilities)
from pilotforge.resolution import SrlSearch, pattern_crb_provider, srl_at_most

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
        rng = np.random.default_rng(3)
        with pytest.raises(InfeasibleSamplingError) as err:
            sample_individual(prob, [8, 8], lambda mask: False, rng, retry_cap=17)
        assert err.value.attempts == 17

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
        built, decided, gated = [], [], []

        def build(layout, w, *args, **kwargs):
            built.append(np.asarray(w).tobytes())
            return resolution.pattern_crb_provider(layout, w, *args, **kwargs)

        def decide(provider, beta_s, step_s):
            out = resolution.srl_at_most(provider, beta_s, step_s)
            decided.append((beta_s, out))
            return out

        real_gate_factory = optimizer._srl_gate

        def gate_factory(layout, cfg_, beta_s):
            gate = real_gate_factory(layout, cfg_, beta_s)

            def spy(mask):
                out = gate(mask)
                gated.append((mask.copy(), out))
                return out
            return spy

        monkeypatch.setattr(optimizer, "pattern_crb_provider", build)
        monkeypatch.setattr(optimizer, "srl_at_most", decide)
        monkeypatch.setattr(optimizer, "_srl_gate", gate_factory)
        res = run_eda(lay, cfg)
        monkeypatch.undo()

        # the names a tracer wraps stay live: every miss goes through both
        assert built and len(built) == len(decided)
        beta = list(res.beta_s)
        assert len(set(beta)) == len(beta)
        answers = {}
        for col, (b, out) in zip(built, decided):
            key = (beta.index(b), col)
            assert key not in answers, "a (group, column) pair was decided twice"
            answers[key] = out
        # replay the gate's group order: group g is asked only after g - 1 passed
        asked, lookups = set(), 0
        for mask, out in gated:
            verdicts = []
            for g in range(mask.shape[1]):
                key = (g, mask[:, g].tobytes())
                asked.add(key)
                lookups += 1
                verdicts.append(answers[key])
                if not answers[key]:
                    break
            assert out == all(verdicts)
        assert asked == set(answers)
        assert lookups > len(answers)       # the cache did serve repeats
        assert not all(answers.values())    # and it holds rejections too
        gains = np.asarray(cfg.offline_gains, complex)
        for (g, col), out in answers.items():
            w = np.frombuffer(col, dtype=np.uint8)
            provider = pattern_crb_provider(lay, w, cfg.offline_noise_std, gains)
            assert srl_at_most(provider, beta[g], cfg.gate_step_s) == out

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
        with pytest.raises(InfeasibleSamplingError):
            run_eda(lay, cfg)

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
