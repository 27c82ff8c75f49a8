import numpy as np
import pytest

import pilotforge as pf
from pilotforge.resolution import (SrlSearch, _fim_multiband_batch, _multiband_support,
                                   crb_batch, crb_delta_tau, crb_of_columns, fim_multiband,
                                   fim_single, pattern_crb_provider, resolvable_at,
                                   srl_at_most, srl_of_pattern, srl_search)

from oracles import (crb_delta_tau_quadform, fd_fim_multiband, fd_fim_single,
                     fim_multiband_loop, fim_scaled_error, fim_two_path_direct)

FS = 120e3
SIGMA = 0.1778
GAINS = np.array([1.0 + 0j, 1.0 + 0j])


def random_column(n, p, seed):
    rng = np.random.default_rng(seed)
    w = np.zeros(n, dtype=np.uint8)
    w[np.sort(rng.permutation(n)[:p])] = 1
    return w


class TestFimSingle:
    def test_gain_block_closed_form(self):
        # r = s: the cosine collapses and the entry is 2 P / sigma^2
        w = np.zeros(256, dtype=np.uint8)
        w[:128] = 1
        J = fim_single(w, FS, SIGMA, GAINS, 10e-9).matrix
        assert J[2, 2] == pytest.approx(2 * 128 / SIGMA**2, rel=1e-12)
        assert J[2, 2] == pytest.approx(8.0986e3, rel=1e-3)
        assert J[4, 4] == J[2, 2]

    def test_matches_finite_difference_hessian(self):
        w = random_column(32, 16, seed=1)
        gains = np.array([0.9 + 0.3j, -0.4 + 1.1j])
        J = fim_single(w, FS, SIGMA, gains, 37e-9).matrix
        J_fd = fd_fim_single(w, FS, SIGMA, gains, 37e-9, tau1_s=50e-9)
        assert fim_scaled_error(J, J_fd) < 1e-3

    def test_matches_direct_derivative_product(self):
        # the moment form sums in another order than the model's derivatives
        for seed in range(3):
            w = random_column(256, 128, seed=seed)
            rng = np.random.default_rng(seed + 200)
            gains = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            dt = rng.uniform(0.1e-9, 40e-9)
            J = fim_single(w, FS, SIGMA, gains, dt).matrix
            ref = fim_two_path_direct(np.flatnonzero(w) * FS, SIGMA, gains, dt)
            assert fim_scaled_error(J, ref) < 1e-12

    def test_symmetric_and_psd(self):
        for seed in range(5):
            w = random_column(64, 20, seed=seed)
            rng = np.random.default_rng(seed + 100)
            gains = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            J = fim_single(w, FS, SIGMA, gains, rng.uniform(1e-9, 40e-9)).matrix
            np.testing.assert_allclose(J, J.T, atol=1e-6 * np.abs(J).max())
            eig = np.linalg.eigvalsh(J)
            assert eig[0] >= -1e-9 * np.trace(J)

    def test_zero_noise_rejected(self):
        w = random_column(32, 16, seed=0)
        with pytest.raises(ValueError):
            fim_single(w, FS, 0.0, GAINS, 1e-9)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            fim_single(np.zeros(32), FS, SIGMA, GAINS, 1e-9)

    def test_two_gains_required(self):
        with pytest.raises(ValueError):
            fim_single(random_column(32, 16, 0), FS, SIGMA, np.ones(3), 1e-9)


class TestFimMultiband:
    def test_matches_finite_difference_hessian(self, layout_multi):
        lay = pf.BandLayout.multiband(
            [pf.Subband(3.5e9, FS, 17), pf.Subband(3.9e9, FS, 17)])
        w = random_column(34, 20, seed=3)
        gains = np.array([0.9 + 0.3j, -0.4 + 1.1j])
        J = fim_multiband(lay, w, SIGMA, gains, 37e-9, 1e-9).matrix
        J_fd = fd_fim_multiband(lay, w, SIGMA, gains, 37e-9, 1e-9,
                                tau1_s=20e-9, phi_true=[0.7],
                                delta_true=[0.3e-9, -0.6e-9])
        assert fim_scaled_error(J, J_fd) < 1e-3

    def test_two_path_block_matches_direct_derivative_product(self, layout_multi):
        for seed in range(3):
            w = random_column(layout_multi.n_total, 127, seed=seed)
            rng = np.random.default_rng(seed + 300)
            gains = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            dt = rng.uniform(0.1e-9, 10e-9)
            J = fim_multiband(layout_multi, w, SIGMA, gains, dt, 1e-9).matrix
            ref = fim_two_path_direct(layout_multi.pinned_frequencies_hz[w != 0],
                                      SIGMA, gains, dt)
            assert fim_scaled_error(J[:6, :6], ref) < 1e-12

    @staticmethod
    def moment_cases(layout_multi):
        """(layout, column, gains) triples: paper scale, and three small bands
        with unequal spacings, the middle band unsounded in one column."""
        small = pf.BandLayout.multiband(
            [pf.Subband(3.5e9, FS, 17), pf.Subband(3.7e9, 2 * FS, 17),
             pf.Subband(3.9e9, FS, 17)])
        cases = []
        for seed in range(3):
            rng = np.random.default_rng(seed + 400)
            gains = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            cases.append((layout_multi, random_column(layout_multi.n_total, 127, seed), gains))
            w = random_column(small.n_total, 20, seed)
            if seed == 0:
                w[17:34] = 0
            cases.append((small, w, gains))
        return cases

    @staticmethod
    def support(lay, w):
        sup = w != 0
        spacings = np.array([sb.spacing_hz for sb in lay.subbands])
        return (lay.pinned_frequencies_hz[sup], lay.band_index[sup],
                lay.local_index[sup], spacings, lay.n_bands)

    @pytest.mark.parametrize("batch", [1, 7, 5000])
    def test_moment_form_matches_per_band_loop(self, batch, layout_multi):
        rng = np.random.default_rng(batch)
        for lay, w, gains in self.moment_cases(layout_multi):
            f, band, nloc, spacings, m = self.support(lay, w)
            dts = rng.uniform(0.01e-9, 50e-9, batch)
            table = _multiband_support(lay, np.flatnonzero(w))[1]
            J, J_obs = _fim_multiband_batch(f, table, m, SIGMA, gains, dts, 1e-9)
            ref, ref_obs = fim_multiband_loop(f, band, nloc, spacings, m, SIGMA, gains,
                                              dts, 1e-9)
            assert J.shape == ref.shape == (batch, 6 + 2 * m - 1, 6 + 2 * m - 1)
            for k in range(batch):
                assert fim_scaled_error(J[k], ref[k]) <= 1e-12
                assert fim_scaled_error(J_obs[k], ref_obs[k]) <= 1e-12
            # idle nuisances stay structural zeros, so crb_batch still drops them
            np.testing.assert_array_equal(np.all(J_obs == 0.0, axis=1),
                                          np.all(ref_obs == 0.0, axis=1))

    def test_gate_decisions_match_per_band_loop(self, layout_multi):
        decisions = []
        for lay, w, gains in self.moment_cases(layout_multi):
            f, band, nloc, spacings, m = self.support(lay, w)

            def loop_provider(dts):
                J, _ = fim_multiband_loop(f, band, nloc, spacings, m, SIGMA, gains,
                                          np.atleast_1d(dts), 1e-9)
                return crb_batch(J)

            provider = pattern_crb_provider(lay, w, SIGMA, gains, 1e-9)
            srl = srl_search(loop_provider, SrlSearch(0.05e-9, 50e-9, 0.05e-9)).srl_s
            assert srl is not None
            for beta in [srl * x for x in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0)]:
                got = srl_at_most(provider, beta, 0.05e-9)
                assert got == srl_at_most(loop_provider, beta, 0.05e-9), (beta, srl)
                decisions.append(got)
        assert any(decisions) and not all(decisions)

    def test_phase_block_diagonal(self):
        lay = pf.BandLayout.multiband(
            [pf.Subband(3.5e9, FS, 17), pf.Subband(3.7e9, FS, 17),
             pf.Subband(3.9e9, FS, 17)])
        w = random_column(51, 30, seed=4)
        J = fim_multiband(lay, w, SIGMA, GAINS, 5e-9, 1e-9).matrix
        # phi_2, phi_3 rows at 6, 7; delta rows at 8, 9, 10
        assert J[6, 7] == 0.0
        for i, di in enumerate(range(8, 11)):
            for j, dj in enumerate(range(8, 11)):
                if i != j:
                    assert J[di, dj] == 0.0
        assert J[6, 9] != 0.0  # phi_2 couples to its own band's delta only
        assert J[6, 10] == 0.0

    def test_prior_only_on_delta_diagonal(self):
        lay = pf.BandLayout.multiband(
            [pf.Subband(3.5e9, FS, 17), pf.Subband(3.9e9, FS, 17)])
        w = random_column(34, 18, seed=5)
        f = fim_multiband(lay, w, SIGMA, GAINS, 5e-9, 2e-9)
        prior = f.prior
        expected = np.zeros_like(prior)
        expected[7, 7] = expected[8, 8] = 1.0 / (2e-9) ** 2
        np.testing.assert_allclose(prior, expected, rtol=1e-12)

    def test_wide_prior_limit_reaches_observation_fim(self):
        lay = pf.BandLayout.multiband(
            [pf.Subband(3.5e9, FS, 17), pf.Subband(3.9e9, FS, 17)])
        w = random_column(34, 18, seed=6)
        f = fim_multiband(lay, w, SIGMA, GAINS, 5e-9, 1e3)
        np.testing.assert_allclose(f.matrix, f.observation,
                                   atol=1e-12 * np.abs(f.observation).max())

    def test_unsounded_band_has_zero_phase_row(self):
        lay = pf.BandLayout.multiband(
            [pf.Subband(3.5e9, FS, 17), pf.Subband(3.9e9, FS, 17)])
        w = np.zeros(34, dtype=np.uint8)
        w[2:12] = 1  # band 1 only
        J = fim_multiband(lay, w, SIGMA, GAINS, 5e-9, 1e-9).matrix
        assert np.all(J[6] == 0.0) and np.all(J[:, 6] == 0.0)
        assert J[8, 8] == pytest.approx(1e18)  # bare prior on the idle delta

    def test_prior_must_be_positive(self):
        lay = pf.BandLayout.multiband(
            [pf.Subband(3.5e9, FS, 17), pf.Subband(3.9e9, FS, 17)])
        with pytest.raises(ValueError):
            fim_multiband(lay, random_column(34, 18, 0), SIGMA, GAINS, 5e-9, 0.0)

    def test_single_band_layout_rejected(self, layout_single):
        with pytest.raises(ValueError):
            fim_multiband(layout_single, random_column(256, 128, 0), SIGMA,
                          GAINS, 5e-9, 1e-9)


class TestCrb:
    def test_block_diagonal_toy(self):
        J = np.diag([4.0, 4.0, 1.0, 1.0, 1.0, 1.0])
        # inverse diagonal entries are 0.25 each, cross terms zero
        assert crb_delta_tau(J) == pytest.approx(0.5)

    def test_quadform_identity(self):
        w = random_column(64, 24, seed=8)
        J = fim_single(w, FS, SIGMA, GAINS, 8e-9)
        a = crb_delta_tau(J)
        b = crb_delta_tau_quadform(J.matrix)
        assert a == pytest.approx(b, rel=1e-9)

    def test_noise_scaling_is_quadratic(self):
        w = random_column(256, 128, seed=9)
        c1 = crb_delta_tau(fim_single(w, FS, SIGMA, GAINS, 8e-9))
        c2 = crb_delta_tau(fim_single(w, FS, 3 * SIGMA, GAINS, 8e-9))
        assert c2 == pytest.approx(9 * c1, rel=1e-9)

    def test_noise_scaling_multiband_wide_prior(self):
        lay = pf.BandLayout.multiband(
            [pf.Subband(3.5e9, FS, 17), pf.Subband(3.9e9, FS, 17)])
        w = random_column(34, 18, seed=10)
        c1 = crb_delta_tau(fim_multiband(lay, w, SIGMA, GAINS, 3e-9, 1e3))
        c2 = crb_delta_tau(fim_multiband(lay, w, 2 * SIGMA, GAINS, 3e-9, 1e3))
        assert c2 == pytest.approx(4 * c1, rel=1e-6)

    def test_crb_decreases_with_noise_loglog_slope(self):
        w = np.zeros(256, dtype=np.uint8)
        w[:128] = 1
        sig = np.array([0.05, 0.1, 0.2, 0.4])
        crb = [crb_delta_tau(fim_single(w, FS, s, GAINS, 8e-9)) for s in sig]
        slope = np.polyfit(np.log(sig), np.log(crb), 1)[0]
        assert slope == pytest.approx(2.0, abs=1e-9)

    def test_near_singular_reports_unresolvable(self):
        w = random_column(64, 24, seed=11)
        # vanishing separation makes the two delay columns collinear
        J = fim_single(w, FS, SIGMA, GAINS, 1e-18)
        assert crb_delta_tau(J) == np.inf

    def test_batch_matches_scalar(self):
        w = random_column(64, 24, seed=12)
        provider = pattern_crb_provider(
            pf.BandLayout.single(64, FS, 0.0), w, SIGMA, GAINS)
        dts = np.array([2e-9, 5e-9, 20e-9])
        batch = provider(dts)
        for i, dt in enumerate(dts):
            ref = crb_delta_tau(fim_single(w, FS, SIGMA, GAINS, dt))
            assert batch[i] == pytest.approx(ref, rel=1e-12)


def random_columns(n, p, count, seed):
    return np.stack([random_column(n, p, seed * 1000 + k) for k in range(count)])


class TestCrbOfColumns:
    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_each_entry_is_the_column_alone(self, mode, layout_single, layout_multi):
        lay, prior = (layout_single, None) if mode == "single" else (layout_multi, 1e-9)
        rng = np.random.default_rng(4)
        for trial, p in enumerate((8, 64, 128)):
            cols = random_columns(lay.n_total, p, 12, seed=trial)
            gains = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            dt = rng.uniform(0.5e-9, 5e-9)
            got = crb_of_columns(lay, cols, SIGMA, gains, dt, prior)
            ref = [pattern_crb_provider(lay, c, SIGMA, gains, prior)(np.array([dt]))[0]
                   for c in cols]
            np.testing.assert_array_equal(got, ref)

    def test_column_missing_a_band_that_others_touch_is_unresolvable(self, layout_multi):
        cols = random_columns(layout_multi.n_total, 60, 4, seed=9)
        cols[1] = 0
        cols[1, np.arange(0, 120, 2)] = 1      # 60 pilots, all in the first subband
        got = crb_of_columns(layout_multi, cols, SIGMA, GAINS, 2e-9, 1e-9)
        alone = pattern_crb_provider(layout_multi, cols[1], SIGMA, GAINS, 1e-9)
        assert got[1] == np.inf and np.isfinite(alone(np.array([2e-9]))[0])
        for q in (0, 2, 3):
            provider = pattern_crb_provider(layout_multi, cols[q], SIGMA, GAINS, 1e-9)
            assert got[q] == provider(np.array([2e-9]))[0]
        # alone in its stack, the idle subband's nuisances are dropped as before
        np.testing.assert_array_equal(
            crb_of_columns(layout_multi, cols[[1, 1]], SIGMA, GAINS, 2e-9, 1e-9),
            np.repeat(alone(np.array([2e-9])), 2))

    def test_unequal_or_empty_columns_rejected(self, layout_single):
        cols = random_columns(256, 10, 2, seed=1)
        cols[1, np.flatnonzero(cols[1] == 0)[0]] = 1
        with pytest.raises(ValueError):
            crb_of_columns(layout_single, cols, SIGMA, GAINS, 1e-9)
        with pytest.raises(ValueError):
            crb_of_columns(layout_single, np.zeros((2, 256)), SIGMA, GAINS, 1e-9)


class TestResolvableAt:
    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_is_the_first_test_of_srl_at_most(self, mode, layout_single, layout_multi):
        lay, prior = (layout_single, None) if mode == "single" else (layout_multi, 1e-9)
        cols = random_columns(lay.n_total, 40, 10, seed=5)
        if mode == "multi":   # unresolvable in this stack, not alone
            cols[0] = 0
            cols[0, np.arange(0, 80, 2)] = 1
        verdicts = []
        for beta in np.geomspace(0.5e-9, 20e-9, 7):
            got = resolvable_at(lay, cols, SIGMA, GAINS, beta, prior)
            crb = crb_of_columns(lay, cols, SIGMA, GAINS, beta, prior)
            np.testing.assert_array_equal(got, np.isfinite(crb) & (beta >= np.sqrt(crb)))
            for c, ok in zip(cols, got):
                if ok:   # a certified column is accepted by the exact decision
                    provider = pattern_crb_provider(lay, c, SIGMA, GAINS, prior)
                    assert srl_at_most(provider, beta, 0.05e-9)
            verdicts += got.tolist()
        assert any(verdicts) and not all(verdicts)


class TestSrlSearch:
    def test_constant_crb_root(self):
        target = 7e-9

        def provider(dts):
            return np.full(np.shape(dts), target**2)

        res = srl_search(provider, SrlSearch(1e-9, 20e-9, 0.01e-9, 1e-13))
        assert res.found
        assert res.srl_s == pytest.approx(target, abs=1e-13 + 1e-16)
        assert np.sqrt(res.crb_at_srl_s2) == pytest.approx(res.srl_s, rel=1e-9)

    def test_no_root_reported_not_fabricated(self):
        def provider(dts):
            return np.full(np.shape(dts), (1e-6) ** 2)  # far above the window

        res = srl_search(provider, SrlSearch(1e-9, 20e-9, 0.1e-9, 1e-13))
        assert not res.found and res.srl_s is None and not res.below_range

    def test_below_range_flagged(self):
        def provider(dts):
            return np.full(np.shape(dts), (1e-12) ** 2)

        res = srl_search(provider, SrlSearch(1e-9, 20e-9, 0.1e-9, 1e-13))
        assert not res.found and res.below_range

    def test_uniform_block_regression(self, layout_single):
        w = np.zeros(256, dtype=np.uint8)
        w[:128] = 1
        res = srl_of_pattern(layout_single, w, SIGMA, GAINS)
        assert res.found
        assert res.srl_s * 1e9 == pytest.approx(5.772, rel=0.02)

    def test_smallest_root_wins(self, layout_single):
        # random patterns often produce several crossings; the reported SRL
        # must be the minimum of the returned root set
        w = random_column(256, 128, seed=13)
        res = srl_of_pattern(layout_single, w, SIGMA, GAINS)
        assert res.found
        assert res.srl_s == min(res.roots_s)

    def test_srl_monotone_in_noise(self, layout_single):
        w = random_column(256, 128, seed=14)
        vals = []
        for s in (0.05, 0.1778, 0.6):
            res = srl_of_pattern(layout_single, w, s, GAINS)
            assert res.found
            vals.append(res.srl_s)
        assert vals[0] <= vals[1] <= vals[2]

    def test_srl_at_most_agrees_with_full_search(self, layout_single):
        w = random_column(256, 128, seed=15)
        provider = pattern_crb_provider(layout_single, w, SIGMA, GAINS)
        res = srl_of_pattern(layout_single, w, SIGMA, GAINS)
        assert res.found
        assert srl_at_most(provider, res.srl_s * 1.1, 0.05e-9)
        assert not srl_at_most(provider, res.srl_s * 0.9, 0.05e-9)

    @staticmethod
    def full_scan(provider, beta, step):
        # every point of the gate grid, steps below beta and then beta itself,
        # then the root tests on the whole scan
        grid = [x for x in np.arange(min(step, beta), beta, step) if x < beta] + [beta]
        grid = np.array(grid)
        assert grid[-1] == beta and np.all(np.diff(grid) > 0)
        crb = provider(grid)
        g = np.where(np.isfinite(crb), grid - np.sqrt(np.maximum(crb, 0.0)),
                     -np.inf)
        return bool(g[0] >= 0 or np.any((g[:-1] < 0) & (g[1:] >= 0)))

    @pytest.mark.parametrize("mode", ["toy", "single", "multi"])
    def test_srl_at_most_matches_full_grid_scan(self, mode, layout_single,
                                                layout_multi):
        if mode == "toy":
            lay, budget, prior, step = pf.BandLayout.single(32, FS, 0.0), 8, None, 0.5e-9
            search = SrlSearch(0.1e-9, 400e-9, 0.1e-9, 1e-13)
        elif mode == "single":
            lay, budget, prior, step = layout_single, 128, None, 0.05e-9
            search = SrlSearch()
        else:
            lay, budget, prior, step = layout_multi, 127, 1e-9, 0.05e-9
            search = SrlSearch()
        decisions = []
        for seed in range(3):
            w = pf.random_patterns(lay, 2, [budget, budget], seed=seed).column(0)
            provider = pattern_crb_provider(lay, w, SIGMA, GAINS, prior)
            srl = srl_of_pattern(lay, w, SIGMA, GAINS, prior, search).srl_s
            # beta on either side of the SRL, on and off multiples of the step
            betas = [srl * f for f in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0)]
            betas += [srl + d * step for d in (-0.7, -0.4, -0.1, 0.1, 0.4, 0.7)]
            for beta in betas:
                got = srl_at_most(provider, beta, step)
                assert got == self.full_scan(provider, beta, step), (seed, beta)
                decisions.append(got)
        assert any(decisions) and not all(decisions)

    @pytest.mark.parametrize("root", [2.99887e-9, 3.0e-9, 3.02e-9, 0.03e-9, 7.77e-9])
    def test_srl_at_most_decides_at_beta_exactly(self, root):
        # sqrt(CRB) = root everywhere: g = dtau - root, so SRL = root. Betas
        # within a step of the root, off the step's multiples, used to be
        # decided at the nearest multiple instead
        def provider(dts):
            return np.full(np.shape(dts), root**2)

        step = 0.05e-9
        for beta in (root * (1 - 1e-6), root * (1 - 1e-12), root, root * (1 + 1e-12),
                     root * (1 + 1e-6), root - 0.3 * step, root + 0.3 * step):
            if beta > 0:
                assert srl_at_most(provider, beta, step) == (root <= beta), beta

    def test_srl_at_most_scans_only_when_last_point_fails(self):
        # sqrt(CRB) = dtau / 2 (g >= 0) on [2, 4) ns and on [6, 8] ns and
        # 2 dtau (g < 0) elsewhere: SRL = 2 ns, and g < 0 again at 5 ns
        def root_crb(dts):
            inside = ((dts >= 2e-9) & (dts < 4e-9)) | ((dts >= 6e-9) & (dts <= 8e-9))
            return np.where(inside, 0.5 * dts, 2.0 * dts)

        calls = []

        def provider(dts):
            calls.append(len(dts))
            return root_crb(np.asarray(dts)) ** 2

        step = 0.1e-9
        cases = [(7e-9, True, [1]),               # g(beta) >= 0: one point
                 (5e-9, True, [1, 50]),           # root below, g(beta) < 0
                 (1.5e-9, False, [1, 15])]        # below the SRL
        for beta, expected, sizes in cases:
            calls.clear()
            assert srl_at_most(provider, beta, step) is expected
            assert calls == sizes
            assert expected == self.full_scan(provider, beta, step)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SrlSearch(tau_lo_s=0.0)
        with pytest.raises(ValueError):
            SrlSearch(tau_lo_s=5e-9, tau_hi_s=1e-9)
