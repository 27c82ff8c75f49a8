import numpy as np
import pytest

import pilotforge as pf
from pilotforge import resolution
from pilotforge.ambiguity import SidelobeRegion
from pilotforge.optimizer import EdaConfig, run_eda
from pilotforge.resolution import (_SCAN_CHUNK, SrlSearch, _g, check_offline_model,
                                   crb_batch, fim, pattern_crb_provider, resolvable_at,
                                   srl_at_most, srl_of_pattern, srl_search)

from oracles import (crb_delta_tau_quadform, crb_eig_inv, fd_fim_multiband, fd_fim_single,
                     fim_multiband_loop, fim_scaled_error, fim_two_path_direct,
                     multiband_weights_per_call)

FS = 120e3
SIGMA = 0.1778
GAINS = np.array([1.0 + 0j, 1.0 + 0j])
TWO_BANDS = pf.BandLayout.multiband([pf.Subband(3.5e9, FS, 17), pf.Subband(3.9e9, FS, 17)])
THREE_BANDS = pf.BandLayout.multiband(
    [pf.Subband(3.5e9, FS, 17), pf.Subband(3.7e9, 2 * FS, 17), pf.Subband(3.9e9, FS, 17)])


def random_column(n, p, seed):
    rng = np.random.default_rng(seed)
    w = np.zeros(n, dtype=np.uint8)
    w[np.sort(rng.permutation(n)[:p])] = 1
    return w


def fim_sb(w, noise_std, gains, delta_tau_s):
    """Single-band FIM of one column at one separation, on a grid of len(w)
    subcarriers n * FS."""
    return fim(pf.BandLayout.single(len(w), FS), w, noise_std, gains, delta_tau_s)[0]


def crb(J):
    return crb_batch(J[None])[0]


class TestFimSingle:
    def test_gain_block_closed_form(self):
        # r = s: the cosine collapses and the entry is 2 P / sigma^2
        w = np.zeros(256, dtype=np.uint8)
        w[:128] = 1
        J = fim_sb(w, SIGMA, GAINS, 10e-9)
        assert J[2, 2] == pytest.approx(2 * 128 / SIGMA**2, rel=1e-12)
        assert J[2, 2] == pytest.approx(8.0986e3, rel=1e-3)
        assert J[4, 4] == J[2, 2]

    def test_matches_finite_difference_hessian(self):
        w = random_column(32, 16, seed=1)
        gains = np.array([0.9 + 0.3j, -0.4 + 1.1j])
        J = fim_sb(w, SIGMA, gains, 37e-9)
        J_fd = fd_fim_single(w, FS, SIGMA, gains, 37e-9, tau1_s=50e-9)
        assert fim_scaled_error(J, J_fd) < 1e-3

    def test_matches_direct_derivative_product(self):
        # the moment form sums in another order than the model's derivatives
        for seed in range(3):
            w = random_column(256, 128, seed=seed)
            rng = np.random.default_rng(seed + 200)
            gains = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            dt = rng.uniform(0.1e-9, 40e-9)
            J = fim_sb(w, SIGMA, gains, dt)
            ref = fim_two_path_direct(np.flatnonzero(w) * FS, SIGMA, gains, dt)
            assert fim_scaled_error(J, ref) < 1e-12

    def test_symmetric_and_psd(self):
        for seed in range(5):
            w = random_column(64, 20, seed=seed)
            rng = np.random.default_rng(seed + 100)
            gains = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            J = fim_sb(w, SIGMA, gains, rng.uniform(1e-9, 40e-9))
            np.testing.assert_allclose(J, J.T, atol=1e-6 * np.abs(J).max())
            eig = np.linalg.eigvalsh(J)
            assert eig[0] >= -1e-9 * np.trace(J)

    def test_zero_noise_rejected(self):
        w = random_column(32, 16, seed=0)
        for noise in (0.0, -SIGMA):
            with pytest.raises(ValueError):
                fim_sb(w, noise, GAINS, 1e-9)
            with pytest.raises(ValueError):
                fim(TWO_BANDS, random_column(34, 18, 0), noise, GAINS, 1e-9, 1e-9)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            fim_sb(np.zeros(32), SIGMA, GAINS, 1e-9)

    def test_two_gains_required(self):
        w = random_column(32, 16, 0)
        for gains in (np.ones(3), np.ones((2, 1)), 1.0):
            with pytest.raises(ValueError):
                fim_sb(w, SIGMA, gains, 1e-9)


class TestFimMultiband:
    def test_matches_finite_difference_hessian(self, layout_multi):
        w = random_column(34, 20, seed=3)
        gains = np.array([0.9 + 0.3j, -0.4 + 1.1j])
        J = fim(TWO_BANDS, w, SIGMA, gains, 37e-9, 1e-9)[0]
        J_fd = fd_fim_multiband(TWO_BANDS, w, SIGMA, gains, 37e-9, 1e-9,
                                tau1_s=20e-9, phi_true=[0.7],
                                delta_true=[0.3e-9, -0.6e-9])
        assert fim_scaled_error(J, J_fd) < 1e-3

    def test_two_path_block_matches_direct_derivative_product(self, layout_multi):
        for seed in range(3):
            w = random_column(layout_multi.n_total, 127, seed=seed)
            rng = np.random.default_rng(seed + 300)
            gains = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            dt = rng.uniform(0.1e-9, 10e-9)
            J = fim(layout_multi, w, SIGMA, gains, dt, 1e-9)[0]
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
            J = fim(lay, w, SIGMA, gains, dts, 1e-9)
            ref, ref_obs = fim_multiband_loop(f, band, nloc, spacings, m, SIGMA, gains,
                                              dts, 1e-9)
            assert J.shape == ref.shape == (batch, 6 + 2 * m - 1, 6 + 2 * m - 1)
            # the observation part: J less the prior on the delta diagonal; an
            # untouched band's entry is 0 + p - p, so its zero stays exact
            idel = 6 + (m - 1) + np.arange(m)
            J_obs = J.copy()
            J_obs[:, idel, idel] -= 1.0 / (1e-9) ** 2
            for k in range(batch):
                assert fim_scaled_error(J[k], ref[k]) <= 1e-12
                assert fim_scaled_error(J_obs[k], ref_obs[k]) <= 1e-12
            # idle nuisances stay structural zeros, so crb_batch still decouples them
            np.testing.assert_array_equal(np.all(J_obs == 0.0, axis=1),
                                          np.all(ref_obs == 0.0, axis=1))

    def test_gathered_weights_match_per_call_construction(self, layout_multi):
        for lay, _, _ in self.moment_cases(layout_multi):
            sup = np.stack([np.flatnonzero(random_column(lay.n_total, 20, seed))
                            for seed in range(6)]).reshape(2, 3, 20)
            table = resolution._moment_table(lay)[1][sup]
            ref = multiband_weights_per_call(lay, sup)
            assert table.shape == (2, 3, 20, 3 + 5 * lay.n_bands)
            assert table.tobytes() == ref.tobytes()  # bit for bit, signed zeros too

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
        J = fim(lay, w, SIGMA, GAINS, 5e-9, 1e-9)[0]
        # phi_2, phi_3 rows at 6, 7; delta rows at 8, 9, 10
        assert J[6, 7] == 0.0
        for i, di in enumerate(range(8, 11)):
            for j, dj in enumerate(range(8, 11)):
                if i != j:
                    assert J[di, dj] == 0.0
        assert J[6, 9] != 0.0  # phi_2 couples to its own band's delta only
        assert J[6, 10] == 0.0

    def test_prior_only_on_delta_diagonal(self):
        w = random_column(34, 18, seed=5)
        J, J_wide = (fim(TWO_BANDS, w, SIGMA, GAINS, 5e-9, p)[0] for p in (2e-9, 1e3))
        expected = np.zeros_like(J)
        expected[7, 7] = expected[8, 8] = 1.0 / (2e-9) ** 2 - 1.0 / 1e3**2
        np.testing.assert_allclose(J - J_wide, expected, rtol=1e-12)

    def test_wide_prior_limit_reaches_observation_fim(self):
        w = random_column(34, 18, seed=6)
        J = fim(TWO_BANDS, w, SIGMA, GAINS, 5e-9, 1e3)
        f, band, nloc, spacings, m = self.support(TWO_BANDS, w)
        _, ref_obs = fim_multiband_loop(f, band, nloc, spacings, m, SIGMA, GAINS,
                                        np.array([5e-9]), 1e3)
        np.testing.assert_allclose(J, ref_obs, atol=1e-12 * np.abs(ref_obs).max())

    def test_unsounded_band_has_zero_phase_row(self):
        w = np.zeros(34, dtype=np.uint8)
        w[2:12] = 1  # band 1 only
        J = fim(TWO_BANDS, w, SIGMA, GAINS, 5e-9, 1e-9)[0]
        assert np.all(J[6] == 0.0) and np.all(J[:, 6] == 0.0)
        assert J[8, 8] == pytest.approx(1e18)  # bare prior on the idle delta

    def test_prior_must_be_positive(self):
        for prior in (0.0, -1e-9, None):
            with pytest.raises(ValueError):
                fim(TWO_BANDS, random_column(34, 18, 0), SIGMA, GAINS, 5e-9, prior)

    def test_single_band_layout_rejected(self, layout_single, layout_multi):
        # the layout picks the model, so a column of the other grid has the
        # wrong length for it
        with pytest.raises(ValueError):
            fim(layout_single, random_column(254, 127, 0), SIGMA, GAINS, 5e-9, 1e-9)
        with pytest.raises(ValueError):
            fim(layout_multi, random_column(256, 128, 0), SIGMA, GAINS, 5e-9, 1e-9)


OFFLINE_MODEL_CALLS = ["fim", "pattern_crb_provider", "resolvable_at", "srl_of_pattern",
                       "check_offline_model"]


def offline_model_calls(lay, w, noise=SIGMA, gains=GAINS):
    """Each public entry point of the offline SRL model, and the check they
    share, as prior -> result."""
    dts = np.array([2e-9, 5e-9])
    cols = np.stack([w, np.roll(w, 1)])
    return {
        "fim": lambda prior: fim(lay, w, noise, gains, dts, prior),
        "pattern_crb_provider": lambda prior: pattern_crb_provider(
            lay, w, noise, gains, prior)(dts),
        "resolvable_at": lambda prior: resolvable_at(lay, cols, noise, gains, 3e-9, prior),
        "srl_of_pattern": lambda prior: srl_of_pattern(lay, w, noise, gains, prior),
        "check_offline_model": lambda prior: check_offline_model(lay, noise, gains, prior),
    }


class TestPriorDecision:
    """The layout decides whether the timing-offset prior is read, so callers
    pass the configured prior whatever the band."""

    @pytest.mark.parametrize("name", OFFLINE_MODEL_CALLS)
    def test_single_band_ignores_the_prior(self, layout_single, name):
        call = offline_model_calls(layout_single, random_column(256, 128, seed=8))[name]
        ref = call(None)
        for prior in (0.0, np.nan, 1e-9):
            got = call(prior)
            if name == "srl_of_pattern":
                assert got == ref and got.found
            elif name != "check_offline_model":  # the check only has to pass
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", OFFLINE_MODEL_CALLS)
    def test_multiband_needs_a_positive_prior(self, name):
        call = offline_model_calls(TWO_BANDS, random_column(34, 18, seed=0))[name]
        for prior in (0.0, None, np.inf, np.nan):
            with pytest.raises(ValueError, match="prior std"):
                call(prior)
        call(1e-9)

    @pytest.mark.parametrize("name", OFFLINE_MODEL_CALLS)
    @pytest.mark.parametrize("noise,gains,message", [
        (np.inf, GAINS, "noise std"), (np.nan, GAINS, "noise std"),
        (SIGMA, (np.nan, 1.0), "finite gains"), (SIGMA, (1.0, np.inf), "finite gains")])
    def test_non_finite_noise_or_gains_rejected(self, layout_single, name, noise, gains,
                                                message):
        for lay, prior in ((layout_single, None), (TWO_BANDS, 1e-9)):
            call = offline_model_calls(lay, random_column(lay.n_total, 18, seed=0),
                                       noise, gains)[name]
            with pytest.raises(ValueError, match=message):
                call(prior)


class TestCrb:
    def test_block_diagonal_toy(self):
        J = np.diag([4.0, 4.0, 1.0, 1.0, 1.0, 1.0])
        # inverse diagonal entries are 0.25 each, cross terms zero
        assert crb(J) == pytest.approx(0.5)

    def test_quadform_identity(self):
        w = random_column(64, 24, seed=8)
        J = fim_sb(w, SIGMA, GAINS, 8e-9)
        assert crb(J) == pytest.approx(crb_delta_tau_quadform(J), rel=1e-9)

    def test_noise_scaling_is_quadratic(self):
        w = random_column(256, 128, seed=9)
        c1 = crb(fim_sb(w, SIGMA, GAINS, 8e-9))
        c2 = crb(fim_sb(w, 3 * SIGMA, GAINS, 8e-9))
        assert c2 == pytest.approx(9 * c1, rel=1e-9)

    def test_noise_scaling_multiband_wide_prior(self):
        w = random_column(34, 18, seed=10)
        c1 = crb(fim(TWO_BANDS, w, SIGMA, GAINS, 3e-9, 1e3)[0])
        c2 = crb(fim(TWO_BANDS, w, 2 * SIGMA, GAINS, 3e-9, 1e3)[0])
        assert c2 == pytest.approx(4 * c1, rel=1e-6)

    def test_crb_decreases_with_noise_loglog_slope(self):
        w = np.zeros(256, dtype=np.uint8)
        w[:128] = 1
        sig = np.array([0.05, 0.1, 0.2, 0.4])
        crbs = [crb(fim_sb(w, s, GAINS, 8e-9)) for s in sig]
        slope = np.polyfit(np.log(sig), np.log(crbs), 1)[0]
        assert slope == pytest.approx(2.0, abs=1e-9)

    def test_near_singular_reports_unresolvable(self):
        w = random_column(64, 24, seed=11)
        # vanishing separation makes the two delay columns collinear
        assert crb(fim_sb(w, SIGMA, GAINS, 1e-18)) == np.inf

    def test_batch_matches_scalar(self):
        w = random_column(64, 24, seed=12)
        provider = pattern_crb_provider(
            pf.BandLayout.single(64, FS, 0.0), w, SIGMA, GAINS)
        dts = np.array([2e-9, 5e-9, 20e-9])
        batch = provider(dts)
        for i, dt in enumerate(dts):
            assert batch[i] == pytest.approx(crb(fim_sb(w, SIGMA, GAINS, dt)), rel=1e-12)


def random_columns(n, p, count, seed):
    return np.stack([random_column(n, p, seed * 1000 + k) for k in range(count)])


class TestFimStack:
    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_stack_is_each_column_at_each_separation(self, mode, layout_single,
                                                     layout_multi):
        lay, prior, dim = ((layout_single, None, 6) if mode == "single"
                           else (layout_multi, 1e-9, 9))
        rng = np.random.default_rng(17)
        cols = random_columns(lay.n_total, 40, 5, seed=7)
        gains = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        dts = np.array([0.7e-9, 2e-9, 9e-9, 33e-9])
        J = fim(lay, cols, SIGMA, gains, dts, prior)
        assert J.shape == (5, 4, dim, dim)
        for q, col in enumerate(cols):
            # bit for bit against the column alone at the same separations
            np.testing.assert_array_equal(J[q], fim(lay, col, SIGMA, gains, dts, prior))
            for b, dt in enumerate(dts):
                # one separation at a time takes another BLAS product shape,
                # which may round the last bits differently
                alone = fim(lay, col, SIGMA, gains, dt, prior)
                assert alone.shape == (1, dim, dim)
                assert fim_scaled_error(J[q, b], alone[0]) <= 1e-12


class TestStackProvider:
    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_each_row_is_the_column_alone(self, mode, layout_single, layout_multi):
        lay, prior = (layout_single, None) if mode == "single" else (layout_multi, 1e-9)
        rng = np.random.default_rng(4)
        for trial, p in enumerate((8, 64, 128)):
            cols = random_columns(lay.n_total, p, 12, seed=trial)
            gains = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            dts = rng.uniform(0.5e-9, 5e-9, 3)
            got = pattern_crb_provider(lay, cols, SIGMA, gains, prior)(dts)
            ref = [pattern_crb_provider(lay, c, SIGMA, gains, prior)(dts) for c in cols]
            assert got.shape == (12, 3)
            np.testing.assert_array_equal(got, ref)

    def test_column_missing_a_band_equals_the_column_alone(self, layout_multi):
        cols = random_columns(layout_multi.n_total, 60, 4, seed=9)
        cols[1] = 0
        cols[1, np.arange(0, 120, 2)] = 1      # 60 pilots, all in the first subband
        dts = np.array([2e-9, 5e-9])
        got = pattern_crb_provider(layout_multi, cols, SIGMA, GAINS, 1e-9)(dts)
        for q in range(4):
            alone = pattern_crb_provider(layout_multi, cols[q], SIGMA, GAINS, 1e-9)(dts)
            assert np.all(np.isfinite(alone))
            np.testing.assert_array_equal(got[q], alone)   # bit for bit
        # phi_2 of the idle subband has an all-zero row (delta_2 keeps its prior);
        # with that row and column dropped by hand, the CRB agrees
        J = fim(layout_multi, cols[1], SIGMA, GAINS, dts, 1e-9)
        assert np.all(J == 0.0, axis=(0, 1)).tolist() == [False] * 6 + [True, False, False]
        for b in range(len(dts)):
            assert got[1, b] == pytest.approx(crb_delta_tau_quadform(J[b]), rel=1e-12)

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_rows_at_per_column_separations_are_each_column_alone(self, mode, layout_single,
                                                                  layout_multi):
        lay, prior = (layout_single, None) if mode == "single" else (layout_multi, 1e-9)
        cols = random_columns(lay.n_total, 40, 6, seed=8)
        rng = np.random.default_rng(8)
        for per_column in (np.geomspace(0.3e-9, 30e-9, 6)[:, None],
                           rng.uniform(0.5e-9, 5e-9, (6, 3))):
            got = pattern_crb_provider(lay, cols, SIGMA, GAINS, prior)(per_column)
            J = fim(lay, cols, SIGMA, GAINS, per_column, prior)
            assert got.shape == per_column.shape
            for q in range(6):   # bit for bit against the column alone at its separations
                np.testing.assert_array_equal(
                    got[q], pattern_crb_provider(lay, cols[q], SIGMA, GAINS, prior)(per_column[q]))
                np.testing.assert_array_equal(
                    J[q], fim(lay, cols[q], SIGMA, GAINS, per_column[q], prior))

    def test_crb_batch_decides_each_fim_on_its_own(self, layout_multi):
        cols = random_columns(layout_multi.n_total, 60, 3, seed=9)
        cols[1] = 0
        cols[1, np.arange(0, 120, 2)] = 1
        J = fim(layout_multi, cols, SIGMA, GAINS, [1e-9, 3e-9], 1e-9)
        got = crb_batch(J)
        assert got.shape == (3, 2)
        for q in range(3):
            for b in range(2):
                assert got[q, b] == crb_batch(J[q, b][None])[0]
        # a FIM without information on a delay stays unresolvable
        J[0, 0, 0, :] = J[0, 0, :, 0] = 0.0
        assert crb_batch(J)[0, 0] == np.inf
        np.testing.assert_array_equal(crb_batch(J).ravel()[1:], got.ravel()[1:])

    def test_unequal_or_empty_columns_rejected(self, layout_single):
        cols = random_columns(256, 10, 2, seed=1)
        cols[1, np.flatnonzero(cols[1] == 0)[0]] = 1
        # unequal counts, no pilots, no columns, a 3-D stack
        for bad in (cols, np.zeros((2, 256)), np.zeros((0, 256)), cols[None]):
            with pytest.raises(ValueError):
                pattern_crb_provider(layout_single, bad, SIGMA, GAINS)
            with pytest.raises(ValueError):
                fim(layout_single, bad, SIGMA, GAINS, [1e-9, 2e-9])

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_stacked_srl_at_most_is_each_column_alone(self, mode, layout_single,
                                                      layout_multi):
        lay, prior = (layout_single, None) if mode == "single" else (layout_multi, 1e-9)
        cols = random_columns(lay.n_total, 40, 10, seed=6)
        if mode == "multi":   # a column without a pilot in the second subband
            cols[0] = 0
            cols[0, np.arange(0, 80, 2)] = 1
        provider = pattern_crb_provider(lay, cols, SIGMA, GAINS, prior)
        verdicts = []
        for beta in np.geomspace(0.5e-9, 20e-9, 7):
            got = srl_at_most(provider, beta, 0.05e-9)
            ref = [srl_at_most(pattern_crb_provider(lay, c, SIGMA, GAINS, prior), beta,
                               0.05e-9) for c in cols]
            assert got.dtype == bool and got.tolist() == ref, beta
            verdicts += ref
        assert any(verdicts) and not all(verdicts)

    def test_stacked_scan_goes_in_chunks_until_every_row_crossed(self):
        # sqrt(CRB) = root_q everywhere for row q: g = dtau - root_q
        roots = np.array([1e-9, 4e-9, 9e-9])
        sizes = []

        def provider(dts):
            sizes.append(len(dts))
            return np.broadcast_to(roots[:, None] ** 2, (3, len(dts)))

        step = 0.05e-9    # 64-point chunks end at 3.2, 6.4 and 9.6 ns
        for beta, expected, scanned in [
                (10e-9, [True] * 3, [64, 64, 64]),          # all pass, the last at 9 ns
                (20e-9, [True] * 3, [64, 64, 64]),
                (8e-9, [True, True, False], [64, 64, 32]),  # one never crosses
                (5e-9, [True, True, False], [64, 36])]:
            sizes.clear()
            assert srl_at_most(provider, beta, step).tolist() == expected
            assert sizes == scanned, beta

        # g >= 0 only on [1, 2) ns in row 0 and on [5, 6) ns in row 1, so both
        # fail at beta = 9 ns; the scan stops at the chunk where row 1 crosses
        def windows(dts):
            sizes.append(len(dts))
            inside = np.stack([(dts >= 1e-9) & (dts < 2e-9), (dts >= 5e-9) & (dts < 6e-9)])
            return np.where(inside, 0.5 * dts, 2.0 * dts) ** 2

        sizes.clear()
        assert srl_at_most(windows, 9e-9, step).tolist() == [True, True]
        assert sizes == [64, 64]


class TestGateCrbWithoutLapack:
    """The gate's CRBs against the whole inverse (eigvalsh + inv), ``crb_eig_inv``."""

    def test_single_band_closed_form_matches_the_inverse(self, layout_single):
        cols = random_columns(layout_single.n_total, 128, 400, seed=21)
        grid = np.arange(1, 64) * 0.05e-9
        got = pattern_crb_provider(layout_single, cols, SIGMA, GAINS)(grid)
        ref = crb_eig_inv(fim(layout_single, cols, SIGMA, GAINS, grid))
        both = np.isfinite(got) & np.isfinite(ref)
        assert both.mean() > 0.5
        assert np.max(np.abs(got[both] / ref[both] - 1)) <= 1e-8
        verdict = _g(grid, got) >= 0
        np.testing.assert_array_equal(verdict, _g(grid, ref) >= 0)
        assert verdict.any() and not verdict.all()

    def test_multiband_elimination_matches_the_inverse(self, layout_multi):
        cols = random_columns(layout_multi.n_total, 127, 400, seed=22)
        cols[:3] = 0
        cols[:3, :127] = 1          # every pilot in the first subband: phi_2 idles
        grid = np.arange(1, 65) * 0.02e-9
        J = fim(layout_multi, cols, SIGMA, GAINS, grid, 1e-9)
        ref = crb_eig_inv(J)
        # crb_batch of the whole FIM, and the provider's path: the gains
        # eliminated in closed form, then crb_batch of the (2M+1)-square rest
        gains_free = pattern_crb_provider(layout_multi, cols, SIGMA, GAINS, 1e-9)(grid)
        for got in (crb_batch(J), gains_free):
            both = np.isfinite(got) & np.isfinite(ref)
            assert both.mean() > 0.5 and np.all(both[:3, -1])
            assert np.max(np.abs(got[both] / ref[both] - 1)) <= 1e-6
            verdict = _g(grid, got) >= 0
            np.testing.assert_array_equal(verdict, _g(grid, ref) >= 0)
            assert verdict.any() and not verdict.all()
        # Near the condition cap the reference's own inverse loses digits (the
        # idle column's last separations sit at a scaled condition of ~1e12),
        # so the tight bound holds where the reference is well conditioned,
        # and the idle column is held to the quadratic form below.
        sharp = crb_eig_inv(J, cond_cap=1e11)
        both = np.isfinite(gains_free) & np.isfinite(sharp)
        assert both.mean() > 0.5
        assert np.max(np.abs(gains_free[both] / sharp[both] - 1)) <= 1e-9
        assert np.all(pattern_crb_provider(layout_multi, cols, SIGMA, GAINS, 1e-9)([1e-18])
                      == np.inf)
        # the idle subband's column equals the column alone, with phi_2 dropped by hand
        alone = pattern_crb_provider(layout_multi, cols[0], SIGMA, GAINS, 1e-9)(grid[-2:])
        np.testing.assert_array_equal(gains_free[0, -2:], alone)
        assert alone[-1] == pytest.approx(crb_delta_tau_quadform(J[0, -1]), rel=1e-12)

    def test_collinear_paths_and_a_zero_delay_row_are_unresolvable(self, layout_single,
                                                                  layout_multi):
        for lay, prior in ((layout_single, None), (layout_multi, 1e-9)):
            cols = random_columns(lay.n_total, 40, 5, seed=23)
            assert np.all(pattern_crb_provider(lay, cols, SIGMA, GAINS, prior)([1e-18]) == np.inf)
            J = fim(lay, cols, SIGMA, GAINS, [1e-18, 2e-9], prior)
            assert np.all(crb_batch(J)[:, 0] == np.inf)
            assert np.all(np.isfinite(crb_batch(J)[:, 1]))
            J[:, 1, 1, :] = J[:, 1, :, 1] = 0.0      # no information on tau_2
            assert np.all(crb_batch(J)[:, 1] == np.inf)

    @pytest.mark.parametrize("case", ["single", "two_bands", "three_bands"])
    def test_gains_elimination_is_the_schur_complement(self, case, layout_single,
                                                       layout_multi, monkeypatch):
        # the information crb_batch receives is fim()'s with the four gain
        # coordinates eliminated: the 2x2 delay block on a single band, the
        # no-nuisance case, and the (2M+1)-square rest on a multiband layout,
        # for columns whose first subband has pilots (an idle later subband
        # included). Below ~0.5 ns the two paths are so nearly collinear on
        # the single band that both sides lose digits: they differ by ~2e-8 at
        # 0.3 ns, and each by ~7e-8 from a long-double one.
        lay, p, prior = {"single": (layout_single, 128, None),
                         "two_bands": (layout_multi, 127, 1e-9),
                         "three_bands": (THREE_BANDS, 20, 1e-9)}[case]
        cols = random_columns(lay.n_total, p, 50, seed=25)
        cols = cols[cols[:, :lay.subbands[0].n_subcarriers].any(axis=1)]
        if case == "three_bands":
            cols[0] = 0
            cols[0, np.r_[0:10, 34:44]] = 1              # the middle band idles
        gains = np.array([0.9 + 0.3j, -0.4 + 1.1j])
        seen = []

        def recorded(J):
            seen.append(J.copy())
            return crb_batch(J)

        monkeypatch.setattr(resolution, "crb_batch", recorded)
        for dtau in (0.5e-9, 2e-9, 11e-9):
            seen.clear()
            pattern_crb_provider(lay, cols, SIGMA, gains, prior)([dtau])
            (got,) = seen
            J = fim(lay, cols, SIGMA, gains, [dtau], prior)[:, 0]
            keep = np.r_[0, 1, 6:J.shape[-1]]
            kg = J[:, keep][:, :, 2:6]
            ref = J[:, keep][:, :, keep] - kg @ np.linalg.solve(J[:, 2:6, 2:6],
                                                                np.swapaxes(kg, 1, 2))
            assert got.shape == (len(cols), 1, len(keep), len(keep))
            assert max(fim_scaled_error(g, r) for g, r in zip(got[:, 0], ref)) <= 1e-8

    def test_single_band_gate_builds_no_fim(self, monkeypatch):
        # the gains eliminated in closed form leave crb_batch the 2x2 delay
        # block, which it reads without a pivot
        class NoLinalg:
            def __getattr__(self, name):
                raise AssertionError(f"np.linalg.{name} called")

        def no_fim(*args, **kwargs):
            raise AssertionError("a FIM was built")

        sizes = []

        def recorded(J):
            sizes.append(J.shape[-2:])
            return crb_batch(J)

        monkeypatch.setattr(resolution, "_fim_builder", no_fim)
        monkeypatch.setattr(resolution, "crb_batch", recorded)
        monkeypatch.setattr(resolution.np, "linalg", NoLinalg())
        cfg = EdaConfig(budgets=(8, 8), region=SidelobeRegion(150e-9, 400e-9),
                        population=40, elite=20, iterations=2, gate_step_s=0.5e-9,
                        final_search=SrlSearch(0.1e-9, 400e-9, 0.1e-9, 1e-13), seed=5)
        # the beta reference, the gate's beta test and scan, and the final SRL
        res = run_eda(pf.BandLayout.single(32, FS, 0.0), cfg)
        assert res.rejected_draws > 0 and all(r.found for r in res.srl_per_group)
        assert sizes and set(sizes) == {(2, 2)}

    def test_multiband_gate_builds_no_fim(self, monkeypatch):
        # every multiband CRB eliminates the gains in closed form and hands
        # crb_batch the rest; only fim() builds the whole matrix
        def no_fim(*args, **kwargs):
            raise AssertionError("a FIM was built")

        sizes = []

        def recorded(J):
            sizes.append(J.shape[-1])
            return crb_batch(J)

        monkeypatch.setattr(resolution, "_fim_builder", no_fim)
        monkeypatch.setattr(resolution, "crb_batch", recorded)
        cfg = EdaConfig(budgets=(8, 8), region=SidelobeRegion(150e-9, 400e-9),
                        population=40, elite=20, iterations=2, gate_step_s=0.5e-9,
                        final_search=SrlSearch(0.01e-9, 400e-9, 0.01e-9, 1e-13), seed=5)
        res = run_eda(TWO_BANDS, cfg)
        assert all(r.found for r in res.srl_per_group)
        assert sizes and set(sizes) == {2 * TWO_BANDS.n_bands + 1}


def relabelled_loop_crbs(lay, w, dts, gains=GAINS, prior=1e-9):
    """crb_eig_inv of ``fim_multiband_loop`` for a column whose first subband
    with pilots, ref, is relabelled band 0: every band label less ref, the
    spacings rolled to match, the pilots' frequencies unchanged."""
    f, band, nloc = (lay.pinned_frequencies_hz[w != 0], lay.band_index[w != 0],
                     lay.local_index[w != 0])
    spacings = np.array([sb.spacing_hz for sb in lay.subbands])
    ref = band.min()
    J, _ = fim_multiband_loop(f, band - ref, nloc, np.roll(spacings, -ref), lay.n_bands,
                              SIGMA, gains, dts, prior)
    return crb_eig_inv(J)


class TestPhaseReference:
    """Each column's first subband with pilots is its phase reference."""

    def test_second_subband_column_matches_the_relabelled_loop(self, layout_multi):
        # the multiband uniform baseline's second group: every pilot in the
        # second subband, 400 MHz above the pinned origin
        w = np.zeros(layout_multi.n_total, dtype=np.uint8)
        w[127:] = 1
        dts = np.linspace(4e-9, 8e-9, 9)
        got = pattern_crb_provider(layout_multi, w, SIGMA, GAINS, 1e-9)(dts)
        ref = relabelled_loop_crbs(layout_multi, w, dts)
        assert np.all(np.isfinite(ref))
        np.testing.assert_allclose(got, ref, rtol=1e-6)
        # a 50-digit evaluation of the same model puts the SRL at 6.85952 ns
        srl = srl_of_pattern(layout_multi, w, SIGMA, GAINS, 1e-9)
        assert srl.srl_s == pytest.approx(6.85952e-9, abs=2 * srl.search.tol_s)

    def test_fim_drops_the_reference_phase_too(self, layout_multi):
        # the same column, as the multiband uniform baseline builds it: the
        # whole FIM, gains and all, gives the provider's CRB at every point
        w = pf.uniform_patterns(layout_multi, 2, [127, 127]).column(1)
        dts = np.arange(4e-9, 8.25e-9, 0.5e-9)
        got = crb_batch(fim(layout_multi, w, SIGMA, GAINS, dts, 1e-9))
        want = pattern_crb_provider(layout_multi, w, SIGMA, GAINS, 1e-9)(dts)
        assert np.all(np.isfinite(want))
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_three_subbands_with_the_first_idle(self):
        cols = np.zeros((3, THREE_BANDS.n_total), dtype=np.uint8)
        cols[0, np.r_[17:26, 34:42]] = 1     # the last two subbands
        cols[1, 34:] = 1                     # the last subband alone
        cols[2, :17] = 1                     # the first subband alone
        dts = np.linspace(150e-9, 400e-9, 6)
        provider = pattern_crb_provider(THREE_BANDS, cols, SIGMA, GAINS, 1e-9)
        got = provider(dts)
        betas = np.geomspace(20e-9, 400e-9, 8)
        verdicts = []
        for q, col in enumerate(cols):
            ref = relabelled_loop_crbs(THREE_BANDS, col, dts)
            assert np.all(np.isfinite(ref))
            np.testing.assert_allclose(got[q], ref, rtol=1e-6)
            # bit for bit the column alone, and the gate's beta test agrees
            alone = pattern_crb_provider(THREE_BANDS, col, SIGMA, GAINS, 1e-9)
            np.testing.assert_array_equal(got[q], alone(dts))
            verdict = resolvable_at(THREE_BANDS, np.tile(col, (len(betas), 1)), SIGMA, GAINS,
                                    betas, 1e-9)
            np.testing.assert_array_equal(verdict, _g(betas, alone(betas)) >= 0)
            verdicts += verdict.tolist()
        assert any(verdicts) and not all(verdicts)


class TestGateInputs:
    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta_rejected(self, beta, layout_single):
        cols = random_columns(layout_single.n_total, 40, 2, seed=24)
        with pytest.raises(ValueError, match="beta_s"):
            resolvable_at(layout_single, cols, SIGMA, GAINS, beta)
        provider = pattern_crb_provider(layout_single, cols, SIGMA, GAINS)
        with pytest.raises(ValueError, match="beta_s"):
            srl_at_most(provider, beta, 0.05e-9)

    @pytest.mark.parametrize("step", [0.0, -0.05e-9, np.nan, np.inf])
    def test_step_must_be_positive_and_finite(self, step, layout_single):
        provider = pattern_crb_provider(
            layout_single, random_columns(layout_single.n_total, 40, 2, seed=24), SIGMA, GAINS)
        with pytest.raises(ValueError, match="step_s"):
            srl_at_most(provider, 3e-9, step)


class TestResolvableAt:
    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_is_the_beta_point_of_srl_at_most(self, mode, layout_single, layout_multi):
        lay, prior = (layout_single, None) if mode == "single" else (layout_multi, 1e-9)
        cols = random_columns(lay.n_total, 40, 10, seed=5)
        if mode == "multi":   # a column without a pilot in the second subband
            cols[0] = 0
            cols[0, np.arange(0, 80, 2)] = 1
        verdicts = []
        for beta in np.geomspace(0.5e-9, 20e-9, 7):
            got = resolvable_at(lay, cols, SIGMA, GAINS, beta, prior)
            crb = pattern_crb_provider(lay, cols, SIGMA, GAINS, prior)(np.array([beta]))[:, 0]
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
        assert np.sqrt(provider(np.array([res.srl_s]))[0]) == pytest.approx(res.srl_s, rel=1e-9)

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

    @pytest.mark.parametrize("case", ["chunk_first", "chunk_last", "last_partial_chunk",
                                      "on_grid", "below_range", "no_crossing"])
    def test_chunked_scan_stops_at_the_first_crossing(self, case):
        # sqrt(CRB) = root everywhere, so g >= 0 from the first grid point at
        # or above root on. The provider logs every call: the scan must pass
        # whole ascending chunks of the grid and stop after the chunk holding
        # that point; bisection then asks single points
        search = SrlSearch()
        grid = search.grid()
        last_chunk = (len(grid) - 1) // _SCAN_CHUNK * _SCAN_CHUNK
        assert 1 < len(grid) - last_chunk < _SCAN_CHUNK  # the last chunk is partial
        k = {"chunk_first": 2 * _SCAN_CHUNK, "chunk_last": 3 * _SCAN_CHUNK - 1,
             "last_partial_chunk": last_chunk + 2, "on_grid": 2 * _SCAN_CHUNK + 5,
             "below_range": 0, "no_crossing": len(grid)}[case]
        if case == "on_grid":
            root = grid[k]
            assert np.sqrt(root**2) == root
        elif case == "below_range":
            root = 0.5 * grid[0]
        elif case == "no_crossing":
            root = 2 * grid[-1]
        else:
            root = 0.5 * (grid[k - 1] + grid[k])
        calls = []

        def provider(dts):
            calls.append(np.array(dts))
            return np.full(np.shape(dts), root**2)

        res = srl_search(provider, search)
        n_chunks = min(k // _SCAN_CHUNK + 1, -(-len(grid) // _SCAN_CHUNK))
        for i, call in enumerate(calls[:n_chunks]):
            np.testing.assert_array_equal(call, grid[i * _SCAN_CHUNK:(i + 1) * _SCAN_CHUNK])
        rest = calls[n_chunks:]
        assert all(call.shape == (1,) for call in rest)
        if case == "below_range":
            assert res.below_range and not res.found and not rest
        elif case == "no_crossing":
            assert not res.found and not res.below_range and not rest
        else:
            assert res.found and not res.below_range
            assert all(grid[k - 1] <= call[0] <= grid[k] for call in rest)
            if case == "on_grid":  # read off the grid, with no bisection
                assert res.srl_s == root and not rest
            else:
                assert abs(res.srl_s - root) <= search.tol_s and rest

    def test_stacked_search_is_each_row_alone(self):
        # sqrt(CRB) = root_q everywhere for row q: a root exactly on the grid
        # (g = 0 there), one below the window, none in it, and roots inside
        # grid intervals of the first and of a later chunk
        search = SrlSearch(1e-9, 20e-9, 0.05e-9, 1e-13)
        grid = search.grid()
        on_grid = grid[150]
        assert np.sqrt(on_grid**2) == on_grid
        roots = np.array([on_grid, 0.5e-9, 30e-9, 0.5 * (grid[10] + grid[11]),
                          0.5 * (grid[200] + grid[201])])
        calls = []

        def provider(dts):
            calls.append(np.shape(dts))
            return roots[:, None] ** 2 + 0 * np.asarray(dts)   # (Q, B) or (Q, 1)

        got = srl_search(provider, search)
        assert isinstance(got, tuple) and len(got) == len(roots)
        for q, root in enumerate(roots):
            alone = srl_search(lambda dts, r=root: np.full(np.shape(dts), r**2), search)
            assert (got[q].srl_s, got[q].below_range) == (alone.srl_s, alone.below_range)
            assert got[q].search == search
        assert got[0].srl_s == on_grid and got[1].below_range and not got[2].found
        assert not got[2].below_range and got[3].found and got[4].found
        # the chunks are shared until every row has crossed (row 2 never does),
        # then every call asks one separation per row
        n_chunks = -(-len(grid) // _SCAN_CHUNK)
        assert calls[:n_chunks] == [(len(grid[i:i + _SCAN_CHUNK]),)
                                    for i in range(0, len(grid), _SCAN_CHUNK)]
        assert calls[n_chunks:] and set(calls[n_chunks:]) == {(len(roots), 1)}

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_stacked_srl_of_pattern_is_each_column_alone(self, mode, layout_single,
                                                         layout_multi):
        lay, prior = (layout_single, None) if mode == "single" else (layout_multi, 1e-9)
        n = lay.n_total
        cols = random_columns(n, 40, 8, seed=3)
        cols[0] = 0
        cols[0, :40] = 1                     # a narrow aperture: the largest SRL
        wide = [srl_of_pattern(lay, c, SIGMA, GAINS, prior, SrlSearch(0.01e-9, 400e-9, 0.01e-9))
                for c in cols]
        srls = np.sort([res.srl_s for res in wide])
        # a window that the smallest SRL lies below and the largest above
        search = SrlSearch(0.5 * (srls[0] + srls[1]), 0.5 * (srls[-2] + srls[-1]), 0.01e-9)
        got = srl_of_pattern(lay, cols, SIGMA, GAINS, prior, search)
        alone = [srl_of_pattern(lay, c, SIGMA, GAINS, prior, search) for c in cols]
        assert [(r.srl_s, r.below_range) for r in got] == \
            [(r.srl_s, r.below_range) for r in alone]
        assert sum(r.below_range for r in got) == 1
        assert sum(not r.found and not r.below_range for r in got) == 1
        assert sum(r.found for r in got) == len(cols) - 2

    def test_uniform_block_regression(self, layout_single):
        w = np.zeros(256, dtype=np.uint8)
        w[:128] = 1
        res = srl_of_pattern(layout_single, w, SIGMA, GAINS)
        assert res.found
        assert res.srl_s * 1e9 == pytest.approx(5.772, rel=0.02)

    def test_smallest_root_wins(self):
        # sqrt(CRB) crosses dtau twice: once exactly on a grid point (g == 0
        # there) and once inside a grid interval, in either order. The SRL is
        # the first crossing, where the provider gives the first root's CRB
        search = SrlSearch(1e-9, 20e-9, 0.5e-9, 1e-13)
        grid = search.grid()
        on_grid = grid[25]                 # 13.5 ns
        assert np.sqrt(on_grid**2) == on_grid

        def provider_for(first, second):
            def provider(dts):
                dts = np.asarray(dts)
                root = np.where(dts < 10e-9, first, second)
                rising = (dts > first + 1e-9) & (dts < 10e-9)
                return np.where(rising, 2 * dts, root) ** 2
            return provider

        # (first, second, tolerance): a root on the grid is read off exactly
        cases = [(grid[9], 12.3e-9, 0.0), (3.3e-9, on_grid, search.tol_s)]
        for first, second, tol in cases:
            provider = provider_for(first, second)
            g = grid - np.sqrt(provider(grid))
            assert np.count_nonzero((g[:-1] < 0) & (g[1:] >= 0)) == 2
            assert np.count_nonzero(g == 0) == 1
            res = srl_search(provider, search)
            assert res.found and not res.below_range
            assert abs(res.srl_s - first) <= tol
            assert provider(np.array([res.srl_s]))[0] == first**2

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

    def test_srl_at_most_scan_stops_at_the_crossing_chunk(self):
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
        cases = [(7e-9, True, [64]),              # crossed at 2 ns, in the first chunk
                 (5e-9, True, [50]),              # root below, g(beta) < 0
                 (1.5e-9, False, [15])]           # below the SRL
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
        for bad in ({"tau_lo_s": np.nan}, {"tau_hi_s": np.inf}, {"step_s": np.nan},
                    {"tol_s": np.nan}, {"step_s": 0.0}, {"step_s": np.inf},
                    {"tol_s": np.inf}):
            with pytest.raises(ValueError):
                SrlSearch(**bad)
