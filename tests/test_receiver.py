import numpy as np
import pytest

import pilotforge as pf
from pilotforge import receiver
from pilotforge.receiver import (EstimationError, baseline_schemes, decouple,
                                 estimate_paths_psols, extrapolate_fullband,
                                 nmse, path_residual, profile_peak_delays,
                                 run_extrapolation_sim)

FS = 120e3
GATE = (0.0, 400e-9)


def full_pattern(n):
    return np.ones(n, dtype=np.uint8)


def single_user_obs(layout, delays, gains, w=None, noise_std=0.0, seed=None,
                    gate=GATE):
    w = full_pattern(layout.n_total) if w is None else w
    pats = pf.PatternSet(w[:, None])
    seqs = pf.orthogonal_sequence_family(layout.n_total, 1)
    ch = pf.ChannelParams({(0, 0): np.asarray(delays, float)},
                          {(0, 0): np.asarray(gains, complex)}, noise_std)
    y = pf.synthesize_received(layout, pats, seqs, ch, seed=seed)
    return decouple(layout, y, w, seqs[0], gate)


def random_multiband_obs(layout_multi, trial, user):
    """A 15 dB observation of the random multiband baseline as
    run_extrapolation_sim(..., seed=77) draws it ("random" is scheme 1)."""
    pats = baseline_schemes(layout_multi, 2, [127, 127], seed=1)["random"]
    ch = pf.draw_channels(2, 2, 2, 400e-9, 10 ** (-15 / 20), seed=np.random.SeedSequence(
        77, spawn_key=(1, trial)).generate_state(1)[0])
    seqs = pf.orthogonal_sequence_family(layout_multi.n_total, 2)
    y = pf.synthesize_received(layout_multi, pats, seqs, ch, seed=np.random.SeedSequence(
        77, spawn_key=(2, trial, 1)).generate_state(1)[0])
    w = pats.column(user[0])
    return decouple(layout_multi, y, w, seqs[user[1]], GATE, user=user), w, ch


class TestDecouple:
    def test_on_bin_path_gives_scaled_impulse(self, layout_single):
        n = 256
        k = 5
        tau = k / (n * FS)
        alpha = 1.3 - 0.4j
        obs = single_user_obs(layout_single, [tau], [alpha])
        expected = np.zeros(n, dtype=complex)
        expected[k] = alpha * np.sqrt(n)
        np.testing.assert_allclose(obs.delay_gated, expected, atol=1e-10)

    def test_orthogonal_codes_separate_exactly(self, layout_single):
        n = 256
        binw = 1.0 / (n * FS)
        pats = pf.PatternSet(np.ones((n, 1), dtype=np.uint8))
        seqs = pf.orthogonal_sequence_family(n, 2)
        ch = pf.ChannelParams(
            {(0, 0): np.array([3 * binw]), (0, 1): np.array([7 * binw])},
            {(0, 0): np.array([1.2 - 0.5j]), (0, 1): np.array([0.3 + 0.9j])}, 0.0)
        y = pf.synthesize_received(layout_single, pats, seqs, ch, seed=None)
        for z in range(2):
            obs = decouple(layout_single, y, pats.column(0), seqs[z], GATE, (0, z))
            truth = pf.channel_frequency_response(
                layout_single, ch.delays_s[(0, z)], ch.gains[(0, z)])
            err = np.linalg.norm(obs.recovered - truth) / np.linalg.norm(truth)
            assert err < 1e-10

    def test_all_pass_gate_round_trip(self, layout_single):
        rng = np.random.default_rng(1)
        w = np.zeros(256, dtype=np.uint8)
        w[np.sort(rng.permutation(256)[:120])] = 1
        x = pf.make_zc_sequence(256, 1, 3)
        y = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        all_pass = (0.0, (256 - 1) / (256 * FS))
        obs = decouple(layout_single, y, w, x, all_pass)
        stripped = w * np.conj(x.values) * y
        np.testing.assert_allclose(obs.recovered, stripped, atol=1e-12)

    def test_gate_beyond_unambiguous_range_rejected(self, layout_single):
        x = pf.make_zc_sequence(256, 1, 0)
        with pytest.raises(ValueError, match="unambiguous"):
            decouple(layout_single, np.ones(256), full_pattern(256), x,
                     (0.0, 1.01 / FS))

    def test_multiband_union_grid_round_trip(self, layout_multi):
        # noiseless single user: gated recovery reproduces the masked channel
        rng = np.random.default_rng(2)
        n = layout_multi.n_total
        w = np.zeros(n, dtype=np.uint8)
        w[np.sort(rng.permutation(n)[:150])] = 1
        delays = np.array([90e-9, 210e-9])
        gains = np.array([1.0 + 0.3j, -0.6 + 0.2j])
        obs = single_user_obs(layout_multi, delays, gains, w=w)
        est = estimate_paths_psols(obs, w, layout_multi, n_paths=2)
        assert est.residual < 1e-10  # exactly representable through the gate
        np.testing.assert_allclose(np.sort(est.delays_s), delays, atol=1e-12)

    def test_leakage_in_gate_orders_uniform_below_random(self, layout_single):
        # cross-code leakage energy inside the victim's gate tracks the ISL
        schemes = baseline_schemes(layout_single, 2, [128, 128], seed=3)
        seqs = pf.orthogonal_sequence_family(256, 2)
        totals = {}
        for name, pats in schemes.items():
            acc = 0.0
            for seed in range(50):
                ch = pf.draw_channels(2, 2, 2, 400e-9, 0.0, seed=seed)
                only_b = pf.ChannelParams({(0, 1): ch.delays_s[(0, 1)]},
                                          {(0, 1): ch.gains[(0, 1)]}, 0.0)
                y = pf.synthesize_received(layout_single, pats, seqs, only_b,
                                           seed=None)
                obs = decouple(layout_single, y, pats.column(0), seqs[0], GATE)
                acc += float(np.sum(np.abs(obs.delay_gated) ** 2))
            totals[name] = acc
        assert totals["uniform"] < totals["random"]


class TestPeakInitializer:
    def test_single_path_gives_one_peak(self, layout_single):
        obs = single_user_obs(layout_single, [123.4e-9], [1.0 + 0j])
        peaks = profile_peak_delays(obs)
        assert len(peaks) == 1
        assert abs(peaks[0] - 123.4e-9) < obs.delay_bin_s

    def test_well_separated_pair_counted_over_trials(self, layout_single):
        # 100 seeded 15 dB draws, >= 2.5-bin separation and path powers inside
        # the initializer's 13 dB detection window: the true order every time
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            ch = pf.draw_channels(1, 1, 2, 400e-9, 10 ** (-15 / 20), seed=seed,
                                  min_separation_s=80e-9)
            gains = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))  # equal strength
            obs = single_user_obs(layout_single, ch.delays_s[(0, 0)], gains,
                                  noise_std=ch.noise_std, seed=1000 + seed)
            hits += len(profile_peak_delays(obs)) == 2
        assert hits == 100

    def test_max_paths_cap(self, layout_single):
        rng = np.random.default_rng(4)
        delays = np.sort(rng.uniform(0, 380e-9, 10))
        gains = np.ones(10, dtype=complex)
        obs = single_user_obs(layout_single, delays, gains)
        assert len(profile_peak_delays(obs, max_paths=3)) <= 3


class TestPsoLs:
    def test_noiseless_on_grid_path_recovered_exactly(self, layout_single):
        k = 4
        tau = k / (256 * FS)
        alpha = 0.8 + 0.6j
        obs = single_user_obs(layout_single, [tau], [alpha])
        est = estimate_paths_psols(obs, full_pattern(256), layout_single)
        assert est.n_paths == 1
        assert abs(est.delays_s[0] - tau) < 1e-12  # within 1e-3 ns
        assert abs(est.gains[0] - alpha) / abs(alpha) < 1e-6
        assert est.residual < 1e-20

    def test_noiseless_two_paths_on_sparse_pattern(self, layout_single):
        rng = np.random.default_rng(5)
        w = np.zeros(256, dtype=np.uint8)
        w[np.sort(rng.permutation(256)[:128])] = 1
        delays = np.array([150e-9, 170e-9])
        gains = np.array([1.0 + 0.2j, -0.5 + 0.5j])
        obs = single_user_obs(layout_single, delays, gains, w=w)
        est = estimate_paths_psols(obs, w, layout_single, n_paths=2)
        assert est.residual < 1e-10
        np.testing.assert_allclose(est.delays_s, delays, atol=0.01e-9)

    def test_multiband_fit_does_not_stop_a_fringe_off(self, layout_multi):
        # 15 dB two-path multiband case on which a local search ends with
        # the later path one |chi| fringe (1/400 MHz = 2.5 ns) late and a
        # residual above the true delays' one
        rng = np.random.default_rng(1)
        n = layout_multi.n_total
        w = np.zeros(n, dtype=np.uint8)
        w[np.sort(rng.permutation(n)[:127])] = 1
        ch = pf.draw_channels(1, 1, 2, 400e-9, 10 ** (-15 / 20), seed=1)
        obs = single_user_obs(layout_multi, ch.delays_s[(0, 0)],
                              ch.gains[(0, 0)], w=w, noise_std=ch.noise_std,
                              seed=1001)
        truth = np.sort(ch.delays_s[(0, 0)])
        est = estimate_paths_psols(obs, w, layout_multi, n_paths=2)
        assert est.residual <= path_residual(obs, w, truth)
        np.testing.assert_allclose(est.delays_s, truth, atol=1.25e-9)

    def test_path_residual_is_the_fitted_residual(self, layout_single):
        ch = pf.draw_channels(1, 1, 2, 400e-9, 0.1, seed=17)
        w = full_pattern(256)
        obs = single_user_obs(layout_single, ch.delays_s[(0, 0)],
                              ch.gains[(0, 0)], noise_std=0.1, seed=18)
        est = estimate_paths_psols(obs, w, layout_single, n_paths=2)
        assert path_residual(obs, w, est.delays_s) == pytest.approx(
            est.residual, rel=1e-9)

    def test_identifiability_guard(self, layout_single):
        w = np.zeros(256, dtype=np.uint8)
        w[:3] = 1
        obs = single_user_obs(layout_single, [50e-9], [1.0 + 0j], w=w)
        with pytest.raises(EstimationError, match="identify"):
            estimate_paths_psols(obs, w, layout_single, n_paths=2)

    def test_seed_has_no_effect(self, layout_single):
        ch = pf.draw_channels(1, 1, 2, 400e-9, 0.1, seed=9)
        obs = single_user_obs(layout_single, ch.delays_s[(0, 0)],
                              ch.gains[(0, 0)], noise_std=0.1, seed=10)
        a = estimate_paths_psols(obs, full_pattern(256), layout_single,
                                 n_paths=2, seed=11)
        b = estimate_paths_psols(obs, full_pattern(256), layout_single,
                                 n_paths=2, seed=12)
        np.testing.assert_array_equal(a.delays_s, b.delays_s)
        np.testing.assert_array_equal(a.gains, b.gains)

    def test_empty_observation_still_gives_every_path(self, layout_single):
        # an all-zero cost has no peak to extend the beam with; the profile
        # start still supplies the requested number of delays
        w = full_pattern(256)
        seq = pf.orthogonal_sequence_family(256, 1)[0]
        obs = decouple(layout_single, np.zeros(256, dtype=complex), w, seq, GATE)
        est = estimate_paths_psols(obs, w, layout_single, n_paths=2)
        assert est.n_paths == 2
        assert len(est.delays_s) == len(est.gains) == 2
        assert est.residual == 0.0

    @pytest.mark.parametrize("trial,user", [(15, (0, 0)), (21, (0, 0)), (44, (1, 0))],
                             ids=["t15-u00", "t21-u00", "t44-u10"])
    def test_hard_multiband_fit_reaches_the_truth(self, layout_multi, trial, user):
        # 15 dB fits of the random multiband baseline whose paths can settle
        # 3-8 |chi| fringes off, rebuilt with the seeds that
        # run_extrapolation_sim(..., seed=77) gives them ("random" is scheme 1
        # of the sorted optimized/random/uniform)
        pats = baseline_schemes(layout_multi, 2, [127, 127], seed=1)["random"]
        sigma = 10 ** (-15 / 20)
        ch = pf.draw_channels(2, 2, 2, 400e-9, sigma, seed=np.random.SeedSequence(
            77, spawn_key=(1, trial)).generate_state(1)[0])
        seqs = pf.orthogonal_sequence_family(layout_multi.n_total, 2)
        y = pf.synthesize_received(layout_multi, pats, seqs, ch, seed=np.random.SeedSequence(
            77, spawn_key=(2, trial, 1)).generate_state(1)[0])
        g, z = user
        w = pats.column(g)
        obs = decouple(layout_multi, y, w, seqs[z], GATE, user=user)
        est = estimate_paths_psols(obs, w, layout_multi, n_paths=2)
        assert est.residual <= path_residual(obs, w, ch.delays_s[user])


class TestSearchStages:
    def test_grid_columns_match_the_direct_transform(self, layout_multi):
        obs, w, _ = random_multiband_obs(layout_multi, 15, (0, 0))
        model = receiver._GatedModel(obs, np.flatnonzero(w))
        step = obs.delay_bin_s / receiver._VP_OVERSAMPLE
        grid = np.arange(0.0, GATE[1] + 0.5 * step, step)
        direct = model.columns(grid[:, None])[:, :, 0].T
        fast = model.grid_columns(receiver._VP_OVERSAMPLE, len(grid))
        assert fast.shape == direct.shape
        np.testing.assert_allclose(fast, direct, rtol=0, atol=1e-12 * np.abs(direct).max())

    def test_linearized_gradient_matches_finite_differences(self, layout_multi):
        obs, w, ch = random_multiband_obs(layout_multi, 15, (0, 0))
        model = receiver._GatedModel(obs, np.flatnonzero(w))
        delays = np.sort(ch.delays_s[(0, 0)])[None, :] + [[0.3e-9, -0.2e-9]]
        res, _, grad = model.linearize(delays)
        assert res[0] == pytest.approx(model.fit(delays)[1][0], rel=1e-12)
        eps = 1e-15
        for k in range(2):
            shift = np.zeros((1, 2))
            shift[0, k] = eps
            fd = (model.fit(delays + shift)[1][0] - model.fit(delays - shift)[1][0]) / (2 * eps)
            # the residual falls along +grad: d|r|^2/dtau = -2 Re(D^H r)
            assert -2 * grad[0, k] == pytest.approx(fd, rel=1e-5)

    def test_settled_stack_rows_match_rows_settled_alone(self, layout_multi):
        obs, w, ch = random_multiband_obs(layout_multi, 15, (0, 0))
        model = receiver._GatedModel(obs, np.flatnonzero(w))
        step = obs.delay_bin_s / receiver._VP_OVERSAMPLE
        offsets = receiver._fringe_offsets(model.f_grid, step / receiver._VP_OVERSAMPLE,
                                           8 * obs.delay_bin_s)
        moves = receiver._fringe_moves(offsets, 2)
        assert len(moves) == 80
        truth = np.sort(ch.delays_s[(0, 0)])
        starts = np.array([truth, truth + [0.0, 3 * offsets[0]], [20e-9, 300e-9],
                           np.resize(profile_peak_delays(obs), 2), [150e-9, 151e-9]])
        delays, res = receiver._settle(model, starts, moves, GATE[1])
        for b, start in enumerate(starts):
            alone, alone_res = receiver._settle(model, start[None, :], moves, GATE[1])
            np.testing.assert_allclose(delays[b], alone[0], rtol=1e-12)
            np.testing.assert_allclose(res[b], alone_res[0], rtol=1e-12)

    def test_fringe_rounds_quick_polish_only_the_ranked_copies(self, layout_multi,
                                                             monkeypatch):
        calls = []
        polish = receiver._polish

        def logged(model, starts, hi, steps=receiver._VP_LM_STEPS):
            calls.append((len(starts), steps))
            return polish(model, starts, hi, steps)

        monkeypatch.setattr(receiver, "_polish", logged)
        obs, w, _ = random_multiband_obs(layout_multi, 21, (0, 0))
        estimate_paths_psols(obs, w, layout_multi, n_paths=2)
        quick = [i for i, (_, steps) in enumerate(calls)
                 if steps == receiver._VP_QUICK_STEPS]
        per_set = []
        for i in quick:
            # the next call fully polishes one winner per set still walking
            sets, steps = calls[i + 1]
            assert steps == receiver._VP_LM_STEPS
            per_set.append(calls[i][0] / sets)
        # one path has 8 fringe moves, two paths 80
        ranked = receiver._VP_RANKED
        assert set(per_set) == {min(ranked, 8), ranked}
        assert ranked < 80

    def test_multiband_baselines_end_no_fit_above_the_truth(self, layout_multi):
        schemes = baseline_schemes(layout_multi, 2, [127, 127], seed=1)
        out = run_extrapolation_sim(layout_multi, schemes, 15.0, trials=2, seed=77)
        for name, res in out.items():
            assert (res.fits, res.search_failures) == (8, 0), name


class TestExtrapolation:
    def test_exact_estimate_reproduces_channel(self, layout_multi):
        from pilotforge.receiver import PathEstimate
        delays = np.array([60e-9, 245e-9])
        gains = np.array([0.9 - 0.1j, 0.2 + 0.7j])
        est = PathEstimate(delays, gains, 0.0, 2)
        h = pf.channel_frequency_response(layout_multi, delays, gains)
        np.testing.assert_allclose(extrapolate_fullband(est, layout_multi), h,
                                   rtol=1e-12)

    def test_support_restriction_equals_model_fit(self, layout_single):
        from pilotforge.receiver import PathEstimate
        rng = np.random.default_rng(12)
        w = np.zeros(256)
        w[rng.permutation(256)[:100]] = 1
        est = PathEstimate(np.array([80e-9]), np.array([1.1 + 0j]), 0.0, 1)
        h_hat = extrapolate_fullband(est, layout_single)
        model = 1.1 * pf.steering_vector(layout_single, 80e-9)
        np.testing.assert_allclose(w * h_hat, w * model, rtol=1e-12)

    def test_delay_sensitivity_matches_finite_difference(self, layout_single):
        from pilotforge.receiver import PathEstimate
        tau = 120e-9
        eps = 1e-15
        up = extrapolate_fullband(
            PathEstimate(np.array([tau + eps]), np.array([1.0 + 0j]), 0.0, 1),
            layout_single)
        dn = extrapolate_fullband(
            PathEstimate(np.array([tau - eps]), np.array([1.0 + 0j]), 0.0, 1),
            layout_single)
        fd = (up - dn) / (2 * eps)
        f = layout_single.pinned_frequencies_hz
        analytic = -2j * np.pi * f * np.exp(-2j * np.pi * f * tau)
        np.testing.assert_allclose(fd, analytic, rtol=1e-5)


class TestNmse:
    def test_perfect_estimate_is_zero(self):
        h = {(0, 0): np.ones(8, dtype=complex)}
        assert nmse([h], [h]) == 0.0

    def test_zero_estimate_is_one(self):
        truth = {(0, 0): np.full(8, 2.0 + 1j)}
        est = {(0, 0): np.zeros(8, dtype=complex)}
        assert nmse([est], [truth]) == pytest.approx(1.0)

    def test_constant_relative_error(self):
        rng = np.random.default_rng(13)
        trials_est, trials_tru = [], []
        for t in range(3):
            tru, est = {}, {}
            for u in [(0, 0), (0, 1)]:
                h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
                e = rng.standard_normal(16) + 1j * rng.standard_normal(16)
                e *= np.sqrt(0.01 * np.sum(np.abs(h) ** 2) / np.sum(np.abs(e) ** 2))
                tru[u], est[u] = h, h + e
            trials_tru.append(tru)
            trials_est.append(est)
        assert nmse(trials_est, trials_tru) == pytest.approx(0.01, rel=1e-12)

    def test_zero_energy_truth_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            nmse([{(0, 0): np.ones(4)}], [{(0, 0): np.zeros(4)}])

    def test_mismatched_users_rejected(self):
        with pytest.raises(ValueError):
            nmse([{(0, 0): np.ones(4)}], [{(0, 1): np.ones(4)}])


class TestSimulationHarness:
    def test_paired_draws_and_failure_accounting(self, layout_single):
        schemes = baseline_schemes(layout_single, 2, [128, 128], seed=14)
        out = run_extrapolation_sim(layout_single, schemes, 15.0, trials=3,
                                    seed=15)
        for res in out.values():
            assert res.trials == 3
            assert len(res.per_trial) + res.failures == 3
            assert res.nmse == pytest.approx(np.mean(res.per_trial))

    def test_search_failures_counted_per_fit(self, layout_single):
        schemes = baseline_schemes(layout_single, 2, [128, 128], seed=14)
        out = run_extrapolation_sim(layout_single, schemes, 15.0, trials=2,
                                    seed=15)
        for res in out.values():
            assert res.fits == 4 * len(res.per_trial)  # 2 groups x 2 codes
            assert 0 <= res.search_failures <= res.fits

    def test_gate_past_unambiguous_range_is_not_a_counted_failure(self):
        # 64 subcarriers at 120 kHz repeat every 1/f_s = 8.33 us: a 10 us gate
        # is a setup error on every trial, not an estimation failure
        lay = pf.BandLayout.single(64, FS, 0.0)
        schemes = baseline_schemes(lay, 2, [16, 16], seed=1)
        with pytest.raises(ValueError, match="unambiguous"):
            run_extrapolation_sim(lay, schemes, 15.0, trials=2, tau_max_s=10e-6,
                                  seed=2)

    def test_unidentifiable_scheme_is_a_counted_failure(self):
        # 3 pilots per group cannot identify 2 paths (4 real unknowns each way):
        # every trial fails the same way, so the run ends with no trial left
        lay = pf.BandLayout.single(64, FS, 0.0)
        three = pf.PatternSet.from_indices(64, [[0, 20, 40], [10, 30, 50]])
        with pytest.raises(RuntimeError, match="every trial failed"):
            run_extrapolation_sim(lay, {"three": three}, 15.0, trials=2,
                                  seed=2)

    def test_trial_count_validated(self, layout_single):
        schemes = baseline_schemes(layout_single, 2, [128, 128], seed=16)
        with pytest.raises(ValueError):
            run_extrapolation_sim(layout_single, schemes, 15.0, trials=0)
