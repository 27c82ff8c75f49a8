import numpy as np
import pytest

import pilotforge as pf
from pilotforge import receiver
from pilotforge.receiver import (EstimationError, SimulationError, baseline_schemes,
                                 check_sim, decouple, estimate_paths_psols,
                                 extrapolate_fullband, nmse, path_residual,
                                 profile_peak_delays, run_extrapolation_sim)

import oracles
from conftest import user_responses

FS = 120e3
GATE = (0.0, 400e-9)


def full_pattern(n):
    return np.ones(n, dtype=np.uint8)


def sim_entry_points(layout, schemes):
    """run_extrapolation_sim and the settings check it makes first, each as
    (snr_db, trials, **settings) -> call."""
    def check(snr_db, trials, n_paths=2, tau_max_s=400e-9, min_separation_s=0.0, seed=0):
        check_sim(layout, snr_db, trials, n_paths, tau_max_s, min_separation_s)
    return [lambda *args, **kw: run_extrapolation_sim(layout, schemes, *args, **kw), check]


def single_user_obs(layout, delays, gains, w=None, noise_std=0.0, seed=0,
                    gate=GATE):
    w = full_pattern(layout.n_total) if w is None else w
    pats = pf.PatternSet(w[:, None])
    seqs = pf.orthogonal_sequence_family(layout.n_total, 1)
    h = pf.channel_frequency_response(layout, delays, gains)
    y = pf.synthesize_received(layout, pats, seqs, h[None, None], noise_std, seed=seed)
    return decouple(layout, y, w, seqs[0], gate)


def random_multiband_obs(layout_multi, trial, user):
    """A 15 dB observation of the random multiband baseline as
    run_extrapolation_sim(..., seed=77) draws it ("random" is scheme 1), its
    pattern column and the trial's (G, Z, P) path delays."""
    pats = baseline_schemes(layout_multi, 2, [127, 127], seed=1)["random"]
    delays, gains = pf.draw_channels(2, 2, 2, 400e-9, seed=np.random.SeedSequence(
        77, spawn_key=(1, trial)).generate_state(1)[0])
    seqs = pf.orthogonal_sequence_family(layout_multi.n_total, 2)
    y = pf.synthesize_received(layout_multi, pats, seqs,
                               user_responses(layout_multi, delays, gains), 10 ** (-15 / 20),
                               seed=np.random.SeedSequence(
                                   77, spawn_key=(2, trial, 1)).generate_state(1)[0])
    w = pats.column(user[0])
    return decouple(layout_multi, y, w, seqs[user[1]], GATE, user=user), w, delays


def column_observations(layout_single, layout_multi, band):
    """Observations of one pattern column, the column and the layout: a few
    15 dB observations, then an all-zero observation."""
    if band == "multi":
        column = [random_multiband_obs(layout_multi, trial, (0, 0)) for trial in (15, 21)]
        observations, w, layout = [obs for obs, _, _ in column], column[0][1], layout_multi
    else:
        layout = layout_single
        w = baseline_schemes(layout, 2, [128, 128], seed=3)["random"].column(0)
        observations = []
        for seed in range(4):
            delays, gains = pf.draw_channels(1, 1, 2, 400e-9, seed=seed)
            observations.append(single_user_obs(layout, delays[0, 0], gains[0, 0], w=w,
                                                noise_std=10 ** (-15 / 20), seed=100 + seed))
    seq = pf.orthogonal_sequence_family(layout.n_total, 1)[0]
    observations.append(decouple(layout, np.zeros(layout.n_total, dtype=complex), w, seq,
                                 GATE))
    return observations, w, layout


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
        h = user_responses(layout_single, [[[3 * binw], [7 * binw]]],
                           [[[1.2 - 0.5j], [0.3 + 0.9j]]])
        y = pf.synthesize_received(layout_single, pats, seqs, h, 0.0)
        for z in range(2):
            obs = decouple(layout_single, y, pats.column(0), seqs[z], GATE, (0, z))
            truth = h[0, z]
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
                h = user_responses(layout_single,
                                   *pf.draw_channels(2, 2, 2, 400e-9, seed=seed))[:1]
                h[0, 0] = 0.0  # only user (0, 1) transmits
                y = pf.synthesize_received(layout_single, pats, seqs, h, 0.0)
                obs = decouple(layout_single, y, pats.column(0), seqs[0], GATE)
                acc += float(np.sum(np.abs(obs.delay_gated) ** 2))
            totals[name] = acc
        assert totals["uniform"] < totals["random"]


def peak_inputs(seed):
    """Arrays that exercise every peak rule: random floats, small integers
    (plateaus and tied heights), runs of repeated levels (edge plateaus), and
    arrays too short to hold a peak."""
    rng = np.random.default_rng(seed)
    yield rng.standard_normal(rng.integers(50, 400)), 0.0
    yield rng.integers(0, 4, rng.integers(2, 80)).astype(float), 1.0
    levels = rng.integers(0, 3, rng.integers(1, 12))
    yield np.repeat(levels, rng.integers(1, 5, len(levels))).astype(float), 0.0
    yield rng.standard_normal(rng.integers(0, 3)), -np.inf


class TestPeakFinder:
    @pytest.mark.parametrize("distance", [1, 2, 3, 4, 5])
    def test_matches_scipy_find_peaks(self, distance):
        from scipy.signal import find_peaks
        for seed in range(200):
            for x, height in peak_inputs(1000 * distance + seed):
                idx, heights = receiver._peaks(x, height, distance)
                ref, props = find_peaks(x, height=height, distance=distance)
                np.testing.assert_array_equal(idx, ref)
                np.testing.assert_array_equal(heights, props["peak_heights"])

    def test_plateau_counts_once_at_its_middle_and_not_at_the_ends(self):
        x = np.array([2.0, 2.0, 0.0, 1.0, 3.0, 3.0, 3.0, 3.0, 1.0, 4.0, 4.0])
        idx, heights = receiver._peaks(x, 0.0)
        np.testing.assert_array_equal(idx, [5])
        np.testing.assert_array_equal(heights, [3.0])

    def test_distance_keeps_the_taller_and_height_filters_first(self):
        x = np.array([0.0, 1.0, 0.0, 5.0, 0.0, 2.0, 0.0, 0.5, 0.0])
        np.testing.assert_array_equal(receiver._peaks(x, 0.0, 3)[0], [3, 7])
        np.testing.assert_array_equal(receiver._peaks(x, 1.5, 3)[0], [3])
        assert len(receiver._peaks(x, 6.0, 2)[0]) == 0


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
            delays, _ = pf.draw_channels(1, 1, 2, 400e-9, seed=seed,
                                         min_separation_s=80e-9)
            gains = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))  # equal strength
            obs = single_user_obs(layout_single, delays[0, 0], gains,
                                  noise_std=10 ** (-15 / 20), seed=1000 + seed)
            hits += len(profile_peak_delays(obs)) == 2
        assert hits == 100

    def test_max_paths_cap(self, layout_single):
        rng = np.random.default_rng(4)
        delays = np.sort(rng.uniform(0, 380e-9, 10))
        gains = np.ones(10, dtype=complex)
        obs = single_user_obs(layout_single, delays, gains)
        assert len(profile_peak_delays(obs, max_paths=3)) <= 3

    @pytest.mark.parametrize("max_paths", [0, -2])
    def test_max_paths_must_be_positive(self, max_paths):
        # the cap is a slice of the ranked peaks, so 0 would keep none
        with pytest.raises(ValueError, match="max_paths"):
            receiver.PsoConfig(max_paths=max_paths)


class TestPsoLs:
    def test_noiseless_on_grid_path_recovered_exactly(self, layout_single):
        k = 4
        tau = k / (256 * FS)
        alpha = 0.8 + 0.6j
        obs = single_user_obs(layout_single, [tau], [alpha])
        est = estimate_paths_psols(obs, full_pattern(256), layout_single, n_paths=1)
        assert len(est.delays_s) == len(est.gains) == 1
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
        delays, gains = pf.draw_channels(1, 1, 2, 400e-9, seed=1)
        obs = single_user_obs(layout_multi, delays[0, 0], gains[0, 0], w=w,
                              noise_std=10 ** (-15 / 20), seed=1001)
        truth = delays[0, 0]
        est = estimate_paths_psols(obs, w, layout_multi, n_paths=2)
        assert est.residual <= path_residual(obs, w, truth)
        np.testing.assert_allclose(est.delays_s, truth, atol=1.25e-9)

    def test_path_residual_is_the_fitted_residual(self, layout_single):
        delays, gains = pf.draw_channels(1, 1, 2, 400e-9, seed=17)
        w = full_pattern(256)
        obs = single_user_obs(layout_single, delays[0, 0], gains[0, 0],
                              noise_std=0.1, seed=18)
        est = estimate_paths_psols(obs, w, layout_single, n_paths=2)
        assert path_residual(obs, w, est.delays_s) == pytest.approx(
            est.residual, rel=1e-9)

    def test_identifiability_guard(self, layout_single):
        w = np.zeros(256, dtype=np.uint8)
        w[:3] = 1
        obs = single_user_obs(layout_single, [50e-9], [1.0 + 0j], w=w)
        with pytest.raises(EstimationError, match="identify"):
            estimate_paths_psols(obs, w, layout_single, n_paths=2)

    @pytest.mark.parametrize("gate", [(1e-12, 2e-12), (0.0, 1e-12)], ids=["no-bin", "one-bin"])
    def test_one_path_needs_two_gate_bins(self, layout_single, gate):
        # a gate of no delay bin, or of one, cannot identify even one path's
        # delay and complex gain
        w = baseline_schemes(layout_single, 2, [128, 128], seed=1)["random"].column(0)
        seq = pf.orthogonal_sequence_family(256, 1)[0]
        rng = np.random.default_rng(1)
        y = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        obs = decouple(layout_single, y, w, seq, gate)
        assert len(obs.gate_bins) == (1 if gate[0] == 0.0 else 0)
        with pytest.raises(EstimationError, match="identify 1 path"):
            estimate_paths_psols(obs, w, layout_single, n_paths=1)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_explicit_path_count_must_be_positive(self, layout_single, n_paths):
        # a setup error, not an EstimationError the simulator would count
        obs = single_user_obs(layout_single, [50e-9, 150e-9], [1.0 + 0j, 0.5j])
        with pytest.raises(ValueError, match="n_paths") as err:
            estimate_paths_psols(obs, full_pattern(256), layout_single, n_paths=n_paths)
        assert type(err.value) is ValueError

    def test_seed_has_no_effect(self, layout_single):
        delays, gains = pf.draw_channels(1, 1, 2, 400e-9, seed=9)
        obs = single_user_obs(layout_single, delays[0, 0], gains[0, 0],
                              noise_std=0.1, seed=10)
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
        assert len(est.delays_s) == len(est.gains) == 2
        assert est.residual == 0.0

    @pytest.mark.parametrize("trial,user", [(15, (0, 0)), (21, (0, 0)), (44, (1, 0))],
                             ids=["t15-u00", "t21-u00", "t44-u10"])
    def test_hard_multiband_fit_reaches_the_truth(self, layout_multi, trial, user):
        # 15 dB fits of the random multiband baseline whose paths can settle
        # 3-8 |chi| fringes off, rebuilt with the seeds that
        # run_extrapolation_sim(..., seed=77) gives them ("random" is scheme 1
        # of the sorted optimized/random/uniform)
        obs, w, delays = random_multiband_obs(layout_multi, trial, user)
        est = estimate_paths_psols(obs, w, layout_multi, n_paths=2)
        assert est.residual <= path_residual(obs, w, delays[user])


class TestSearchStages:
    def test_grid_columns_match_the_direct_transform(self, layout_multi):
        obs, w, _ = random_multiband_obs(layout_multi, 15, (0, 0))
        model = receiver._GatedModel([obs], np.flatnonzero(w))
        step = obs.delay_bin_s / receiver._VP_OVERSAMPLE
        grid = np.arange(0.0, GATE[1] + 0.5 * step, step)
        direct = model.columns(grid[:, None])[:, :, 0].T
        fast = model.grid_columns(receiver._VP_OVERSAMPLE, len(grid))
        assert fast.shape == direct.shape
        np.testing.assert_allclose(fast, direct, rtol=0, atol=1e-12 * np.abs(direct).max())

    def test_linearized_gradient_matches_finite_differences(self, layout_multi):
        obs, w, truth = random_multiband_obs(layout_multi, 15, (0, 0))
        model = receiver._GatedModel([obs], np.flatnonzero(w))
        delays = truth[0, 0][None, :] + [[0.3e-9, -0.2e-9]]
        row = np.zeros(1, dtype=int)
        res, _, grad = model.linearize(delays, row)
        assert res[0] == pytest.approx(model.fit(delays, row)[1][0], rel=1e-12)
        eps = 1e-15
        for k in range(2):
            shift = np.zeros((1, 2))
            shift[0, k] = eps
            fd = (model.fit(delays + shift, row)[1][0]
                  - model.fit(delays - shift, row)[1][0]) / (2 * eps)
            # the residual falls along +grad: d|r|^2/dtau = -2 Re(D^H r)
            assert -2 * grad[0, k] == pytest.approx(fd, rel=1e-5)

    def test_settled_stack_rows_match_rows_settled_alone(self, layout_multi):
        # both codes of one column in one stack; each row settled alone, on a
        # model of its own observation only, must end where it does stacked
        column = [random_multiband_obs(layout_multi, 15, (0, z)) for z in range(2)]
        observations = [obs for obs, _, _ in column]
        obs, w, delays = column[0]
        support = np.flatnonzero(w)
        model = receiver._GatedModel(observations, support)
        step = obs.delay_bin_s / receiver._VP_OVERSAMPLE
        offsets = receiver._fringe_offsets(model.f_grid, step / receiver._VP_OVERSAMPLE,
                                           8 * obs.delay_bin_s)
        moves = receiver._fringe_moves(offsets, 2)
        assert len(moves) == 80
        starts, owner = [], []
        for m, o in enumerate(observations):
            truth = delays[0, m]
            starts += [truth, truth + [0.0, 3 * offsets[0]], [20e-9, 300e-9],
                       np.resize(profile_peak_delays(o), 2), [150e-9, 151e-9]]
            owner += [m] * 5
        starts, owner = np.array(starts), np.array(owner)
        delays, res = receiver._settle(model, owner, starts, moves, GATE[1])
        for b, start in enumerate(starts):
            own = receiver._GatedModel([observations[owner[b]]], support)
            alone, alone_res = receiver._settle(own, np.zeros(1, dtype=int), start[None, :],
                                                moves, GATE[1])
            np.testing.assert_allclose(delays[b], alone[0], rtol=1e-12)
            np.testing.assert_allclose(res[b], alone_res[0], rtol=1e-12)

    def test_fringe_rounds_quick_polish_only_the_ranked_copies(self, layout_multi,
                                                             monkeypatch):
        calls = []
        polish = receiver._polish

        def logged(model, obs, starts, hi, steps=receiver._VP_LM_STEPS, start=None):
            calls.append((len(starts), steps))
            return polish(model, obs, starts, hi, steps, start)

        monkeypatch.setattr(receiver, "_polish", logged)
        # two observations of one column, fitted as one stack
        stack = [random_multiband_obs(layout_multi, trial, (0, 0)) for trial in (21, 15)]
        estimate_paths_psols([obs for obs, _, _ in stack], stack[0][1], layout_multi,
                             n_paths=2)
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

    @pytest.mark.parametrize("band", ["single", "multi"])
    def test_extensions_match_the_projected_grid_ranking(self, layout_single, layout_multi,
                                                         band, monkeypatch):
        observations, w, _ = column_observations(layout_single, layout_multi, band)
        obs = observations[0]
        model = receiver._GatedModel([obs], np.flatnonzero(w))
        # the fine grid, its columns and the peak spacing, as _refine builds them
        step = obs.delay_bin_s / receiver._VP_OVERSAMPLE
        grid = np.arange(0.0, GATE[1] + 0.5 * step, step)
        offsets = receiver._fringe_offsets(model.f_grid, step / receiver._VP_OVERSAMPLE,
                                           8 * obs.delay_bin_s)
        spacing = int(np.ceil(offsets.max() / step)) + 1 if len(offsets) else 1
        cols = model.grid_columns(receiver._VP_OVERSAMPLE, len(grid))
        norms = np.sum(np.abs(cols) ** 2, axis=0)
        # kept sets of 0, 1 and 2 paths, and a beam that has ended
        beams = [np.empty((1, 0)), np.array([[40.3e-9], [123.4e-9], [301.7e-9]]),
                 np.array([[40.3e-9, 123.4e-9], [80.6e-9, 250.1e-9]]), np.empty((0, 1))]
        target = model.targets[0]
        expected = [oracles.extensions_projected(model, target, beam, grid, cols, spacing)
                    for beam in beams]
        assert [len(ext) for ext, _ in expected] == [3, 3, 3, 0]
        costs = []
        peaks = receiver._peaks

        def logged(x, *args):
            costs.append(x[1:-1])
            return peaks(x, *args)

        monkeypatch.setattr(receiver, "_peaks", logged)
        for beam, (ext, gains) in zip(beams, expected):
            costs.clear()
            got = receiver._extensions(model, target, beam, grid, cols, norms, spacing)
            assert len(got) == len(ext)
            for a, b in zip(got, ext):
                np.testing.assert_array_equal(a, b)
            assert len(costs) == len(gains) == len(beam)
            for a, b in zip(costs, gains):
                np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_polish_from_the_ranking_linearization_equals_a_fresh_start(self, layout_multi):
        # both codes of one column: every fringe-moved copy of each code's true
        # delays is ranked in one stack, and the best-ranked copies of each are
        # polished from the ranking's linearization and from a fresh one
        column = [random_multiband_obs(layout_multi, 15, (0, z)) for z in range(2)]
        observations = [obs for obs, _, _ in column]
        obs, w, delays = column[0]
        model = receiver._GatedModel(observations, np.flatnonzero(w))
        step = obs.delay_bin_s / receiver._VP_OVERSAMPLE
        offsets = receiver._fringe_offsets(model.f_grid, step / receiver._VP_OVERSAMPLE,
                                           8 * obs.delay_bin_s)
        moves = receiver._fringe_moves(offsets, 2)
        copies = np.clip(delays[0][:, None, :] + moves[None], 0.0, GATE[1]).reshape(-1, 2)
        owner = np.repeat([0, 1], len(moves))
        predicted, *lin = receiver._predicted(model, owner, copies)
        top = np.argsort(predicted.reshape(2, -1), axis=1, kind="stable")[:, :receiver._VP_RANKED]
        flat = (top + len(moves) * np.arange(2)[:, None]).ravel()
        for steps in (receiver._VP_QUICK_STEPS, receiver._VP_LM_STEPS):
            fresh = receiver._polish(model, owner[flat], copies[flat], GATE[1], steps)
            started = receiver._polish(model, owner[flat], copies[flat], GATE[1], steps,
                                       tuple(part[flat] for part in lin))
            np.testing.assert_array_equal(started[0], fresh[0])
            np.testing.assert_array_equal(started[1], fresh[1])

    @pytest.mark.parametrize("band", ["single", "multi"])
    def test_sequence_fit_equals_each_observation_fitted_alone(self, layout_single,
                                                              layout_multi, band):
        # an all-zero observation stops its beam at the first stage and falls
        # back to its profile start, while the other rows run the whole beam
        observations, w, layout = column_observations(layout_single, layout_multi, band)
        stacked = estimate_paths_psols(observations, w, layout, n_paths=2)
        assert len(stacked) == len(observations)
        assert stacked[-1].residual == 0.0
        for obs, est in zip(observations, stacked):
            alone = estimate_paths_psols(obs, w, layout, n_paths=2)
            np.testing.assert_allclose(est.delays_s, alone.delays_s, rtol=1e-12)
            np.testing.assert_allclose(est.gains, alone.gains, rtol=1e-12)
            np.testing.assert_allclose(est.residual, alone.residual, rtol=1e-12)

    @pytest.mark.parametrize("band", ["single", "multi"])
    def test_sequence_residuals_equal_the_per_observation_calls(self, layout_single,
                                                               layout_multi, band):
        observations, w, _ = column_observations(layout_single, layout_multi, band)
        delays = np.array([[40e-9 + 10e-9 * m, 250e-9] for m in range(len(observations))])
        stacked = path_residual(observations, w, delays)
        assert stacked.shape == (len(observations),)
        np.testing.assert_allclose(
            stacked, [path_residual(o, w, d) for o, d in zip(observations, delays)],
            rtol=1e-12)

    def test_sequence_needs_a_path_count_and_one_gate(self, layout_single, layout_multi):
        observations, w, layout = column_observations(layout_single, layout_multi, "single")
        with pytest.raises(TypeError, match="n_paths"):  # a required keyword
            estimate_paths_psols(observations, w, layout)
        seq = pf.orthogonal_sequence_family(layout.n_total, 1)[0]
        wider = decouple(layout, np.zeros(layout.n_total, dtype=complex), w, seq, (0.0, 500e-9))
        with pytest.raises(ValueError, match="share the gate"):
            estimate_paths_psols(observations + [wider], w, layout, n_paths=2)
        with pytest.raises(ValueError, match="share the gate"):
            path_residual(observations + [wider], w, np.zeros((len(observations) + 1, 2)))

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
        est = PathEstimate(delays, gains, 0.0)
        h = pf.channel_frequency_response(layout_multi, delays, gains)
        np.testing.assert_allclose(extrapolate_fullband(est, layout_multi), h,
                                   rtol=1e-12)

    def test_support_restriction_equals_model_fit(self, layout_single):
        from pilotforge.receiver import PathEstimate
        rng = np.random.default_rng(12)
        w = np.zeros(256)
        w[rng.permutation(256)[:100]] = 1
        est = PathEstimate(np.array([80e-9]), np.array([1.1 + 0j]), 0.0)
        h_hat = extrapolate_fullband(est, layout_single)
        model = pf.channel_frequency_response(layout_single, [80e-9], [1.1])
        np.testing.assert_allclose(w * h_hat, w * model, rtol=1e-12)

    def test_delay_sensitivity_matches_finite_difference(self, layout_single):
        from pilotforge.receiver import PathEstimate
        tau = 120e-9
        eps = 1e-15
        up = extrapolate_fullband(
            PathEstimate(np.array([tau + eps]), np.array([1.0 + 0j]), 0.0),
            layout_single)
        dn = extrapolate_fullband(
            PathEstimate(np.array([tau - eps]), np.array([1.0 + 0j]), 0.0),
            layout_single)
        fd = (up - dn) / (2 * eps)
        f = layout_single.pinned_frequencies_hz
        analytic = -2j * np.pi * f * np.exp(-2j * np.pi * f * tau)
        np.testing.assert_allclose(fd, analytic, rtol=1e-5)


class TestNmse:
    def test_perfect_estimate_is_zero(self):
        h = np.ones((1, 1, 8), dtype=complex)
        assert nmse(h, h) == 0.0

    def test_zero_estimate_is_one(self):
        truth = np.full((1, 1, 8), 2.0 + 1j)
        assert nmse(np.zeros_like(truth), truth) == pytest.approx(1.0)

    def test_constant_relative_error(self):
        # three trials of two users, every row 1% off
        rng = np.random.default_rng(13)
        h = rng.standard_normal((3, 2, 16)) + 1j * rng.standard_normal((3, 2, 16))
        e = rng.standard_normal((3, 2, 16)) + 1j * rng.standard_normal((3, 2, 16))
        e *= np.sqrt(0.01 * np.sum(np.abs(h) ** 2, axis=-1, keepdims=True)
                     / np.sum(np.abs(e) ** 2, axis=-1, keepdims=True))
        assert nmse(h + e, h) == pytest.approx(0.01, rel=1e-12)

    def test_mean_of_per_row_ratios(self):
        # rows scored 0.04 and 0.16 average to 0.1; pooling their energies
        # would give about 0.159
        truth = np.array([[1.0, 1.0], [10.0, 10.0]])
        assert nmse(truth * [[1.2], [0.6]], truth) == pytest.approx(0.1, rel=1e-12)

    def test_zero_energy_truth_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            nmse(np.ones((2, 4)), np.array([np.ones(4), np.zeros(4)]))

    def test_mismatched_users_rejected(self):
        with pytest.raises(ValueError, match="equal-shaped"):
            nmse(np.ones((1, 2, 4)), np.ones((1, 1, 4)))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            nmse(np.ones((0, 4)), np.ones((0, 4)))


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

    def test_linalg_error_fails_only_its_trial(self, layout_single, monkeypatch):
        # a singular solve on one observation must cost its own trial only,
        # although the observation is fitted in a stack with the other trials'
        schemes = baseline_schemes(layout_single, 2, [128, 128], seed=14)
        base = run_extrapolation_sim(layout_single, schemes, 15.0, trials=3, seed=15)
        bad_column, bad_user, bad_trial = schemes["random"].column(0).tobytes(), (0, 1), 1
        seen: dict = {}
        bad: list = []
        stacked_raises = []
        decouple_fn, fit_fn = receiver.decouple, receiver.estimate_paths_psols

        def tagged(layout, y, w, x, gate_s, user=(0, 0)):
            obs = decouple_fn(layout, y, w, x, gate_s, user)
            # a column's calls for one user come in trial order
            key = (np.asarray(w).tobytes(), tuple(user))
            trial = seen[key] = seen.get(key, -1) + 1
            if key == (bad_column, bad_user) and trial == bad_trial:
                bad.append(obs)
            return obs

        def singular(obs, *args, **kwargs):
            stack = [obs] if isinstance(obs, receiver.DecoupledObservation) else list(obs)
            if any(o is b for o in stack for b in bad):
                stacked_raises.append(len(stack) > 1)
                raise np.linalg.LinAlgError("singular")
            return fit_fn(obs, *args, **kwargs)

        monkeypatch.setattr(receiver, "decouple", tagged)
        monkeypatch.setattr(receiver, "estimate_paths_psols", singular)
        out = run_extrapolation_sim(layout_single, schemes, 15.0, trials=3, seed=15)
        assert len(bad) == 1 and stacked_raises[0] and not stacked_raises[-1]
        hit = out["random"]
        assert hit.failures == 1
        # fits counts every completed fit: the two whole trials' 4 users each,
        # and the 3 users of the failed trial other than the failed (0, 1)
        assert hit.fits == 2 * 4 + 3
        np.testing.assert_array_equal(
            hit.per_trial, np.delete(base["random"].per_trial, bad_trial))
        assert hit.nmse == np.mean(hit.per_trial)
        a, b = out["uniform"], base["uniform"]
        assert (a.nmse, a.failures, a.fits, a.search_failures) == (
            b.nmse, b.failures, b.fits, b.search_failures)
        np.testing.assert_array_equal(a.per_trial, b.per_trial)

    def test_gate_past_unambiguous_range_is_not_a_counted_failure(self):
        # 64 subcarriers at 120 kHz repeat every 1/f_s = 8.33 us: a 10 us gate
        # is a setup error on every trial, not an estimation failure
        lay = pf.BandLayout.single(64, FS, 0.0)
        schemes = baseline_schemes(lay, 2, [16, 16], seed=1)
        for call in sim_entry_points(lay, schemes):
            with pytest.raises(ValueError, match="unambiguous"):
                call(15.0, trials=2, tau_max_s=10e-6, seed=2)

    def test_unidentifiable_scheme_is_a_counted_failure(self):
        # 3 pilots per group cannot identify 2 paths (4 real unknowns each way):
        # every trial fails the same way, so the run ends with no trial left
        lay = pf.BandLayout.single(64, FS, 0.0)
        three = pf.PatternSet.from_indices(64, [[0, 20, 40], [10, 30, 50]])
        with pytest.raises(SimulationError, match="every trial failed for scheme 'three'"):
            run_extrapolation_sim(lay, {"three": three}, 15.0, trials=2,
                                  seed=2)

    @pytest.mark.parametrize("snr_db", [-np.inf, np.nan])
    def test_snr_must_be_a_number_or_plus_inf(self, snr_db):
        # +inf means noiseless; -inf (infinite noise) and NaN have no meaning
        lay = pf.BandLayout.single(64, FS, 0.0)
        schemes = baseline_schemes(lay, 2, [16, 16], seed=1)
        for call in sim_entry_points(lay, schemes):
            with pytest.raises(ValueError, match="snr_db"):
                call(snr_db, trials=1, seed=2)

    def test_trial_count_validated(self, layout_single):
        schemes = baseline_schemes(layout_single, 2, [128, 128], seed=16)
        for call in sim_entry_points(layout_single, schemes):
            with pytest.raises(ValueError):
                call(15.0, trials=0)
