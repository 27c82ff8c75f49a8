import numpy as np
import pytest

import pilotforge as pf
from pilotforge.waveform import check_path_draw, largest_prime_leq

from conftest import user_responses
from oracles import steering_scalar_loop, zc_reference

FS = 120e3


class TestZadoffChu:
    def test_constant_modulus(self):
        seq = pf.make_zc_sequence(16, 1, 0)
        np.testing.assert_allclose(np.abs(seq.values), 1.0, atol=1e-14)

    def test_cyclic_shifts_orthogonal(self):
        base = pf.make_zc_sequence(16, 1, 0)
        shifted = pf.make_zc_sequence(16, 1, 4)
        inner = np.vdot(base.values, shifted.values)
        assert abs(inner) < 1e-12

    def test_prime_length_matches_reference_table(self):
        # 257 is prime, so the cyclic extension is the identity
        seq = pf.make_zc_sequence(257, 2, 0)
        np.testing.assert_allclose(seq.values, zc_reference(257, 2), atol=1e-12)

    def test_cyclic_extension(self):
        seq = pf.make_zc_sequence(16, 1, 0)
        np.testing.assert_allclose(seq.values[13:], seq.values[:3], atol=1e-14)

    def test_invalid_root_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            pf.make_zc_sequence(16, 13, 0)  # largest prime <= 16 is 13

    def test_shift_outside_range_rejected(self):
        with pytest.raises(ValueError):
            pf.make_zc_sequence(16, 1, 16)

    def test_orthogonality_holds_for_any_constant_modulus_sequence(self):
        # the delay-domain multiplexing only relies on sum(e^{j gamma n}) = 0
        rng = np.random.default_rng(3)
        values = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        for k in (1, 7, 32, 63):
            gamma = 2 * np.pi * k / 64
            inner = np.vdot(values, np.exp(1j * gamma * np.arange(64)) * values)
            assert abs(inner) < 1e-12

    def test_family_shift_spacing(self):
        fam = pf.orthogonal_sequence_family(256, 4)
        # sequence z is the base sequence times the ramp e^{j 2 pi k_z n / 256}
        ramps = [np.angle(s.values[1] / fam[0].values[1]) for s in fam]
        assert [round(r * 256 / (2 * np.pi)) % 256 for r in ramps] == [0, 64, 128, 192]
        for a in range(4):
            for b in range(a + 1, 4):
                assert abs(np.vdot(fam[a].values, fam[b].values)) < 1e-10

    def test_largest_prime(self):
        assert largest_prime_leq(16) == 13
        assert largest_prime_leq(257) == 257
        assert largest_prime_leq(128) == 127


class TestBandLayout:
    def test_single_band_indexing(self):
        lay = pf.BandLayout.single(8, FS, 1e9)
        np.testing.assert_array_equal(lay.local_index, np.arange(8))
        np.testing.assert_allclose(lay.pinned_frequencies_hz, np.arange(8) * FS)
        np.testing.assert_allclose(lay.frequencies_hz, 1e9 + np.arange(8) * FS)

    def test_multiband_centered_indexing(self):
        lay = pf.BandLayout.multiband(
            [pf.Subband(1e9, FS, 5), pf.Subband(2e9, FS, 7)])
        np.testing.assert_array_equal(lay.local_index[:5], np.arange(-2, 3))
        np.testing.assert_array_equal(lay.local_index[5:], np.arange(-3, 4))
        assert lay.pinned_frequencies_hz[2] == 0.0
        assert np.all(np.diff(lay.frequencies_hz) > 0)

    def test_channel_frequencies_are_pinned_in_single_band_only(self, layout_single,
                                                                layout_multi):
        # the receiver restores its fitted gains to the first of these, which
        # must be exactly 0 Hz in single band
        assert layout_single.channel_frequencies_hz is layout_single.pinned_frequencies_hz
        assert layout_single.channel_frequencies_hz[0] == 0.0
        assert layout_multi.channel_frequencies_hz is layout_multi.frequencies_hz

    def test_multiband_requires_odd_counts(self):
        with pytest.raises(ValueError, match="odd"):
            pf.BandLayout.multiband([pf.Subband(1e9, FS, 4), pf.Subband(2e9, FS, 5)])

    def test_multiband_requires_two_bands(self):
        with pytest.raises(ValueError):
            pf.BandLayout(subbands=(pf.Subband(1e9, FS, 5),), mode="multi")

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            pf.BandLayout.multiband(
                [pf.Subband(1e9, FS, 101), pf.Subband(1e9 + 20 * FS, FS, 101)])

    @pytest.mark.parametrize("center,spacing,message", [
        (np.inf, FS, "center"), (np.nan, FS, "center"), (-np.inf, FS, "center"),
        (1e9, np.nan, "spacing"), (1e9, np.inf, "spacing")])
    def test_non_finite_subband_rejected(self, center, spacing, message):
        with pytest.raises(ValueError, match=message):
            pf.Subband(center, spacing, 5)
        with pytest.raises(ValueError, match=message):
            pf.BandLayout.single(5, spacing, center)

    def test_single_band_needs_one_subband(self):
        with pytest.raises(ValueError):
            pf.BandLayout(subbands=(pf.Subband(1e9, FS, 4), pf.Subband(2e9, FS, 4)),
                          mode="single")


def one_path(layout, tau_s):
    """Channel of a single unit-gain path: the steering vector of tau_s."""
    return pf.channel_frequency_response(layout, [tau_s], [1.0])


class TestSteering:
    def test_zero_delay_is_all_ones(self, layout_single):
        np.testing.assert_allclose(one_path(layout_single, 0.0), 1.0)

    def test_quarter_cycle_steps(self):
        lay = pf.BandLayout.single(4, FS, 0.0)
        tau = 1.0 / (4 * FS)
        expected = np.array([1, -1j, -1, 1j])
        np.testing.assert_allclose(one_path(lay, tau), expected, atol=1e-12)

    def test_multiband_against_scalar_loop(self, layout_multi):
        tau = 100e-9
        got = one_path(layout_multi, tau)
        ref = steering_scalar_loop(layout_multi.frequencies_hz, tau)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_conjugate_symmetry_identity(self, layout_single):
        # a(t1)* o a(t2) = a(t2 - t1) elementwise in single-band mode
        t1, t2 = 120e-9, 310e-9
        lhs = np.conj(one_path(layout_single, t1)) * one_path(layout_single, t2)
        np.testing.assert_allclose(lhs, one_path(layout_single, t2 - t1), rtol=1e-10)

    def test_nonfinite_delay_rejected(self, layout_single):
        for tau in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                one_path(layout_single, tau)
            with pytest.raises(ValueError, match="finite"):
                pf.channel_frequency_response(layout_single, [10e-9, tau], [1.0, 1.0])


class TestPatternSet:
    def test_row_overlap_rejected(self):
        mask = np.zeros((4, 2), dtype=int)
        mask[1] = [1, 1]
        with pytest.raises(ValueError, match="at most 1"):
            pf.PatternSet(mask)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            pf.PatternSet(np.full((4, 1), 2))

    @pytest.mark.parametrize("bad", [0.5, np.nan, -1.0, 1.0 + 1e-12])
    def test_one_non_binary_cell_rejected(self, bad):
        mask = np.zeros((4, 2))
        mask[0, 0] = 1.0
        mask[2, 1] = bad
        with pytest.raises(ValueError, match="binary"):
            pf.PatternSet(mask)

    def test_repeated_index_rejected(self):
        pats = pf.PatternSet.from_indices(8, [[0, 3], [5]])
        assert pats.budgets.tolist() == [2, 1]
        with pytest.raises(ValueError, match="group 1 lists a subcarrier index twice"):
            pf.PatternSet.from_indices(8, [[0, 3], [5, 6, 5]])

    @pytest.mark.parametrize("dtype", [bool, np.uint8, int, float])
    def test_binary_mask_of_any_dtype_accepted(self, dtype):
        mask = np.array([[1, 0], [0, 1], [0, 0]], dtype=dtype)
        pats = pf.PatternSet(mask)
        assert pats.mask.dtype == np.uint8
        np.testing.assert_array_equal(pats.mask, mask.astype(np.uint8))

    def test_uniform_is_contiguous_blocks(self, layout_single):
        pats = pf.uniform_patterns(layout_single, 2, [128, 128])
        np.testing.assert_array_equal(np.flatnonzero(pats.column(0)), np.arange(128))
        np.testing.assert_array_equal(np.flatnonzero(pats.column(1)),
                                      np.arange(128, 256))

    def test_uniform_even_spacing_inside_segment(self):
        lay = pf.BandLayout.single(16, FS, 0.0)
        pats = pf.uniform_patterns(lay, 2, [4, 4])
        np.testing.assert_array_equal(np.flatnonzero(pats.column(0)), [0, 2, 4, 6])
        np.testing.assert_array_equal(np.flatnonzero(pats.column(1)), [8, 10, 12, 14])

    def test_random_budgets_and_disjointness(self, layout_single):
        pats = pf.random_patterns(layout_single, 2, [100, 120], seed=4)
        assert pats.budgets.tolist() == [100, 120]
        assert pats.mask.sum(axis=1).max() == 1

    def test_random_seed_reproducible(self, layout_single):
        a = pf.random_patterns(layout_single, 2, [128, 128], seed=9)
        b = pf.random_patterns(layout_single, 2, [128, 128], seed=9)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_random_budget_overflow_rejected(self, layout_single):
        with pytest.raises(ValueError):
            pf.random_patterns(layout_single, 2, [200, 200], seed=0)


class TestChannels:
    def test_draw_within_window_and_reproducible(self):
        delays, gains = pf.draw_channels(2, 2, 3, 400e-9, seed=5)
        assert delays.shape == gains.shape == (2, 2, 3)
        assert np.all(delays >= 0) and np.all(delays <= 400e-9)
        assert np.all(np.diff(delays, axis=-1) >= 0)
        again = pf.draw_channels(2, 2, 3, 400e-9, seed=5)
        np.testing.assert_array_equal(delays, again[0])
        np.testing.assert_array_equal(gains, again[1])

    def test_draws_run_user_by_user(self):
        # user (g, z) in row-major order takes its sorted delays, then the
        # real and imaginary parts of its gains, from one generator
        delays, gains = pf.draw_channels(2, 3, 2, 400e-9, seed=21)
        rng = np.random.default_rng(21)
        for g, z in np.ndindex(2, 3):
            np.testing.assert_array_equal(delays[g, z], np.sort(rng.uniform(0.0, 400e-9, 2)))
            re, im = rng.standard_normal(2), rng.standard_normal(2)
            np.testing.assert_array_equal(gains[g, z], (re + 1j * im) / np.sqrt(2.0))

    def test_min_separation_enforced(self):
        delays, _ = pf.draw_channels(2, 2, 2, 400e-9, seed=5, min_separation_s=60e-9)
        assert np.all(np.diff(delays, axis=-1) >= 60e-9)

    @pytest.mark.parametrize("separation", [np.nan, np.inf, -1e-9])
    def test_bad_min_separation_rejected(self, separation):
        # one path has no adjacent pair, so no redraw loop would catch it
        for n_paths in (1, 2):
            with pytest.raises(ValueError, match="minimum separation"):
                pf.draw_channels(1, 1, n_paths, 400e-9, min_separation_s=separation)
            with pytest.raises(ValueError, match="minimum separation"):
                check_path_draw(n_paths, 400e-9, separation)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_path_count_must_be_positive(self, n_paths):
        # without the check, numpy failed on the empty or negative delay draw
        with pytest.raises(ValueError, match="n_paths"):
            pf.draw_channels(1, 1, n_paths, 400e-9)
        with pytest.raises(ValueError, match="n_paths"):
            check_path_draw(n_paths, 400e-9, 0.0)

    def test_seed_is_keyword_only(self):
        # the draw once took a noise level fifth; a call in that form must fail
        with pytest.raises(TypeError):
            pf.draw_channels(2, 2, 3, 400e-9, 0.1, 5)


def one_user(layout, delays, gains):
    """(1, 1, N) response stack of a single user."""
    return pf.channel_frequency_response(layout, delays, gains)[None, None]


class TestSynthesis:
    def test_identity_channel(self, layout_single):
        pats = pf.PatternSet(np.ones((256, 1), dtype=np.uint8))
        seqs = [pf.PilotSequence(np.ones(256, dtype=complex))]
        y = pf.synthesize_received(layout_single, pats, seqs,
                                   one_user(layout_single, [0.0], [1.0]), 0.0)
        np.testing.assert_allclose(y, 1.0, atol=1e-14)

    def test_two_path_scalar_loop(self, layout_single):
        pats = pf.PatternSet(np.ones((256, 1), dtype=np.uint8))
        seqs = [pf.PilotSequence(np.ones(256, dtype=complex))]
        delays = np.array([80e-9, 230e-9])
        gains = np.array([1.1 - 0.2j, -0.4 + 0.9j])
        y = pf.synthesize_received(layout_single, pats, seqs,
                                   one_user(layout_single, delays, gains), 0.0)
        n = np.arange(256)
        ref = sum(g * np.exp(-2j * np.pi * n * FS * t) for g, t in zip(gains, delays))
        np.testing.assert_allclose(y, ref, rtol=1e-12)

    def test_disjoint_masks_do_not_mix(self, layout_single):
        pats = pf.uniform_patterns(layout_single, 2, [128, 128])
        seqs = pf.orthogonal_sequence_family(256, 1)
        h = user_responses(layout_single, [[[50e-9]], [[90e-9]]], [[[1.0]], [[2.0]]])
        y = pf.synthesize_received(layout_single, pats, seqs, h, 0.0)
        sup1 = pats.column(0) != 0
        y_only_g0 = pf.synthesize_received(layout_single, pats, seqs, h[:1], 0.0)
        np.testing.assert_allclose(y[sup1], y_only_g0[sup1], rtol=1e-12)

    def test_noise_seed_reproducible_and_scaled(self, layout_single):
        pats = pf.uniform_patterns(layout_single, 2, [128, 128])
        seqs = pf.orthogonal_sequence_family(256, 2)
        h = user_responses(layout_single, *pf.draw_channels(2, 2, 2, 400e-9, seed=1))
        y1 = pf.synthesize_received(layout_single, pats, seqs, h, 0.5, seed=42)
        y2 = pf.synthesize_received(layout_single, pats, seqs, h, 0.5, seed=42)
        np.testing.assert_array_equal(y1, y2)
        y0 = pf.synthesize_received(layout_single, pats, seqs, h, 0.0, seed=42)
        noise = y1 - y0
        assert 0.3 < np.std(noise) < 0.7  # sigma = 0.5 per complex element

    def test_parseval_against_ambiguity_module(self, layout_single):
        # ||y||^2 == sum_{k,k'} a_k a_k'^* chi(tau_k' - tau_k) for noiseless y
        rng = np.random.default_rng(8)
        w = np.zeros(256, dtype=np.uint8)
        w[np.sort(rng.permutation(256)[:100])] = 1
        pats = pf.PatternSet(w[:, None])
        seqs = pf.orthogonal_sequence_family(256, 1)
        delays = np.sort(rng.uniform(0, 400e-9, 3))
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = pf.synthesize_received(layout_single, pats, seqs,
                                   one_user(layout_single, delays, gains), 0.0)
        acc = 0.0
        for k in range(3):
            for kp in range(3):
                acc += gains[k] * np.conj(gains[kp]) * pf.ambiguity_function(
                    layout_single, w, delays[k] - delays[kp])
        np.testing.assert_allclose(np.sum(np.abs(y) ** 2), acc.real, rtol=1e-9)
        assert abs(acc.imag) < 1e-9 * abs(acc.real)

    def test_dimension_mismatch_rejected(self, layout_single):
        pats = pf.PatternSet(np.ones((128, 1), dtype=np.uint8))
        seqs = pf.orthogonal_sequence_family(256, 1)
        with pytest.raises(ValueError):
            pf.synthesize_received(layout_single, pats, seqs,
                                   one_user(layout_single, [0.0], [1.0]), 0.0)

    @pytest.mark.parametrize("shape", [(256,), (1, 256), (2, 1, 256), (1, 2, 256),
                                       (1, 1, 128)])
    def test_response_stack_shape_checked(self, layout_single, shape):
        # one group, one code: a stack must be (G', Z', 256) with G', Z' <= 1
        pats = pf.PatternSet(np.ones((256, 1), dtype=np.uint8))
        seqs = pf.orthogonal_sequence_family(256, 1)
        with pytest.raises(ValueError, match="responses"):
            pf.synthesize_received(layout_single, pats, seqs, np.ones(shape, complex), 0.0)

    @pytest.mark.parametrize("noise_std", [-0.1, np.inf, np.nan])
    def test_noise_std_must_be_non_negative_and_finite(self, layout_single, noise_std):
        pats = pf.PatternSet(np.ones((256, 1), dtype=np.uint8))
        seqs = pf.orthogonal_sequence_family(256, 1)
        with pytest.raises(ValueError, match="noise std"):
            pf.synthesize_received(layout_single, pats, seqs,
                                   one_user(layout_single, [0.0], [1.0]), noise_std)
