import numpy as np
import pytest

import pilotforge as pf
from pilotforge.waveform import largest_prime_leq

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
        assert [s.shift_index for s in fam] == [0, 64, 128, 192]
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

    def test_single_band_needs_one_subband(self):
        with pytest.raises(ValueError):
            pf.BandLayout(subbands=(pf.Subband(1e9, FS, 4), pf.Subband(2e9, FS, 4)),
                          mode="single")


class TestSteering:
    def test_zero_delay_is_all_ones(self, layout_single):
        np.testing.assert_allclose(pf.steering_vector(layout_single, 0.0), 1.0)

    def test_quarter_cycle_steps(self):
        lay = pf.BandLayout.single(4, FS, 0.0)
        tau = 1.0 / (4 * FS)
        expected = np.array([1, -1j, -1, 1j])
        np.testing.assert_allclose(pf.steering_vector(lay, tau), expected, atol=1e-12)

    def test_multiband_against_scalar_loop(self, layout_multi):
        tau = 100e-9
        got = pf.steering_vector(layout_multi, tau)
        ref = steering_scalar_loop(layout_multi.frequencies_hz, tau)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_multiband_distortions_against_scalar_loop(self, layout_multi):
        phi = np.array([0.0, 0.8])
        delta = np.array([0.4e-9, -0.7e-9])
        got = pf.steering_vector(layout_multi, 50e-9, distortions=(phi, delta))
        ref = steering_scalar_loop(
            layout_multi.frequencies_hz, 50e-9, layout_multi.band_index,
            layout_multi.local_index, [b.spacing_hz for b in layout_multi.subbands],
            phi, delta)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_distortions_require_multiband(self, layout_single):
        with pytest.raises(ValueError):
            pf.steering_vector(layout_single, 0.0,
                               distortions=(np.zeros(1), np.zeros(1)))

    def test_conjugate_symmetry_identity(self, layout_single):
        # a(t1)* o a(t2) = a(t2 - t1) elementwise in single-band mode
        t1, t2 = 120e-9, 310e-9
        lhs = np.conj(pf.steering_vector(layout_single, t1)) \
            * pf.steering_vector(layout_single, t2)
        np.testing.assert_allclose(lhs, pf.steering_vector(layout_single, t2 - t1),
                                   rtol=1e-10)

    def test_nonfinite_delay_rejected(self, layout_single):
        with pytest.raises(ValueError):
            pf.steering_vector(layout_single, np.inf)


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
        ch = pf.draw_channels(2, 2, 3, 400e-9, 0.1, seed=5)
        for u in ch.users():
            assert np.all(ch.delays_s[u] >= 0) and np.all(ch.delays_s[u] <= 400e-9)
        ch2 = pf.draw_channels(2, 2, 3, 400e-9, 0.1, seed=5)
        for u in ch.users():
            np.testing.assert_array_equal(ch.delays_s[u], ch2.delays_s[u])

    def test_min_separation_enforced(self):
        ch = pf.draw_channels(2, 2, 2, 400e-9, 0.0, seed=5, min_separation_s=60e-9)
        for u in ch.users():
            assert np.diff(ch.delays_s[u])[0] >= 60e-9

    def test_first_band_phase_must_be_pinned(self):
        with pytest.raises(ValueError, match="pinned"):
            pf.ChannelParams({(0, 0): np.array([1e-9])}, {(0, 0): np.array([1.0 + 0j])},
                             0.1, phase_offsets_rad=np.array([0.3, 0.0]),
                             timing_offsets_s=np.zeros(2))

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            pf.ChannelParams({(0, 0): np.array([-1e-9])},
                             {(0, 0): np.array([1.0 + 0j])}, 0.1)


class TestSynthesis:
    def test_identity_channel(self, layout_single):
        pats = pf.PatternSet(np.ones((256, 1), dtype=np.uint8))
        seqs = [pf.PilotSequence(np.ones(256, dtype=complex), 0, 0, 0.0)]
        ch = pf.ChannelParams({(0, 0): np.array([0.0])},
                              {(0, 0): np.array([1.0 + 0j])}, 0.0)
        y = pf.synthesize_received(layout_single, pats, seqs, ch, seed=None)
        np.testing.assert_allclose(y, 1.0, atol=1e-14)

    def test_two_path_scalar_loop(self, layout_single):
        pats = pf.PatternSet(np.ones((256, 1), dtype=np.uint8))
        seqs = [pf.PilotSequence(np.ones(256, dtype=complex), 0, 0, 0.0)]
        delays = np.array([80e-9, 230e-9])
        gains = np.array([1.1 - 0.2j, -0.4 + 0.9j])
        ch = pf.ChannelParams({(0, 0): delays}, {(0, 0): gains}, 0.0)
        y = pf.synthesize_received(layout_single, pats, seqs, ch, seed=None)
        n = np.arange(256)
        ref = sum(g * np.exp(-2j * np.pi * n * FS * t) for g, t in zip(gains, delays))
        np.testing.assert_allclose(y, ref, rtol=1e-12)

    def test_disjoint_masks_do_not_mix(self, layout_single):
        pats = pf.uniform_patterns(layout_single, 2, [128, 128])
        seqs = pf.orthogonal_sequence_family(256, 1)
        ch = pf.ChannelParams(
            {(0, 0): np.array([50e-9]), (1, 0): np.array([90e-9])},
            {(0, 0): np.array([1.0 + 0j]), (1, 0): np.array([2.0 + 0j])}, 0.0)
        y = pf.synthesize_received(layout_single, pats, [seqs[0]], ch, seed=None)
        sup1 = pats.column(0) != 0
        y_only_g0 = pf.synthesize_received(
            layout_single, pats, [seqs[0]],
            pf.ChannelParams({(0, 0): ch.delays_s[(0, 0)]},
                             {(0, 0): ch.gains[(0, 0)]}, 0.0), seed=None)
        np.testing.assert_allclose(y[sup1], y_only_g0[sup1], rtol=1e-12)

    def test_noise_seed_reproducible_and_scaled(self, layout_single):
        pats = pf.uniform_patterns(layout_single, 2, [128, 128])
        seqs = pf.orthogonal_sequence_family(256, 2)
        ch = pf.draw_channels(2, 2, 2, 400e-9, 0.5, seed=1)
        y1 = pf.synthesize_received(layout_single, pats, seqs, ch, seed=42)
        y2 = pf.synthesize_received(layout_single, pats, seqs, ch, seed=42)
        np.testing.assert_array_equal(y1, y2)
        y0 = pf.synthesize_received(layout_single, pats, seqs, ch, seed=None)
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
        ch = pf.ChannelParams({(0, 0): delays}, {(0, 0): gains}, 0.0)
        y = pf.synthesize_received(layout_single, pats, seqs, ch, seed=None)
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
        ch = pf.ChannelParams({(0, 0): np.array([0.0])},
                              {(0, 0): np.array([1.0 + 0j])}, 0.0)
        with pytest.raises(ValueError):
            pf.synthesize_received(layout_single, pats, seqs, ch)
