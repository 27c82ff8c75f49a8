import inspect

import numpy as np
import pytest

import pilotforge as pf
from pilotforge.ambiguity import SidelobeRegion, _sine_quotient, isl_matrix
from pilotforge.cli import _group_entry
from pilotforge.resolution import SrlResult, SrlSearch

from oracles import dirichlet_magnitude, isl_quadrature, isl_region_integral_cos, isl_scalar

FS = 120e3


class TestSidelobeRegion:
    def test_measure(self):
        reg = SidelobeRegion(100e-9, 400e-9)
        assert reg.measure_s == pytest.approx(600e-9)

    @pytest.mark.parametrize("a,b", [(0.0, 1e-9), (2e-9, 1e-9), (-1e-9, 1e-9),
                                     (1e-9, np.inf)])
    def test_invalid_bounds(self, a, b):
        with pytest.raises(ValueError):
            SidelobeRegion(a, b)


class TestAmbiguityFunction:
    def test_zero_mismatch_is_pilot_count(self, layout_single):
        rng = np.random.default_rng(0)
        w = np.zeros(256)
        w[rng.permutation(256)[:77]] = 1
        val = pf.ambiguity_function(layout_single, w, 0.0)
        assert val == pytest.approx(77)
        assert val.imag == 0.0

    def test_half_cycle_alias(self):
        lay = pf.BandLayout.single(4, FS, 0.0)
        w = np.array([1, 0, 1, 0])
        val = pf.ambiguity_function(lay, w, 1.0 / (2 * FS))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_uniform_block_matches_dirichlet(self, layout_single):
        w = np.zeros(256)
        w[:128] = 1
        sweep = np.linspace(1e-10, 400e-9, 500)
        got = np.abs(pf.ambiguity_function(layout_single, w, sweep))
        ref = dirichlet_magnitude(128, FS, sweep)
        np.testing.assert_allclose(got, ref, rtol=1e-8)

    def test_conjugate_symmetry_of_magnitude(self, layout_multi):
        rng = np.random.default_rng(1)
        w = np.zeros(layout_multi.n_total)
        w[rng.permutation(len(w))[:90]] = 1
        sweep = rng.uniform(0, 400e-9, 50)
        fwd = np.abs(pf.ambiguity_function(layout_multi, w, sweep))
        bwd = np.abs(pf.ambiguity_function(layout_multi, w, -sweep))
        np.testing.assert_allclose(fwd, bwd, rtol=1e-12)

    def test_takes_no_pilot_sequence(self):
        params = inspect.signature(pf.ambiguity_function).parameters
        assert not any("sequence" in p or p == "x" for p in params)
        for isl_step in (isl_matrix, pf.IslMatrix.isl):
            params = inspect.signature(isl_step).parameters
            assert not any("sequence" in p or p == "x" for p in params)


class TestIslMatrix:
    def test_first_column_head(self, layout_single):
        reg = SidelobeRegion(100e-9, 400e-9)
        mat = isl_matrix(layout_single, reg).matrix
        assert mat[0, 0] == pytest.approx(600e-9)
        np.testing.assert_allclose(np.diag(mat), 600e-9)

    def test_toeplitz_and_symmetric(self, layout_single):
        reg = SidelobeRegion(50e-9, 200e-9)
        mat = isl_matrix(layout_single, reg).matrix
        np.testing.assert_array_equal(mat, mat.T)
        for k in range(1, 5):
            np.testing.assert_allclose(np.diag(mat, k), mat[k, 0])

    def test_single_band_matches_scipy_toeplitz(self, layout_single):
        from scipy.linalg import toeplitz
        reg = SidelobeRegion(50e-9, 200e-9)
        col = _sine_quotient(np.arange(layout_single.n_total) * FS, reg)
        np.testing.assert_array_equal(isl_matrix(layout_single, reg).matrix, toeplitz(col))

    def test_entries_match_cosine_quadrature(self):
        lay = pf.BandLayout.single(32, FS, 0.0)
        reg = SidelobeRegion(50e-9, 200e-9)
        mat = isl_matrix(lay, reg).matrix
        for n in range(32):
            ref = isl_region_integral_cos(n * FS, reg.a_s, reg.b_s)
            assert mat[n, 0] == pytest.approx(ref, rel=1e-8)

    def test_multiband_blocks_match_single_band_values(self, layout_single):
        # the dense sine-quotient path must agree with the Toeplitz path on
        # identical frequency differences
        reg = SidelobeRegion(100e-9, 350e-9)
        toep = isl_matrix(layout_single, reg).matrix
        f = layout_single.pinned_frequencies_hz
        dense = _sine_quotient(f[:, None] - f[None, :], reg)
        np.testing.assert_array_equal(dense, toep)

    def test_multiband_diagonal_and_symmetry(self, layout_multi):
        reg = SidelobeRegion(100e-9, 400e-9)
        mat = isl_matrix(layout_multi, reg).matrix
        np.testing.assert_allclose(np.diag(mat), reg.measure_s)
        np.testing.assert_array_equal(mat, mat.T)

    def test_near_coincident_frequencies_use_limit(self):
        reg = SidelobeRegion(100e-9, 400e-9)
        assert _sine_quotient(np.array([0.0]), reg)[0] == reg.measure_s
        assert _sine_quotient(np.array([0.5e-3]), reg)[0] == reg.measure_s
        just_above = _sine_quotient(np.array([1.1e-3]), reg)[0]
        assert just_above == pytest.approx(reg.measure_s, rel=1e-6)


class TestIsl:
    def test_all_zero_pattern_rejected(self, layout_single, default_region):
        with pytest.raises(ValueError):
            isl_matrix(layout_single, default_region).isl(np.zeros(256))

    def test_closed_form_matches_quadrature_random_patterns(self):
        lay = pf.BandLayout.single(64, FS, 0.0)
        reg = SidelobeRegion(150e-9, 400e-9)
        mat = isl_matrix(lay, reg)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            w = np.zeros(64)
            w[rng.permutation(64)[:24]] = 1
            ref = isl_quadrature(lay.pinned_frequencies_hz, w, reg.a_s, reg.b_s)
            assert mat.isl(w) == pytest.approx(ref, rel=1e-6)

    def test_db_conversion(self, layout_single, default_region):
        # the ISL in dB that pattern artifacts and `pilotforge srl` report
        w = np.zeros(256)
        w[:128] = 1
        lin = isl_matrix(layout_single, default_region).isl(w)
        entry = _group_entry(w, lin, SrlResult(None, SrlSearch()))
        assert entry["isl_db"] == pytest.approx(10 * np.log10(lin))

    def test_time_unit_scaling_invariance(self):
        # expressing the grid in 10x coarser frequency and the region in 10x
        # smaller time units leaves the normalized ISL unchanged
        rng = np.random.default_rng(2)
        w = np.zeros(64)
        w[rng.permutation(64)[:20]] = 1
        v1 = isl_matrix(pf.BandLayout.single(64, FS, 0.0),
                        SidelobeRegion(150e-9, 400e-9)).isl(w)
        v2 = isl_matrix(pf.BandLayout.single(64, 10 * FS, 0.0),
                        SidelobeRegion(15e-9, 40e-9)).isl(w)
        assert v2 == pytest.approx(v1, rel=1e-12)

    def test_isl_many_matches_scalar(self, layout_single, default_region):
        mat = isl_matrix(layout_single, default_region)
        rng = np.random.default_rng(3)
        cols = np.zeros((5, 256))
        for i in range(5):
            cols[i, rng.permutation(256)[:128]] = 1
        batch = mat.isl_many(cols)
        for i in range(5):
            ref = isl_scalar(mat, cols[i])
            assert batch[i] == pytest.approx(ref, rel=1e-12)
            assert mat.isl(cols[i]) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_isl_many_matches_per_column_einsum(self, mode, layout_single, layout_multi,
                                                default_region):
        lay = layout_single if mode == "single" else layout_multi
        mat = isl_matrix(lay, default_region)
        rng = np.random.default_rng(8)
        for p in (1, 17, 127):
            cols = np.zeros((40, lay.n_total))
            for i in range(40):
                cols[i, rng.permutation(lay.n_total)[:p]] = 1
            ref = [np.einsum("n,nm,m->", c, mat.matrix, c)
                   / (default_region.measure_s * p * p) for c in cols]
            np.testing.assert_allclose(mat.isl_many(cols), ref, rtol=1e-12, atol=0)
        cols[3] = 0
        with pytest.raises(ValueError):
            mat.isl_many(cols)

    def test_calibrated_region_reproduces_uniform_vs_random_ordering(
            self, layout_single, default_region):
        mat = isl_matrix(layout_single, default_region)
        uni = pf.uniform_patterns(layout_single, 2, [128, 128])
        u_db = np.mean([10 * np.log10(mat.isl(uni.column(g))) for g in range(2)])
        r_db = []
        for seed in range(20):
            rnd = pf.random_patterns(layout_single, 2, [128, 128], seed=seed)
            r_db.append(np.mean([10 * np.log10(mat.isl(rnd.column(g)))
                                 for g in range(2)]))
        assert u_db < np.mean(r_db) - 2.0
