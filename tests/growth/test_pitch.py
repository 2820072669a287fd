"""Tests for inter-CNT pitch distributions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from repro.growth.pitch import (
    DeterministicPitch,
    ExponentialPitch,
    GammaPitch,
    TruncatedNormalPitch,
    pitch_distribution_from_cv,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _same_bits(a, b) -> bool:
    """Bitwise equality of two float arrays (NaN and signed zero included)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDeterministicPitch:
    def test_moments(self):
        pitch = DeterministicPitch(pitch_nm=4.0)
        assert pitch.mean_nm == 4.0
        assert pitch.std_nm == 0.0
        assert pitch.cv == 0.0

    def test_samples_are_constant(self, rng):
        pitch = DeterministicPitch(pitch_nm=4.0)
        samples = pitch.sample(100, rng)
        assert np.all(samples == 4.0)

    def test_sum_cdf_step(self):
        pitch = DeterministicPitch(pitch_nm=4.0)
        assert pitch.sum_cdf(3, 12.0) == 1.0
        assert pitch.sum_cdf(3, 11.9) == 0.0
        assert pitch.sum_cdf(0, 0.0) == 1.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            DeterministicPitch(pitch_nm=0.0)


class TestExponentialPitch:
    def test_moments(self):
        pitch = ExponentialPitch(mean_pitch_nm=4.0)
        assert pitch.mean_nm == 4.0
        assert pitch.std_nm == 4.0
        assert pitch.cv == pytest.approx(1.0)

    def test_density(self):
        pitch = ExponentialPitch(mean_pitch_nm=5.0)
        assert pitch.density_per_nm == pytest.approx(0.2)

    def test_sample_mean(self, rng):
        pitch = ExponentialPitch(mean_pitch_nm=4.0)
        samples = pitch.sample(50_000, rng)
        assert np.mean(samples) == pytest.approx(4.0, rel=0.03)

    def test_sum_cdf_matches_erlang(self):
        pitch = ExponentialPitch(mean_pitch_nm=4.0)
        # Sum of 1 exponential: CDF = 1 - exp(-w/4).
        assert pitch.sum_cdf(1, 4.0) == pytest.approx(1.0 - np.exp(-1.0))

    def test_sum_cdf_zero_terms(self):
        pitch = ExponentialPitch(mean_pitch_nm=4.0)
        assert pitch.sum_cdf(0, 10.0) == 1.0
        assert pitch.sum_cdf(5, 0.0) == 0.0

    def test_sum_cdf_monotone_in_n(self):
        pitch = ExponentialPitch(mean_pitch_nm=4.0)
        values = [pitch.sum_cdf(n, 40.0) for n in range(1, 30)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestGammaPitch:
    def test_moments(self):
        pitch = GammaPitch(mean_pitch_nm=4.0, cv_value=0.5)
        assert pitch.mean_nm == 4.0
        assert pitch.std_nm == pytest.approx(2.0)

    def test_shape_scale(self):
        pitch = GammaPitch(mean_pitch_nm=4.0, cv_value=0.5)
        assert pitch.shape == pytest.approx(4.0)
        assert pitch.scale_nm == pytest.approx(1.0)

    def test_sample_moments(self, rng):
        pitch = GammaPitch(mean_pitch_nm=4.0, cv_value=0.5)
        samples = pitch.sample(50_000, rng)
        assert np.mean(samples) == pytest.approx(4.0, rel=0.03)
        assert np.std(samples) == pytest.approx(2.0, rel=0.05)

    def test_sum_cdf_additive_shape(self):
        # Sum of n gammas with shape k equals a gamma with shape n*k: the CDF
        # at the mean of the sum should be close to (but below) ~0.5-0.6.
        pitch = GammaPitch(mean_pitch_nm=4.0, cv_value=0.5)
        value = pitch.sum_cdf(10, 40.0)
        assert 0.4 < value < 0.65

    def test_low_cv_approaches_deterministic(self):
        pitch = GammaPitch(mean_pitch_nm=4.0, cv_value=0.01)
        assert pitch.sum_cdf(10, 41.0) > 0.99
        assert pitch.sum_cdf(10, 39.0) < 0.01


class TestTruncatedNormalPitch:
    def test_mean_shifted_by_truncation(self):
        pitch = TruncatedNormalPitch(nominal_mean_nm=4.0, nominal_std_nm=2.0)
        # Truncation at zero pushes the mean slightly above the nominal mean.
        assert pitch.mean_nm > 4.0
        assert pitch.mean_nm < 5.0

    def test_samples_positive(self, rng):
        pitch = TruncatedNormalPitch(nominal_mean_nm=4.0, nominal_std_nm=3.0)
        samples = pitch.sample(10_000, rng)
        assert np.all(samples > 0)

    def test_single_sum_cdf_is_exact_cdf(self):
        pitch = TruncatedNormalPitch(nominal_mean_nm=4.0, nominal_std_nm=1.0)
        assert pitch.sum_cdf(1, 4.0) == pytest.approx(0.5, abs=0.02)

    def test_multi_sum_cdf_midpoint(self):
        pitch = TruncatedNormalPitch(nominal_mean_nm=4.0, nominal_std_nm=1.0)
        mid = pitch.sum_cdf(25, 25 * pitch.mean_nm)
        assert mid == pytest.approx(0.5, abs=0.05)


class TestFactory:
    def test_zero_cv_gives_deterministic(self):
        assert isinstance(pitch_distribution_from_cv(4.0, 0.0), DeterministicPitch)

    def test_unit_cv_gives_exponential(self):
        assert isinstance(pitch_distribution_from_cv(4.0, 1.0), ExponentialPitch)

    def test_other_cv_gives_gamma(self):
        dist = pitch_distribution_from_cv(4.0, 0.4)
        assert isinstance(dist, GammaPitch)
        assert dist.cv == pytest.approx(0.4)

    def test_negative_cv_rejected(self):
        with pytest.raises(ValueError):
            pitch_distribution_from_cv(4.0, -0.1)

    def test_non_positive_mean_rejected(self):
        with pytest.raises(ValueError):
            pitch_distribution_from_cv(0.0, 1.0)


class TestSumCdfArray:
    """The vectorised sum_cdf_array must agree with the scalar sum_cdf."""

    @pytest.mark.parametrize("pitch", [
        DeterministicPitch(5.0),
        ExponentialPitch(4.0),
        GammaPitch(4.0, 0.5),
        GammaPitch(4.0, 1.7),
        TruncatedNormalPitch(4.0, 2.0),
    ])
    @pytest.mark.parametrize("w_nm", [-1.0, 0.0, 3.0, 40.0])
    def test_matches_scalar_elementwise(self, pitch, w_nm):
        n_values = np.arange(0, 12)
        vectorised = pitch.sum_cdf_array(n_values, w_nm)
        scalar = np.array([pitch.sum_cdf(int(n), w_nm) for n in n_values])
        np.testing.assert_allclose(vectorised, scalar, rtol=1e-12, atol=1e-15)

    def test_batch_sampling_matches_flat_stream(self):
        pitch = GammaPitch(4.0, 0.5)
        flat = pitch.sample(12, np.random.default_rng(3))
        batched = pitch.sample_batch((3, 4), np.random.default_rng(3))
        np.testing.assert_array_equal(batched.ravel(), flat)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            ExponentialPitch(4.0).sum_cdf_array(np.array([1, -1]), 10.0)

    @pytest.mark.parametrize("pitch", [
        DeterministicPitch(5.0),
        ExponentialPitch(4.0),
        GammaPitch(4.0, 0.8),
        TruncatedNormalPitch(4.0, 2.0),
    ])
    @pytest.mark.parametrize("w_nm", [-3.0, -1e-300, 0.0])
    def test_non_positive_width_conventions(self, pitch, w_nm):
        # gammainc is NaN at negative arguments; the guard keeps the
        # empty-sum value at n = 0 and 0 for every positive count.
        values = pitch.sum_cdf_array(np.arange(0, 8), w_nm)
        assert values[0] == (1.0 if w_nm >= 0 else 0.0)
        assert np.all(values[1:] == 0.0)
        assert pitch.sum_cdf(0, w_nm) == values[0]
        assert pitch.sum_cdf(3, w_nm) == 0.0

    @pytest.mark.parametrize("pitch", [
        DeterministicPitch(5.0),
        ExponentialPitch(4.0),
        GammaPitch(4.0, 0.8),
        TruncatedNormalPitch(4.0, 2.0),
    ])
    def test_width_column_grid_rows_equal_per_width_calls(self, pitch):
        widths = np.array([-1.0, 0.0, 0.7, 3.0, 40.0, 250.0])
        n_values = np.arange(0, 40)
        grid = pitch.sum_cdf_array(n_values, widths[:, None])
        assert grid.shape == (widths.size, n_values.size)
        for w, row in zip(widths, grid):
            assert _same_bits(row, pitch.sum_cdf_array(n_values, w))


class TestSpecialFunctionCdfs:
    """The pitch CDFs call ``scipy.special`` where they used ``scipy.stats``.

    ``stats.gamma.cdf(w, a, scale=θ)`` evaluates ``special.gammainc(a,
    w/θ)`` and ``stats.norm.cdf(w, loc, scale)`` evaluates
    ``special.ndtr((w - loc)/scale)``; these pin that the replacement is
    bitwise, both for the raw functions and for ``sum_cdf_array`` against
    the ``stats`` formulas it used to evaluate.
    """

    counts = st.integers(min_value=1, max_value=3000)
    shapes = st.floats(min_value=0.01, max_value=100.0)
    widths = st.floats(min_value=1e-6, max_value=1e4)
    scales = st.floats(min_value=1e-3, max_value=100.0)

    @settings(max_examples=300, deadline=None)
    @given(n=counts, shape=shapes, w=widths, scale=scales)
    def test_gammainc_is_gamma_cdf(self, n, shape, w, scale):
        a = n * shape
        assert _same_bits(special.gammainc(a, w / scale),
                          stats.gamma.cdf(w, a=a, scale=scale))

    @settings(max_examples=300, deadline=None)
    @given(n=counts, w=widths, mean=scales, std=scales)
    def test_ndtr_is_norm_cdf(self, n, w, mean, std):
        loc, scale = n * mean, np.sqrt(n) * std
        assert _same_bits(special.ndtr((w - loc) / scale),
                          stats.norm.cdf(w, loc=loc, scale=scale))

    @settings(max_examples=100, deadline=None)
    @given(mean=st.floats(min_value=0.5, max_value=20.0),
           cv=st.floats(min_value=0.05, max_value=5.0), w=widths)
    def test_gamma_grid_matches_stats_formula(self, mean, cv, w):
        pitch = GammaPitch(mean, cv)
        n = np.arange(0, 64)
        with np.errstate(invalid="ignore"):
            cdf = stats.gamma.cdf(w, a=n * pitch.shape, scale=pitch.scale_nm)
        assert _same_bits(pitch.sum_cdf_array(n, w), np.where(n == 0, 1.0, cdf))

    @settings(max_examples=100, deadline=None)
    @given(mean=st.floats(min_value=0.5, max_value=20.0), w=widths)
    def test_exponential_grid_matches_stats_formula(self, mean, w):
        pitch = ExponentialPitch(mean)
        n = np.arange(0, 64)
        with np.errstate(invalid="ignore"):
            cdf = stats.gamma.cdf(w, a=n, scale=mean)
        assert _same_bits(pitch.sum_cdf_array(n, w), np.where(n == 0, 1.0, cdf))

    @settings(max_examples=50, deadline=None)
    @given(mean=st.floats(min_value=0.5, max_value=20.0),
           cv=st.floats(min_value=0.05, max_value=1.0), w=widths)
    def test_truncated_normal_grid_matches_stats_formula(self, mean, cv, w):
        pitch = TruncatedNormalPitch(mean, cv * mean)
        n = np.arange(0, 64)
        safe_n = np.maximum(n, 1)
        clt = stats.norm.cdf(
            w, loc=safe_n * pitch.mean_nm, scale=np.sqrt(safe_n) * pitch.std_nm
        )
        expected = np.where(n == 1, pitch._dist.cdf(w), clt)
        assert _same_bits(pitch.sum_cdf_array(n, w), np.where(n == 0, 1.0, expected))
