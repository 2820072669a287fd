"""Tests for the CNT count models Prob{N(W)}."""

import math

import numpy as np
import pytest

from repro.core.count_model import (
    EmpiricalCountModel,
    PoissonCountModel,
    RenewalCountModel,
    count_model_from_cv,
    count_model_from_pitch,
)
from repro.core.failure import CNFETFailureModel
from repro.device.shorts import joint_failure_probabilities, joint_failure_probability
from repro.growth.pitch import (
    DeterministicPitch,
    ExponentialPitch,
    GammaPitch,
    TruncatedNormalPitch,
)


class TestPoissonCountModel:
    def test_mean_count(self):
        model = PoissonCountModel(mean_pitch_nm=4.0)
        assert model.mean_count(160.0) == pytest.approx(40.0)

    def test_pmf_sums_to_one(self):
        model = PoissonCountModel(4.0)
        assert model.pmf(80.0).sum() == pytest.approx(1.0, abs=1e-9)

    def test_pgf_closed_form(self):
        model = PoissonCountModel(4.0)
        lam = 160.0 / 4.0
        assert model.pgf(160.0, 0.5) == pytest.approx(math.exp(-lam * 0.5))

    def test_pgf_bounds(self):
        model = PoissonCountModel(4.0)
        with pytest.raises(ValueError):
            model.pgf(100.0, 1.5)

    def test_prob_zero(self):
        model = PoissonCountModel(4.0)
        assert model.prob_zero(8.0) == pytest.approx(math.exp(-2.0))

    def test_sampling_matches_mean(self):
        model = PoissonCountModel(4.0)
        rng = np.random.default_rng(0)
        counts = model.sample(160.0, 20_000, rng)
        assert counts.mean() == pytest.approx(40.0, rel=0.02)

    def test_std_count(self):
        model = PoissonCountModel(4.0)
        assert model.std_count(160.0) == pytest.approx(math.sqrt(40.0), rel=0.01)


class TestRenewalCountModel:
    def test_exponential_pitch_matches_poisson(self):
        renewal = RenewalCountModel(ExponentialPitch(4.0))
        poisson = PoissonCountModel(4.0)
        for width in (20.0, 80.0, 160.0):
            assert renewal.pgf(width, 0.533) == pytest.approx(
                poisson.pgf(width, 0.533), rel=0.02
            )

    def test_deterministic_pitch_pmf_is_degenerate(self):
        model = RenewalCountModel(DeterministicPitch(10.0))
        pmf = model.pmf(95.0)
        # Exactly 9 gaps fit below 95 nm, so the count is 9 with certainty.
        assert pmf[9] == pytest.approx(1.0, abs=1e-9)

    def test_gamma_pitch_lower_variance_than_poisson(self):
        regular = RenewalCountModel(GammaPitch(4.0, 0.3))
        poisson = PoissonCountModel(4.0)
        assert regular.std_count(160.0) < poisson.std_count(160.0)

    def test_pmf_sums_to_one(self):
        model = RenewalCountModel(GammaPitch(4.0, 0.5))
        assert model.pmf(120.0).sum() == pytest.approx(1.0, abs=1e-9)

    def test_mean_count(self):
        model = RenewalCountModel(GammaPitch(4.0, 0.5))
        assert model.mean_count(120.0) == pytest.approx(30.0)

    def test_pmf_cache_consistency(self):
        model = RenewalCountModel(GammaPitch(4.0, 0.5))
        first = model.pmf(100.0)
        second = model.pmf(100.0)
        assert np.array_equal(first, second)

    def test_sampling_respects_pmf(self):
        model = RenewalCountModel(GammaPitch(4.0, 0.5))
        rng = np.random.default_rng(1)
        counts = model.sample(100.0, 20_000, rng)
        assert counts.mean() == pytest.approx(model.mean_count(100.0), rel=0.05)


def _same_bits(a, b) -> bool:
    """Bitwise equality of two float arrays or scalars."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _walk_pmf(pitch, width_nm, tail_tolerance=1e-12):
    """Reference renewal pmf: walk n one count at a time until the tail stop.

    ``P{N = n} = F_n(W) - F_{n+1}(W)`` up to the first ``n`` at or beyond
    the ``mean + 12σ + 30`` guess whose survival is below the tolerance;
    past ``4·guess + 1000`` the remaining mass goes to the last bin.
    """
    mean = width_nm / pitch.mean_nm
    guess = int(mean + 12.0 * math.sqrt(max(mean, 1.0)) * max(pitch.cv, 0.1) + 30)
    survival_prev, probs, n = 1.0, [], 0
    while True:
        survival_next = pitch.sum_cdf(n + 1, width_nm)
        probs.append(max(survival_prev - survival_next, 0.0))
        survival_prev = survival_next
        n += 1
        if survival_next < tail_tolerance and n >= guess:
            break
        if n > guess * 4 + 1000:
            probs[-1] += survival_next
            break
    pmf = np.asarray(probs, dtype=float)
    return pmf / pmf.sum()


FAMILIES = [
    ExponentialPitch(4.0),
    GammaPitch(4.0, 0.8),
    TruncatedNormalPitch(4.0, 2.0),
    DeterministicPitch(3.7),
]
COLUMN = np.array([0.6, 4.0, 37.5, 100.0, 137.41, 333.3, 800.0])


class TestColumnFill:
    """``tabulate`` fills a width column from one CDF grid, bit for bit."""

    @pytest.mark.parametrize("pitch", FAMILIES, ids=lambda p: type(p).__name__)
    def test_column_filled_equals_cold_per_width(self, pitch):
        filled = RenewalCountModel(pitch)
        filled.tabulate(COLUMN)
        for w in COLUMN:
            assert _same_bits(filled.pmf(w), RenewalCountModel(pitch).pmf(w))
            assert _same_bits(filled.pgf(w, 0.41), RenewalCountModel(pitch).pgf(w, 0.41))
            for n_min in (1, 3):
                assert _same_bits(
                    joint_failure_probability(filled, w, 0.533, 0.003, n_min),
                    joint_failure_probability(
                        RenewalCountModel(pitch), w, 0.533, 0.003, n_min
                    ),
                )

    @pytest.mark.parametrize("pitch", FAMILIES, ids=lambda p: type(p).__name__)
    def test_column_fill_equals_the_per_count_walk(self, pitch):
        filled = RenewalCountModel(pitch)
        filled.tabulate(COLUMN)
        for w in COLUMN:
            assert _same_bits(filled.pmf(w), _walk_pmf(pitch, w))

    @pytest.mark.parametrize("width", [1.0, 100.0, 400.0])
    def test_heavy_tail_beyond_the_grid_equals_cold(self, width):
        # cv = 6 at a 1e-300 tail tolerance runs past the column grid (and
        # at 400 nm to the safety stop) in the other widths' rows.
        pitch = GammaPitch(4.0, 6.0)
        filled = RenewalCountModel(pitch, tail_tolerance=1e-300)
        filled.tabulate([width, 2.0, 50.0])
        cold = RenewalCountModel(pitch, tail_tolerance=1e-300).pmf(width)
        assert _same_bits(filled.pmf(width), cold)
        assert _same_bits(cold, _walk_pmf(pitch, width, tail_tolerance=1e-300))
        assert cold.sum() == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_and_cached_widths_are_skipped(self):
        model = RenewalCountModel(GammaPitch(4.0, 0.8))
        first = model.pmf(100.0)
        model.tabulate([100.0, 100.0 + 1e-12, 60.0, 60.0])
        assert model.pmf(100.0) is first
        assert _same_bits(model.pmf(60.0), RenewalCountModel(GammaPitch(4.0, 0.8)).pmf(60.0))

    def test_rejects_non_positive_widths(self):
        with pytest.raises(ValueError, match="strictly positive"):
            RenewalCountModel(GammaPitch(4.0, 0.8)).tabulate([10.0, 0.0])

    def test_non_renewal_models_ignore_tabulate(self):
        model = PoissonCountModel(4.0)
        model.tabulate(COLUMN)
        assert model.pgf(100.0, 0.5) == math.exp(-25.0 * 0.5)

    @pytest.mark.parametrize("short_probability", [0.0, 0.003])
    def test_failure_columns_evaluate_one_cdf_grid(self, monkeypatch, short_probability):
        grids = []
        original = GammaPitch.sum_cdf_array

        def counting(self, n_values, w_nm):
            grids.append(np.shape(w_nm))
            return original(self, n_values, w_nm)

        monkeypatch.setattr(GammaPitch, "sum_cdf_array", counting)
        model = CNFETFailureModel(
            RenewalCountModel(GammaPitch(4.0, 0.8)), 0.533,
            short_probability=short_probability,
        )
        values = model.log_failure_probabilities(COLUMN)
        assert grids == [(COLUMN.size, 1)]
        cold = [
            CNFETFailureModel(
                RenewalCountModel(GammaPitch(4.0, 0.8)), 0.533,
                short_probability=short_probability,
            ).failure_probability(w)
            for w in COLUMN
        ]
        np.testing.assert_allclose(values, np.log(cold), rtol=1e-15)

    def test_joint_columns_equal_per_width_values(self):
        pitch = GammaPitch(4.0, 0.8)
        column = joint_failure_probabilities(
            RenewalCountModel(pitch), COLUMN, 0.533, 0.003
        )
        per_width = [
            joint_failure_probability(RenewalCountModel(pitch), w, 0.533, 0.003)
            for w in COLUMN
        ]
        assert _same_bits(column, per_width)


class TestEmpiricalCountModel:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        reference = PoissonCountModel(4.0)
        samples = reference.sample(80.0, 50_000, rng)
        empirical = EmpiricalCountModel()
        empirical.add_samples(80.0, samples)
        assert empirical.mean_count(80.0) == pytest.approx(20.0, rel=0.03)
        assert empirical.pgf(80.0, 0.5) == pytest.approx(
            reference.pgf(80.0, 0.5), rel=0.05
        )

    def test_unknown_width_raises(self):
        empirical = EmpiricalCountModel()
        with pytest.raises(KeyError):
            empirical.pmf(80.0)

    def test_add_merges_samples(self):
        empirical = EmpiricalCountModel()
        empirical.add_samples(40.0, np.array([1, 2, 3]))
        empirical.add_samples(40.0, np.array([4, 5]))
        assert empirical.mean_count(40.0) == pytest.approx(3.0)

    def test_rejects_negative_counts(self):
        empirical = EmpiricalCountModel()
        with pytest.raises(ValueError):
            empirical.add_samples(40.0, np.array([-1, 2]))

    def test_widths_listing(self):
        empirical = EmpiricalCountModel()
        empirical.add_samples(40.0, np.array([1]))
        empirical.add_samples(80.0, np.array([2]))
        assert empirical.widths_nm == [40.0, 80.0]


class TestFactories:
    def test_exponential_maps_to_poisson(self):
        assert isinstance(count_model_from_pitch(ExponentialPitch(4.0)), PoissonCountModel)

    def test_gamma_maps_to_renewal(self):
        assert isinstance(count_model_from_pitch(GammaPitch(4.0, 0.5)), RenewalCountModel)

    def test_from_cv(self):
        assert isinstance(count_model_from_cv(4.0, 1.0), PoissonCountModel)
        assert isinstance(count_model_from_cv(4.0, 0.5), RenewalCountModel)
