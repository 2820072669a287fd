"""Dtype-policy conformance suite for the engine and rare-event kernels.

Every kernel of :mod:`repro.montecarlo.engine` and the hot paths of
:mod:`repro.montecarlo.rare_event` run under both dtype policies and are
pinned to scalar oracles coded here from first principles:

* float64 is held to *bit identity* against a frozen re-implementation of
  the original engine (same NumPy calls, same order, same stream);
* float32 shares the float64 stream (draws are cast after sampling), so
  it is held to dtype-scaled tolerances against the same oracles.

The stopped likelihood-ratio weight path gets its own oracle — it is the
easiest place to silently break (an off-by-one stop index or a dtype
promotion changes weights by factors of ``β``).  The last classes audit
the float32 window-count path for silent promotion to float64 and pin the
dtype helpers that prevent it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.growth.pitch import ExponentialPitch, GammaPitch
from repro.montecarlo.engine import (
    _banded_positions,
    count_in_windows,
    count_in_windows_flat,
    estimate_gap_count,
    match_dtype,
    prefix_sum,
    resolve_dtype,
    sample_gaps,
    sample_track_batch,
    window_stop_indices,
)
from repro.montecarlo.rare_event import (
    estimate_device_failure_tilted,
    sample_weighted_track_batch,
    window_stopped_log_weights,
)

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)


@pytest.fixture(params=["float64", "float32"])
def dtype(request):
    """Each dtype policy of the engine."""
    return np.dtype(request.param)


def tolerance_for(dtype) -> float:
    """Dtype-scaled relative tolerance for value comparisons.

    float64 is held to exact equality elsewhere; this tolerance covers
    float32 storage (~1e-7 rounding amplified through cumsums over a few
    hundred gaps).
    """
    return 5e-4 if dtype == F32 else 1e-14


def _original_sample_track_batch(pitch, span_nm, n_trials, rng):
    """The PR-1 engine's sampler, frozen verbatim as the bit-identity oracle."""
    start_offsets = rng.random(n_trials) * pitch.mean_nm
    n_gaps = estimate_gap_count(pitch, span_nm)
    gaps = pitch.sample_batch((n_trials, n_gaps), rng)
    positions = np.cumsum(gaps, axis=1)
    positions -= start_offsets[:, None]
    while np.any(positions[:, -1] <= span_nm):
        block = max(16, n_gaps // 4)
        extra = pitch.sample_batch((n_trials, block), rng)
        tail = positions[:, -1][:, None] + np.cumsum(extra, axis=1)
        positions = np.concatenate([positions, tail], axis=1)
    valid = (positions >= 0.0) & (positions <= span_nm)
    return positions, valid, start_offsets


def _brute_force_counts(positions, weights, lo, hi, trial_index):
    out = np.zeros(lo.size)
    for q in range(lo.size):
        row = positions[trial_index[q]]
        mask = (row >= lo[q]) & (row <= hi[q])
        out[q] = weights[trial_index[q]][mask].sum()
    return out


class TestSampleTrackBatch:
    def test_float64_bit_identical_to_original_engine(self):
        pitch = GammaPitch(5.0, 0.6)
        oracle_pos, oracle_valid, oracle_off = _original_sample_track_batch(
            pitch, 240.0, 128, np.random.default_rng(2010)
        )
        batch = sample_track_batch(
            pitch, 240.0, 128, np.random.default_rng(2010), dtype="float64",
        )
        np.testing.assert_array_equal(batch.positions, oracle_pos)
        np.testing.assert_array_equal(batch.valid, oracle_valid)
        np.testing.assert_array_equal(batch.start_offsets, oracle_off)

    def test_poisson_count_statistics(self, dtype):
        # Exponential gaps + uniform offset = Poisson counts over the span,
        # whatever the dtype.
        batch = sample_track_batch(
            ExponentialPitch(4.0), 400.0, 4_000, np.random.default_rng(42),
            dtype=dtype,
        )
        counts = batch.counts()
        assert counts.mean() == pytest.approx(100.0, rel=0.05)
        assert counts.var() == pytest.approx(100.0, rel=0.15)

    def test_positions_sorted_and_dtype_policy_respected(self, dtype):
        batch = sample_track_batch(
            GammaPitch(6.0, 0.8), 300.0, 64, np.random.default_rng(3),
            dtype=dtype,
        )
        positions = batch.positions
        assert positions.dtype == dtype
        assert np.all(np.diff(positions, axis=1) >= 0.0)
        in_span = positions[batch.valid]
        assert np.all((in_span >= 0.0) & (in_span <= 300.0))

    def test_float32_counts_match_float64_stream(self):
        # The float32 policy consumes the same draws as float64; integer
        # counts may differ only where a track sits within rounding
        # distance of a window edge (none, at these sizes).
        c32 = sample_track_batch(
            ExponentialPitch(4.0), 200.0, 2_000, np.random.default_rng(11),
            dtype="float32",
        ).counts()
        c64 = sample_track_batch(
            ExponentialPitch(4.0), 200.0, 2_000, np.random.default_rng(11),
            dtype="float64",
        ).counts()
        assert np.mean(c32 == c64) > 0.999

    @pytest.mark.parametrize("pitch", [ExponentialPitch(4.0), GammaPitch(5.0, 0.6)])
    def test_gap_draws_into_destination_match_generic_path(self, pitch, dtype):
        # The float64 ``out=`` fast path (the wafer tier's stacked draws)
        # must give the very values of the generic path, and the float32
        # policy must ignore ``out`` and return the cast draws.
        expected = pitch.sample_batch((6, 40), np.random.default_rng(8))
        out = np.empty((6, 40), dtype=dtype)
        drawn = sample_gaps(pitch, (6, 40), np.random.default_rng(8), dtype, out=out)
        assert drawn.dtype == dtype
        np.testing.assert_array_equal(drawn, expected.astype(dtype))
        assert (drawn is out) == (dtype == F64)


class TestWindowCounting:
    def test_counts_match_brute_force(self, dtype):
        batch = sample_track_batch(
            ExponentialPitch(6.0), 300.0, 48, np.random.default_rng(5),
            dtype=dtype,
        )
        positions = batch.positions
        weights = (
            (np.random.default_rng(6).random(positions.shape) < 0.7)
            & batch.valid
        )
        host_rng = np.random.default_rng(7)
        lo = host_rng.random(40) * 250.0
        hi = lo + host_rng.random(40) * 45.0
        trial_index = host_rng.integers(0, 48, size=40)
        counts = count_in_windows_flat(
            positions, weights.astype(dtype), 300.0, lo, hi, trial_index,
        )
        expected = _brute_force_counts(
            positions.astype(float), weights, lo, hi, trial_index
        )
        # Counts of 0/1 weights accumulate exactly in the float64
        # accumulator; float32 *positions* can flip a window decision only
        # within rounding distance of an edge (none for these draws).
        np.testing.assert_allclose(counts, expected, atol=1e-9)

    def test_grid_counts_match_flat(self, dtype):
        batch = sample_track_batch(
            GammaPitch(5.0, 0.5), 200.0, 16, np.random.default_rng(9),
            dtype=dtype,
        )
        weights = batch.valid.astype(dtype)
        lo = np.linspace(0.0, 150.0, 7)
        hi = lo + 40.0
        grid = count_in_windows(batch, weights, lo, hi)
        flat = count_in_windows_flat(
            batch.positions, weights, batch.span_nm,
            np.tile(lo, 16), np.tile(hi, 16), np.repeat(np.arange(16), 7),
        ).reshape(16, 7)
        np.testing.assert_array_equal(grid, flat)

    def test_stop_indices_match_scan(self, dtype):
        batch = sample_track_batch(
            ExponentialPitch(5.0), 150.0, 32, np.random.default_rng(13),
            dtype=dtype,
        )
        positions = batch.positions
        host_rng = np.random.default_rng(14)
        hi = host_rng.random(20) * 150.0
        trial_index = host_rng.integers(0, 32, size=20)
        got = window_stop_indices(positions, 150.0, hi, trial_index)
        expected = np.array([
            np.searchsorted(positions[trial_index[q]], hi[q], side="right")
            for q in range(20)
        ])
        np.testing.assert_array_equal(got, expected)


class TestStoppedLikelihoodRatios:
    """The stopped-LR weight path — the easiest place to silently break."""

    def _scalar_log_weights(self, positions, offsets, tilt, hi, trial_index):
        out = np.empty(hi.size)
        for q in range(hi.size):
            row = positions[trial_index[q]]
            stop = int(np.searchsorted(row, hi[q], side="right"))
            gap_sum = row[stop] + offsets[trial_index[q]]
            out[q] = (
                (stop + 1) * tilt.log_const_per_gap
                + gap_sum * tilt.log_slope_per_nm
            )
        return out

    def test_full_span_weights_match_scalar_oracle(self, dtype):
        tilt = GammaPitch(4.0, 0.7).exponential_tilt(2.0)
        batch, log_w = sample_weighted_track_batch(
            tilt, 120.0, 64, np.random.default_rng(17), dtype=dtype
        )
        positions = batch.positions.astype(float)
        offsets = batch.start_offsets.astype(float)
        expected = np.empty(64)
        for t in range(64):
            stop = int(np.sum(positions[t] <= 120.0))
            gap_sum = positions[t, stop] + offsets[t]
            expected[t] = (
                (stop + 1) * tilt.log_const_per_gap
                + gap_sum * tilt.log_slope_per_nm
            )
        np.testing.assert_allclose(
            log_w, expected, rtol=tolerance_for(dtype),
            atol=1e-6 if dtype == F32 else 1e-12,
        )

    def test_window_stopped_weights_match_scalar_oracle(self, dtype):
        tilt = ExponentialPitch(5.0).exponential_tilt(3.0)
        batch, _ = sample_weighted_track_batch(
            tilt, 200.0, 32, np.random.default_rng(19), dtype=dtype
        )
        host_rng = np.random.default_rng(20)
        hi = host_rng.random(25) * 200.0
        trial_index = host_rng.integers(0, 32, size=25)
        log_w = window_stopped_log_weights(batch, tilt, hi, trial_index)
        positions = batch.positions.astype(float)
        offsets = batch.start_offsets.astype(float)
        expected = self._scalar_log_weights(
            positions, offsets, tilt, hi, trial_index
        )
        np.testing.assert_allclose(
            log_w, expected, rtol=tolerance_for(dtype),
            atol=1e-6 if dtype == F32 else 1e-12,
        )

    def test_weights_are_unbiased_against_nominal_sampling(self, dtype):
        # E_tilted[w] = 1 for the stopped trajectory: the weighted trial
        # count must reproduce the unweighted one within tolerance.
        tilt = ExponentialPitch(4.0).exponential_tilt(2.5)
        _, log_w = sample_weighted_track_batch(
            tilt, 80.0, 20_000, np.random.default_rng(23), dtype=dtype
        )
        w = np.exp(log_w.astype(float))
        assert w.mean() == pytest.approx(1.0, abs=4.0 * w.std() / math.sqrt(w.size))


class TestTiltedEstimator:
    def test_float64_reference_value(self):
        est = estimate_device_failure_tilted(
            GammaPitch(4.0, 0.7), 0.55, 120.0, 2048,
            np.random.default_rng(20100618), dtype="float64",
        )
        # Exact value pinned by tests/fixtures/golden_engine_values.json;
        # here we only anchor the magnitude of the float64 reference that
        # the dtype-tolerance test below compares against.
        assert est.estimate == pytest.approx(1.900964811055155e-07, rel=1e-12)

    def test_matches_reference_within_dtype_tolerance(self, dtype):
        est = estimate_device_failure_tilted(
            GammaPitch(4.0, 0.7), 0.55, 120.0, 4096,
            np.random.default_rng(29), dtype=dtype,
        )
        reference = estimate_device_failure_tilted(
            GammaPitch(4.0, 0.7), 0.55, 120.0, 4096,
            np.random.default_rng(29), dtype="float64",
        )
        assert est.estimate == pytest.approx(
            reference.estimate, rel=max(tolerance_for(dtype), 1e-15)
        )

    def test_casting_helper_round_trip(self, dtype):
        host = match_dtype(np.arange(4, dtype=np.float64),
                           np.empty(1, dtype=dtype))
        assert host.dtype == dtype


class TestMatchDtype:
    def test_casts_down_to_float32(self):
        out = match_dtype(np.array([1.0, 2.0]), np.empty(1, dtype=np.float32))
        assert out.dtype == np.float32

    def test_no_copy_when_already_matching(self):
        values = np.array([1.0, 2.0], dtype=np.float32)
        assert match_dtype(values, np.empty(1, dtype=np.float32)) is values

    def test_casts_lists_and_scalars(self):
        out = match_dtype([1.0, 2.5], np.empty(1, dtype=np.float64))
        assert out.dtype == np.float64


class TestResolveDtype:
    def test_names_and_dtypes_accepted(self):
        assert resolve_dtype("f32") == F32
        assert resolve_dtype("Float64") == F64
        assert resolve_dtype(np.float32) == F32

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype policy"):
            resolve_dtype("float16")
        with pytest.raises(ValueError, match="unknown dtype"):
            resolve_dtype("bfloat16")

    def test_default_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        assert resolve_dtype() == F64
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        assert resolve_dtype() == F32
        assert resolve_dtype("float64") == F64  # explicit beats environment
        monkeypatch.setenv("REPRO_DTYPE", "int64")
        with pytest.raises(ValueError, match="dtype policy"):
            resolve_dtype()


class TestFloat32PipelineStaysFloat32:
    """Audit: no step of the float32 window-count path promotes to float64."""

    def test_banded_positions_keep_policy_dtype(self):
        batch = sample_track_batch(
            ExponentialPitch(4.0), 100.0, 16, np.random.default_rng(1),
            dtype="float32",
        )
        assert batch.positions.dtype == np.float32
        flat, offsets = _banded_positions(batch.positions, 100.0)
        assert flat.dtype == np.float32
        assert offsets.dtype == np.float32

    def test_float64_queries_are_cast_not_promoted(self):
        batch = sample_track_batch(
            ExponentialPitch(4.0), 100.0, 8, np.random.default_rng(2),
            dtype="float32",
        )
        # Deliberately float64 queries: the engine must cast them to the
        # positions dtype instead of letting NumPy upcast the haystack.
        lo = np.zeros(8, dtype=np.float64)
        hi = np.full(8, 100.0, dtype=np.float64)
        counts = count_in_windows_flat(
            batch.positions,
            batch.valid.astype(np.float32),
            100.0, lo, hi, np.arange(8),
        )
        np.testing.assert_array_equal(counts, batch.counts())
        # Accumulation stays in float64 under the float32 policy.
        assert counts.dtype == np.float64

    def test_prefix_sum_accumulates_in_float64(self, dtype):
        out = prefix_sum(np.ones(4, dtype=dtype))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_huge_batches_promote_band_to_float64(self):
        # Band offsets grow with the trial count; once the float32 ulp at
        # the top band could move a track across a window edge, the band
        # must be built in float64 even under the float32 policy.
        small = np.sort(
            np.random.default_rng(0).random((64, 4), dtype=np.float32) * 100.0,
            axis=1,
        )
        flat, offsets = _banded_positions(small, 100.0)
        assert flat.dtype == np.float32
        big = np.broadcast_to(small[:1], (200_000, 4))
        flat, offsets = _banded_positions(big, 100.0)
        assert flat.dtype == np.float64
        assert offsets.dtype == np.float64
